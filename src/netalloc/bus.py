"""Simulated signalling between cells and the central agent.

The central agent is a pure relay with a stop test: each iteration it gathers
one report per cell, rebroadcasts to every cell the reports of all the other
cells, and checks whether the power iterates have settled.  It never touches
the optimization variables.  The bus tracks message and byte totals so runs
can report their coordination overhead; every scalar costs eight bytes on the
wire and each gather or broadcast is one message, giving 2M messages per
exchange for M cells.
"""

from __future__ import annotations

from dataclasses import dataclass

BYTES_PER_SCALAR = 8


@dataclass(frozen=True)
class ExchangeRecord:
    """Accounting for one gather-plus-broadcast exchange."""

    messages: int
    gather_bytes: tuple[int, ...]
    broadcast_bytes: tuple[int, ...]

    @property
    def total_bytes(self) -> int:
        return sum(self.gather_bytes) + sum(self.broadcast_bytes)


@dataclass(frozen=True)
class IterationRecord:
    """One power-control iteration as seen from the outside.

    `messages` and `bytes` are cumulative over the owning bus, so traces that
    share a bus across phases continue the running totals.  `min_rates` are
    the per-cell worst user rates at this iterate.
    """

    iteration: int
    wsmr: float
    delta_p_norm: float
    min_rates: tuple[float, ...]
    messages: int
    bytes: int
    elapsed_s: float


class MessageBus:
    """Counts the traffic of gather/broadcast exchanges.

    `scalars_per_cell[m]` is how many scalars cell m reports; the broadcast
    to cell m carries every other cell's report.
    """

    def __init__(self) -> None:
        self.messages_total = 0
        self.bytes_total = 0

    def exchange(self, scalars_per_cell: list[int]) -> ExchangeRecord:
        num_cells = len(scalars_per_cell)
        if num_cells == 0:
            raise ValueError("exchange needs at least one cell report")
        for m, count in enumerate(scalars_per_cell):
            if count is None or count < 0:
                raise ValueError(f"cell {m}: bad report size {count!r}")
        gather = tuple(BYTES_PER_SCALAR * c for c in scalars_per_cell)
        total = sum(gather)
        broadcast = tuple(total - g for g in gather)
        record = ExchangeRecord(messages=2 * num_cells, gather_bytes=gather,
                                broadcast_bytes=broadcast)
        self.messages_total += record.messages
        self.bytes_total += record.total_bytes
        return record
