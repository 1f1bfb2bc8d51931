"""The central agent: simulated signalling between cells, and its loop.

The central agent is a pure relay with a stop test: each iteration it gathers
one report per cell, rebroadcasts to every cell the reports of all the other
cells, and checks whether the power iterates have settled.  It never touches
the optimization variables.  `relay` is that loop, shared by both power
methods; it owns the exchange, the stop rule, the trace rows and the
iteration and rows attached to a `PhaseError`.  The bus tracks message and
byte totals so runs can report their coordination overhead; every scalar
costs eight bytes on the wire and each gather or broadcast is one message,
giving 2M messages per exchange for M cells.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

BYTES_PER_SCALAR = 8


class PhaseError(RuntimeError):
    """A power phase failed.

    `relay` fills in the iteration the sweep failed in and the trace rows of
    the iterations before it.
    """

    def __init__(self, detail: str, iteration: int | None = None,
                 trace: list | None = None):
        self.detail = detail
        self.iteration = iteration
        self.trace = trace or []
        super().__init__(detail)


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
class TraceRow:
    """One trace line: a power iteration or a subcarrier reassignment.

    `messages` and `bytes` are cumulative over the owning bus, so traces that
    share a bus across phases continue the running totals.  `min_rates` are
    the per-cell worst user rates at this iterate.
    """

    round: int
    phase: str
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


def relay(sweep, power: np.ndarray, report_sizes: list[int], *, psi: float,
          max_iters: int, bus: MessageBus | None = None):
    """Iterate a power method until the stacked power iterates settle.

    Each iteration exchanges `report_sizes` through the bus, then calls
    `sweep(iteration, power)`, which advances every cell from the previous
    raw iterate and returns (next raw iterate, WsmrResult of the power the
    cells report).  One `TraceRow` is appended per iteration, with round 0
    and phase "power".  The loop stops once the raw iterate moves less than
    `psi` in Euclidean norm, or after `max_iters` iterations.  A PhaseError
    from the sweep leaves with its iteration and the rows before it.
    Returns (last raw iterate, trace, converged).
    """
    if not (psi > 0.0 and np.isfinite(psi)):
        raise ValueError(f"psi must be finite and positive, got {psi!r}")
    if not isinstance(max_iters, int) or max_iters < 1:
        raise ValueError(f"max_iters must be a positive integer, got {max_iters!r}")
    if bus is None:
        bus = MessageBus()
    trace: list[TraceRow] = []
    started = time.perf_counter()
    for iteration in range(1, max_iters + 1):
        bus.exchange(report_sizes)
        try:
            power_now, reported = sweep(iteration, power)
        except PhaseError as exc:
            exc.iteration = iteration
            exc.trace = trace
            raise
        delta = float(np.linalg.norm(power_now - power))
        trace.append(TraceRow(
            round=0, phase="power", iteration=iteration, wsmr=reported.value,
            delta_p_norm=delta, min_rates=reported.min_rates,
            messages=bus.messages_total, bytes=bus.bytes_total,
            elapsed_s=time.perf_counter() - started))
        power = power_now
        if delta < psi:
            return power, trace, True
    return power, trace, False
