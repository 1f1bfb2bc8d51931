"""The central agent: simulated signalling between cells, and its loop.

The central agent is a pure relay with a stop test: each iteration it gathers
one report per cell, rebroadcasts to every cell the reports of all the other
cells, and checks whether the power iterates have settled.  It never touches
the optimization variables.  `relay` is that loop, shared by both power
methods; it owns the exchange, the stop rule, the trace rows and the
iteration and rows attached to a `PhaseError`.  The bus tracks message and
byte totals so runs can report their coordination overhead; every scalar
costs eight bytes on the wire and each gather or broadcast is one message,
giving 2M messages per exchange for M cells.  The bus also carries the round
a run is in and the run's clock origin, so `relay` stamps each trace row
once, with its final round and elapsed time; a phase on a bus of its own is
round 0, timed from the bus's creation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

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

    `round`, `messages`, `bytes` and `elapsed_s` come from the owning bus:
    its current round, its cumulative totals (so traces that share a bus
    across phases continue the running totals) and the time since its clock
    origin.  `min_rates` are the per-cell worst user rates at this iterate.
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


def _exchange_record(scalars_per_cell: tuple) -> ExchangeRecord:
    num_cells = len(scalars_per_cell)
    if num_cells == 0:
        raise ValueError("exchange needs at least one cell report")
    for m, count in enumerate(scalars_per_cell):
        if count is None or count < 0:
            raise ValueError(f"cell {m}: bad report size {count!r}")
    gather = tuple(BYTES_PER_SCALAR * c for c in scalars_per_cell)
    total = sum(gather)
    broadcast = tuple(total - g for g in gather)
    return ExchangeRecord(messages=2 * num_cells, gather_bytes=gather,
                          broadcast_bytes=broadcast)


class MessageBus:
    """Counts the traffic of gather/broadcast exchanges.

    `scalars_per_cell[m]` is how many scalars cell m reports; the broadcast
    to cell m carries every other cell's report.  A list of report sizes is
    validated and priced once, keyed by its values.  `round` is the run
    round the bus's traffic belongs to (a run sets it; 0 otherwise) and
    `started` the `perf_counter` origin of its trace rows' `elapsed_s`.
    """

    def __init__(self) -> None:
        self.messages_total = 0
        self.bytes_total = 0
        self.round = 0
        self.started = time.perf_counter()
        self._records: dict[tuple, ExchangeRecord] = {}

    def exchange(self, scalars_per_cell: list[int]) -> ExchangeRecord:
        key = tuple(scalars_per_cell)
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = _exchange_record(key)
        self.messages_total += record.messages
        self.bytes_total += record.total_bytes
        return record


class SweepReport(NamedTuple):
    """What `relay` reads of a sweep: the objective `value` at the reported
    power and the per-cell worst user rates."""

    value: float
    min_rates: tuple[float, ...]

    @classmethod
    def from_sums(cls, sums: np.ndarray, real: np.ndarray,
                  weights: np.ndarray) -> "SweepReport":
        """The report of padded (cell, max_users) user-rate `sums`, with
        `real` marking the user slots that exist and one weight per cell:
        the weighted sum of the per-cell minima over real slots, with the
        arithmetic of `rate_model.wsmr`."""
        mins = np.minimum.reduce(sums, axis=1, where=real, initial=np.inf)
        return cls(float(np.dot(weights, mins)), tuple(mins.tolist()))


def relay(sweep, power: np.ndarray, report_sizes: list[int], *, psi: float,
          max_iters: int, bus: MessageBus | None = None):
    """Iterate a power method until the stacked power iterates settle.

    Each iteration exchanges `report_sizes` through the bus, then calls
    `sweep(iteration, power)`, which advances every cell from the previous
    raw iterate and returns (next raw iterate, report of the power the cells
    report: a `SweepReport`, or any object with the objective `value` and
    the per-cell `min_rates`).  One `TraceRow` is appended per iteration,
    with phase "power" and the bus's round and clock.  The loop stops once
    the raw iterate moves less than `psi` in Euclidean norm, or after
    `max_iters` iterations.  A PhaseError from the sweep leaves with its iteration and
    the rows before it.  Returns (last raw iterate, trace, converged).
    """
    if not (psi > 0.0 and np.isfinite(psi)):
        raise ValueError(f"psi must be finite and positive, got {psi!r}")
    if type(max_iters) is not int or max_iters < 1:
        raise ValueError(f"max_iters must be a positive integer, got {max_iters!r}")
    if bus is None:
        bus = MessageBus()
    trace: list[TraceRow] = []
    for iteration in range(1, max_iters + 1):
        bus.exchange(report_sizes)
        try:
            power_now, reported = sweep(iteration, power)
        except PhaseError as exc:
            exc.iteration = iteration
            exc.trace = trace
            raise
        # np.linalg.norm's own arithmetic for a whole array.
        moved = (power_now - power).ravel()
        delta = math.sqrt(moved.dot(moved))
        trace.append(TraceRow(
            round=bus.round, phase="power", iteration=iteration, wsmr=reported.value,
            delta_p_norm=delta, min_rates=reported.min_rates,
            messages=bus.messages_total, bytes=bus.bytes_total,
            elapsed_s=time.perf_counter() - bus.started))
        power = power_now
        if delta < psi:
            return power, trace, True
    return power, trace, False
