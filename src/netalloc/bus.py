"""The central agent: simulated signalling between cells, and its loop.

The central agent is a pure relay with a stop test: each iteration it gathers
one report per cell, rebroadcasts to every cell the reports of all the other
cells, and checks whether the power iterates have settled.  It never touches
the optimization variables.  `relay` is that loop, shared by both power
methods; it owns the exchange, the stop rule, the trace rows and the
iteration and rows attached to a `PhaseError`.  `check_stop_rule` is the
one check of the stop rule's psi and iteration cap, which `relay` and
`coordinator.RunConfig.validated()` both call.  A sweep reports what
`relay` reads, the objective and the per-cell worst rates, as a
`rate_model.WsmrResult`.  The bus tracks message and byte totals so runs
can report their coordination overhead: every scalar costs eight bytes on
the wire, and each cell's report is gathered once and broadcast to the M - 1
other cells, one message each way, so an exchange of reports of S scalars
in all is 2M messages and 8MS bytes.  The bus also carries the round a run
is in and the run's clock origin, and `MessageBus.row` builds every trace
row from them and the running totals: `relay`'s power rows and a run's
subcarrier rows alike.  A phase on a bus of its own is round 0, timed from
the bus's creation.
"""

from __future__ import annotations

import math
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
    """Accounting for one gather-plus-broadcast exchange; `total_bytes` is
    the sum of both directions, priced once when the record is built."""

    messages: int
    total_bytes: int


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
    # Each report is gathered once and broadcast to the M - 1 other cells.
    return ExchangeRecord(messages=2 * num_cells,
                          total_bytes=BYTES_PER_SCALAR * num_cells * sum(scalars_per_cell))


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

    def row(self, phase: str, iteration: int, report, delta_p_norm: float) -> TraceRow:
        """The trace row of `report` (its objective `value` and per-cell
        `min_rates`), stamped with the bus's round, running totals and clock."""
        return TraceRow(
            round=self.round, phase=phase, iteration=iteration, wsmr=report.value,
            delta_p_norm=delta_p_norm, min_rates=report.min_rates,
            messages=self.messages_total, bytes=self.bytes_total,
            elapsed_s=time.perf_counter() - self.started)


def check_stop_rule(psi: float, max_iters: int, cap: str = "max_iters") -> None:
    """Refuse a stop rule `relay` cannot run: psi must be a finite, positive
    real and the iteration cap, named `cap` in the message, a positive
    integer."""
    # Bools pass the range check (`True > 0.0`), so they are refused first.
    if isinstance(psi, (bool, np.bool_)):
        raise ValueError(f"psi must be a real number, got {psi!r}")
    if not (psi > 0.0 and np.isfinite(psi)):
        raise ValueError(f"psi must be finite and positive, got {psi!r}")
    if type(max_iters) is not int or max_iters < 1:
        raise ValueError(f"{cap} must be a positive integer, got {max_iters!r}")


def relay(sweep, power: np.ndarray, report_sizes: list[int], *, psi: float,
          max_iters: int, bus: MessageBus | None = None):
    """Iterate a power method until the stacked power iterates settle.

    Each iteration exchanges `report_sizes` through the bus, then calls
    `sweep(iteration, power)`, which advances every cell from the previous
    raw iterate and returns (next raw iterate, report of the power the cells
    report: a `rate_model.WsmrResult`, or any object with the objective
    `value` and the per-cell `min_rates`).  One `TraceRow` is appended per
    iteration, with phase "power", built by `bus.row`.  The loop stops once
    the raw iterate moves less than `psi` in Euclidean norm, or after
    `max_iters` iterations; `check_stop_rule` refuses a psi or cap it cannot
    run.  A PhaseError from the sweep leaves with its iteration and
    the rows before it.  Returns (last raw iterate, trace, converged).
    """
    check_stop_rule(psi, max_iters)
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
        trace.append(bus.row("power", iteration, reported, delta))
        power = power_now
        if delta < psi:
            return power, trace, True
    return power, trace, False
