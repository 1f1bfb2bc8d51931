"""Alternating optimization of powers and subcarrier assignments.

A run starts from uniform powers and a round-robin assignment, then repeats
rounds of (power phase, subcarrier phase): the power phase runs one of the
two distributed power methods to movement below psi, the subcarrier phase
reassigns every cell's subcarriers at the new powers.  Rounds stop when the
objective's relative change falls below `wsmr_tol` or after `max_rounds`.
Both power methods run in `bus.relay`, so a phase's rows are `TraceRow`s
that a run only moves to its round and rebases in time, and a failed phase
raises a `PhaseError`, which the run turns into `CoordinatorAbort`.

The run keeps the best (power, assignment) pair ever evaluated, including
the starting configuration, so a late non-improving round cannot degrade the
reported solution.  All phases share one message bus, so message and byte
counts in the trace are cumulative over the whole run; subcarrier phases are
cell-local and add no traffic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .bus import MessageBus, PhaseError, TraceRow
from .lr_power import lr_solve
from .ocd_power import ocd_solve
from .rate_model import wsmr
from .scenario import Scenario
from .subcarrier_alloc import solve_all_cells

POWER_METHODS = ("ocd", "lr")
SUBCARRIER_MODES = ("exact", "greedy")


class CoordinatorAbort(RuntimeError):
    """A power phase failed; carries the trace rows produced so far."""

    def __init__(self, detail: str, trace: list):
        self.trace = trace
        super().__init__(detail)


@dataclass(frozen=True)
class RunConfig:
    psi: float = 0.1
    max_power_iters: int = 200
    max_rounds: int = 10
    wsmr_tol: float = 1e-3
    power_method: str = "ocd"
    subcarrier_mode: str = "exact"

    def validated(self) -> "RunConfig":
        if not (self.psi > 0.0 and np.isfinite(self.psi)):
            raise ValueError(f"psi must be finite and positive, got {self.psi!r}")
        if not isinstance(self.max_power_iters, int) or self.max_power_iters < 1:
            raise ValueError(
                f"max_power_iters must be a positive integer, got {self.max_power_iters!r}")
        if not isinstance(self.max_rounds, int) or self.max_rounds < 1:
            raise ValueError(
                f"max_rounds must be a positive integer, got {self.max_rounds!r}")
        if not (self.wsmr_tol >= 0.0):
            raise ValueError(f"wsmr_tol must be nonnegative, got {self.wsmr_tol!r}")
        if self.power_method not in POWER_METHODS:
            raise ValueError(
                f"power_method must be one of {POWER_METHODS}, got {self.power_method!r}")
        if self.subcarrier_mode not in SUBCARRIER_MODES:
            raise ValueError(
                f"subcarrier_mode must be one of {SUBCARRIER_MODES}, "
                f"got {self.subcarrier_mode!r}")
        return self


@dataclass(frozen=True)
class RunResult:
    best_power: np.ndarray
    best_assignment: np.ndarray
    best_wsmr: float
    final_power: np.ndarray
    final_assignment: np.ndarray
    final_wsmr: float
    trace: list[TraceRow] = field(repr=False)
    rounds: int = 0
    power_iterations: int = 0
    first_phase_iterations: int = 0
    first_phase_converged: bool = False
    converged: bool = False
    messages: int = 0
    bytes: int = 0


def initial_point(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Uniform powers and round-robin assignment (user = n mod K_m)."""
    power = np.full((scenario.num_cells, scenario.num_subcarriers),
                    scenario.p_max / scenario.num_subcarriers)
    assignment = np.zeros((scenario.num_cells, scenario.max_users,
                           scenario.num_subcarriers), dtype=np.int8)
    for m, k_m in enumerate(scenario.users_per_cell):
        for n in range(scenario.num_subcarriers):
            assignment[m, n % k_m, n] = 1
    return power, assignment


def _power_rows(rows: list[TraceRow], round_index: int,
                offset_s: float) -> list[TraceRow]:
    """A power phase's rows in round `round_index`, times rebased to the run."""
    return [replace(row, round=round_index, elapsed_s=offset_s + row.elapsed_s)
            for row in rows]


def run(scenario: Scenario, config: RunConfig = RunConfig()) -> RunResult:
    """Full alternating run; see the module docstring for the schedule."""
    config.validated()
    power, assignment = initial_point(scenario)
    bus = MessageBus()
    started = time.perf_counter()
    trace: list[TraceRow] = []

    current = wsmr(scenario, power, assignment)
    best_value = current.value
    best_power = power.copy()
    best_assignment = assignment.copy()
    previous_round_value = current.value

    rounds = 0
    power_iterations = 0
    first_phase_iterations = 0
    first_phase_converged = False
    last_phase_converged = False

    for round_index in range(config.max_rounds):
        phase_offset = time.perf_counter() - started
        try:
            if config.power_method == "ocd":
                result = ocd_solve(scenario, assignment, power, psi=config.psi,
                                   max_iters=config.max_power_iters, bus=bus)
            else:
                result = lr_solve(scenario, assignment, power, psi=config.psi,
                                  max_iters=config.max_power_iters, bus=bus)
        except PhaseError as exc:
            partial = trace + _power_rows(exc.trace, round_index, phase_offset)
            raise CoordinatorAbort(str(exc), partial) from exc

        trace.extend(_power_rows(result.trace, round_index, phase_offset))
        power = result.power
        power_iterations += result.iterations
        if round_index == 0:
            first_phase_iterations = result.iterations
            first_phase_converged = result.converged
        last_phase_converged = result.converged

        # The last row is the objective at exactly `result.power`.
        after_power = result.trace[-1].wsmr
        if after_power > best_value:
            best_value = after_power
            best_power = power.copy()
            best_assignment = assignment.copy()

        # The held assignment warm-starts the exact solve; the result is the same.
        assignment = solve_all_cells(scenario, power, mode=config.subcarrier_mode,
                                     current=assignment.argmax(axis=1))
        after_sub = wsmr(scenario, power, assignment)
        trace.append(TraceRow(
            round=round_index, phase="subcarrier", iteration=1,
            wsmr=after_sub.value, delta_p_norm=0.0, min_rates=after_sub.min_rates,
            messages=bus.messages_total, bytes=bus.bytes_total,
            elapsed_s=time.perf_counter() - started))
        if after_sub.value > best_value:
            best_value = after_sub.value
            best_power = power.copy()
            best_assignment = assignment.copy()

        rounds = round_index + 1
        relative = (abs(after_sub.value - previous_round_value)
                    / max(abs(previous_round_value), 1e-12))
        previous_round_value = after_sub.value
        if relative < config.wsmr_tol:
            break

    return RunResult(
        best_power=best_power, best_assignment=best_assignment,
        best_wsmr=best_value, final_power=power, final_assignment=assignment,
        final_wsmr=previous_round_value, trace=trace, rounds=rounds,
        power_iterations=power_iterations,
        first_phase_iterations=first_phase_iterations,
        first_phase_converged=first_phase_converged,
        converged=last_phase_converged, messages=bus.messages_total,
        bytes=bus.bytes_total)
