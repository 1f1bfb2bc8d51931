"""Alternating optimization of powers and subcarrier assignments.

A run starts from uniform powers and a round-robin assignment, then repeats
rounds of (power phase, subcarrier phase): the power phase runs one of the
two distributed power methods to movement below psi, the subcarrier phase
reassigns every cell's subcarriers at the new powers.  Three rules end the
rounds, tested in this order after each subcarrier phase, and the first that
holds names the run's `stop_reason`: "tolerance" when the objective's
relative change |new - previous| / |previous| falls below `wsmr_tol`, at
any scale (from a previous value of exactly 0 the change is 0 when the new
value is 0 too, else infinite), "cycle" when the (power, assignment)
state equals one the run already left a subcarrier phase in (or started
from), and "rounds" after `max_rounds`.  A round is a deterministic function
of that state, so once it repeats every later round replays a known one and
no better value can appear: two-block alternation need not converge
(Grippo & Sciandrone, Oper. Res. Lett. 2000).  The run keeps the exact
bytes of every visited state, power then assignment, so equality is exact.

Both power methods run in `bus.relay` on the run's bus, which carries the
run's round and clock origin, so a phase's rows arrive stamped for the run,
and a failed phase raises a `PhaseError`, which the run turns into
`CoordinatorAbort`.  So does a `RateTableError` from a subcarrier phase,
whose rates are not finite once the SINR overflows.  The run's subcarrier
rows come from the same `MessageBus.row`, and `RunConfig.validated()`
checks psi and the power iteration cap with the relay's own
`bus.check_stop_rule`.  The two vocabularies have one owner each:
`POWER_METHODS` here, and `subcarrier_alloc.SUBCARRIER_MODES`.  Each
assignment is validated and gathered once, into the `AssignedLinks` view
that both its objective evaluation and the next power phase read.

The run keeps the best (power, assignment) pair ever evaluated, including
the starting configuration, so a late non-improving round cannot degrade the
reported solution; the `final_*` fields are the state the run stopped at.
All phases share one message bus, so message and byte counts in the trace
are cumulative over the whole run; subcarrier phases are cell-local and add
no traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bus import MessageBus, PhaseError, TraceRow, check_stop_rule
from .lr_power import lr_solve
from .ocd_power import ocd_solve
from .rate_model import assigned_links, wsmr
from .scenario import Scenario
from .subcarrier_alloc import SUBCARRIER_MODES, RateTableError, solve_all_cells

POWER_METHODS = ("ocd", "lr")


class CoordinatorAbort(RuntimeError):
    """A power or subcarrier phase failed; carries the trace rows produced
    so far."""

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
        check_stop_rule(self.psi, self.max_power_iters, "max_power_iters")
        if type(self.max_rounds) is not int or self.max_rounds < 1:
            raise ValueError(
                f"max_rounds must be a positive integer, got {self.max_rounds!r}")
        # `False >= 0.0` holds, so a bool is refused before the range check.
        if isinstance(self.wsmr_tol, (bool, np.bool_)):
            raise ValueError(f"wsmr_tol must be a real number, got {self.wsmr_tol!r}")
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
    """The best state a run evaluated, the state it stopped at (`final_*`),
    its trace and counts, and `stop_reason`: "tolerance", "cycle" or
    "rounds" (see the module docstring)."""

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
    stop_reason: str = "rounds"


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


def run(scenario: Scenario, config: RunConfig = RunConfig()) -> RunResult:
    """Full alternating run; see the module docstring for the schedule."""
    config.validated()
    power, assignment = initial_point(scenario)
    bus = MessageBus()
    trace: list[TraceRow] = []

    links = assigned_links(scenario, assignment)
    current = wsmr(scenario, power, links)
    best = (current.value, power.copy(), assignment.copy())
    previous_round_value = current.value
    visited = {power.tobytes() + assignment.tobytes()}
    stop_reason = "rounds"

    rounds = 0
    power_iterations = 0
    first_phase_iterations = 0
    first_phase_converged = False
    last_phase_converged = False

    for round_index in range(config.max_rounds):
        bus.round = round_index
        try:
            if config.power_method == "ocd":
                result = ocd_solve(scenario, links, power, psi=config.psi,
                                   max_iters=config.max_power_iters, bus=bus)
            else:
                result = lr_solve(scenario, links, power, psi=config.psi,
                                  max_iters=config.max_power_iters, bus=bus)
        except PhaseError as exc:
            raise CoordinatorAbort(str(exc), trace + exc.trace) from exc

        trace.extend(result.trace)
        power = result.power
        power_iterations += result.iterations
        if round_index == 0:
            first_phase_iterations = result.iterations
            first_phase_converged = result.converged
        last_phase_converged = result.converged

        # The held assignment warm-starts the exact solve; the result is the same.
        held = assignment
        try:
            assignment = solve_all_cells(scenario, power, mode=config.subcarrier_mode,
                                         current=links.user)
        except RateTableError as exc:
            raise CoordinatorAbort(f"subcarrier phase: {exc}", trace) from exc
        links = assigned_links(scenario, assignment)
        after_sub = wsmr(scenario, power, links)
        trace.append(bus.row("subcarrier", 1, after_sub, 0.0))
        # The last power row is the objective at exactly `result.power` under
        # the held assignment; the subcarrier row, under the new one.
        for value, state_assignment in ((result.trace[-1].wsmr, held),
                                        (after_sub.value, assignment)):
            if value > best[0]:
                best = (value, power.copy(), state_assignment.copy())

        rounds = round_index + 1
        change = abs(after_sub.value - previous_round_value)
        if previous_round_value != 0.0:
            relative = change / abs(previous_round_value)
        else:
            relative = 0.0 if change == 0.0 else np.inf
        previous_round_value = after_sub.value
        if relative < config.wsmr_tol:
            stop_reason = "tolerance"
            break
        key = power.tobytes() + assignment.tobytes()
        if key in visited:
            stop_reason = "cycle"
            break
        visited.add(key)

    best_value, best_power, best_assignment = best
    return RunResult(
        best_power=best_power, best_assignment=best_assignment,
        best_wsmr=best_value, final_power=power, final_assignment=assignment,
        final_wsmr=previous_round_value, trace=trace, rounds=rounds,
        power_iterations=power_iterations,
        first_phase_iterations=first_phase_iterations,
        first_phase_converged=first_phase_converged,
        converged=last_phase_converged, messages=bus.messages_total,
        bytes=bus.bytes_total, stop_reason=stop_reason)
