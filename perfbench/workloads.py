"""The benchmark's workloads: input catalogs, the operation, output checks.

Every workload replays a fixed catalog of channel realizations, so that a
run of a few dozen operations measures the same work whatever the seed:
drawing fresh realizations per seed made the median operation time of a run
move by 20-30% from seed to seed, because the work per realization varies
several-fold (LR iteration counts, branch-and-bound tree sizes).

- `mc-paper` calls `run_ensemble` with one realization per operation, which
  draws its scenario from the realization seed itself.  The catalog is the
  first realizations of the paper's ensemble; the workload seed only sets
  the order in which they are visited.
- `ocd-wide` and `assign-exact` call `coordinator.run` on scenarios built
  in set-up.  The workload seed relabels each realization: it permutes the
  cells, and the subcarriers within each residue class modulo the users
  per cell, so the round-robin starting assignment maps onto itself.  Every
  seed therefore gives different input arrays describing the same problem,
  and the solvers do the same work on them up to rounding.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from netalloc import coordinator, experiment_cli, rate_model, scenario

MC_PARAMS = scenario.ScenarioParams(num_cells=3, num_subcarriers=8, users_per_cell=2)
MC_CONFIG = coordinator.RunConfig(psi=0.1, subcarrier_mode="exact")
WIDE_PARAMS = scenario.ScenarioParams(num_cells=7, num_subcarriers=64, users_per_cell=2)
WIDE_CONFIG = coordinator.RunConfig(psi=0.1, power_method="ocd", subcarrier_mode="greedy")
EXACT_PARAMS = scenario.ScenarioParams(num_cells=3, num_subcarriers=32, users_per_cell=2)
EXACT_CONFIG = coordinator.RunConfig(psi=0.1, power_method="ocd", subcarrier_mode="exact")

WSMR_RTOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    catalog_size: int
    # Nominal seconds for one untraced plus one traced operation; sizes the
    # fixed number of pairs a traced run makes from --seconds.
    pair_seconds: float
    params: scenario.ScenarioParams
    config: coordinator.RunConfig


WORKLOADS = {
    "mc-paper": Workload("mc-paper", 24, 1.7, MC_PARAMS, MC_CONFIG),
    "ocd-wide": Workload("ocd-wide", 40, 1.0, WIDE_PARAMS, WIDE_CONFIG),
    "assign-exact": Workload("assign-exact", 24, 1.5, EXACT_PARAMS, EXACT_CONFIG),
}


@dataclass(frozen=True)
class Entry:
    """One catalog input: its index, and its scenario unless run_ensemble draws it."""

    index: int
    scn: scenario.Scenario | None = None
    initial_wsmr: float = math.nan


@dataclass(frozen=True)
class Outcome:
    """What one operation returned, reduced to what the checks and metrics read."""

    runs: list            # RunResults, in method order
    initial_wsmr: float
    rows: list            # EnsembleRows (mc-paper only)


def relabel(scn: scenario.Scenario, rng: np.random.Generator) -> scenario.Scenario:
    """Same problem with cells and same-residue subcarriers renumbered."""
    cells = rng.permutation(scn.num_cells)
    period = math.lcm(*scn.users_per_cell)
    subs = np.arange(scn.num_subcarriers)
    for r in range(period):
        members = subs[r::period]
        subs[r::period] = members[rng.permutation(members.size)]
    params = replace(scn.params,
                     users_per_cell=tuple(scn.users_per_cell[c] for c in cells),
                     weights=tuple(scn.weights[c] for c in cells))
    return scenario.Scenario(
        params=params, bs_positions=scn.bs_positions[cells],
        user_positions=tuple(scn.user_positions[c] for c in cells),
        gains=scn.gains[np.ix_(cells, cells)][..., subs],
        noise=scn.noise[cells][..., subs])


def build_catalog(workload: Workload, seed: int) -> tuple[list[Entry], list[int]]:
    """The workload's inputs for `seed`, and the order a run visits them in."""
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(workload.catalog_size):
        if workload.name == "mc-paper":
            entries.append(Entry(i))
            continue
        scn = relabel(scenario.generate_scenario(replace(workload.params, seed=i)), rng)
        power, assignment = coordinator.initial_point(scn)
        entries.append(Entry(i, scn, rate_model.wsmr(scn, power, assignment).value))
    return entries, [int(i) for i in rng.permutation(workload.catalog_size)]


def run_op(workload: Workload, entry: Entry) -> Outcome:
    """One benchmark operation, through the public entry points."""
    if workload.name == "mc-paper":
        rows, details = experiment_cli.run_ensemble(
            workload.params, realizations=1, base_seed=entry.index,
            config=workload.config, collect=True)
        detail = details[0]
        runs = [detail.results[m] for m in ("lr", "ocd") if m in detail.results]
        return Outcome(runs, detail.initial_wsmr, rows)
    result = coordinator.run(entry.scn, workload.config)
    return Outcome([result], entry.initial_wsmr, [])


def scenario_of(workload: Workload, entry: Entry) -> scenario.Scenario:
    if entry.scn is not None:
        return entry.scn
    return scenario.generate_scenario(replace(workload.params, seed=entry.index))


def check(workload: Workload, entry: Entry, outcome: Outcome) -> list[str]:
    """Everything wrong with one operation's output; empty when it is right."""
    problems = []
    scn = scenario_of(workload, entry)
    if workload.name == "mc-paper":
        for method in ("lr", "ocd"):
            values = [r.wsmr for r in outcome.rows if r.method == method]
            if len(values) != 1 or not math.isfinite(values[0]):
                problems.append(f"{method} row is missing or not finite: {values}")
    for result in outcome.runs:
        try:
            rate_model.validate_power(scn, result.best_power)
            rate_model.validate_assignment(scn, result.best_assignment,
                                           require_complete=True)
        except ValueError as exc:
            problems.append(f"best configuration infeasible: {exc}")
            continue
        again = rate_model.wsmr(scn, result.best_power, result.best_assignment).value
        if abs(again - result.best_wsmr) > WSMR_RTOL * abs(result.best_wsmr):
            problems.append(f"best_wsmr {result.best_wsmr!r} but recomputed {again!r}")
        if not result.best_wsmr >= outcome.initial_wsmr:
            problems.append(f"best_wsmr {result.best_wsmr!r} below the initial "
                            f"objective {outcome.initial_wsmr!r}")
    return problems


def fingerprint(outcome: Outcome) -> str:
    """The operation's results at the CLI's 12-digit precision, one line."""
    return ";".join(
        f"{r.best_wsmr:.12e},{r.first_phase_iterations},{r.power_iterations},"
        f"{r.rounds},{r.messages},{r.bytes}" for r in outcome.runs)


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
