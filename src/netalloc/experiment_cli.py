"""Command-line front end.

Subcommands: `generate` writes a scenario file, `solve` runs the coordinator
on one scenario and writes an iteration trace, `montecarlo` sweeps seeded
channel realizations and writes per-realization summary rows, `oracle`
cross-checks the solvers against the brute-force references on small
instances.

Radio flags are the human-friendly dB variants (--noise-dbw, --snr-gap-db);
conversion to linear happens once at parse time and files only ever hold
linear values.  All floats are serialized with 12 digits after the mantissa
point so CSVs are reproducible bit for bit.  Exit codes: 0 success, 1 solver
abort or oracle FAIL, 2 usage or file errors.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .coordinator import (CoordinatorAbort, RunConfig, TraceRow, initial_point,
                          run)
from .oracles import (MAX_ASSIGNMENT_MAPS, MAX_GRID_SUBCARRIERS,
                      OracleSizeError, exhaustive_min_rate, grid_power_optimum)
from .ocd_power import ocd_solve
from .rate_model import wsmr
from .scenario import (Scenario, ScenarioFormatError, ScenarioParams,
                       ScenarioValidationError, db_to_linear,
                       generate_scenario, load_scenario, save_scenario)
from .subcarrier_alloc import solve_exact, solve_greedy

EXIT_OK = 0
EXIT_ABORT = 1
EXIT_USAGE = 2

TRACE_HEADER = ("round", "phase", "iter", "wsmr", "delta_p_norm",
                "messages", "bytes", "elapsed_s")
ENSEMBLE_HEADER = ("seed", "method", "wsmr", "iters_to_psi", "converged")
METHODS = ("init", "lr", "ocd")


def _fmt(value: float) -> str:
    return f"{float(value):.12e}"


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cells", type=int, default=3)
    parser.add_argument("--subcarriers", type=int, default=32)
    parser.add_argument("--users-per-cell", type=_int_list, default=(2,),
                        metavar="K[,K...]",
                        help="users per cell; one value applies to all cells")
    parser.add_argument("--radius", type=float, default=40.0,
                        help="cell radius in meters")
    parser.add_argument("--pmax", type=float, default=1.0,
                        help="per-station power budget in watts")
    parser.add_argument("--noise-dbw", type=float, default=-60.0,
                        help="per-subcarrier noise power in dBW")
    parser.add_argument("--snr-gap-db", type=float, default=0.0)
    parser.add_argument("--weights", type=_float_list, default=(1.0,),
                        metavar="W[,W...]", help="per-cell weights")
    parser.add_argument("--pathloss-exponent", type=float, default=3.5)
    parser.add_argument("--seed", type=int, default=0)


def _params_from_flags(args: argparse.Namespace) -> ScenarioParams:
    users, weights = (v[0] if len(v) == 1 else v for v in (args.users_per_cell, args.weights))
    return ScenarioParams(
        num_cells=args.cells, num_subcarriers=args.subcarriers,
        users_per_cell=users, cell_radius=args.radius, p_max=args.pmax,
        noise_power=db_to_linear(args.noise_dbw),
        snr_gap=db_to_linear(args.snr_gap_db), weights=weights,
        pathloss_exponent=args.pathloss_exponent, seed=args.seed)


def _solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=("ocd", "lr"), default="ocd")
    parser.add_argument("--psi", type=float, default=0.1,
                        help="power movement threshold of the stop test")
    parser.add_argument("--max-iter", type=int, default=200,
                        help="power iterations per phase")
    parser.add_argument("--rounds", type=int, default=10,
                        help="max alternating rounds")
    parser.add_argument("--wsmr-tol", type=float, default=1e-3,
                        help="relative objective change that ends the run")
    parser.add_argument("--subcarrier", choices=("exact", "greedy"),
                        default="exact")


def _config_from_flags(args: argparse.Namespace) -> RunConfig | None:
    """The validated solver flags, or None after printing why they are not."""
    try:
        return RunConfig(psi=args.psi, max_power_iters=args.max_iter,
                         max_rounds=args.rounds, wsmr_tol=args.wsmr_tol,
                         power_method=args.method,
                         subcarrier_mode=args.subcarrier).validated()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def write_trace_csv(rows: list[TraceRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for row in rows:
            writer.writerow((row.round, row.phase, row.iteration,
                             _fmt(row.wsmr), _fmt(row.delta_p_norm),
                             row.messages, row.bytes, _fmt(row.elapsed_s)))


@dataclass(frozen=True)
class EnsembleRow:
    seed: int
    method: str
    wsmr: float
    iters_to_psi: int
    converged: bool
    pmax: float | None = None


@dataclass(frozen=True)
class RealizationDetail:
    """Everything the library caller may want beyond the CSV row."""

    seed: int
    scenario: Scenario
    initial_wsmr: float
    results: dict


def write_ensemble_csv(rows: list[EnsembleRow], path: str) -> None:
    sweep = any(row.pmax is not None for row in rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(ENSEMBLE_HEADER)
        if sweep:
            header.insert(2, "pmax")
        writer.writerow(header)
        for row in rows:
            record = [row.seed, row.method, _fmt(row.wsmr),
                      row.iters_to_psi, _fmt_bool(row.converged)]
            if sweep:
                record.insert(2, _fmt(row.pmax))
            writer.writerow(record)


def _realize(params: ScenarioParams, seed: int, config: RunConfig,
             pmax: float | None, collect: bool):
    if pmax is not None:
        params = replace(params, p_max=pmax)
    params = replace(params, seed=seed)
    scenario = generate_scenario(params)
    power0, assign0 = initial_point(scenario)
    baseline = wsmr(scenario, power0, assign0)
    rows = [EnsembleRow(seed=seed, method="init", wsmr=baseline.value,
                        iters_to_psi=0, converged=True, pmax=pmax)]
    results = {}
    for method in ("lr", "ocd"):
        config_m = replace(config, power_method=method)
        try:
            result = run(scenario, config_m)
        except CoordinatorAbort as abort:
            done = sum(1 for r in abort.trace
                       if r.round == 0 and r.phase == "power")
            rows.append(EnsembleRow(seed=seed, method=method, wsmr=float("nan"),
                                    iters_to_psi=done, converged=False,
                                    pmax=pmax))
            continue
        rows.append(EnsembleRow(
            seed=seed, method=method, wsmr=result.best_wsmr,
            iters_to_psi=result.first_phase_iterations,
            converged=result.first_phase_converged, pmax=pmax))
        if collect:
            results[method] = result
    detail = RealizationDetail(seed=seed, scenario=scenario,
                               initial_wsmr=baseline.value,
                               results=results) if collect else None
    return rows, detail


def run_ensemble(params: ScenarioParams, *, realizations: int, base_seed: int,
                 config: RunConfig, pmax_values: tuple[float, ...] | None = None,
                 collect: bool = False):
    """Run `realizations` seeded channels under every method.

    Realization i uses seed base_seed + i and depends on nothing else, so
    any subset is reproducible in isolation.  Returns (rows, details);
    details is empty unless `collect`.  Rows come back sorted by (seed,
    method, pmax); details come back in seed order.
    """
    if realizations < 1:
        raise ValueError(f"realizations must be positive, got {realizations!r}")
    outcomes = [_realize(params, base_seed + i, config, pmax, collect)
                for i in range(realizations)
                for pmax in (pmax_values if pmax_values else (None,))]
    rows = [row for chunk, _ in outcomes for row in chunk]
    rows.sort(key=lambda r: (r.seed, r.method,
                             r.pmax if r.pmax is not None else 0.0))
    details = [detail for _, detail in outcomes if detail is not None]
    return rows, details


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        params = _params_from_flags(args).validated()
    except ScenarioValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    scenario = generate_scenario(params)
    save_scenario(scenario, args.out)
    users = ",".join(str(k) for k in params.users_per_cell)
    print(f"wrote {args.out} (cells={params.num_cells} "
          f"subcarriers={params.num_subcarriers} users={users} "
          f"seed={params.seed})")
    return EXIT_OK


def _load_or_complain(path: str) -> Scenario | None:
    try:
        return load_scenario(path)
    except FileNotFoundError:
        print(f"error: scenario file not found: {path}", file=sys.stderr)
    except (ScenarioFormatError, ScenarioValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


def cmd_solve(args: argparse.Namespace) -> int:
    config = _config_from_flags(args)
    if config is None:
        return EXIT_USAGE
    scenario = _load_or_complain(args.scenario)
    if scenario is None:
        return EXIT_USAGE
    try:
        result = run(scenario, config)
    except CoordinatorAbort as abort:
        write_trace_csv(abort.trace, args.trace_out)
        print(f"error: {abort}", file=sys.stderr)
        print(f"partial trace written to {args.trace_out}", file=sys.stderr)
        return EXIT_ABORT
    write_trace_csv(result.trace, args.trace_out)
    print(f"method={config.power_method} final_wsmr={_fmt(result.final_wsmr)} "
          f"best_wsmr={_fmt(result.best_wsmr)} "
          f"converged={_fmt_bool(result.converged)} rounds={result.rounds} "
          f"power_iters={result.power_iterations} messages={result.messages} "
          f"bytes={result.bytes} stop={result.stop_reason}")
    print(f"trace written to {args.trace_out}")
    return EXIT_OK


def cmd_montecarlo(args: argparse.Namespace) -> int:
    try:
        params = _params_from_flags(args).validated()
    except ScenarioValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.realizations < 1:
        print(f"error: --realizations must be positive, got {args.realizations}",
              file=sys.stderr)
        return EXIT_USAGE
    config = _config_from_flags(args)
    if config is None:
        return EXIT_USAGE
    rows, _ = run_ensemble(params, realizations=args.realizations,
                           base_seed=args.seed, config=config,
                           pmax_values=args.pmax_sweep)
    write_ensemble_csv(rows, args.out)
    for method in METHODS:
        values = [r.wsmr for r in rows if r.method == method]
        finite = [v for v in values if math.isfinite(v)]
        iters = [r.iters_to_psi for r in rows if r.method == method]
        hits = sum(1 for r in rows if r.method == method and r.converged)
        mean = sum(finite) / len(finite) if finite else float("nan")
        print(f"method={method} mean_wsmr={_fmt(mean)} "
              f"mean_iters={_fmt(sum(iters) / len(iters))} "
              f"converged={hits}/{len(values)} failed={len(values) - len(finite)}")
    print(f"ensemble written to {args.out}")
    return EXIT_OK


def _oracle_usage_error(args: argparse.Namespace,
                        checks: tuple[str, ...]) -> str | None:
    """Why the oracle flags describe nothing it can check, or None."""
    if args.trials < 1:
        return f"--trials must be positive, got {args.trials}"
    if "assignment" in checks:
        users = max(args.users_per_cell)
        if min(args.users_per_cell) < 1 or args.subcarriers < 1:
            return (f"assignment oracle needs at least one user and one "
                    f"subcarrier; got {args.users_per_cell} and {args.subcarriers}")
        if users ** args.subcarriers > MAX_ASSIGNMENT_MAPS:
            return (f"assignment oracle limited to K^N <= {MAX_ASSIGNMENT_MAPS}; "
                    f"got {users}^{args.subcarriers}")
    if "power" in checks:
        if not 1 <= args.power_subcarriers <= MAX_GRID_SUBCARRIERS:
            return (f"power grid oracle limited to 1 <= N <= "
                    f"{MAX_GRID_SUBCARRIERS}; got {args.power_subcarriers}")
        if args.grid < 2:
            return f"--grid needs at least 2 points per axis, got {args.grid}"
        try:
            _power_oracle_params(args).validated()
        except ScenarioValidationError as exc:
            return str(exc)
    return None


def _power_oracle_params(args: argparse.Namespace) -> ScenarioParams:
    """The power oracle's single-cell instance, before its per-trial users
    and seed."""
    return ScenarioParams(
        num_cells=1, num_subcarriers=args.power_subcarriers, users_per_cell=1,
        cell_radius=args.radius, p_max=args.pmax,
        noise_power=db_to_linear(args.noise_dbw),
        snr_gap=db_to_linear(args.snr_gap_db),
        pathloss_exponent=args.pathloss_exponent)


def cmd_oracle(args: argparse.Namespace) -> int:
    users = max(args.users_per_cell)
    checks = ("assignment", "power") if args.check == "both" else (args.check,)
    problem = _oracle_usage_error(args, checks)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(args.seed)
    worst_assignment = 0.0
    worst_power = 0.0

    if "assignment" in checks:
        for _ in range(args.trials):
            table = rng.exponential(1.0, size=(users, args.subcarriers))
            slow = exhaustive_min_rate(table)
            # Cold, and warm-started from the greedy assignment and from a
            # random one, which the local search has to polish from far off.
            held = solve_greedy(table).assignment
            scattered = rng.integers(0, users, args.subcarriers)
            for fast in (solve_exact(table), solve_exact(table, current=held),
                         solve_exact(table, current=scattered)):
                worst_assignment = max(worst_assignment, abs(fast.min_rate - slow)
                                       / max(abs(slow), 1e-15))
        print(f"assignment: trials={args.trials} "
              f"max_relative_gap={_fmt(worst_assignment)}")

    if "power" in checks:
        base = _power_oracle_params(args)
        for trial in range(args.trials):
            scenario = generate_scenario(replace(
                base, users_per_cell=1 + trial % 2,
                seed=int(rng.integers(0, 2 ** 31))))
            _, assignment = initial_point(scenario)
            solved = ocd_solve(scenario, assignment,
                               initial_point(scenario)[0], psi=1e-6,
                               max_iters=200)
            value = wsmr(scenario, solved.power, assignment).value
            reference = grid_power_optimum(scenario, assignment,
                                           grid_points=args.grid).value
            gap = max(0.0, (reference - value) / max(abs(reference), 1e-15))
            worst_power = max(worst_power, gap)
        print(f"power: trials={args.trials} "
              f"max_relative_gap={_fmt(worst_power)}")

    bad = (worst_assignment > 1e-12) or (worst_power > 0.01)
    print("verdict: " + ("FAIL" if bad else "ok"))
    return EXIT_ABORT if bad else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netalloc",
        description="Multi-cell OFDMA max-min allocation experiments")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="write a random scenario file")
    _scenario_flags(gen)
    gen.add_argument("--out", required=True, help="output scenario JSON path")
    gen.set_defaults(handler=cmd_generate)

    solve = commands.add_parser("solve", help="run the coordinator on one scenario")
    solve.add_argument("scenario", help="scenario JSON path")
    _solver_flags(solve)
    solve.add_argument("--trace-out", default="trace.csv",
                       help="iteration trace CSV path")
    solve.set_defaults(handler=cmd_solve)

    monte = commands.add_parser("montecarlo",
                                help="seeded ensemble over channel realizations")
    _scenario_flags(monte)
    _solver_flags(monte)
    monte.add_argument("--realizations", type=int, default=500)
    monte.add_argument("--out", required=True, help="ensemble CSV path")
    monte.add_argument("--pmax-sweep", type=_float_list, default=None,
                       metavar="P[,P...]",
                       help="repeat every realization at each budget; "
                            "adds a pmax column")
    monte.set_defaults(handler=cmd_montecarlo)

    oracle = commands.add_parser("oracle",
                                 help="cross-check solvers against brute force")
    _scenario_flags(oracle)
    oracle.add_argument("--check", choices=("assignment", "power", "both"),
                        default="both")
    oracle.add_argument("--trials", type=int, default=20)
    oracle.add_argument("--grid", type=int, default=200,
                        help="grid points per axis for the power oracle")
    oracle.add_argument("--power-subcarriers", type=int, default=2,
                        help="subcarriers for the power-oracle instances")
    # Table-enumeration sizes, not the montecarlo defaults.
    oracle.set_defaults(handler=cmd_oracle, subcarriers=10)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
