import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netalloc
from netalloc import (ScenarioParams, generate_scenario, initial_point,
                      load_scenario, wsmr)
from netalloc.experiment_cli import ENSEMBLE_HEADER, TRACE_HEADER, main

from conftest import scenarios_equal

FLOAT_12 = re.compile(r"^-?\d\.\d{12}e[+-]\d{2,}$")

SMALL = ["--cells", "2", "--subcarriers", "4", "--users-per-cell", "1",
         "--seed", "7"]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_generate_writes_loadable_scenario(tmp_path, capsys):
    out = tmp_path / "scn.json"
    assert main(["generate", *SMALL, "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    loaded = load_scenario(str(out))
    params = ScenarioParams(num_cells=2, num_subcarriers=4, users_per_cell=1,
                            seed=7)
    assert scenarios_equal(loaded, generate_scenario(params))


def test_generate_deterministic_bytes(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    main(["generate", *SMALL, "--out", str(first)])
    main(["generate", *SMALL, "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_generate_rejects_degenerate_parameters(tmp_path, capsys):
    out = tmp_path / "scn.json"
    assert main(["generate", "--cells", "0", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--frequency", "disco"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_solve_writes_trace(tmp_path, capsys):
    scn = tmp_path / "scn.json"
    trace = tmp_path / "trace.csv"
    main(["generate", *SMALL, "--out", str(scn)])
    code = main(["solve", str(scn), "--psi", "0.05", "--rounds", "3",
                 "--trace-out", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert "final_wsmr=" in out and "best_wsmr=" in out
    header, rows = read_csv(str(trace))
    assert tuple(header) == TRACE_HEADER
    assert rows, "trace must not be empty"
    for row in rows:
        assert row[1] in ("power", "subcarrier")
        assert FLOAT_12.match(row[3]) and FLOAT_12.match(row[4])
        int(row[0]), int(row[2]), int(row[5]), int(row[6])
    round0_power = [row for row in rows
                    if row[0] == "0" and row[1] == "power"]
    assert float(round0_power[-1][4]) < 0.05


def test_solve_benchmark_method(tmp_path):
    scn = tmp_path / "scn.json"
    trace = tmp_path / "trace.csv"
    main(["generate", *SMALL, "--out", str(scn)])
    assert main(["solve", str(scn), "--method", "lr", "--psi", "0.05",
                 "--rounds", "2", "--max-iter", "100",
                 "--trace-out", str(trace)]) == 0
    header, rows = read_csv(str(trace))
    assert tuple(header) == TRACE_HEADER and rows


def test_solve_reports_a_cycle_stop(tmp_path, capsys):
    # The 3x8x2 seed-13 LR run repeats a state after 6 rounds.
    scn = tmp_path / "scn.json"
    main(["generate", "--cells", "3", "--subcarriers", "8", "--users-per-cell", "2",
          "--seed", "13", "--out", str(scn)])
    capsys.readouterr()
    assert main(["solve", str(scn), "--method", "lr", "--psi", "0.1",
                 "--trace-out", str(tmp_path / "trace.csv")]) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert " rounds=6 " in summary and summary.endswith(" stop=cycle")


def test_solve_missing_scenario(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["solve", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "not found" in err and str(missing) in err


def test_solve_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def montecarlo_args(out, extra=()):
    return ["montecarlo", *SMALL, "--realizations", "3", "--rounds", "2",
            "--psi", "0.05", "--out", str(out), *extra]


def test_montecarlo_rows_and_summary(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert main(montecarlo_args(out)) == 0
    stdout = capsys.readouterr().out
    for method in ("init", "lr", "ocd"):
        assert f"method={method} mean_wsmr=" in stdout
    header, rows = read_csv(str(out))
    assert tuple(header) == ENSEMBLE_HEADER
    assert len(rows) == 9
    assert [row[0] for row in rows] == \
        [str(seed) for seed in (7, 7, 7, 8, 8, 8, 9, 9, 9)]
    assert [row[1] for row in rows[:3]] == ["init", "lr", "ocd"]
    for row in rows:
        assert FLOAT_12.match(row[2])
        assert row[4] in ("true", "false")
    init_rows = [row for row in rows if row[1] == "init"]
    assert all(row[3] == "0" and row[4] == "true" for row in init_rows)


def test_montecarlo_baseline_matches_library(tmp_path):
    out = tmp_path / "mc.csv"
    main(montecarlo_args(out))
    _, rows = read_csv(str(out))
    for seed in (7, 8, 9):
        scenario = generate_scenario(ScenarioParams(
            num_cells=2, num_subcarriers=4, users_per_cell=1, seed=seed))
        expected = wsmr(scenario, *initial_point(scenario)).value
        row = next(r for r in rows if r[0] == str(seed) and r[1] == "init")
        assert float(row[2]) == pytest.approx(expected, rel=1e-11)


def test_montecarlo_byte_identical_reruns(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    main(montecarlo_args(first))
    main(montecarlo_args(second))
    assert first.read_bytes() == second.read_bytes()


def test_montecarlo_subset_reproducible(tmp_path):
    full = tmp_path / "full.csv"
    part = tmp_path / "part.csv"
    main(montecarlo_args(full))
    args = montecarlo_args(part)
    args[args.index("--seed") + 1] = "9"
    args[args.index("--realizations") + 1] = "1"
    main(args)
    _, full_rows = read_csv(str(full))
    _, part_rows = read_csv(str(part))
    assert part_rows == [row for row in full_rows if row[0] == "9"]


def test_montecarlo_budget_sweep_column(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(montecarlo_args(out, extra=("--pmax-sweep", "0.5,1.0"))) == 0
    header, rows = read_csv(str(out))
    assert tuple(header) == ("seed", "method", "pmax", "wsmr",
                             "iters_to_psi", "converged")
    assert len(rows) == 18
    budgets = {row[2] for row in rows}
    assert budgets == {"5.000000000000e-01", "1.000000000000e+00"}
    ocd = [row for row in rows if row[1] == "ocd" and row[0] == "7"]
    low = next(float(r[3]) for r in ocd if r[2].startswith("5."))
    high = next(float(r[3]) for r in ocd if r[2].startswith("1."))
    assert high > low


def test_montecarlo_rejects_bad_counts(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    args = montecarlo_args(out)
    args[args.index("--realizations") + 1] = "0"
    assert main(args) == 2
    assert "realizations" in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, 2.0, -1])
@pytest.mark.parametrize("name", ["realizations", "base_seed"])
def test_run_ensemble_refuses_bad_counts_before_running(monkeypatch, name, value):
    # `True` is an `int` and passed for one realization or seed 1; a float
    # or a negative value must not reach the realizations either.
    import netalloc.experiment_cli as cli

    def never(*args, **kwargs):
        raise AssertionError("a realization ran")

    monkeypatch.setattr(cli, "_realize", never)
    counts = {"realizations": 1, "base_seed": 0, name: value}
    with pytest.raises(ValueError, match=name):
        cli.run_ensemble(ScenarioParams(2, 4, 1), config=netalloc.RunConfig(), **counts)


def test_run_ensemble_writes_nan_rows_when_rates_overflow():
    # At a subnormal noise power both methods' runs abort, and their rows
    # say so; the starting point's row is still a number.
    import netalloc.experiment_cli as cli

    params = ScenarioParams(2, 3, 2, noise_power=1e-320)
    with np.errstate(all="ignore"):
        rows, _ = cli.run_ensemble(params, realizations=1, base_seed=0,
                                   config=netalloc.RunConfig())
    by_method = {row.method: row for row in rows}
    assert np.isfinite(by_method["init"].wsmr)
    for method in ("lr", "ocd"):
        assert np.isnan(by_method[method].wsmr) and not by_method[method].converged


def test_solve_and_montecarlo_survive_rates_that_overflow(tmp_path, capsys):
    # -3200 dBW is a noise power of 1e-320, where the SINR overflows.
    scn = tmp_path / "scn.json"
    flags = ["--cells", "2", "--subcarriers", "3", "--noise-dbw", "-3200"]
    main(["generate", *flags, "--out", str(scn)])
    capsys.readouterr()
    for method in ("lr", "ocd"):
        trace = tmp_path / f"trace-{method}.csv"
        with np.errstate(all="ignore"):
            code = main(["solve", str(scn), "--method", method,
                         "--trace-out", str(trace)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "partial trace written" in err
        header, rows = read_csv(str(trace))
        assert tuple(header) == TRACE_HEADER and rows
    out = tmp_path / "mc.csv"
    with np.errstate(all="ignore"):
        assert main(["montecarlo", *flags, "--realizations", "1", "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "method=lr " in summary and "failed=1" in summary
    _, rows = read_csv(str(out))
    assert [row[2] for row in rows if row[1] != "init"] == ["nan", "nan"]


@pytest.mark.parametrize("sweep", ["0,1", "1,nan", "1,-0.5"])
def test_montecarlo_refuses_a_bad_budget_before_running(monkeypatch, tmp_path, capsys, sweep):
    # A usage error before the first realization, even after valid budgets.
    import netalloc.experiment_cli as cli

    def never(*args, **kwargs):
        raise AssertionError("a realization ran")

    monkeypatch.setattr(cli, "_realize", never)
    out = tmp_path / "mc.csv"
    assert main(montecarlo_args(out, extra=("--pmax-sweep", sweep))) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ") and "p_max" in err
    assert not out.exists()


BAD_SOLVER_FLAGS = [["--psi", "0"], ["--psi", "nan"], ["--max-iter", "0"],
                    ["--rounds", "0"], ["--wsmr-tol", "-1"]]


@pytest.mark.parametrize("flags", BAD_SOLVER_FLAGS)
def test_solve_refuses_bad_solver_flags(tmp_path, capsys, flags):
    # A usage error before any work: no traceback, no trace file.
    scn = tmp_path / "scn.json"
    trace = tmp_path / "trace.csv"
    main(["generate", *SMALL, "--out", str(scn)])
    capsys.readouterr()
    assert main(["solve", str(scn), *flags, "--trace-out", str(trace)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert not trace.exists()


@pytest.mark.parametrize("flags", BAD_SOLVER_FLAGS)
def test_montecarlo_refuses_bad_solver_flags(tmp_path, capsys, flags):
    out = tmp_path / "mc.csv"
    assert main(montecarlo_args(out, extra=flags)) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ")
    assert not out.exists()


def test_oracle_assignment_check(capsys):
    code = main(["oracle", "--check", "assignment", "--trials", "10",
                 "--users-per-cell", "3", "--subcarriers", "6", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "assignment: trials=10" in out
    assert "verdict: ok" in out
    gap = float(out.split("max_relative_gap=")[1].splitlines()[0])
    assert gap <= 1e-12


def test_oracle_assignment_check_cycles_the_users_per_cell(monkeypatch, capsys):
    # One, two and three users in turn: both search kernels run in one check.
    import netalloc.experiment_cli as cli
    real, sizes = cli.solve_exact, []

    def recorded(table, current=None):
        sizes.append(table.shape)
        return real(table, current)

    monkeypatch.setattr(cli, "solve_exact", recorded)
    code = main(["oracle", "--check", "assignment", "--trials", "4",
                 "--users-per-cell", "1,2,3", "--subcarriers", "5", "--seed", "3"])
    assert code == 0
    assert "verdict: ok" in capsys.readouterr().out
    assert sizes == [(k, 5) for k in (1, 2, 3, 1) for _ in range(3)]
    # Without the flag every table has two users.
    sizes.clear()
    assert main(["oracle", "--check", "assignment", "--trials", "2",
                 "--subcarriers", "5"]) == 0
    assert sizes == [(2, 5)] * 6


def test_oracle_assignment_check_covers_the_warm_path(monkeypatch, capsys):
    # Each trial solves cold and warm-started from greedy and from a random
    # assignment; a wrong warm result fails it.
    import netalloc.experiment_cli as cli
    real, held = cli.solve_exact, []

    def wrong_when_warm(table, current=None):
        held.append(current)
        result = real(table, current)
        if current is None:
            return result
        return type(result)(result.assignment, result.min_rate * 1.01, result.nodes)

    monkeypatch.setattr(cli, "solve_exact", wrong_when_warm)
    code = main(["oracle", "--check", "assignment", "--trials", "3",
                 "--users-per-cell", "2", "--subcarriers", "5", "--seed", "2"])
    assert code == 1
    assert "verdict: FAIL" in capsys.readouterr().out
    assert sum(current is None for current in held) == 3
    assert sum(current is not None for current in held) == 6


def test_oracle_warm_starts_from_a_seeded_random_assignment(monkeypatch, capsys):
    # The third solve of every trial starts from a seeded random assignment,
    # not greedy's; a wrong result from that start alone fails the check.
    import netalloc.experiment_cli as cli
    real, starts = cli.solve_exact, []

    def wrong_when_random(table, current=None):
        result = real(table, current)
        if current is None or (current == cli.solve_greedy(table).assignment).all():
            return result
        starts.append(current.tolist())
        return type(result)(result.assignment, result.min_rate * 1.01, result.nodes)

    monkeypatch.setattr(cli, "solve_exact", wrong_when_random)
    args = ["oracle", "--check", "assignment", "--trials", "4",
            "--users-per-cell", "3", "--subcarriers", "6", "--seed", "5"]
    assert main(args) == 1
    assert "verdict: FAIL" in capsys.readouterr().out
    first, starts[:] = starts[:], []
    assert len(first) == 4
    assert main(args) == 1
    assert starts == first


def test_oracle_requires_warm_solves_to_return_the_cold_assignment(monkeypatch, capsys):
    # A warm solve may only prune: an assignment other than the cold one,
    # even at the same reported value, fails the check.
    import netalloc.experiment_cli as cli
    real = cli.solve_exact

    def other_when_warm(table, current=None):
        result = real(table, current)
        if current is None:
            return result
        return type(result)(1 - result.assignment, result.min_rate, result.nodes)

    args = ["oracle", "--check", "assignment", "--trials", "3",
            "--users-per-cell", "2", "--subcarriers", "5", "--seed", "2"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "warm_mismatches=0 max_relative_gap=" in out
    nodes = re.search(r"^assignment nodes: cold=(\d+) greedy_warm=(\d+) random_warm=(\d+)$",
                      out, re.M)
    assert nodes and all(int(count) >= 3 for count in nodes.groups())
    monkeypatch.setattr(cli, "solve_exact", other_when_warm)
    assert main(args) == 1
    out = capsys.readouterr().out
    assert "warm_mismatches=6 max_relative_gap=0" in out
    assert "verdict: FAIL" in out


def test_oracle_power_check(monkeypatch, capsys):
    import netalloc.experiment_cli as cli
    real, users = cli.generate_scenario, []

    def recorded(params):
        users.append(params.users_per_cell)
        return real(params)

    monkeypatch.setattr(cli, "generate_scenario", recorded)
    code = main(["oracle", "--check", "power", "--trials", "2",
                 "--grid", "80", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "power: trials=2" in out
    assert "verdict: ok" in out
    # One user, then two, unless --users-per-cell gives the counts to cycle.
    assert users == [(1,), (2,)]
    users.clear()
    code = main(["oracle", "--check", "power", "--trials", "3", "--grid", "80",
                 "--users-per-cell", "2,1"])
    assert code == 0
    assert "verdict: ok" in capsys.readouterr().out
    assert users == [(2,), (1,), (2,)]


def test_oracle_refuses_oversized_instances(capsys):
    code = main(["oracle", "--check", "assignment", "--users-per-cell", "4",
                 "--subcarriers", "10"])
    assert code == 2
    assert "limited to" in capsys.readouterr().err
    code = main(["oracle", "--check", "power", "--power-subcarriers", "3"])
    assert code == 2
    assert "limited to" in capsys.readouterr().err
    # A user without a subcarrier makes every objective 0: nothing to check.
    code = main(["oracle", "--check", "power", "--users-per-cell", "1,3"])
    assert code == 2
    assert "at most N = 2 users" in capsys.readouterr().err
    # The oracle builds its own one-cell instances and tables, so it has no
    # network flags to ignore.
    for flags in (["--cells", "3"], ["--weights", "1,2"]):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--check", "assignment", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--check", "power", "--grid", "1"], "--grid"),
    (["--check", "assignment", "--subcarriers", "0"], "one subcarrier"),
    (["--check", "assignment", "--users-per-cell", "2,0"], "one user"),
    (["--check", "power", "--power-subcarriers", "0"], "limited to 1 <= N"),
    (["--check", "power", "--pmax", "0"], "p_max"),
    (["--trials", "0"], "--trials"),
    (["--check", "assignment", "--trials", "-1"], "--trials"),
    # Checked before any trial runs, so the assignment check prints nothing.
    (["--check", "both", "--trials", "1", "--grid", "1"], "--grid"),
    (["--check", "assignment", "--seed", "-1"], "--seed"),
    (["--check", "power", "--seed", "-1"], "--seed"),
    # More users than subcarriers makes every optimum 0: a vacuous pass.
    (["--check", "assignment", "--users-per-cell", "4", "--subcarriers", "3"],
     "at most N = 3 users"),
    (["--check", "assignment", "--users-per-cell", "1,2", "--subcarriers", "1"],
     "at most N = 1 users"),
    # Refused at once: deciding K^N > 4096 needs no 100-million-digit power.
    (["--check", "assignment", "--users-per-cell", "3", "--subcarriers", "100000000"],
     "K^N <= 4096; got 3^100000000"),
])
def test_oracle_refuses_sizes_it_cannot_check(capsys, flags, message):
    # A usage error, not a solver abort, and never an empty `verdict: ok`.
    assert main(["oracle", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("flags", [["--grid", "100000"],
                                   ["--grid", "1001", "--power-subcarriers", "2"],
                                   ["--grid", "1000001", "--power-subcarriers", "1"]])
def test_oracle_refuses_a_grid_it_cannot_hold(monkeypatch, capsys, flags):
    # grid^N points, a few float arrays of them: --grid 100000 at N = 2 would
    # ask for about 80 GB per array.  Refused before any grid is built.
    def unreachable(*args, **kwargs):
        raise AssertionError("the power grid was built")

    monkeypatch.setattr(np, "linspace", unreachable)
    monkeypatch.setattr(np, "meshgrid", unreachable)
    assert main(["oracle", "--check", "power", "--trials", "1", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "grid^N <= 1000000" in err


def test_console_entry_point_runs():
    # The subprocess does not see pytest's `pythonpath` setting, so it gets
    # the directory holding the imported package on its own path.
    root = str(Path(netalloc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "netalloc.experiment_cli",
                           "--help"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "montecarlo" in proc.stdout
