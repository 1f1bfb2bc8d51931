"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from netalloc import (RunConfig, ScenarioParams, bus, coordinator,  # noqa: E402
                      generate_scenario, initial_point, wsmr)


def test_tail_takes_the_value_with_ten_beyond_it():
    values = [float(v) for v in range(25, 0, -1)]
    assert run.tail(values) == (15.0, 60.0)


def test_tail_with_eleven_values_is_the_minimum():
    value, percentile = run.tail([float(v) for v in range(1, 12)])
    assert value == 1.0
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_with_ten_values_or_fewer_falls_back_to_the_maximum():
    assert run.tail([3.0, 9.0, 1.0]) == (9.0, 100.0)
    assert run.tail([float(v) for v in range(10)]) == (9.0, 100.0)


def span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),         # overlaps a: the union is [1, 6]
        span("a.child", 1.5, 2.0, 1),   # grandchild: not subtracted from root
        span("late", 9.0, 12.0, 0),     # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.5, 3.0, 0.5, 3.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert tracing.self_times([span("leaf", 2.0, 2.5, -1)]) == [0.5]


def bindings():
    """Every netalloc module attribute and the bus method, by identity."""
    out = {(name, attr): value for name, module in sys.modules.items()
           if name == "netalloc" or name.startswith("netalloc.")
           for attr, value in vars(module).items() if callable(value)}
    out[("bus.MessageBus", "exchange")] = bus.MessageBus.exchange
    return out


def test_tracer_wraps_every_binding_and_removes_the_wrappers():
    import netalloc
    from netalloc import experiment_cli, lr_power, ocd_power, rate_model

    before = bindings()
    scn = generate_scenario(ScenarioParams(num_cells=2, num_subcarriers=4,
                                           users_per_cell=2, seed=3))
    tracer = tracing.Tracer()
    with tracer:
        for module in (netalloc, rate_model, coordinator, ocd_power, lr_power,
                       experiment_cli):
            assert module.wsmr is not before[("netalloc.rate_model", "wsmr")]
            assert module.wsmr.__wrapped__ is before[("netalloc.rate_model", "wsmr")]
        assert bus.MessageBus.exchange is not before[("bus.MessageBus", "exchange")]
        coordinator.run(scn, RunConfig(max_rounds=1))
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    names = [s[tracing.NAME] for s in tracer.spans]
    for expected in ("coordinator.run", "ocd_power.ocd_solve", "ocd_power.newton_step",
                     "rate_model.wsmr", "rate_model.cell_user_rates", "bus.exchange",
                     "subcarrier_alloc.solve_all_cells", "subcarrier_alloc.solve_exact"):
        assert expected in names
    root = names.index("coordinator.run")
    solve = tracer.spans[names.index("ocd_power.ocd_solve")]
    assert solve[tracing.PARENT] == root
    assert solve[tracing.INFO][0] >= 1
    assert all(s[tracing.END] >= s[tracing.START] for s in tracer.spans)


def test_tracer_removes_the_wrappers_when_the_op_raises():
    before = bindings()
    with pytest.raises(ValueError):
        with tracing.Tracer():
            coordinator.run(None, RunConfig(psi=-1.0))
    after = bindings()
    assert all(after[key] is before[key] for key in before)


def declared(kind):
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def emitted(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def test_every_end_to_end_metric_is_declared_with_its_unit():
    result = SimpleNamespace(best_wsmr=2.0, first_phase_converged=True)
    metrics, _ = run.end_to_end_metrics(
        {0: [1.0, 1.2], 1: [0.5]}, {0: SimpleNamespace(runs=[result])},
        attempted=3, failed=0, setup_s=0.7, peak_rss_mb=40.0)
    assert emitted(metrics) == declared("end_to_end")
    assert all(value != 0 for value, _ in metrics.values())


def test_every_layer_metric_is_declared_with_its_unit():
    metrics = run.layer_metrics([], [], [1.0], 0.0)
    assert emitted(metrics) == declared("per_layer")


def test_relabel_renumbers_cells_and_keeps_the_round_robin_start():
    scn = generate_scenario(ScenarioParams(num_cells=3, num_subcarriers=8,
                                           users_per_cell=2, seed=5))
    moved = workloads.relabel(scn, np.random.default_rng(1))
    assert not np.array_equal(moved.gains, scn.gains)
    assert sorted(moved.gains.ravel()) == sorted(scn.gains.ravel())
    power, assignment = initial_point(scn)
    assert wsmr(moved, *initial_point(moved)).value == pytest.approx(
        wsmr(scn, power, assignment).value, rel=1e-12)


def test_check_accepts_a_solved_op_and_flags_a_wrong_objective():
    workload = replace(workloads.WORKLOADS["assign-exact"], catalog_size=1,
                       params=ScenarioParams(num_cells=2, num_subcarriers=6,
                                             users_per_cell=2))
    entries, order = workloads.build_catalog(workload, seed=4)
    assert order == [0]
    outcome = workloads.run_op(workload, entries[0])
    assert workloads.check(workload, entries[0], outcome) == []
    result = outcome.runs[0]
    wrong = replace(outcome, runs=[replace(result, best_wsmr=result.best_wsmr * 1.001)])
    assert workloads.check(workload, entries[0], wrong)
    low = replace(outcome, initial_wsmr=result.best_wsmr * 2.0)
    assert any("below the initial" in p for p in workloads.check(workload, entries[0], low))


def test_scaled_times_divide_by_the_median_of_the_nearest_loops():
    timings = SimpleNamespace(loops=[2.0, 4.0, 6.0, 8.0],
                              sequence=[(0, 1.0, 0), (1, 1.0, 1), (0, 3.0, 2)])
    ref = run.CAL_REF_S
    assert run.Session.scaled_times(timings) == pytest.approx(
        [ref / 4.0, ref / 5.0, 3.0 * ref / 6.0])
