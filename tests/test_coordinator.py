import dataclasses
import warnings

import numpy as np
import pytest

import netalloc.coordinator as coord_module
from netalloc import (CoordinatorAbort, MessageBus, OcdStepError, RunConfig,
                      check_convergence, initial_point, run,
                      validate_assignment, validate_power, wsmr)

from conftest import make_scenario


def desk_scenario(seed=0, **kw):
    return make_scenario(cells=3, subcarriers=4, users=2, seed=seed, **kw)


def test_check_convergence_examples():
    same = np.full((2, 3), 0.2)
    assert check_convergence(same, same.copy(), 0.1) is True
    prev = np.zeros((2, 2))
    now = prev.copy()
    now[0, 0] = 0.1
    assert check_convergence(now, prev, 0.1) is False     # strict inequality
    a = np.array([[0.30, 0.20], [0.25, 0.25]])
    b = np.array([[0.25, 0.25], [0.25, 0.25]])            # movement 0.0707
    assert check_convergence(a, b, 0.1) is True
    assert check_convergence(a, b, 0.07) is False


def test_check_convergence_validation():
    with pytest.raises(ValueError):
        check_convergence(np.zeros((2, 2)), np.zeros((2, 3)), 0.1)
    with pytest.raises(ValueError):
        check_convergence(np.zeros((2, 2)), np.zeros((2, 2)), 0.0)


def test_message_bus_exchange_accounting():
    # Three cells, each reporting 8 powers, one auxiliary rate, 2 multipliers.
    record = MessageBus().exchange([8 + 1 + 2] * 3)
    assert record.messages == 6
    assert record.gather_bytes == (88, 88, 88)
    assert record.broadcast_bytes == (176, 176, 176)
    assert record.total_bytes == 792


def test_message_bus_accumulates_and_validates():
    bus = MessageBus()
    first = bus.exchange([2 + 1 + 1])
    assert first.messages == 2
    bus.exchange([2 + 1 + 1])
    assert bus.messages_total == 4
    assert bus.bytes_total == 2 * first.total_bytes
    for bad in ([], [3, -1], [None]):
        with pytest.raises(ValueError):
            bus.exchange(bad)
    assert bus.messages_total == 4


def test_initial_point_layout():
    s = make_scenario(cells=2, subcarriers=5, users=2, seed=1)
    power, assignment = initial_point(s)
    assert (power == s.p_max / 5).all()
    validate_power(s, power)
    validate_assignment(s, assignment, require_complete=True)
    for n in range(5):
        for m in range(2):
            assert assignment[m, n % 2, n] == 1


def test_config_validation():
    RunConfig().validated()
    RunConfig(wsmr_tol=0.0).validated()
    RunConfig(wsmr_tol=np.inf).validated()
    bad = [dict(psi=0.0), dict(psi=np.nan), dict(max_power_iters=0),
           dict(max_rounds=0), dict(wsmr_tol=-1.0), dict(power_method="fast"),
           dict(subcarrier_mode="random")]
    for kw in bad:
        with pytest.raises(ValueError):
            RunConfig(**kw).validated()


def test_run_improves_and_reports_consistently():
    s = desk_scenario()
    power, assignment = initial_point(s)
    start = wsmr(s, power, assignment).value
    result = run(s, RunConfig(psi=0.05, max_rounds=4))
    assert result.best_wsmr >= start
    assert result.best_wsmr >= result.final_wsmr - 1e-12
    assert result.final_wsmr == pytest.approx(
        wsmr(s, result.final_power, result.final_assignment).value, rel=1e-12)
    assert result.best_wsmr == pytest.approx(
        wsmr(s, result.best_power, result.best_assignment).value, rel=1e-12)
    validate_power(s, result.final_power)
    validate_assignment(s, result.final_assignment, require_complete=True)


def test_run_single_round_when_tolerance_is_infinite():
    s = desk_scenario()
    result = run(s, RunConfig(wsmr_tol=np.inf))
    assert result.rounds == 1
    assert result.power_iterations == result.first_phase_iterations
    sub_rows = [r for r in result.trace if r.phase == "subcarrier"]
    assert len(sub_rows) == 1


def test_run_trace_structure():
    s = desk_scenario()
    result = run(s, RunConfig(psi=0.05, max_rounds=3))
    rounds_seen = sorted({r.round for r in result.trace})
    assert rounds_seen == list(range(result.rounds))
    for idx in rounds_seen:
        rows = [r for r in result.trace if r.round == idx]
        assert rows[-1].phase == "subcarrier"
        power_rows = rows[:-1]
        assert all(r.phase == "power" for r in power_rows)
        assert [r.iteration for r in power_rows] == \
            list(range(1, len(power_rows) + 1))
    assert result.power_iterations == \
        sum(1 for r in result.trace if r.phase == "power")
    elapsed = [r.elapsed_s for r in result.trace]
    assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))


def test_run_message_totals_span_phases():
    s = desk_scenario()
    result = run(s, RunConfig(psi=0.05, max_rounds=3))
    assert result.messages == 2 * 3 * result.power_iterations
    assert result.trace[-1].messages == result.messages
    assert result.trace[-1].bytes == result.bytes
    messages = [r.messages for r in result.trace]
    assert all(b >= a for a, b in zip(messages, messages[1:]))


def test_run_reassignment_rows_never_drop_wsmr():
    s = desk_scenario(seed=3)
    result = run(s, RunConfig(psi=0.05, max_rounds=4))
    for idx in range(result.rounds):
        rows = [r for r in result.trace if r.round == idx]
        assert rows[-1].wsmr >= rows[-2].wsmr - 1e-10


def test_run_deterministic():
    s = desk_scenario(seed=5)
    first = run(s, RunConfig(psi=0.05, max_rounds=3))
    second = run(s, RunConfig(psi=0.05, max_rounds=3))
    assert (first.final_power == second.final_power).all()
    assert first.best_wsmr == second.best_wsmr
    for a, b in zip(first.trace, second.trace):
        assert (a.round, a.phase, a.iteration, a.wsmr, a.delta_p_norm,
                a.messages, a.bytes) == \
            (b.round, b.phase, b.iteration, b.wsmr, b.delta_p_norm,
             b.messages, b.bytes)


def test_run_with_benchmark_method_and_greedy_mode():
    s = desk_scenario(seed=1)
    power, assignment = initial_point(s)
    start = wsmr(s, power, assignment).value
    result = run(s, RunConfig(psi=0.05, max_rounds=2, power_method="lr",
                              subcarrier_mode="greedy", max_power_iters=100))
    assert result.best_wsmr >= start
    assert result.rounds >= 1


def test_ocd_run_with_zero_weight_cell():
    # Validation accepts a zero cell weight; OCD must still start interior.
    for seed in range(4):
        s = make_scenario(cells=3, subcarriers=8, users=2, seed=seed,
                          weights=(0.0, 1.0, 1.0))
        power, assignment = initial_point(s)
        start = wsmr(s, power, assignment).value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run(s, RunConfig(power_method="ocd"))
        validate_power(s, result.best_power)
        validate_assignment(s, result.best_assignment, require_complete=True)
        assert np.isfinite(result.best_wsmr)
        assert result.best_wsmr >= start


def test_unequal_cells_never_read_padded_rows():
    # Cells with 1, 2 and 3 users pad the user axis to 3.  Overwriting the
    # filler with NaN must not change any result: every consumer slices or
    # masks the padded rows away instead of multiplying them by zero.
    for seed in range(4):
        s = make_scenario(cells=3, subcarriers=6, users=(1, 2, 3), seed=seed)
        gains, noise = s.gains.copy(), s.noise.copy()
        for m, k_m in enumerate(s.users_per_cell):
            gains[:, m, k_m:, :] = np.nan
            noise[m, k_m:, :] = np.nan
        poisoned = dataclasses.replace(s, gains=gains, noise=noise)
        for method in ("ocd", "lr"):
            for mode in ("exact", "greedy"):
                config = RunConfig(power_method=method, subcarrier_mode=mode)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    clean = run(s, config)
                    dirty = run(poisoned, config)
                assert np.isfinite(clean.best_wsmr)
                assert dirty.best_wsmr == clean.best_wsmr
                assert dirty.best_power.tobytes() == clean.best_power.tobytes()


def test_run_abort_carries_partial_trace(monkeypatch):
    s = desk_scenario()
    real = coord_module.ocd_solve
    calls = {"count": 0}

    def flaky(scenario, assignment, power, **kw):
        calls["count"] += 1
        if calls["count"] == 2:
            raise OcdStepError(0, "forced failure", iteration=3,
                               trace=real(scenario, assignment, power,
                                          **dict(kw, max_iters=2)).trace)
        return real(scenario, assignment, power, **kw)

    monkeypatch.setattr(coord_module, "ocd_solve", flaky)
    with pytest.raises(CoordinatorAbort) as excinfo:
        coord_module.run(s, RunConfig(psi=1e-9, max_rounds=5,
                                      max_power_iters=40, wsmr_tol=0.0))
    partial = excinfo.value.trace
    assert partial, "abort should carry the rows produced so far"
    assert partial[0].round == 0
    failed_round_rows = [r for r in partial if r.round == 1]
    assert len(failed_round_rows) == 2
    assert all(r.phase == "power" for r in failed_round_rows)


def test_run_respects_round_budget():
    s = desk_scenario(seed=7)
    result = run(s, RunConfig(psi=0.05, max_rounds=2, wsmr_tol=0.0))
    assert result.rounds == 2
