import numpy as np
import pytest

import netalloc.lr_power as lr_module
from netalloc import (LrDivergenceError, MessageBus, best_response,
                      dual_step_size, lr_solve, project_simplex,
                      solve_all_cells, update_multipliers, wsmr)

from conftest import hand_scenario, make_scenario


def desk_instance(seed=0):
    s = make_scenario(cells=3, subcarriers=4, users=2, seed=seed)
    power = np.full((3, 4), s.p_max / 4)
    assignment = solve_all_cells(s, power)
    return s, assignment, power


def simplex_by_bisection(v, total):
    lo, hi = float(v.min()) - total, float(v.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid, 0.0).sum() > total:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - hi, 0.0)


def water_filling_by_bisection(coeff, weight, budget):
    """Reference best response: geometric bisection on the water level nu."""
    on = weight * coeff > 0.0

    def powers(nu):
        p = np.zeros_like(coeff)
        p[on] = np.maximum(weight[on] / nu - 1.0 / coeff[on], 0.0)
        return p

    lo, hi = 1e-300, float((weight * coeff).max())
    for _ in range(2000):
        mid = np.sqrt(lo * hi)
        if mid <= lo or mid >= hi:
            break
        if powers(mid).sum() > budget:
            lo = mid
        else:
            hi = mid
    return powers(hi)


def test_simplex_projection_examples():
    assert project_simplex(np.array([0.5, 0.5]), 1.0) == \
        pytest.approx([0.5, 0.5], abs=1e-15)
    assert project_simplex(np.array([2.0, 0.0]), 1.0) == \
        pytest.approx([1.0, 0.0], abs=1e-15)
    assert (project_simplex(np.array([3.0, -1.0]), 0.0) == 0.0).all()
    with pytest.raises(ValueError):
        project_simplex(np.array([1.0]), -0.5)


def test_simplex_projection_matches_bisection():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        v = rng.normal(scale=2.0, size=n)
        total = float(rng.uniform(0.1, 3.0))
        fast = project_simplex(v, total)
        slow = simplex_by_bisection(v, total)
        assert np.abs(fast - slow).max() < 1e-9
        assert fast.sum() == pytest.approx(total, rel=1e-10)
        assert (fast >= 0.0).all()


def test_dual_step_size_schedule():
    assert dual_step_size(0) == 1.0
    assert dual_step_size(10) == pytest.approx(0.5, rel=1e-15)
    assert dual_step_size(4, alpha0=2.0, beta=0.25) == pytest.approx(1.0)
    sizes = [dual_step_size(t) for t in range(20)]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))


def test_update_multipliers_plain_step():
    lam = [np.array([0.6, 0.4])]
    residuals = [np.array([0.2, -0.2])]
    out = update_multipliers(lam, residuals, (1.0,), 10)
    assert out[0] == pytest.approx([0.7, 0.3], abs=1e-15)


def test_update_multipliers_zero_residual_fixed_point():
    lam = [np.array([0.25, 0.75]), np.array([1.5, 0.5])]
    residuals = [np.zeros(2), np.zeros(2)]
    out = update_multipliers(lam, residuals, (1.0, 2.0), 3)
    for before, after in zip(lam, out):
        assert after == pytest.approx(before, abs=1e-15)


def test_update_multipliers_shifts_toward_lagging_user():
    rng = np.random.default_rng(9)
    for _ in range(20):
        lam = [project_simplex(rng.uniform(size=3), 1.0)]
        res = rng.normal(size=3)
        res -= res.mean()
        out = update_multipliers(lam, [res], (1.0,), int(rng.integers(50)))
        assert out[0].sum() == pytest.approx(1.0, rel=1e-10)
        assert (out[0] >= 0.0).all()
        worst = int(np.argmax(res))
        best = int(np.argmin(res))
        assert out[0][worst] - out[0][best] >= lam[0][worst] - lam[0][best] - 1e-12


def test_best_response_water_filling():
    # Known closed form: level 1.25 gives powers 0.75 and 0.25.
    p = best_response(np.array([2.0, 1.0]), np.array([1.0, 1.0]), 1.0)
    assert p == pytest.approx([0.75, 0.25], abs=1e-14)
    assert p.sum() == pytest.approx(1.0, rel=1e-14)


def test_best_response_simple_cases():
    p = best_response(np.array([3.0]), np.array([1.0]), 2.0)
    assert p == pytest.approx([2.0], rel=1e-14)
    p = best_response(np.array([2.0, 5.0]), np.array([1.0, 0.0]), 1.0)
    assert p == pytest.approx([1.0, 0.0], abs=1e-14)
    # A weak subcarrier stays dry: level 1/nu = 1.5 is below 1/c = 2.
    p = best_response(np.array([2.0, 0.5]), np.array([1.0, 1.0]), 1.0)
    assert p == pytest.approx([1.0, 0.0], abs=1e-14)
    assert (best_response(np.array([2.0, 5.0]), np.zeros(2), 1.0) == 0.0).all()
    assert (best_response(np.array([2.0, 5.0]), np.ones(2), 0.0) == 0.0).all()


def test_best_response_never_decreases_objective():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        coeff = rng.exponential(size=n) * 10
        weight = rng.uniform(size=n)
        budget = float(rng.uniform(0.5, 2.0))
        start = rng.uniform(size=n)
        start *= rng.uniform(0.0, budget) / start.sum()
        p = best_response(coeff, weight, budget)
        v0 = weight @ np.log1p(coeff * start)
        v1 = weight @ np.log1p(coeff * p)
        assert v1 >= v0 - 1e-12
        assert (p >= 0.0).all()
        assert p.sum() <= budget * (1.0 + 1e-12)


def test_best_response_matches_bisection():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 65))
        coeff = 10.0 ** rng.uniform(-2.0, 6.0, size=n)
        weight = rng.uniform(size=n)
        weight[rng.uniform(size=n) < 0.2] = 0.0
        if not weight.any():
            weight[0] = 1.0
        budget = float(10.0 ** rng.uniform(-2.0, 1.0))
        fast = best_response(coeff, weight, budget)
        slow = water_filling_by_bisection(coeff, weight, budget)
        assert (fast >= 0.0).all()
        assert fast.sum() <= budget * (1.0 + 1e-12)
        assert (fast[weight == 0.0] == 0.0).all()
        v_fast = weight @ np.log1p(coeff * fast)
        v_slow = weight @ np.log1p(coeff * slow)
        assert v_fast >= v_slow - 1e-12 * abs(v_slow)
        assert abs(v_fast - v_slow) <= 1e-12 * abs(v_slow)


def test_solver_single_cell_splits_evenly():
    gains = np.full((1, 1, 1, 2), 1e-4)
    s = hand_scenario(gains, users_per_cell=1)
    assignment = np.ones((1, 1, 2), dtype=np.int8)
    power = np.array([[0.9, 0.1]])
    result = lr_solve(s, assignment, power, psi=1e-6, max_iters=300)
    assert result.converged
    assert abs(result.power[0, 0] - result.power[0, 1]) < 1e-4
    assert result.power.sum() == pytest.approx(s.p_max, abs=1e-6)


def test_solver_improves_on_uniform_start():
    s, assignment, power = desk_instance()
    start = wsmr(s, power, assignment).value
    result = lr_solve(s, assignment, power, psi=1e-4, max_iters=300)
    assert wsmr(s, result.power, assignment).value > start


def test_solver_trace_and_stop_rule():
    s, assignment, power = desk_instance()
    result = lr_solve(s, assignment, power, psi=0.05, max_iters=300)
    assert result.converged
    assert result.iterations == len(result.trace)
    assert result.trace[-1].delta_p_norm < 0.05
    assert all(row.delta_p_norm >= 0.05 for row in result.trace[:-1])
    one = lr_solve(s, assignment, power, psi=1e-12, max_iters=1)
    assert one.iterations == 1 and not one.converged


def test_frozen_multipliers_with_zero_step():
    s, assignment, power = desk_instance()
    result = lr_solve(s, assignment, power, psi=1e-4, max_iters=50, alpha0=0.0)
    for m, lam_m in enumerate(result.lam):
        k = s.users_per_cell[m]
        assert lam_m == pytest.approx(np.full(k, s.weights[m] / k), abs=1e-15)


def test_multipliers_stay_on_weight_simplex():
    s, assignment, power = desk_instance(seed=2)
    result = lr_solve(s, assignment, power, psi=1e-4, max_iters=100)
    for m, lam_m in enumerate(result.lam):
        assert lam_m.sum() == pytest.approx(s.weights[m], rel=1e-9)
        assert (lam_m >= 0.0).all()


def test_message_accounting():
    s, assignment, power = desk_instance()
    bus = MessageBus()
    result = lr_solve(s, assignment, power, psi=0.05, max_iters=100, bus=bus)
    assert bus.messages_total == 2 * 3 * result.iterations
    per_exchange = 3 * sum((4 + 2) * 8 for _ in range(3))
    assert bus.bytes_total == per_exchange * result.iterations


def test_input_validation():
    s, assignment, power = desk_instance()
    with pytest.raises(ValueError):
        lr_solve(s, assignment, power, psi=-1.0)
    with pytest.raises(ValueError):
        lr_solve(s, assignment, power, max_iters=0)


def test_divergence_error_carries_partial_trace(monkeypatch):
    s, assignment, power = desk_instance()
    real = lr_module._cell_best_response
    calls = {"count": 0}

    def flaky(scenario, assignment_, m, denom, lam_m):
        calls["count"] += 1
        if calls["count"] > scenario.num_cells:
            return np.full(scenario.num_subcarriers, np.nan)
        return real(scenario, assignment_, m, denom, lam_m)

    monkeypatch.setattr(lr_module, "_cell_best_response", flaky)
    with pytest.raises(LrDivergenceError) as excinfo:
        lr_module.lr_solve(s, assignment, power, psi=1e-12, max_iters=10)
    assert excinfo.value.iteration == 2
    assert len(excinfo.value.trace) == 1
