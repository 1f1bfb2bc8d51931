import numpy as np
import pytest

import netalloc.lr_power as lr_module
import netalloc.rate_model as rate_module
from netalloc import (LrDivergenceError, MessageBus, best_response,
                      dual_step_size, link_terms, lr_solve, project_simplex,
                      solve_all_cells, update_multipliers, wsmr)
from netalloc.bus import relay

from conftest import hand_scenario, make_scenario, per_cell_wsmr


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
    assert project_simplex(np.array([0.5, 0.5]), 1.0, True) == \
        pytest.approx([0.5, 0.5], abs=1e-15)
    assert project_simplex(np.array([2.0, 0.0]), 1.0, True) == \
        pytest.approx([1.0, 0.0], abs=1e-15)
    assert (project_simplex(np.array([3.0, -1.0]), 0.0, True) == 0.0).all()
    with pytest.raises(ValueError):
        project_simplex(np.array([1.0]), -0.5, True)


def test_simplex_projection_matches_bisection():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        v = rng.normal(scale=2.0, size=n)
        total = float(rng.uniform(0.1, 3.0))
        fast = project_simplex(v, total, True)
        slow = simplex_by_bisection(v, total)
        assert np.abs(fast - slow).max() < 1e-9
        assert fast.sum() == pytest.approx(total, rel=1e-10)
        assert (fast >= 0.0).all()


def test_dual_step_size_schedule():
    assert dual_step_size(0) == 1.0
    assert dual_step_size(10) == pytest.approx(0.5, rel=1e-15)
    sizes = [dual_step_size(t) for t in range(20)]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))


def test_update_multipliers_plain_step():
    lam = [np.array([0.6, 0.4])]
    residuals = [np.array([0.2, -0.2])]
    out = update_multipliers(lam, residuals, (1.0,), 10, True)
    assert out[0] == pytest.approx([0.7, 0.3], abs=1e-15)


def test_update_multipliers_zero_residual_fixed_point():
    lam = [np.array([0.25, 0.75]), np.array([1.5, 0.5])]
    residuals = [np.zeros(2), np.zeros(2)]
    out = update_multipliers(lam, residuals, (1.0, 2.0), 3, True)
    for before, after in zip(lam, out):
        assert after == pytest.approx(before, abs=1e-15)


def test_update_multipliers_shifts_toward_lagging_user():
    rng = np.random.default_rng(9)
    for _ in range(20):
        lam = [project_simplex(rng.uniform(size=3), 1.0, True)]
        res = rng.normal(size=3)
        res -= res.mean()
        out = update_multipliers(lam, [res], (1.0,), int(rng.integers(50)), True)
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
    # coordinator.run takes the phase's objective from the last row.
    assert result.trace[-1].wsmr == wsmr(s, result.power, assignment).value
    one = lr_solve(s, assignment, power, psi=1e-12, max_iters=1)
    assert one.iterations == 1 and not one.converged


def test_frozen_multipliers_with_zero_step(monkeypatch):
    monkeypatch.setattr(lr_module, "ALPHA0", 0.0)
    s, assignment, power = desk_instance()
    result = lr_solve(s, assignment, power, psi=1e-4, max_iters=50)
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
    real = lr_module.WaterFillingPlan.__call__
    calls = {"count": 0}

    def flaky(plan, coeff, weight):
        calls["count"] += 1
        if calls["count"] > 1:
            return np.full(np.shape(coeff), np.nan)
        return real(plan, coeff, weight)

    monkeypatch.setattr(lr_module.WaterFillingPlan, "__call__", flaky)
    with pytest.raises(LrDivergenceError) as excinfo:
        lr_module.lr_solve(s, assignment, power, psi=1e-12, max_iters=10)
    assert excinfo.value.iteration == 2
    assert len(excinfo.value.trace) == 1


def test_one_link_evaluation_per_sweep(monkeypatch):
    # A sweep's rate evaluation gives the next sweep's interference, so a
    # phase evaluates the link kernel once at its start and once per sweep.
    s, assignment, power = desk_instance()
    real = rate_module.link_terms
    calls = {"count": 0}

    def counted(*args):
        calls["count"] += 1
        return real(*args)

    monkeypatch.setattr(rate_module, "link_terms", counted)
    monkeypatch.setattr(lr_module, "link_terms", counted)
    result = lr_solve(s, assignment, power, psi=1e-12, max_iters=25)
    assert result.iterations == 25
    assert calls["count"] == result.iterations + 1


# The per-cell LR route the batched sweep replaced: one water-filling and one
# simplex projection per cell, each on a 1-D row.  The batched route must
# repeat its arithmetic bit for bit.

def best_response_per_row(coeff, weight, budget):
    gain = weight * coeff
    p = np.zeros_like(gain)
    order = np.argsort(-gain, kind="stable")
    order = order[gain[order] > 0.0]
    if order.size == 0 or budget <= 0.0:
        return p
    inv = 1.0 / coeff[order]
    levels = np.cumsum(weight[order]) / (budget + np.cumsum(inv))
    above = np.nonzero(gain[order] > levels)[0]
    k = int(above[-1]) + 1 if above.size else 1
    active = order[:k]
    p[active] = np.maximum(weight[active] / levels[k - 1] - inv[:k], 0.0)
    total = float(p.sum())
    if total > budget:
        p *= budget / total
    return p


def project_simplex_per_row(v, total):
    if total == 0.0:
        return np.zeros_like(v)
    dropped = np.sort(v)[::-1]
    cumulative = np.cumsum(dropped) - total
    ranks = np.arange(1, v.size + 1)
    valid = dropped - cumulative / ranks > 0.0
    rho = int(np.nonzero(valid)[0][-1])
    shift = cumulative[rho] / (rho + 1.0)
    return np.maximum(v - shift, 0.0)


def per_cell_lr(s, assignment, power, *, psi, max_iters):
    """`lr_solve` cell by cell; returns (power, lam, trace)."""
    a = np.asarray(assignment)
    lam = [np.full(k, w / k) for k, w in zip(s.users_per_cell, s.weights)]

    def sweep(iteration, power):
        nonlocal lam
        _, denom = link_terms(s, power)
        rows = []
        for m, k_m in enumerate(s.users_per_cell):
            own = a[m, :k_m] == 1
            coeff = np.where(own, s.gains[m, m, :k_m] / denom[m, :k_m], 0.0).sum(axis=0)
            weight = np.where(own, lam[m][:, None], 0.0).sum(axis=0)
            rows.append(best_response_per_row(coeff, weight, s.p_max))
        power_now = np.vstack(rows)
        reported = per_cell_wsmr(s, power_now, assignment)
        step = dual_step_size(iteration - 1)
        lam = [project_simplex_per_row(lam_m + step * (r.mean() - r), w_m)
               for lam_m, r, w_m in zip(lam, reported.user_rates, s.weights)]
        return power_now, reported

    sizes = [s.num_subcarriers + k for k in s.users_per_cell]
    power, trace, _ = relay(sweep, power, sizes, psi=psi, max_iters=max_iters)
    return power, lam, trace


def trace_key(row):
    return (row.iteration, row.wsmr, row.delta_p_norm, row.min_rates,
            row.messages, row.bytes)


@pytest.mark.parametrize("case", ["desk", "unequal", "zero_weight"])
def test_lr_solve_matches_per_cell_route_bit_for_bit(case):
    if case == "desk":
        s, assignment, power = desk_instance()
    else:
        kw = ({"users": (1, 2, 3), "seed": 4} if case == "unequal"
              else {"users": 2, "seed": 1, "weights": (0.0, 1.0, 1.0)})
        s = make_scenario(cells=3, subcarriers=6, **kw)
        power = np.full((3, 6), s.p_max / 6)
        assignment = solve_all_cells(s, power)
    result = lr_solve(s, assignment, power, psi=1e-12, max_iters=200)
    ref_power, ref_lam, ref_trace = per_cell_lr(s, assignment, power,
                                                psi=1e-12, max_iters=200)
    assert result.power.tobytes() == ref_power.tobytes()
    assert [lam.tobytes() for lam in result.lam] == [lam.tobytes() for lam in ref_lam]
    assert [trace_key(r) for r in result.trace] == [trace_key(r) for r in ref_trace]


def test_row_wise_best_response_matches_rows():
    rng = np.random.default_rng(31)
    for _ in range(200):
        rows, n = int(rng.integers(1, 7)), int(rng.integers(1, 65))
        if rng.uniform() < 0.5:
            # Exact ties in weight * coeff from different factors, in rows
            # long enough that an unstable sort reorders them.
            weight = rng.choice([0.25, 0.5, 1.0, 2.0], size=(rows, n))
            coeff = rng.choice([1.0, 3.0, 5.0], size=(rows, n)) / weight
        else:
            weight = rng.uniform(size=(rows, n))
            coeff = 10.0 ** rng.uniform(-2.0, 6.0, size=(rows, n))
        weight[rng.uniform(size=(rows, n)) < 0.2] = 0.0
        coeff[rng.uniform(size=(rows, n)) < 0.1] = 0.0
        weight[rng.uniform(size=rows) < 0.1] = 0.0
        coeff[rng.uniform(size=rows) < 0.1] = 0.0
        budget = float(10.0 ** rng.uniform(-2.0, 1.0))
        batched = best_response(coeff, weight, budget)
        assert batched.shape == (rows, n)
        for r in range(rows):
            want = best_response_per_row(coeff[r], weight[r], budget).tobytes()
            assert batched[r].tobytes() == want
            assert best_response(coeff[r], weight[r], budget).tobytes() == want


def test_row_wise_project_simplex_matches_rows():
    rng = np.random.default_rng(37)
    for _ in range(200):
        rows, width = int(rng.integers(1, 7)), int(rng.integers(1, 25))
        sizes = rng.integers(1, width + 1, size=rows)
        real = np.arange(width) < sizes[:, None]
        v = rng.normal(scale=2.0, size=(rows, width))
        ties = rng.uniform(size=(rows, width)) < 0.3
        v[ties] = np.round(v[ties])
        v[~real] = np.nan        # padded slots must never be read
        total = rng.uniform(0.1, 3.0, size=rows)
        total[rng.uniform(size=rows) < 0.2] = 0.0
        batched = project_simplex(v, total, real)
        assert (batched[~real] == 0.0).all()
        for r in range(rows):
            k = sizes[r]
            want = project_simplex_per_row(v[r, :k], total[r]).tobytes()
            assert batched[r, :k].tobytes() == want
            assert project_simplex(v[r, :k], total[r], True).tobytes() == want


def test_plans_match_rows_on_edge_cases():
    rng = np.random.default_rng(41)
    coeff = 10.0 ** rng.uniform(-2.0, 4.0, size=(4, 8))
    weight = rng.uniform(size=(4, 8))
    weight[0, :3] = 0.0
    coeff[1, 2:5] = 0.0
    weight[2] = 0.0
    coeff[3] = 0.0
    for budget in (0.0, 1.5):
        rows = lr_module.WaterFillingPlan(coeff.shape, budget)(coeff, weight)
        for r in range(len(coeff)):
            want = best_response_per_row(coeff[r], weight[r], budget).tobytes()
            assert rows[r].tobytes() == want
            one = lr_module.WaterFillingPlan(coeff[r].shape, budget)(coeff[r], weight[r])
            assert one.shape == coeff[r].shape and one.tobytes() == want

    sizes = (1, 2, 3)
    real = np.arange(3) < np.array(sizes)[:, None]
    total = np.array([0.7, 0.0, 2.0])
    plan = lr_module.SimplexPlan(total, real, real.shape)
    for _ in range(20):
        v = rng.normal(scale=2.0, size=real.shape)
        v[~real] = np.nan        # padded slots must never be read
        got = plan(v)
        assert (got[~real] == 0.0).all()
        for r, k in enumerate(sizes):
            assert got[r, :k].tobytes() == project_simplex_per_row(v[r, :k], total[r]).tobytes()
        flat = v[2]
        one = lr_module.SimplexPlan(1.3, True, flat.shape)(flat)
        assert one.shape == flat.shape
        assert one.tobytes() == project_simplex_per_row(flat, 1.3).tobytes()


def test_simplex_plan_skips_its_masks_only_when_every_slot_is_live():
    real = np.arange(3) < np.array([1, 2, 3])[:, None]
    assert not lr_module.SimplexPlan([1.0, 0.5, 2.0], True, (3, 3)).masked
    assert lr_module.SimplexPlan([1.0, 0.0, 2.0], True, (3, 3)).masked
    assert lr_module.SimplexPlan([1.0, 0.5, 2.0], real, (3, 3)).masked
    # The unmasked route is the masked one's arithmetic without the masks.
    rng = np.random.default_rng(47)
    plan = lr_module.SimplexPlan([1.0, 0.5, 2.0], True, (3, 3))
    for _ in range(20):
        v = np.round(rng.normal(scale=2.0, size=(3, 3)), 1)
        plan.masked = False
        unmasked = plan(v)
        plan.masked = True
        assert unmasked.tobytes() == plan(v).tobytes()


def test_plan_outputs_own_their_memory():
    rng = np.random.default_rng(43)
    real = np.arange(3) < np.array([1, 2, 3])[:, None]
    water = lr_module.WaterFillingPlan((3, 6), 1.0)
    simplex = lr_module.SimplexPlan([1.0, 0.5, 2.0], real, real.shape)
    for plan, args in ((water, lambda: (rng.uniform(size=(3, 6)), rng.uniform(size=(3, 6)))),
                       (simplex, lambda: (rng.normal(size=(3, 3)),))):
        first = plan(*args())
        kept = first.copy()
        second = plan(*args())
        assert first.tobytes() == kept.tobytes()
        held = [x for x in vars(plan).values() if isinstance(x, np.ndarray)]
        for out in (first, second):
            assert not any(np.shares_memory(out, x) for x in held)
        assert not np.shares_memory(first, second)
