import numpy as np
import pytest

import netalloc.lr_power as lr_module
import netalloc.rate_model as rate_module
from netalloc import (LrDivergenceError, MessageBus, best_response, link_terms,
                      lr_solve, solve_all_cells, update_multipliers, wsmr)
from netalloc.bus import relay
from netalloc.lr_power import ALPHA0, BETA, SCALAR_ENTRIES, SimplexPlan

from conftest import hand_scenario, make_scenario, per_cell_user_rates, per_cell_wsmr


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
    v = np.array([0.5, 0.5])
    assert SimplexPlan(1.0, True, v.shape)(v) == pytest.approx([0.5, 0.5], abs=1e-15)
    v = np.array([2.0, 0.0])
    assert SimplexPlan(1.0, True, v.shape)(v) == pytest.approx([1.0, 0.0], abs=1e-15)
    v = np.array([3.0, -1.0])
    assert (SimplexPlan(0.0, True, v.shape)(v) == 0.0).all()
    with pytest.raises(ValueError):
        SimplexPlan(-0.5, True, (1,))


def test_simplex_projection_matches_bisection():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        v = rng.normal(scale=2.0, size=n)
        total = float(rng.uniform(0.1, 3.0))
        fast = SimplexPlan(total, True, v.shape)(v)
        slow = simplex_by_bisection(v, total)
        assert np.abs(fast - slow).max() < 1e-9
        assert fast.sum() == pytest.approx(total, rel=1e-10)
        assert (fast >= 0.0).all()


def test_dual_step_size_schedule():
    # Inside the simplex a mean-free step is not projected, so it moves lam
    # by the step size ALPHA0 / (1 + BETA * t) times the residual.
    lam, residuals = np.array([0.5, 0.5]), np.array([0.1, -0.1])
    plan = SimplexPlan(1.0, True, lam.shape)
    sizes = [(plan.step(lam, residuals, t) - lam)[0] / 0.1 for t in range(20)]
    assert sizes[0] == pytest.approx(1.0, rel=1e-12)
    assert sizes[10] == pytest.approx(0.5, rel=1e-12)
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    assert plan.step(lam, residuals, 7).tobytes() == \
        plan(lam + ALPHA0 / (1.0 + BETA * 7) * residuals).tobytes()


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
        lam = [SimplexPlan(1.0, True, (3,))(rng.uniform(size=3))]
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
    final = wsmr(s, result.power, assignment)
    assert (result.trace[-1].wsmr, result.trace[-1].min_rates) == \
        (final.value, final.min_rates)
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
        step = ALPHA0 / (1.0 + BETA * (iteration - 1))
        lam = [project_simplex_per_row(lam_m + step * (r.mean() - r), w_m)
               for lam_m, r, w_m in zip(lam, per_cell_user_rates(s, power_now, assignment),
                                        s.weights)]
        return power_now, per_cell_wsmr(s, power_now, assignment)

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
        batched = SimplexPlan(total, real, v.shape)(v)
        assert (batched[~real] == 0.0).all()
        for r in range(rows):
            k = sizes[r]
            want = project_simplex_per_row(v[r, :k], total[r]).tobytes()
            assert batched[r, :k].tobytes() == want
            assert SimplexPlan(total[r], True, (k,))(v[r, :k]).tobytes() == want


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
                       (water, lambda: (rng.uniform(size=(3, 6)),
                                        rng.uniform(size=(3, 6)).tolist())),
                       (simplex, lambda: (rng.normal(size=(3, 3)),))):
        first = plan(*args())
        kept = first.copy()
        second = plan(*args())
        assert first.tobytes() == kept.tobytes()
        held = [x for x in vars(plan).values() if isinstance(x, np.ndarray)]
        for out in (first, second):
            assert not any(np.shares_memory(out, x) for x in held)
        assert not np.shares_memory(first, second)


def two_slot_rows(rng):
    """(values, totals) of rows of two live slots that reach every corner of
    the two-slot projection: random rows, tied rows, rows with min(a, b)
    within a few ulps of the rank-2 shift h = ((a + b) - total) / 2, so that
    both shifts and the boundary between them occur, rows scaled by 1e300
    and 1e-300, and rows with subnormal or large totals."""
    parts = []
    v = rng.normal(scale=2.0, size=(300, 2))
    v[:60, 1] = v[:60, 0]                                   # a = b
    v[60:80] = np.round(v[60:80])
    parts.append((v, rng.uniform(0.01, 3.0, size=300)))
    a, total = rng.uniform(0.0, 4.0, size=400), rng.uniform(0.01, 3.0, size=400)
    b = a - total
    b += rng.integers(-3, 4, size=400) * np.spacing(b)      # min(a, b) near h
    parts.append((np.stack([b, a], axis=1), total))
    for scale in (1e300, 1e-300):
        v = rng.normal(scale=2.0, size=(100, 2)) * scale
        parts.append((v, rng.uniform(0.01, 3.0, size=100) * scale))
    v = rng.normal(size=(100, 2)) * 1e-310
    parts.append((v, rng.integers(1, 4000, size=100) * 5e-324))  # subnormal totals
    v = rng.normal(size=(100, 2))
    parts.append((v, rng.uniform(1.0, 1e300, size=100)))         # large totals
    return (np.concatenate([v for v, _ in parts]),
            np.concatenate([t for _, t in parts]))


def numpy_stage(sums, lam, weights, t):
    """The per-user stage of an LR sweep on the numpy route: the cell means,
    `SimplexPlan.step` (the sort route, at two slots) and the report."""
    mean = np.add.reduce(sums, axis=1, keepdims=True)
    mean /= 2.0
    moved = SimplexPlan(weights, True, lam.shape).step(lam, mean - sums, t)
    return moved, rate_module.WsmrResult.from_sums(sums, True, weights)


def pair_stage_cases(rng):
    """(sums, lam, weights) of cells with two users.  Tied sums make the
    moved pair the multipliers themselves, so `two_slot_rows` reaches every
    corner of the projection: ties, min(a, b) within ulps of h, 1e+-300 and
    subnormal totals.  Random sums, sums scaled by 1e+-300, subnormal and
    zero sums of either sign, multipliers of -0.0 and subnormal pairs that
    take the shift h cover the rest."""
    lam, weights = two_slot_rows(rng)
    rows = len(lam)
    sums = np.repeat(rng.uniform(0.0, 20.0, size=(rows, 1)), 2, axis=1)
    free = rng.uniform(size=rows) < 0.5
    sums[free] = rng.uniform(0.0, 20.0, size=(free.sum(), 2))
    sums[:50] *= 1e300
    sums[50:100] *= 1e-300
    sums[100:150] = rng.integers(0, 3, size=(50, 2)) * 5e-324
    sums[150:200] = rng.choice([0.0, -0.0, 1.0], size=(50, 2))
    lam[200:250] = rng.choice([0.0, -0.0, 0.5], size=(50, 2))
    # Subnormal pairs whose shift is h, with odd sums a + b: halving rounds.
    sums[250:300] = 1.0
    lam[250:300] = rng.integers(0, 60, size=(50, 2)) * 5e-324
    weights[250:300] = rng.integers(61, 200, size=50) * 5e-324
    return sums, lam, weights


def test_two_slot_projection_is_the_sort_route_bit_for_bit():
    # The two-user pass against the numpy route: the cell means, the step
    # and sort-route projection of `SimplexPlan.step`, and the report.
    for t in (0, 1, 7, 199):
        rng = np.random.default_rng(53 + t)
        sums, lam, weights = pair_stage_cases(rng)
        rows, worsts = lr_module._pair_pass(sums.tolist(), lam.tolist(),
                                            weights.tolist(), t)
        moved, report = numpy_stage(sums, lam, weights, t)
        assert np.array(rows).tobytes() == moved.tobytes()
        assert np.array(worsts).tobytes() == np.array(report.min_rates).tobytes()
        assert float(np.dot(weights, worsts)) == report.value
        # Both shifts are taken, and rows sit on the boundary between them
        # with the two shifts apart.
        step = ALPHA0 / (1.0 + BETA * t)
        a, b = (lam + step * (sums.mean(axis=1, keepdims=True) - sums)).T
        half = ((a + b) - weights) / 2.0
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        assert (lo > half).sum() > 100 and (lo < half).sum() > 100
        assert ((lo == half) & (hi - weights != half)).any()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("at", ["sums", "lam"])
def test_pair_pass_leaves_values_that_are_not_finite_to_numpy(bad, at):
    values = {"sums": [[1.0, 2.0], [3.0, 4.0]], "lam": [[0.5, 0.5], [0.25, 0.75]]}
    values[at][1][1] = bad
    assert lr_module._pair_pass(values["sums"], values["lam"], [1.0, 1.0], 0) is None


def trace_fields(rows):
    """Every field of every trace row but its wall time; their repr keeps
    each float's bits."""
    return [tuple(getattr(row, f) for f in row.__dataclass_fields__ if f != "elapsed_s")
            for row in rows]


@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (0.5, 1.0, 2.0)])
def test_lr_solve_takes_the_pair_pass_bit_for_bit(monkeypatch, weights):
    calls = []
    real = lr_module._pair_pass

    def counted(*args):
        calls.append(1)
        return real(*args)

    for seed in range(5):
        s = make_scenario(cells=3, subcarriers=8, users=2, seed=seed, weights=weights)
        power = np.full((3, 8), s.p_max / 8)
        assignment = solve_all_cells(s, power)
        monkeypatch.setattr(lr_module, "_pair_pass", counted)
        calls.clear()
        fast = lr_solve(s, assignment, power, psi=1e-12, max_iters=200)
        assert len(calls) == fast.iterations > 20
        monkeypatch.setattr(lr_module, "_pair_pass", lambda *args: None)
        generic = lr_solve(s, assignment, power, psi=1e-12, max_iters=200)
        assert fast.power.tobytes() == generic.power.tobytes()
        assert [lam.tobytes() for lam in fast.lam] == [lam.tobytes() for lam in generic.lam]
        assert repr(trace_fields(fast.trace)) == repr(trace_fields(generic.trace))


def overflow_case(users=2, seed=0):
    """At a subnormal noise power the SINR overflows: a rate sum of the second
    LR sweep from the uniform start is infinite."""
    s = make_scenario(cells=2, subcarriers=3, users=users, seed=seed, noise_power=1e-320)
    power = np.full((2, 3), s.p_max / 3)
    with np.errstate(all="ignore"):
        assignment = solve_all_cells(s, power)
    return s, assignment, power


def test_rates_that_overflow_raise_at_the_same_sweep_on_both_routes(monkeypatch):
    # The two-user route hands a sweep with an infinite rate sum back, and
    # the generic route raises there, instead of running on with NaN
    # multipliers to a zero objective.
    s, assignment, power = overflow_case()
    raised = []
    for route in ("pairs", "generic"):
        if route == "generic":
            monkeypatch.setattr(lr_module, "_pair_pass", lambda *args: None)
            monkeypatch.setattr(lr_module, "SCALAR_ENTRIES", 0)
        with np.errstate(all="ignore"), \
                pytest.raises(LrDivergenceError, match="rate sums are not finite") as excinfo:
            lr_solve(s, assignment, power, psi=1e-9, max_iters=20)
        raised.append(excinfo.value)
    assert [e.iteration for e in raised] == [2, 2]
    assert [len(e.trace) for e in raised] == [1, 1]
    assert repr(trace_fields(raised[0].trace)) == repr(trace_fields(raised[1].trace))
    # Ragged cells and three users per cell take the generic route only.
    for users, seed in (((1, 2), 1), (3, 0)):
        s, assignment, power = overflow_case(users, seed)
        with np.errstate(all="ignore"), \
                pytest.raises(LrDivergenceError, match="rate sums are not finite"):
            lr_solve(s, assignment, power, psi=1e-9, max_iters=20)


def test_ragged_and_zero_weight_rows_take_the_generic_route(monkeypatch):
    def refused(*args):
        raise AssertionError("the two-user pass ran")

    monkeypatch.setattr(lr_module, "_pair_pass", refused)
    for users, weights in (((2, 1, 2), 1.0), (2, (1.0, 0.0, 2.0)), (3, 1.0), (1, 1.0)):
        s = make_scenario(cells=3, subcarriers=6, users=users, seed=3, weights=weights)
        power = np.full((3, 6), s.p_max / 6)
        lr_solve(s, solve_all_cells(s, power), power, psi=1e-12, max_iters=20)
    # The generic route at two slots: the masked sort route, row by row.
    real = np.array([[True, True], [True, False], [True, True]])
    rng = np.random.default_rng(61)
    for total, live in (([0.7, 1.5, 2.0], real), ([0.7, 0.0, 2.0], True)):
        plan = SimplexPlan(total, live, (3, 2))
        assert plan.masked
        live = np.broadcast_to(live, (3, 2))
        for _ in range(20):
            v = rng.normal(scale=2.0, size=(3, 2))
            v[~live] = np.nan                                   # never read
            got = plan(v)
            for r, k in enumerate(live.sum(axis=1)):
                want = project_simplex_per_row(v[r, :k], total[r]).tobytes()
                assert got[r, :k].tobytes() == want
                assert (got[r, k:] == 0.0).all()


@pytest.mark.parametrize("users", [1, 2, 3, (1, 2, 3)])
def test_lr_report_equals_from_sums(monkeypatch, users):
    # Each trace row must be `WsmrResult.from_sums` of the rate sums at the
    # power that sweep returned, recomputed from the scenario.
    s = make_scenario(cells=3, subcarriers=6, users=users, seed=5,
                      weights=(0.5, 1.0, 2.0))
    power = np.full((3, 6), s.p_max / 6)
    assignment = solve_all_cells(s, power)
    powers = []
    real = lr_module.WaterFillingPlan.__call__

    def recording(plan, coeff, weight):
        powers.append(real(plan, coeff, weight))
        return powers[-1]

    monkeypatch.setattr(lr_module.WaterFillingPlan, "__call__", recording)
    result = lr_solve(s, assignment, power, psi=1e-12, max_iters=40)
    assert len(powers) == len(result.trace) > 5
    for p, row in zip(powers, result.trace):
        sums = rate_module.cell_user_rates(s, p, assignment)
        want = rate_module.WsmrResult.from_sums(sums, s.real_users, s.weights)
        assert (row.wsmr, row.min_rates) == (want.value, want.min_rates)
        assert type(row.wsmr) is float and all(type(x) is float for x in row.min_rates)


@pytest.mark.parametrize("total", [np.nan, np.inf, -np.inf, -0.5])
def test_simplex_refuses_totals_that_are_not_finite_and_nonnegative(total):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        SimplexPlan([1.0, total], True, (2, 2))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        update_multipliers(np.ones((1, 2)), np.zeros((1, 2)), [total], 0, True)


@pytest.mark.parametrize("t", [-1, -10, np.nan])
def test_multiplier_step_refuses_a_negative_index(t):
    # At t = -10 the step size ALPHA0 / (1 + BETA * t) divides by zero.
    with pytest.raises(ValueError, match="t must be nonnegative"):
        update_multipliers(np.ones((1, 2)), np.zeros((1, 2)), [1.0], t, True)
    with pytest.raises(ValueError, match="t must be nonnegative"):
        SimplexPlan(1.0, True, (3,)).step(np.ones(3) / 3, np.zeros(3), t)


@pytest.mark.parametrize("budget", [np.nan, np.inf, -np.inf, -1.0])
def test_water_filling_refuses_budgets_that_are_not_finite_and_nonnegative(budget):
    with pytest.raises(ValueError, match="budget must be finite and nonnegative"):
        best_response(np.ones(3), np.ones(3), budget)
    with pytest.raises(ValueError, match="budget must be finite and nonnegative"):
        lr_module.WaterFillingPlan((2, 3), budget)


# The scalar water-filling kernel against the numpy kernel: rows of Python
# floats must give the numpy kernel's bits, or be handed back to it.  At
# three cells the widest plan the scalar kernel takes is GATE_WIDTH.

GATE_WIDTH = SCALAR_ENTRIES // 3


def test_pairwise_sum_is_numpys_row_sum():
    rng = np.random.default_rng(71)
    for n in range(1, 129):
        v = rng.uniform(size=(10, n)) * 10.0 ** rng.integers(-8, 9, size=(10, n))
        want = np.add.reduce(v, axis=-1, keepdims=True)
        got = np.array([[lr_module._pairwise_sum(row)] for row in v.tolist()])
        assert got.tobytes() == want.tobytes(), n


def scalar_rows_handed_back(coeff, weight, budget):
    """Check every row of the scalar kernel against the numpy kernel and the
    plan's list route against its array route; returns how many rows the
    scalar kernel handed back."""
    with np.errstate(all="ignore"):
        want = lr_module.WaterFillingPlan(coeff.shape, budget)(coeff, weight)
        listed = lr_module.WaterFillingPlan(coeff.shape, budget)(coeff, weight.tolist())
    assert listed.tobytes() == want.tobytes()
    row_plan = lr_module.WaterFillingPlan(coeff.shape[-1:], budget)
    handed_back = 0
    for c, w, p in zip(coeff.tolist(), weight.tolist(), want):
        got = row_plan.scalar([c], [w])
        if got is None:
            handed_back += 1
        else:
            assert np.array(got).tobytes() == p.tobytes()
    return handed_back


@pytest.mark.parametrize("width", range(1, 2 * GATE_WIDTH + 1))
def test_scalar_water_filling_is_the_numpy_kernel_bit_for_bit(width):
    # Widths on both sides of numpy's eight-value summation block and of the
    # gate at three cells; ties in weight * coeff, zero and negative-zero entries and rows
    # with nothing to fill.
    rng = np.random.default_rng(100 + width)
    for budget in (1e-300, 1e-3, 1.0, 1e3, 1e300):
        coeff = 10.0 ** rng.uniform(-3.0, 5.0, size=(40, width))
        weight = rng.uniform(size=(40, width))
        weight[:5] = 0.5
        coeff[:5] = rng.choice([0.5, 2.0, 8.0], size=(5, width))
        weight[5:10] = rng.choice([0.25, 1.0], size=(5, width))
        coeff[5:10] = 4.0 * weight[5:10] ** -1           # equal gains
        weight[10:15, ::2] = 0.0
        coeff[15:20, 1::3] = 0.0
        weight[20:25, ::3] = -0.0
        coeff[25:30, ::4] = -0.0
        weight[30] = 0.0
        coeff[31] = 0.0
        assert scalar_rows_handed_back(coeff, weight, budget) == 0


def test_scalar_water_filling_on_extreme_entries():
    # Subnormal and huge entries and budgets: the scalar kernel keeps the
    # numpy kernel's bits on every row it takes and hands the rest back,
    # never raising.
    rng = np.random.default_rng(73)
    palette = np.array([0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-8, 0.3, 1.0, 7.0,
                        1e8, 1e300, 1e308])
    odds = np.array([2, 2, 1, 1, 1, 4, 8, 8, 8, 4, 1, 1]) / 41
    taken = handed_back = 0
    for width in range(1, 2 * GATE_WIDTH + 1):
        for budget in (1e-300, 1e-30, 1.0, 1e30, 1e300):
            coeff = rng.choice(palette, size=(30, width), p=odds)
            weight = rng.choice(palette, size=(30, width), p=odds)
            back = scalar_rows_handed_back(coeff, weight, budget)
            handed_back += back
            taken += 30 - back
    assert taken > 1000 and handed_back > 1000


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("at", ["coeff", "weight"])
def test_scalar_water_filling_hands_inf_and_nan_to_numpy(bad, at):
    rng = np.random.default_rng(79)
    for width in (1, 7, 8, 9):
        values = {"coeff": 10.0 ** rng.uniform(-2.0, 3.0, size=(3, width)),
                  "weight": rng.uniform(size=(3, width))}
        values[at][1, -1] = bad
        coeff, weight = values["coeff"], values["weight"]
        plan = lr_module.WaterFillingPlan(coeff.shape, 1.0)
        assert plan.scalar(coeff.tolist(), weight.tolist()) is None
        assert scalar_rows_handed_back(coeff, weight, 1.0) == 1


def test_scalar_water_filling_hands_a_level_that_is_not_positive_to_numpy():
    # The level 5e-324 / (1 + 1e300) rounds to zero: numpy divides to inf,
    # Python would raise.
    plan = lr_module.WaterFillingPlan((1,), 1e300)
    assert plan.scalar([[1.0]], [[5e-324]]) is None
    assert scalar_rows_handed_back(np.array([[1.0]]), np.array([[5e-324]]), 1e300) == 1


def test_lr_solve_takes_the_scalar_route_at_two_users_and_small_plans(monkeypatch):
    widths = []
    real = lr_module.WaterFillingPlan.scalar

    def counted(plan, coeff, weight):
        widths.append(len(coeff[0]))
        return real(plan, coeff, weight)

    monkeypatch.setattr(lr_module.WaterFillingPlan, "scalar", counted)
    for cells, subcarriers, users, weights, taken in (
            (3, 8, 2, 1.0, True), (3, GATE_WIDTH, 2, 1.0, True),
            (3, GATE_WIDTH + 1, 2, 1.0, False), (7, 8, 2, 1.0, False),
            (3, 8, (2, 1, 2), 1.0, False), (3, 8, 3, 1.0, False),
            (3, 8, 2, (1.0, 0.0, 2.0), False)):
        s = make_scenario(cells=cells, subcarriers=subcarriers, users=users, seed=2,
                          weights=weights)
        power = np.full((cells, subcarriers), s.p_max / subcarriers)
        widths.clear()
        result = lr_solve(s, solve_all_cells(s, power), power, psi=1e-12, max_iters=30)
        assert widths == ([subcarriers] * result.iterations if taken else [])


@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (0.5, 1.0, 2.0)])
def test_lr_solve_is_the_same_with_the_scalar_route_off(monkeypatch, weights):
    for subcarriers in (4, 8, GATE_WIDTH):
        for seed in range(3):
            s = make_scenario(cells=3, subcarriers=subcarriers, users=2, seed=seed,
                              weights=weights)
            power = np.full((3, subcarriers), s.p_max / subcarriers)
            assignment = solve_all_cells(s, power)
            monkeypatch.setattr(lr_module, "SCALAR_ENTRIES", SCALAR_ENTRIES)
            fast = lr_solve(s, assignment, power, psi=1e-12, max_iters=200)
            monkeypatch.setattr(lr_module, "SCALAR_ENTRIES", 0)
            numpy_route = lr_solve(s, assignment, power, psi=1e-12, max_iters=200)
            assert fast.iterations > 20
            assert fast.power.tobytes() == numpy_route.power.tobytes()
            assert ([lam.tobytes() for lam in fast.lam]
                    == [lam.tobytes() for lam in numpy_route.lam])
            assert repr(trace_fields(fast.trace)) == repr(trace_fields(numpy_route.trace))
