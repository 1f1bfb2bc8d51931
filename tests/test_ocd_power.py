import dataclasses
import warnings

import numpy as np
import pytest

import netalloc.ocd_power as ocd_module
import netalloc.rate_model as rate_module
from netalloc import (AssignmentValidationError, MessageBus, OcdStepError,
                      cell_user_rates,
                      constraint_residuals, global_kkt_residual,
                      grid_power_optimum, init_cell_states, local_objective,
                      newton_step, ocd_solve, project_power, rate_subcarrier,
                      solve_all_cells, stacked_cell_residuals,
                      states_from_point, validate_power, wsmr)

from conftest import hand_scenario, make_scenario

LN_101 = 4.61512051684126


def desk_instance(seed=0, users=2):
    s = make_scenario(cells=3, subcarriers=4, users=users, seed=seed)
    power = np.full((3, 4), s.p_max / 4)
    assignment = solve_all_cells(s, power)
    return s, assignment, power


def test_project_power_clips_and_rescales():
    raw = np.array([[0.5, -0.2, 0.3], [2.0, 2.0, 0.0]])
    out = project_power(raw, 1.0)
    assert (out >= 0.0).all()
    assert out[0] == pytest.approx([0.5, 0.0, 0.3])
    assert out[1].sum() == pytest.approx(1.0, rel=1e-12)
    assert out[1, 0] == pytest.approx(out[1, 1], rel=1e-12)
    untouched = np.array([[0.2, 0.3, 0.1]])
    assert (project_power(untouched, 1.0) == untouched).all()


def test_local_objective_single_cell_is_weighted_aux_rate():
    s = make_scenario(cells=1, subcarriers=2, users=1, seed=4, weights=2.5)
    assignment = np.ones((1, 1, 2), dtype=np.int8)
    power = np.full((1, 2), s.p_max / 2)
    states = init_cell_states(s, assignment, power)
    value = local_objective(s, assignment, 0, states)
    assert value == pytest.approx(2.5 * states[0].aux_rate, rel=1e-14)


def test_local_objective_vanishing_foreign_multipliers():
    s, assignment, power = desk_instance()
    states = init_cell_states(s, assignment, power)
    zeroed = [dataclasses.replace(st, lam=np.zeros_like(st.lam))
              for st in states]
    value = local_objective(s, assignment, 0, zeroed)
    assert value == pytest.approx(s.weights[0] * states[0].aux_rate, rel=1e-14)


def test_local_objective_coupling_value():
    # Two single-user cells, one subcarrier: the second cell's term is its
    # multiplier times (achieved rate minus promised rate), computable
    # straight from the rate model.
    gains = np.full((2, 2, 1, 1), 1e-4)
    s = hand_scenario(gains, users_per_cell=1)
    assignment = np.ones((2, 1, 1), dtype=np.int8)
    power = np.array([[0.6], [0.8]])
    lam = [np.array([0.3]), np.array([0.7])]
    aux = np.array([0.2, 0.5])
    states = states_from_point(s, assignment, power, aux, lam,
                               [np.ones(2), np.ones(2)])
    value = local_objective(s, assignment, 0, states)
    foreign_rate = rate_subcarrier(s, power, 0, 1, 0)
    expected = s.weights[0] * 0.2 + 0.7 * (foreign_rate - 0.5)
    assert value == pytest.approx(expected, rel=1e-13)


def test_local_objective_penalizes_own_interference():
    s, assignment, _ = desk_instance()
    low = np.full((3, 4), 0.05)
    high = low.copy()
    high[0] = 0.24
    aux = np.array([0.1, 0.1, 0.1])
    lam = [np.full(2, 0.5) for _ in range(3)]
    mu = [np.ones(5) for _ in range(3)]
    st_low = states_from_point(s, assignment, low, aux, lam, mu)
    st_high = states_from_point(s, assignment, high, aux, lam, mu)
    assert local_objective(s, assignment, 0, st_high) < \
        local_objective(s, assignment, 0, st_low)


def test_constraint_residuals_hand_values():
    gains = np.full((1, 1, 1, 1), 1e-4)
    s = hand_scenario(gains, users_per_cell=1)
    assignment = np.ones((1, 1, 1), dtype=np.int8)
    power = np.array([[1.0]])
    states = states_from_point(s, assignment, power, np.array([5.0]),
                               [np.ones(1)], [np.ones(2)])
    h, g = constraint_residuals(s, assignment, 0, states)
    assert h[0] == pytest.approx(5.0 - LN_101, rel=1e-13)
    assert g[0] == 0.0
    assert g[1] == -1.0


def test_constraint_residuals_uniform_budget_is_exact():
    s, assignment, power = desk_instance()
    states = init_cell_states(s, assignment, power)
    for m in range(3):
        h, g = constraint_residuals(s, assignment, m, states)
        assert g[0] == 0.0
        assert (g[1:] == -power[m]).all()
        rates = cell_user_rates(s, power, assignment)[m]
        assert h == pytest.approx(states[m].aux_rate - rates, rel=1e-12)


def second_difference(f, states, cell, n, step):
    """Central second difference of f(states) in the cell's own power n."""
    def at(delta):
        st = states[cell]
        power = st.power.copy()
        power[n] += delta
        moved = list(states)
        moved[cell] = dataclasses.replace(st, power=power)
        return f(moved)
    return (at(step) - 2.0 * at(0.0) + at(-step)) / step ** 2


def test_curvatures_match_second_differences():
    for s, assignment, power in (desk_instance(), desk_instance(users=(1, 2, 3))):
        states = init_cell_states(s, assignment, power)
        terms = ocd_module._subproblem_terms(s, assignment, states)
        for cell in range(3):
            _, _, curv, _, _, curv_h = terms[cell]
            assert (curv[:4] > 0.0).all() and curv[4] == 0.0
            for n in range(4):
                step = 1e-3 * power[cell, n]
                fd = second_difference(
                    lambda st: local_objective(s, assignment, cell, st),
                    states, cell, n, step)
                assert curv[n] == pytest.approx(fd, rel=1e-4)
                fd_h = second_difference(
                    lambda st: constraint_residuals(s, assignment, cell, st)[0],
                    states, cell, n, step)
                scale = np.abs(curv_h[:, n]).max()
                assert curv_h[:, n] == pytest.approx(fd_h, rel=1e-5, abs=1e-9 * scale)


def test_init_states_structure():
    s, assignment, power = desk_instance()
    states = init_cell_states(s, assignment, power)
    for m, st in enumerate(states):
        rates = cell_user_rates(s, power, assignment)[m]
        assert st.aux_rate == pytest.approx(0.9 * rates.min(), rel=1e-12)
        assert st.lam == pytest.approx(np.full(2, s.weights[m] / 2))
        assert st.mu.shape == (5,)
        assert (st.slack_h > 0.0).all() and (st.slack_g > 0.0).all()


def test_init_states_lift_near_zero_powers_within_budget():
    # A phase that ends with powers at rounding level must restart strictly
    # inside: those powers are lifted to the slack floor, a row the lift
    # pushes over budget gives the excess back from its largest entry, and
    # rows with nothing to lift are untouched.
    s, assignment, power = desk_instance()
    power = power.copy()
    power[0] = [s.p_max - 3e-16, 4e-16, 0.0, 1e-16]
    power[1, 2] = 5e-7
    power[1, 3] -= 5e-7 + 1e-3
    lifted = np.array([st.power for st in init_cell_states(s, assignment, power)])
    validate_power(s, lifted)
    assert lifted.min() >= ocd_module.SLACK_FLOOR
    assert lifted[0, 1:].tolist() == [ocd_module.SLACK_FLOOR] * 3
    assert lifted[0].sum() == pytest.approx(s.p_max, abs=1e-15)
    assert lifted[1].tolist() == [power[1, 0], power[1, 1], ocd_module.SLACK_FLOOR,
                                  power[1, 3]]
    assert lifted[2].tobytes() == power[2].tobytes()
    # A budget below N^2 * SLACK_FLOOR caps the floor at p_max / N^2, so the
    # largest entry still pays the excess and stays above it.
    tiny = make_scenario(cells=3, subcarriers=4, users=2, seed=0, p_max=1e-9)
    power = np.zeros((3, 4))
    power[:, 0] = tiny.p_max
    lifted = np.array([st.power for st in init_cell_states(tiny, assignment, power)])
    validate_power(tiny, lifted)
    assert lifted.min() == tiny.p_max / 16
    assert lifted[:, 0] == pytest.approx(tiny.p_max * 13 / 16, rel=1e-12)


def test_states_own_their_multipliers():
    s, assignment, power = desk_instance()
    lam, mu = np.full(2, 0.5), np.ones(5)
    for states in (init_cell_states(s, assignment, power),
                   states_from_point(s, assignment, power, np.full(3, 0.1),
                                     [lam] * 3, [mu] * 3)):
        arrays = [lam, mu] + [x for st in states for x in (st.lam, st.mu)]
        for i, x in enumerate(arrays):
            assert not any(np.shares_memory(x, y) for y in arrays[i + 1:])


def test_snapshot_evaluates_link_kernel_once(monkeypatch):
    # A sweep, a starting point, a residual check and a reassignment each
    # evaluate their power snapshot once, whatever the number of cells.
    s, assignment, power = desk_instance(users=(1, 2, 3))
    real = rate_module.link_terms
    calls = {"count": 0}

    def counted(scenario, power_):
        calls["count"] += 1
        return real(scenario, power_)

    monkeypatch.setattr(rate_module, "link_terms", counted)
    monkeypatch.setattr(ocd_module, "link_terms", counted)

    def once(fn, *args, **kwargs):
        calls["count"] = 0
        result = fn(*args, **kwargs)
        assert calls["count"] == 1, fn.__name__
        return result

    states = once(init_cell_states, s, assignment, power)
    for _ in range(3):
        states = [step.state for step in once(newton_step, s, assignment, states)]
    once(stacked_cell_residuals, s, assignment, states)
    once(states_from_point, s, assignment, *point_of(states))
    for mode in ("exact", "greedy"):
        once(solve_all_cells, s, power, mode=mode)


def test_newton_step_reduces_residuals():
    s, assignment, power = desk_instance()
    states = init_cell_states(s, assignment, power)
    before = stacked_cell_residuals(s, assignment, states).max_abs
    after_states = [step.state for step in newton_step(s, assignment, states)]
    assert len(after_states) == 3
    after = stacked_cell_residuals(s, assignment, after_states).max_abs
    assert after < before
    for step in newton_step(s, assignment, states):
        assert 0.0 < step.alpha <= 1.0
        assert (step.state.slack_h > 0.0).all()
        assert (step.state.slack_g > 0.0).all()
        assert (step.state.lam > 0.0).all()
        assert (step.state.mu > 0.0).all()


def linearized_kkt_blocks(s, assignment, cell, states, step):
    """(left side, residual, rounding scale) of each of the cell's five
    linearized primal-dual equations at the step's direction.

    The rounding scale sums the magnitudes of the left side's terms.  The
    slack directions come back as state differences over alpha, so their
    term counts at the size of the slacks that were differenced.  The
    stationarity rows are what the reduced system solves, so their scale
    also holds the terms that eliminating slacks and multipliers adds,
    weighted by multiplier over slack.
    """
    st = states[cell]
    n = st.power.size
    _, grad, curv, h, jac_h, curv_h = ocd_module._subproblem_terms(
        s, assignment, states)[cell]
    g = ocd_module._local_constraints(st.power, s.p_max)
    jac_g = np.zeros((n + 1, n + 1))
    jac_g[0, :n] = 1.0
    jac_g[1:, :n] = -np.eye(n)
    hess = np.zeros(n + 1)
    hess[:n] = np.minimum(curv[:n] - st.lam @ curv_h, -ocd_module.REGULARIZATION)
    d_x = np.append(step.d_power, step.d_aux_rate)
    d_sh = (step.state.slack_h - st.slack_h) / step.alpha
    d_sg = (step.state.slack_g - st.slack_g) / step.alpha
    size_sh = (step.state.slack_h + st.slack_h) / step.alpha
    size_sg = (step.state.slack_g + st.slack_g) / step.alpha
    abs_jh, abs_jg = np.abs(jac_h), np.abs(jac_g)
    eliminated = (abs_jh.T @ (st.lam / st.slack_h * (abs_jh @ np.abs(d_x)))
                  + abs_jg.T @ (st.mu / st.slack_g * (abs_jg @ np.abs(d_x))))
    return [
        (hess * d_x - jac_h.T @ step.d_lam - jac_g.T @ step.d_mu,
         grad - jac_h.T @ st.lam - jac_g.T @ st.mu,
         np.abs(hess * d_x) + abs_jh.T @ np.abs(step.d_lam)
         + abs_jg.T @ np.abs(step.d_mu) + eliminated),
        (jac_h @ d_x + d_sh, h + st.slack_h, abs_jh @ np.abs(d_x) + size_sh),
        (jac_g @ d_x + d_sg, g + st.slack_g, abs_jg @ np.abs(d_x) + size_sg),
        (st.lam * d_sh + st.slack_h * step.d_lam, st.lam * st.slack_h - st.barrier,
         st.lam * size_sh + st.slack_h * np.abs(step.d_lam)),
        (st.mu * d_sg + st.slack_g * step.d_mu, st.mu * st.slack_g - st.barrier,
         st.mu * size_sg + st.slack_g * np.abs(step.d_mu)),
    ]


def test_newton_step_solves_linearized_kkt():
    for s, assignment, power in (desk_instance(), desk_instance(users=(1, 2, 3))):
        states = init_cell_states(s, assignment, power)
        for sweep in range(61):
            steps = newton_step(s, assignment, states)
            if sweep in (0, 30, 60):      # the barrier is at its floor by 60
                for cell, step in enumerate(steps):
                    for lhs, residual, rounding in linearized_kkt_blocks(
                            s, assignment, cell, states, step):
                        tol = (1e-10 * np.abs(residual).max()
                               + 16 * np.finfo(float).eps * rounding.max())
                        assert np.abs(lhs + residual).max() <= tol
            states = [step.state for step in steps]
        assert states[0].barrier == ocd_module.BARRIER_FLOOR


def dense_sweep(s, assignment, states):
    """The per-cell route the batched sweep replaced: per cell, assemble the
    dense (N+1)x(N+1) reduced matrix and LU-solve it."""
    n = s.num_subcarriers
    terms = ocd_module._subproblem_terms(s, assignment, states)
    steps = []
    for cell, st in enumerate(states):
        _, grad, curv, h, jac_h, curv_h = terms[cell]
        g = ocd_module._local_constraints(st.power, s.p_max)
        hess = np.zeros(n + 1)
        hess[:n] = np.minimum(curv[:n] - st.lam @ curv_h, -ocd_module.REGULARIZATION)
        r_stat = grad - jac_h.T @ st.lam - ocd_module._jac_g_transpose(st.mu)
        r_ph, r_pg = h + st.slack_h, g + st.slack_g
        r_ch = st.lam * st.slack_h - st.barrier
        r_cg = st.mu * st.slack_g - st.barrier
        w_h, w_g = st.lam / st.slack_h, st.mu / st.slack_g
        reduced = np.diag(hess) - jac_h.T @ (w_h[:, None] * jac_h)
        reduced[:n, :n] -= w_g[0] + np.diag(w_g[1:])
        rhs = (-r_stat + jac_h.T @ ((st.lam * r_ph - r_ch) / st.slack_h)
               + ocd_module._jac_g_transpose((st.mu * r_pg - r_cg) / st.slack_g))
        d_x = np.linalg.solve(reduced, rhs)
        d_sh = -r_ph - jac_h @ d_x
        d_sg = -r_pg - np.append(d_x[:n].sum(), -d_x[:n])
        d_lam = -(r_ch + st.lam * d_sh) / st.slack_h
        d_mu = -(r_cg + st.mu * d_sg) / st.slack_g
        alpha = 1.0
        for values, directions in ((st.slack_h, d_sh), (st.slack_g, d_sg),
                                   (st.lam, d_lam), (st.mu, d_mu)):
            shrink = directions < 0.0
            if shrink.any():
                alpha = min(alpha, float((ocd_module.FRACTION_TO_BOUNDARY * (
                    -values[shrink] / directions[shrink])).min()))
        steps.append(ocd_module.NewtonStep(
            d_power=d_x[:n], d_aux_rate=float(d_x[n]), d_lam=d_lam, d_mu=d_mu,
            alpha=alpha, state=ocd_module.CellState(
                power=st.power + alpha * d_x[:n], aux_rate=st.aux_rate + alpha * d_x[n],
                lam=st.lam + alpha * d_lam, mu=st.mu + alpha * d_mu,
                slack_h=st.slack_h + alpha * d_sh, slack_g=st.slack_g + alpha * d_sg,
                barrier=max(ocd_module.BARRIER_DECAY * st.barrier,
                            ocd_module.BARRIER_FLOOR))))
    return steps


def assert_states_close(s, got, want):
    """Powers within 1e-11 p_max, multipliers within 1e-11 of the largest
    weight and aux rates (a rate, not a multiplier) within 1e-11 of the
    largest aux rate."""
    aux_scale = max(abs(st.aux_rate) for st in want)
    for g, w in zip(got, want, strict=True):
        assert np.abs(g.power - w.power).max() <= 1e-11 * s.p_max
        assert abs(g.aux_rate - w.aux_rate) <= 1e-11 * aux_scale
        assert np.abs(g.lam - w.lam).max() <= 1e-11 * max(s.weights)


def test_sweep_matches_dense_reference():
    # The batched capacitance solve against the per-cell dense solve: step
    # by step from the same snapshot, and as two independent trajectories.
    # Both sit at the rounding floor of systems whose condition number
    # reaches 1e7-1e11; without refinement the powers drift by ~0.1 p_max.
    wide = make_scenario(cells=7, subcarriers=16, users=2, seed=0)
    uniform = np.full((7, 16), wide.p_max / 16)
    for s, assignment, power in (
            desk_instance(), desk_instance(users=(1, 2, 3)),
            (wide, solve_all_cells(wide, uniform, mode="greedy"), uniform)):
        batched = dense = init_cell_states(s, assignment, power)
        for _ in range(60):
            steps = newton_step(s, assignment, batched)
            reference = dense_sweep(s, assignment, batched)
            assert_states_close(s, [step.state for step in steps],
                                [step.state for step in reference])
            batched = [step.state for step in steps]
            dense = [step.state for step in dense_sweep(s, assignment, dense)]
            assert_states_close(s, batched, dense)


def test_zero_multiplier_user_is_dropped_from_the_solve():
    # A multiplier can underflow to exactly 0.0 after many damped steps.
    # That user's rate row carries no weight in the reduced matrix, so the
    # capacitance solve must drop it instead of forming slack / 0.
    s, assignment, power = desk_instance(users=(1, 2, 3))
    states = init_cell_states(s, assignment, power)
    for _ in range(5):
        states = [step.state for step in newton_step(s, assignment, states)]
    lam = states[2].lam.copy()
    lam[1] = 0.0
    states[2] = dataclasses.replace(states[2], lam=lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        steps = newton_step(s, assignment, states)
    for step in steps:
        assert np.isfinite(step.d_power).all() and np.isfinite(step.d_aux_rate)
        assert np.isfinite(step.d_lam).all() and np.isfinite(step.d_mu).all()
    assert_states_close(s, [step.state for step in steps],
                        [step.state for step in dense_sweep(s, assignment, states)])


def test_solver_converges_and_traces():
    s, assignment, power = desk_instance()
    result = ocd_solve(s, assignment, power, psi=0.1, max_iters=200)
    assert result.converged
    assert result.iterations == len(result.trace)
    assert result.trace[-1].delta_p_norm < 0.1
    assert result.trace[-2].delta_p_norm >= 0.1
    for row in result.trace:
        assert np.isfinite(row.wsmr)
    # coordinator.run takes the phase's objective from the last row.
    assert result.trace[-1].wsmr == wsmr(s, result.power, assignment).value
    np.testing.assert_array_less(-1e-12, result.power)
    assert (result.power.sum(axis=1) <= s.p_max + 1e-9).all()


def test_solver_improves_on_uniform_start():
    s, assignment, power = desk_instance()
    start = wsmr(s, power, assignment).value
    result = ocd_solve(s, assignment, power, psi=1e-4, max_iters=200)
    assert wsmr(s, result.power, assignment).value > start


def test_fixed_point_newton_direction_vanishes():
    s, assignment, power = desk_instance()
    result = ocd_solve(s, assignment, power, psi=1e-12, max_iters=400)
    for step in newton_step(s, assignment, result.states):
        assert np.linalg.norm(step.d_power) < 1e-8
        assert abs(step.d_aux_rate) < 1e-8


def point_of(states):
    """(raw power, aux rates, lam, mu) of per-cell states."""
    return (np.vstack([st.power for st in states]),
            np.array([st.aux_rate for st in states]),
            [st.lam for st in states], [st.mu for st in states])


def test_tight_tolerance_reaches_stationarity():
    for seed in (0, 1, 2):
        s, assignment, power = desk_instance(seed)
        result = ocd_solve(s, assignment, power, psi=1e-6, max_iters=400)
        assert result.converged
        res = global_kkt_residual(s, assignment, *point_of(result.states))
        assert res.max_abs < 1e-4


def test_cell_and_global_residual_routes_agree():
    s, assignment, power = desk_instance()
    result = ocd_solve(s, assignment, power, psi=1e-3, max_iters=200)
    a = stacked_cell_residuals(s, assignment, result.states)
    b = global_kkt_residual(s, assignment, *point_of(result.states))
    assert np.abs(a.stationarity - b.stationarity).max() <= 1e-12
    assert np.abs(a.primal - b.primal).max() <= 1e-12
    assert np.abs(a.complementarity - b.complementarity).max() <= 1e-12


def test_residual_routes_agree_on_an_incomplete_assignment():
    # A subcarrier nobody holds carries no rate and no coupling: the
    # held-link route gives it zero gains, the global route skips it.
    s, assignment, power = desk_instance()
    states = ocd_solve(s, assignment, power, psi=1e-3, max_iters=200).states
    partial = assignment.copy()
    partial[0, :, 1] = 0
    partial[2, :, 3] = 0
    a = stacked_cell_residuals(s, partial, states)
    b = global_kkt_residual(s, partial, *point_of(states))
    assert np.abs(a.stationarity - b.stationarity).max() <= 1e-12
    assert np.abs(a.primal - b.primal).max() <= 1e-12
    assert np.abs(a.complementarity - b.complementarity).max() <= 1e-12


def test_global_residual_takes_a_held_link_view():
    # The verification route reads a view only through its mask, so the view
    # and the assignment it was built from give the same residual.
    s, assignment, power = desk_instance()
    point = point_of(ocd_solve(s, assignment, power, psi=1e-3, max_iters=200).states)
    partial = assignment.copy()
    partial[1, :, 2] = 0
    for held in (assignment, partial):
        a = global_kkt_residual(s, held, *point)
        b = global_kkt_residual(s, rate_module.assigned_links(s, held), *point)
        for field in ("stationarity", "primal", "complementarity"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


def test_single_cell_symmetric_splits_evenly():
    gains = np.full((1, 1, 1, 2), 1e-4)
    s = hand_scenario(gains, users_per_cell=1)
    assignment = np.ones((1, 1, 2), dtype=np.int8)
    power = np.array([[0.7, 0.3]])
    result = ocd_solve(s, assignment, power, psi=1e-8, max_iters=300)
    assert abs(result.power[0, 0] - result.power[0, 1]) < 1e-4 * s.p_max
    assert result.power.sum() == pytest.approx(s.p_max, abs=1e-4)


def test_matches_grid_search_on_tiny_instance():
    s = make_scenario(cells=1, subcarriers=2, users=2, seed=3)
    power = np.full((1, 2), s.p_max / 2)
    assignment = solve_all_cells(s, power)
    result = ocd_solve(s, assignment, power, psi=1e-6, max_iters=200)
    achieved = wsmr(s, result.power, assignment).value
    reference = grid_power_optimum(s, assignment, grid_points=200)
    assert achieved >= 0.99 * reference.value


def test_input_validation():
    s, assignment, power = desk_instance()
    with pytest.raises(ValueError):
        ocd_solve(s, assignment, power, psi=0.0)
    with pytest.raises(ValueError):
        ocd_solve(s, assignment, power, psi=np.inf)
    with pytest.raises(ValueError):
        ocd_solve(s, assignment, power, max_iters=0)
    incomplete = assignment.copy()
    incomplete[0, :, 0] = 0
    with pytest.raises(AssignmentValidationError):
        ocd_solve(s, incomplete, power)


def test_single_iteration_budget():
    s, assignment, power = desk_instance()
    result = ocd_solve(s, assignment, power, psi=1e-9, max_iters=1)
    assert result.iterations == 1
    assert not result.converged
    assert len(result.trace) == 1


def test_message_accounting():
    s, assignment, power = desk_instance()
    bus = MessageBus()
    result = ocd_solve(s, assignment, power, psi=0.1, max_iters=50, bus=bus)
    assert bus.messages_total == 2 * 3 * result.iterations
    per_exchange = 3 * sum((4 + 1 + 2) * 8 for _ in range(3))
    assert bus.bytes_total == per_exchange * result.iterations
    assert result.trace[-1].messages == bus.messages_total
    assert result.trace[-1].bytes == bus.bytes_total
    assert [row.messages for row in result.trace] == \
        [2 * 3 * (i + 1) for i in range(result.iterations)]


def test_singular_system_raises_with_cell_index():
    s, assignment, power = desk_instance()
    for cell, broken in ((1, dict(lam=np.zeros(2), slack_h=np.zeros(2))),
                         (2, dict(slack_g=np.zeros(5)))):
        states = init_cell_states(s, assignment, power)
        states[cell] = dataclasses.replace(states[cell], **broken)
        with pytest.raises(OcdStepError) as excinfo:
            newton_step(s, assignment, states)
        assert excinfo.value.cell == cell
        assert "singular" in str(excinfo.value)


def test_singular_capacitance_names_first_failing_cell():
    # With every multiplier of a cell at 0 its aux column is empty: the
    # reduced system is singular though every slack is positive.  The
    # batched solve fails as a whole; the error names the first such cell.
    s, assignment, power = desk_instance()
    states = init_cell_states(s, assignment, power)
    for cell in (2, 1):
        states[cell] = dataclasses.replace(states[cell], lam=np.zeros(2))
        with pytest.raises(OcdStepError) as excinfo:
            newton_step(s, assignment, states)
        assert excinfo.value.cell == cell
        assert "reduced Newton system singular" in str(excinfo.value)


def test_solver_enriches_step_errors(monkeypatch):
    s, assignment, power = desk_instance()
    real = ocd_module.newton_step
    calls = {"count": 0}

    def flaky(scenario, assignment_, states):
        calls["count"] += 1
        if calls["count"] > 1:
            raise OcdStepError(0, "forced failure")
        return real(scenario, assignment_, states)

    monkeypatch.setattr(ocd_module, "newton_step", flaky)
    with pytest.raises(OcdStepError) as excinfo:
        ocd_module.ocd_solve(s, assignment, power, psi=1e-9, max_iters=10)
    assert excinfo.value.iteration == 2
    assert len(excinfo.value.trace) == 1
    assert "iteration 2" in str(excinfo.value)
