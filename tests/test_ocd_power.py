import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import netalloc.ocd_power as ocd_module
import netalloc.rate_model as rate_module
from netalloc import (AssignmentValidationError, MessageBus, OcdStepError,
                      OracleSizeError, cell_user_rates, global_kkt_residual,
                      grid_power_optimum, init_cell_states, newton_step,
                      ocd_solve, project_power, solve_all_cells,
                      stacked_cell_residuals, states_from_point,
                      validate_power, wsmr)

from conftest import hand_scenario, make_scenario, rate_subcarrier

LN_101 = 4.61512051684126


def desk_instance(seed=0, users=2):
    s = make_scenario(cells=3, subcarriers=4, users=users, seed=seed)
    power = np.full((3, 4), s.p_max / 4)
    assignment = solve_all_cells(s, power)
    return s, assignment, power


def phi(s, assignment, state):
    """Every cell's subproblem objective at the joint state, from the rate
    model: w_m aux_m plus, for every other cell o, sum_u lam_ou (rate_ou -
    aux_o)."""
    rates = cell_user_rates(s, state.power, assignment)
    slack = [state.lam[o, :k] @ (rates[o, :k] - state.aux_rate[o])
             for o, k in enumerate(s.users_per_cell)]
    return np.array([w * aux + sum(v for o, v in enumerate(slack) if o != m)
                     for m, (w, aux) in enumerate(zip(s.weights, state.aux_rate))])


def cell_terms(s, terms, cell):
    """Cell `cell`'s (grad, curv, h, jac_h, curv_h), padding sliced off."""
    k = s.users_per_cell[cell]
    return (terms.grad[cell], terms.curv[cell], terms.h[cell, :k],
            terms.jac_h[cell, :k], terms.curv_h[cell, :k])


def cell_state(s, state, cell):
    """Cell `cell`'s row of an `OcdState`, padding sliced off."""
    k = s.users_per_cell[cell]
    return SimpleNamespace(
        power=state.power[cell], aux_rate=float(state.aux_rate[cell]),
        lam=state.lam[cell, :k], mu=state.mu[cell], slack_h=state.slack_h[cell, :k],
        slack_g=state.slack_g[cell], barrier=state.barrier)


def cell_step(s, step, cell):
    """Cell `cell`'s row of a `NewtonStep`, padding sliced off."""
    k = s.users_per_cell[cell]
    return SimpleNamespace(
        d_power=step.d_power[cell], d_aux_rate=float(step.d_aux_rate[cell]),
        d_lam=step.d_lam[cell, :k], d_mu=step.d_mu[cell], alpha=float(step.alpha[cell]),
        state=cell_state(s, step.state, cell))


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
    state = init_cell_states(s, assignment, power)
    value = phi(s, assignment, state)[0]
    assert value == pytest.approx(2.5 * state.aux_rate[0], rel=1e-14)


def test_local_objective_vanishing_foreign_multipliers():
    s, assignment, power = desk_instance()
    state = init_cell_states(s, assignment, power)
    zeroed = dataclasses.replace(state, lam=np.zeros_like(state.lam))
    value = phi(s, assignment, zeroed)[0]
    assert value == pytest.approx(s.weights[0] * state.aux_rate[0], rel=1e-14)


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
    state = states_from_point(s, assignment, power, aux, lam,
                              [np.ones(2), np.ones(2)])
    value = phi(s, assignment, state)[0]
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
    assert phi(s, assignment, st_high)[0] < phi(s, assignment, st_low)[0]


def test_constraint_residuals_hand_values():
    gains = np.full((1, 1, 1, 1), 1e-4)
    s = hand_scenario(gains, users_per_cell=1)
    assignment = np.ones((1, 1, 1), dtype=np.int8)
    power = np.array([[1.0]])
    state = states_from_point(s, assignment, power, np.array([5.0]),
                              [np.ones(1)], [np.ones(2)])
    h = ocd_module._subproblem_terms(s, assignment, state).h[0]
    g = ocd_module._local_constraints(state.power[0], s.p_max)
    assert h[0] == pytest.approx(5.0 - LN_101, rel=1e-13)
    assert g[0] == 0.0
    assert g[1] == -1.0


def test_constraint_residuals_uniform_budget_is_exact():
    s, assignment, power = desk_instance()
    state = init_cell_states(s, assignment, power)
    terms = ocd_module._subproblem_terms(s, assignment, state)
    for m in range(3):
        h = terms.h[m]
        g = ocd_module._local_constraints(state.power[m], s.p_max)
        assert g[0] == 0.0
        assert (g[1:] == -power[m]).all()
        rates = cell_user_rates(s, power, assignment)[m]
        assert h == pytest.approx(state.aux_rate[m] - rates, rel=1e-12)


def second_difference(f, state, cell, n, step):
    """Central second difference of f(state) in the cell's own power n."""
    def at(delta):
        power = state.power.copy()
        power[cell, n] += delta
        return f(dataclasses.replace(state, power=power))
    return (at(step) - 2.0 * at(0.0) + at(-step)) / step ** 2


def test_gradients_match_first_differences():
    for s, assignment, power in (desk_instance(), desk_instance(users=(1, 2, 3))):
        state = init_cell_states(s, assignment, power)
        terms = ocd_module._subproblem_terms(s, assignment, state)
        for cell in range(3):
            grad = cell_terms(s, terms, cell)[0]
            assert grad[4] == s.weights[cell]
            for n in range(4):
                step = 1e-4 * power[cell, n]

                def at(delta):
                    moved = state.power.copy()
                    moved[cell, n] += delta
                    return phi(s, assignment, dataclasses.replace(state, power=moved))[cell]
                fd = (at(step) - at(-step)) / (2.0 * step)
                assert grad[n] == pytest.approx(fd, rel=1e-6)


def test_curvatures_match_second_differences():
    for s, assignment, power in (desk_instance(), desk_instance(users=(1, 2, 3))):
        state = init_cell_states(s, assignment, power)
        terms = ocd_module._subproblem_terms(s, assignment, state)
        for cell in range(3):
            _, curv, _, _, curv_h = cell_terms(s, terms, cell)
            assert (curv[:4] > 0.0).all() and curv[4] == 0.0
            for n in range(4):
                step = 1e-3 * power[cell, n]
                fd = second_difference(
                    lambda st: phi(s, assignment, st)[cell], state, cell, n, step)
                assert curv[n] == pytest.approx(fd, rel=1e-4)
                fd_h = second_difference(
                    lambda st: cell_terms(
                        s, ocd_module._subproblem_terms(s, assignment, st), cell)[2],
                    state, cell, n, step)
                scale = np.abs(curv_h[:, n]).max()
                assert curv_h[:, n] == pytest.approx(fd_h, rel=1e-5, abs=1e-9 * scale)


def test_init_states_structure():
    s, assignment, power = desk_instance()
    state = init_cell_states(s, assignment, power)
    for m in range(3):
        st = cell_state(s, state, m)
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
    lifted = init_cell_states(s, assignment, power).power
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
    lifted = init_cell_states(tiny, assignment, power).power
    validate_power(tiny, lifted)
    assert lifted.min() == tiny.p_max / 16
    assert lifted[:, 0] == pytest.approx(tiny.p_max * 13 / 16, rel=1e-12)


def test_states_own_their_multipliers():
    s, assignment, power = desk_instance()
    lam, mu = np.full(2, 0.5), np.ones(5)
    for state in (init_cell_states(s, assignment, power),
                  states_from_point(s, assignment, power, np.full(3, 0.1),
                                    [lam] * 3, [mu] * 3)):
        arrays = [lam, mu, state.lam, state.mu]
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

    def once(fn, *args, **kwargs):
        calls["count"] = 0
        result = fn(*args, **kwargs)
        assert calls["count"] == 1, fn.__name__
        return result

    state = once(init_cell_states, s, assignment, power)
    for _ in range(3):
        state = once(newton_step, s, assignment, state).state
    once(stacked_cell_residuals, s, assignment, state)
    once(states_from_point, s, assignment, *point_of(s, state))
    for mode in ("exact", "greedy"):
        once(solve_all_cells, s, power, mode=mode)


def test_phase_evaluates_each_snapshot_once(monkeypatch):
    # The first Newton step reads the starting point's snapshot, and a
    # sweep's report and the next Newton step read the same power, so a
    # phase of t sweeps evaluates the links t + 1 times, the start included.
    s, assignment, power = desk_instance(users=(1, 2, 3))
    real = rate_module.link_terms
    calls = {"count": 0}

    def counted(scenario, power_):
        calls["count"] += 1
        return real(scenario, power_)

    monkeypatch.setattr(rate_module, "link_terms", counted)
    for sweeps in (1, 2, 25):
        calls["count"] = 0
        result = ocd_solve(s, assignment, power, psi=1e-12, max_iters=sweeps)
        assert result.iterations == sweeps
        assert calls["count"] == sweeps + 1


def test_report_at_a_power_outside_the_box_is_projected(monkeypatch):
    # When a raw iterate leaves the box (a negative entry, a row over
    # budget), its row reports `wsmr` at the projected power, bit for bit,
    # and the next Newton step still starts from the raw power: the route
    # that builds a fresh phase for every step and reports through `wsmr`.
    s, assignment, power = desk_instance(users=(1, 2, 3))
    real = ocd_module.newton_step

    def leave_the_box(sweep, state):
        moved = state.power.copy()
        if sweep == 2:
            moved[0, 1] = -1e-3 * s.p_max
        elif sweep == 3:
            moved[1] *= 1.5
        return dataclasses.replace(state, power=moved)

    calls = {"count": 0}

    def stepped(scenario, assignment_, state):
        calls["count"] += 1
        step = real(scenario, assignment_, state)
        return dataclasses.replace(step, state=leave_the_box(calls["count"], step.state))

    monkeypatch.setattr(ocd_module, "newton_step", stepped)
    result = ocd_solve(s, assignment, power, psi=1e-12, max_iters=5)

    state = init_cell_states(s, assignment, power)
    for sweep, row in enumerate(result.trace, start=1):
        state = leave_the_box(sweep, real(s, assignment, state).state)
        projected = project_power(state.power, s.p_max)
        if sweep in (2, 3):
            assert projected.tobytes() != state.power.tobytes()
        want = wsmr(s, projected, assignment)
        assert np.float64(row.wsmr).tobytes() == np.float64(want.value).tobytes()
        assert np.array(row.min_rates).tobytes() == np.array(want.min_rates).tobytes()
    assert result.state.power.tobytes() == state.power.tobytes()
    assert result.state.lam.tobytes() == state.lam.tobytes()
    assert result.power.tobytes() == project_power(state.power, s.p_max).tobytes()


def test_newton_step_reduces_residuals():
    s, assignment, power = desk_instance()
    state = init_cell_states(s, assignment, power)
    before = stacked_cell_residuals(s, assignment, state).max_abs
    swept = newton_step(s, assignment, state)
    assert swept.alpha.shape == (3,)
    after = stacked_cell_residuals(s, assignment, swept.state).max_abs
    assert after < before
    for step in (cell_step(s, swept, m) for m in range(3)):
        assert 0.0 < step.alpha <= 1.0
        assert (step.state.slack_h > 0.0).all()
        assert (step.state.slack_g > 0.0).all()
        assert (step.state.lam > 0.0).all()
        assert (step.state.mu > 0.0).all()


def linearized_kkt_blocks(s, assignment, cell, state, step):
    """(left side, residual, rounding scale) of each of the cell's five
    linearized primal-dual equations at the step's direction.

    The rounding scale sums the magnitudes of the left side's terms.  The
    slack directions come back as state differences over alpha, so their
    term counts at the size of the slacks that were differenced.  The
    stationarity rows are what the reduced system solves, so their scale
    also holds the terms that eliminating slacks and multipliers adds,
    weighted by multiplier over slack.
    """
    st, step = cell_state(s, state, cell), cell_step(s, step, cell)
    n = st.power.size
    grad, curv, h, jac_h, curv_h = cell_terms(
        s, ocd_module._subproblem_terms(s, assignment, state), cell)
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
        state = init_cell_states(s, assignment, power)
        for sweep in range(61):
            step = newton_step(s, assignment, state)
            if sweep in (0, 30, 60):      # the barrier is at its floor by 60
                for cell in range(3):
                    for lhs, residual, rounding in linearized_kkt_blocks(
                            s, assignment, cell, state, step):
                        tol = (1e-10 * np.abs(residual).max()
                               + 16 * np.finfo(float).eps * rounding.max())
                        assert np.abs(lhs + residual).max() <= tol
            state = step.state
        assert state.barrier == ocd_module.BARRIER_FLOOR


def dense_sweep(s, assignment, state):
    """The per-cell route the batched sweep replaced: per cell, assemble the
    dense (N+1)x(N+1) reduced matrix and LU-solve it.  Returns the next
    state."""
    n = s.num_subcarriers
    terms = ocd_module._subproblem_terms(s, assignment, state)
    out = {name: getattr(state, name).copy()
           for name in ("power", "aux_rate", "lam", "mu", "slack_h", "slack_g")}
    for cell in range(s.num_cells):
        st, k = cell_state(s, state, cell), s.users_per_cell[cell]
        grad, curv, h, jac_h, curv_h = cell_terms(s, terms, cell)
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
        out["power"][cell] = st.power + alpha * d_x[:n]
        out["aux_rate"][cell] = st.aux_rate + alpha * d_x[n]
        out["lam"][cell, :k] = st.lam + alpha * d_lam
        out["mu"][cell] = st.mu + alpha * d_mu
        out["slack_h"][cell, :k] = st.slack_h + alpha * d_sh
        out["slack_g"][cell] = st.slack_g + alpha * d_sg
    return ocd_module.OcdState(
        **out, barrier=max(ocd_module.BARRIER_DECAY * state.barrier,
                           ocd_module.BARRIER_FLOOR))


def assert_states_close(s, got, want):
    """Powers within 1e-11 p_max, multipliers within 1e-11 of the largest
    weight and aux rates (a rate, not a multiplier) within 1e-11 of the
    largest aux rate."""
    aux_scale = np.abs(want.aux_rate).max()
    assert np.abs(got.power - want.power).max() <= 1e-11 * s.p_max
    assert np.abs(got.aux_rate - want.aux_rate).max() <= 1e-11 * aux_scale
    assert np.abs(got.lam - want.lam).max() <= 1e-11 * max(s.weights)


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
            step = newton_step(s, assignment, batched)
            assert_states_close(s, step.state, dense_sweep(s, assignment, batched))
            batched = step.state
            dense = dense_sweep(s, assignment, dense)
            assert_states_close(s, batched, dense)


def test_zero_multiplier_user_is_dropped_from_the_solve():
    # A multiplier can underflow to exactly 0.0 after many damped steps.
    # That user's rate row carries no weight in the reduced matrix, so the
    # capacitance solve must drop it instead of forming slack / 0.
    s, assignment, power = desk_instance(users=(1, 2, 3))
    state = init_cell_states(s, assignment, power)
    for _ in range(5):
        state = newton_step(s, assignment, state).state
    lam = state.lam.copy()
    lam[2, 1] = 0.0
    state = dataclasses.replace(state, lam=lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        step = newton_step(s, assignment, state)
    assert np.isfinite(step.d_power).all() and np.isfinite(step.d_aux_rate).all()
    assert np.isfinite(step.d_lam).all() and np.isfinite(step.d_mu).all()
    assert_states_close(s, step.state, dense_sweep(s, assignment, state))


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
    final = wsmr(s, result.power, assignment)
    assert (result.trace[-1].wsmr, result.trace[-1].min_rates) == \
        (final.value, final.min_rates)
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
    step = newton_step(s, assignment, result.state)
    assert (np.linalg.norm(step.d_power, axis=1) < 1e-8).all()
    assert (np.abs(step.d_aux_rate) < 1e-8).all()


def point_of(s, state):
    """(raw power, aux rates, lam, mu) of a state, as per-cell lists."""
    return (state.power, state.aux_rate,
            [state.lam[m, :k] for m, k in enumerate(s.users_per_cell)], list(state.mu))


def test_tight_tolerance_reaches_stationarity():
    for seed in (0, 1, 2):
        s, assignment, power = desk_instance(seed)
        result = ocd_solve(s, assignment, power, psi=1e-6, max_iters=400)
        assert result.converged
        res = global_kkt_residual(s, assignment, *point_of(s, result.state))
        assert res.max_abs < 1e-4


def test_cell_and_global_residual_routes_agree():
    # Unequal cells check the masked, cell-ordered flattening of the padded
    # state against the global route's per-cell concatenation.
    for s, assignment, power in (desk_instance(), desk_instance(users=(1, 2, 3))):
        result = ocd_solve(s, assignment, power, psi=1e-3, max_iters=200)
        a = stacked_cell_residuals(s, assignment, result.state)
        b = global_kkt_residual(s, assignment, *point_of(s, result.state))
        assert a.primal.shape == b.primal.shape == (sum(s.users_per_cell) + 3 * 5,)
        assert np.abs(a.stationarity - b.stationarity).max() <= 1e-12
        assert np.abs(a.primal - b.primal).max() <= 1e-12
        assert np.abs(a.complementarity - b.complementarity).max() <= 1e-12


def test_padded_user_slots_stay_exact():
    # Slots of users a cell does not have hold lam 0 and slack 1 from every
    # constructor, and a sweep leaves them there bit for bit: the step's
    # inequality-block mask makes their multiplier directions exact zeros.
    s, assignment, power = desk_instance(users=(1, 2, 3))
    padded = ~s.real_users
    lam = [np.full(k, 0.5) for k in s.users_per_cell]
    start = states_from_point(s, assignment, power, np.full(3, 0.1), lam,
                              [np.ones(5)] * 3)
    for state in (init_cell_states(s, assignment, power), start):
        for sweep in range(61):
            assert (state.lam[padded] == 0.0).all()
            assert (state.slack_h[padded] == 1.0).all()
            if sweep < 60:
                step = newton_step(s, assignment, state)
                assert (step.d_lam[padded] == 0.0).all()
                state = step.state
        assert state.barrier == ocd_module.BARRIER_FLOOR


def test_residual_routes_agree_on_an_incomplete_assignment():
    # A subcarrier nobody holds carries no rate and no coupling: the
    # held-link route gives it zero gains, the global route skips it.
    s, assignment, power = desk_instance()
    state = ocd_solve(s, assignment, power, psi=1e-3, max_iters=200).state
    partial = assignment.copy()
    partial[0, :, 1] = 0
    partial[2, :, 3] = 0
    a = stacked_cell_residuals(s, partial, state)
    b = global_kkt_residual(s, partial, *point_of(s, state))
    assert np.abs(a.stationarity - b.stationarity).max() <= 1e-12
    assert np.abs(a.primal - b.primal).max() <= 1e-12
    assert np.abs(a.complementarity - b.complementarity).max() <= 1e-12


def test_global_residual_takes_a_held_link_view():
    # The verification route reads a view only through its mask, so the view
    # and the assignment it was built from give the same residual.
    s, assignment, power = desk_instance()
    point = point_of(s, ocd_solve(s, assignment, power, psi=1e-3, max_iters=200).state)
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


def test_grid_oracle_refuses_a_grid_it_cannot_hold(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the power grid was built")

    monkeypatch.setattr(np, "linspace", unreachable)
    monkeypatch.setattr(np, "meshgrid", unreachable)
    s = make_scenario(cells=1, subcarriers=2, users=2, seed=3)
    assignment = np.zeros((1, 2, 2), dtype=int)
    assignment[0, 0, 0] = assignment[0, 1, 1] = 1
    with pytest.raises(OracleSizeError, match=r"grid\^N <= 1000000, got 1001\^2"):
        grid_power_optimum(s, assignment, grid_points=1001)


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
    for cell, broken in ((1, ("lam", "slack_h")), (2, ("slack_g",))):
        state = init_cell_states(s, assignment, power)
        zeroed = {name: getattr(state, name).copy() for name in broken}
        for values in zeroed.values():
            values[cell] = 0.0
        with pytest.raises(OcdStepError) as excinfo:
            newton_step(s, assignment, dataclasses.replace(state, **zeroed))
        assert excinfo.value.cell == cell
        assert "singular" in str(excinfo.value)


def test_singular_capacitance_names_first_failing_cell():
    # With every multiplier of a cell at 0 its aux column is empty: the
    # reduced system is singular though every slack is positive.  The
    # batched solve fails as a whole; the error names the first such cell.
    s, assignment, power = desk_instance()
    state = init_cell_states(s, assignment, power)
    for cell in (2, 1):
        lam = state.lam.copy()
        lam[cell] = 0.0
        state = dataclasses.replace(state, lam=lam)
        with pytest.raises(OcdStepError) as excinfo:
            newton_step(s, assignment, state)
        assert excinfo.value.cell == cell
        assert "reduced Newton system singular" in str(excinfo.value)


def test_solver_enriches_step_errors(monkeypatch):
    s, assignment, power = desk_instance()
    real = ocd_module.newton_step
    calls = {"count": 0}

    def flaky(scenario, assignment_, state):
        calls["count"] += 1
        if calls["count"] > 1:
            raise OcdStepError(0, "forced failure")
        return real(scenario, assignment_, state)

    monkeypatch.setattr(ocd_module, "newton_step", flaky)
    with pytest.raises(OcdStepError) as excinfo:
        ocd_module.ocd_solve(s, assignment, power, psi=1e-9, max_iters=10)
    assert excinfo.value.iteration == 2
    assert len(excinfo.value.trace) == 1
    assert "iteration 2" in str(excinfo.value)
