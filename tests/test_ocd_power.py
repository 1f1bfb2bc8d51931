import dataclasses

import numpy as np
import pytest

import netalloc.ocd_power as ocd_module
from netalloc import (AssignmentValidationError, MessageBus, OcdStepError,
                      cell_user_rates,
                      constraint_residuals, global_kkt_residual,
                      grid_power_optimum, init_cell_states, local_objective,
                      newton_step, ocd_solve, project_power, rate_subcarrier,
                      solve_all_cells, stacked_cell_residuals,
                      states_from_point, wsmr)

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
        rates = cell_user_rates(s, power, assignment, m)
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
        for cell in range(3):
            _, _, curv, _, _, curv_h = ocd_module._subproblem_terms(
                s, assignment, cell, states)
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
        rates = cell_user_rates(s, power, assignment, m)
        assert st.aux_rate == pytest.approx(0.9 * rates.min(), rel=1e-12)
        assert st.lam == pytest.approx(np.full(2, s.weights[m] / 2))
        assert st.mu.shape == (5,)
        assert (st.slack_h > 0.0).all() and (st.slack_g > 0.0).all()


def test_newton_step_reduces_residuals():
    s, assignment, power = desk_instance()
    states = init_cell_states(s, assignment, power)
    before = stacked_cell_residuals(s, assignment, states).max_abs
    after_states = [newton_step(s, assignment, m, states).state
                    for m in range(3)]
    after = stacked_cell_residuals(s, assignment, after_states).max_abs
    assert after < before
    for m in range(3):
        step = newton_step(s, assignment, m, states)
        assert 0.0 < step.alpha <= 1.0
        assert (step.state.slack_h > 0.0).all()
        assert (step.state.slack_g > 0.0).all()
        assert (step.state.lam > 0.0).all()
        assert (step.state.mu > 0.0).all()


def test_solver_converges_and_traces():
    s, assignment, power = desk_instance()
    result = ocd_solve(s, assignment, power, psi=0.1, max_iters=200)
    assert result.converged
    assert result.iterations == len(result.trace)
    assert result.trace[-1].delta_p_norm < 0.1
    assert result.trace[-2].delta_p_norm >= 0.1
    for row in result.trace:
        assert np.isfinite(row.wsmr)
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
    for m in range(3):
        step = newton_step(s, assignment, m, result.states)
        assert np.linalg.norm(step.d_power) < 1e-8
        assert abs(step.d_aux_rate) < 1e-8


def test_tight_tolerance_reaches_stationarity():
    for seed in (0, 1, 2):
        s, assignment, power = desk_instance(seed)
        result = ocd_solve(s, assignment, power, psi=1e-6, max_iters=400)
        assert result.converged
        raw_power = np.vstack([st.power for st in result.states])
        res = global_kkt_residual(s, assignment, raw_power,
                                  result.aux_rates, result.lam, result.mu)
        assert res.max_abs < 1e-4


def test_cell_and_global_residual_routes_agree():
    s, assignment, power = desk_instance()
    result = ocd_solve(s, assignment, power, psi=1e-3, max_iters=200)
    a = stacked_cell_residuals(s, assignment, result.states)
    raw_power = np.vstack([st.power for st in result.states])
    b = global_kkt_residual(s, assignment, raw_power, result.aux_rates,
                            result.lam, result.mu)
    assert np.abs(a.stationarity - b.stationarity).max() <= 1e-12
    assert np.abs(a.primal - b.primal).max() <= 1e-12
    assert np.abs(a.complementarity - b.complementarity).max() <= 1e-12


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
    states = init_cell_states(s, assignment, power)
    broken = dataclasses.replace(states[1], lam=np.zeros_like(states[1].lam),
                                 slack_h=np.zeros_like(states[1].slack_h))
    states[1] = broken
    with pytest.raises(OcdStepError) as excinfo:
        newton_step(s, assignment, 1, states)
    assert excinfo.value.cell == 1
    assert "singular" in str(excinfo.value)


def test_solver_enriches_step_errors(monkeypatch):
    s, assignment, power = desk_instance()
    real = ocd_module.newton_step
    calls = {"count": 0}

    def flaky(scenario, assignment_, cell, states):
        calls["count"] += 1
        if calls["count"] > scenario.num_cells:
            raise OcdStepError(cell, "forced failure")
        return real(scenario, assignment_, cell, states)

    monkeypatch.setattr(ocd_module, "newton_step", flaky)
    with pytest.raises(OcdStepError) as excinfo:
        ocd_module.ocd_solve(s, assignment, power, psi=1e-9, max_iters=10)
    assert excinfo.value.iteration == 2
    assert len(excinfo.value.trace) == 1
    assert "iteration 2" in str(excinfo.value)
