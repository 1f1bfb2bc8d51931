import numpy as np
import pytest

from netalloc import (AssignmentValidationError, PowerValidationError,
                      cell_user_rates, link_rates, rate_gradient,
                      rate_subcarrier, sinr, solve_all_cells,
                      validate_assignment, validate_power, wsmr)

from conftest import fd_rate_gradient, hand_scenario, make_scenario

# Frozen reference values, computed independently at high precision:
#   ln(1 + 1*1e-4 / (1e-6*1))            for the interference-free link
#   1e-4 / ((1e-6 + 1e-4) * 1)           for the equal-gain interferer
LN_101 = 4.61512051684126
SINR_INTERFERED = 0.9900990099009901
RATE_INTERFERED = 0.6881843912178163
RATE_SUM = 5.303304908059076


def single_link():
    return hand_scenario(np.full((1, 1, 1, 1), 1e-4), users_per_cell=1)


def two_cell_pair():
    # Both stations reach the user of cell 0 with the same 1e-4 gain.
    gains = np.full((2, 2, 1, 1), 1e-4)
    return hand_scenario(gains, users_per_cell=1)


def test_sinr_reference_values():
    s = single_link()
    p = np.array([[1.0]])
    assert sinr(s, p, 0, 0, 0) == pytest.approx(100.0, rel=1e-12)

    s2 = two_cell_pair()
    p2 = np.ones((2, 1))
    assert sinr(s2, p2, 0, 0, 0) == pytest.approx(SINR_INTERFERED, rel=1e-12)


def test_sinr_zero_power():
    s = single_link()
    assert sinr(s, np.array([[0.0]]), 0, 0, 0) == 0.0
    assert rate_subcarrier(s, np.array([[0.0]]), 0, 0, 0) == 0.0


def test_rate_reference_values():
    s = single_link()
    assert rate_subcarrier(s, np.array([[1.0]]), 0, 0, 0) == \
        pytest.approx(LN_101, rel=1e-13)
    s2 = two_cell_pair()
    assert rate_subcarrier(s2, np.ones((2, 1)), 0, 0, 0) == \
        pytest.approx(RATE_INTERFERED, rel=1e-13)


def test_cell_user_rates_sums_assigned_subcarriers():
    # Two subcarriers for the user of cell 0: on the first the other
    # station is silent (SINR 100), on the second it transmits at equal
    # gain (SINR ~0.99).
    gains = np.full((2, 2, 1, 2), 1e-4)
    s = hand_scenario(gains, users_per_cell=1, p_max=2.0)
    power = np.array([[1.0, 1.0], [0.0, 1.0]])
    assignment = np.ones((2, 1, 2), dtype=np.int8)
    value = cell_user_rates(s, power, assignment, 0)[0]
    assert value == pytest.approx(RATE_SUM, rel=1e-13)

    nothing = np.zeros((2, 1, 2), dtype=np.int8)
    assert cell_user_rates(s, power, nothing, 0)[0] == 0.0


def test_vectorized_rates_match_scalar():
    for s in (make_scenario(cells=2, subcarriers=4, users=2, seed=5),
              make_scenario(cells=3, subcarriers=4, users=(1, 2, 3), seed=6)):
        power = np.linspace(0.01, 0.2, s.num_cells * 4).reshape(s.num_cells, 4)
        vec = link_rates(s, power)
        assert vec.shape == (s.num_cells, s.max_users, 4)
        for m, u in s.cells_users():
            ref = [rate_subcarrier(s, power, u, m, n) for n in range(4)]
            assert vec[m, u] == pytest.approx(ref, rel=1e-14)


def test_cell_user_rates_symmetric_subcarriers():
    gains = np.full((1, 1, 1, 4), 1e-4)
    s = hand_scenario(gains, users_per_cell=1, p_max=4.0)
    power = np.ones((1, 4))
    assignment = np.ones((1, 1, 4), dtype=np.int8)
    assert cell_user_rates(s, power, assignment, 0)[0] == \
        pytest.approx(4 * LN_101, rel=1e-12)


def test_wsmr_weighted_sum_of_min_rates():
    s = make_scenario(cells=2, subcarriers=4, users=2, seed=8,
                      weights=(1.0, 2.0))
    power = np.full((2, 4), s.p_max / 4)
    assignment = np.zeros((2, 2, 4), dtype=np.int8)
    assignment[:, 0, :2] = 1
    assignment[:, 1, 2:] = 1
    result = wsmr(s, power, assignment)
    mins = []
    for m in range(2):
        rates = cell_user_rates(s, power, assignment, m)
        mins.append(rates.min())
        assert result.argmin_users[m] == int(np.argmin(rates))
    assert result.min_rates == pytest.approx(tuple(mins), rel=1e-12)
    assert result.value == pytest.approx(mins[0] + 2.0 * mins[1], rel=1e-12)


def test_wsmr_user_rates_match_cell_user_rates():
    s = make_scenario(cells=3, subcarriers=6, users=(1, 2, 3), seed=4)
    power = np.linspace(0.02, 0.16, 18).reshape(3, 6)
    assignment = solve_all_cells(s, power)
    result = wsmr(s, power, assignment)
    assert len(result.user_rates) == 3
    for m in range(3):
        assert np.array_equal(result.user_rates[m],
                              cell_user_rates(s, power, assignment, m))
        assert result.min_rates[m] == result.user_rates[m].min()


def test_wsmr_zero_power_and_weight_scaling():
    s = make_scenario(cells=2, subcarriers=4, users=2, seed=8)
    assignment = np.zeros((2, 2, 4), dtype=np.int8)
    assignment[:, 0, :2] = 1
    assignment[:, 1, 2:] = 1
    assert wsmr(s, np.zeros((2, 4)), assignment).value == 0.0

    import dataclasses
    power = np.full((2, 4), s.p_max / 4)
    base = wsmr(s, power, assignment)
    scaled_params = dataclasses.replace(s.params, weights=(3.0, 3.0))
    s3 = dataclasses.replace(s, params=scaled_params)
    scaled = wsmr(s3, power, assignment)
    assert scaled.value == pytest.approx(3.0 * base.value, rel=1e-12)
    assert scaled.argmin_users == base.argmin_users


def test_wsmr_symmetric_cells_contribute_equally():
    gains = np.zeros((2, 2, 1, 2))
    gains[0, 0], gains[1, 1] = 1e-4, 1e-4
    gains[0, 1], gains[1, 0] = 1e-6, 1e-6
    s = hand_scenario(gains, users_per_cell=1)
    power = np.full((2, 2), 0.5)
    assignment = np.ones((2, 1, 2), dtype=np.int8)
    result = wsmr(s, power, assignment)
    assert result.min_rates[0] == pytest.approx(result.min_rates[1], rel=1e-14)


def test_wsmr_subcarrier_relabel_invariance():
    s = make_scenario(cells=2, subcarriers=5, users=2, seed=17)
    power = np.linspace(0.05, 0.15, 10).reshape(2, 5)
    assignment = np.zeros((2, 2, 5), dtype=np.int8)
    assignment[:, 0, :3] = 1
    assignment[:, 1, 3:] = 1
    perm = np.array([3, 0, 4, 1, 2])
    import dataclasses
    permuted = dataclasses.replace(s, gains=s.gains[:, :, :, perm],
                                   noise=s.noise[:, :, perm])
    a = wsmr(s, power, assignment).value
    b = wsmr(permuted, power[:, perm], assignment[:, :, perm]).value
    assert b == pytest.approx(a, rel=1e-12)


def test_gradient_at_zero_power_equals_gain_over_noise():
    s = single_link()
    grad = rate_gradient(s, np.array([[0.0]]), 0, 0, 0)
    assert grad[0] == pytest.approx(100.0, rel=1e-12)


def test_gradient_signs_and_finite_differences():
    rng = np.random.default_rng(42)
    for trial in range(20):
        s = make_scenario(cells=3, subcarriers=3, users=2,
                          seed=200 + trial)
        power = rng.uniform(0.0, s.p_max / 3, size=(3, 3))
        m = int(rng.integers(3))
        u = int(rng.integers(2))
        n = int(rng.integers(3))
        grad = rate_gradient(s, power, u, m, n)
        assert grad[m] > 0.0
        assert (np.delete(grad, m) <= 0.0).all()
        fd = fd_rate_gradient(s, power, u, m, n)
        err = np.abs(grad - fd).max() / max(np.abs(grad).max(), 1e-12)
        assert err < 1e-6


def test_rate_monotonicity_in_powers():
    s = make_scenario(cells=2, subcarriers=2, users=1, seed=3)
    power = np.full((2, 2), 0.3)
    base = rate_subcarrier(s, power, 0, 0, 0)
    more_own = power.copy()
    more_own[0, 0] += 0.1
    more_other = power.copy()
    more_other[1, 0] += 0.1
    assert rate_subcarrier(s, more_own, 0, 0, 0) > base
    assert rate_subcarrier(s, more_other, 0, 0, 0) < base


def test_validate_power_errors():
    s = make_scenario(cells=2, subcarriers=3, users=1, seed=0)
    with pytest.raises(PowerValidationError):
        validate_power(s, np.zeros((2, 2)))
    bad = np.zeros((2, 3))
    bad[1, 0] = -1e-6
    with pytest.raises(PowerValidationError):
        validate_power(s, bad)
    over = np.full((2, 3), s.p_max)
    with pytest.raises(PowerValidationError):
        validate_power(s, over)
    validate_power(s, np.full((2, 3), s.p_max / 3))


def test_validate_assignment_errors():
    s = make_scenario(cells=2, subcarriers=3, users=2, seed=0)
    a = np.zeros((2, 2, 3), dtype=np.int8)
    a[0, :, 0] = 1          # both users on one subcarrier
    with pytest.raises(AssignmentValidationError):
        validate_assignment(s, a)
    b = np.zeros((2, 2, 3), dtype=np.int8)
    b[0, 0, 0] = 2
    with pytest.raises(AssignmentValidationError):
        validate_assignment(s, b)
    c = np.zeros((2, 2, 3), dtype=np.int8)
    c[0, 0, :] = 1
    validate_assignment(s, c)
    with pytest.raises(AssignmentValidationError):
        validate_assignment(s, c, require_complete=True)


def test_index_errors():
    s = make_scenario(cells=2, subcarriers=3, users=1, seed=0)
    power = np.full((2, 3), 0.1)
    with pytest.raises(IndexError):
        sinr(s, power, 1, 0, 0)
    with pytest.raises(IndexError):
        sinr(s, power, 0, 2, 0)
    with pytest.raises(IndexError):
        sinr(s, power, 0, 0, 3)
