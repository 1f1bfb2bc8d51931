import numpy as np
import pytest

from netalloc import (AssignedLinks, AssignmentValidationError, PowerValidationError,
                      assigned_links, cell_user_rates, link_rates, link_terms,
                      rate_gradient, solve_all_cells, validate_assignment,
                      validate_power, wsmr)

from conftest import (fd_rate_gradient, hand_scenario, make_scenario,
                      per_cell_user_rates, per_cell_wsmr, rate_subcarrier, sinr)

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
    value = cell_user_rates(s, power, assignment)[0, 0]
    assert value == pytest.approx(RATE_SUM, rel=1e-13)

    nothing = np.zeros((2, 1, 2), dtype=np.int8)
    assert cell_user_rates(s, power, nothing)[0, 0] == 0.0


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
    assert cell_user_rates(s, power, assignment)[0, 0] == \
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
        mins.append(cell_user_rates(s, power, assignment)[m].min())
    assert result.min_rates == pytest.approx(tuple(mins), rel=1e-12)
    assert result.value == pytest.approx(mins[0] + 2.0 * mins[1], rel=1e-12)


def test_wsmr_user_rates_match_cell_user_rates():
    s = make_scenario(cells=3, subcarriers=6, users=(1, 2, 3), seed=4)
    power = np.linspace(0.02, 0.16, 18).reshape(3, 6)
    assignment = solve_all_cells(s, power)
    result = wsmr(s, power, assignment)
    rates = cell_user_rates(s, power, assignment)
    assert rates.shape == (3, 3)
    assert len(result.min_rates) == 3
    for m, k in enumerate(s.users_per_cell):
        assert (rates[m, k:] == 0.0).all()
        assert result.min_rates[m] == rates[m, :k].min()


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
    assert scaled.min_rates == base.min_rates


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


def poison_padding(s):
    """The scenario with every padded gain and noise entry set to NaN."""
    import dataclasses
    gains, noise = s.gains.copy(), s.noise.copy()
    for m, k_m in enumerate(s.users_per_cell):
        gains[:, m, k_m:, :] = np.nan
        noise[m, k_m:, :] = np.nan
    return dataclasses.replace(s, gains=gains, noise=noise)


def assert_same_rates(s, power, assignment):
    """`wsmr` and `cell_user_rates` equal the per-cell route bit for bit, and
    `cell_user_rates` holds exactly +0.0 in every padded slot."""
    got, want = wsmr(s, power, assignment), per_cell_wsmr(s, power, assignment)
    assert got.value == want.value
    assert got.min_rates == want.min_rates
    rates = cell_user_rates(s, power, assignment)
    assert rates.shape == s.real_users.shape
    for m, (row, k) in enumerate(zip(per_cell_user_rates(s, power, assignment),
                                     s.users_per_cell)):
        assert rates[m, :k].tobytes() == row.tobytes()
        assert rates[m, k:].tobytes() == np.zeros(s.max_users - k).tobytes()
    return rates


def test_wsmr_matches_per_cell_formula_bit_for_bit():
    rng = np.random.default_rng(13)
    for seed in range(10):
        s = poison_padding(make_scenario(cells=3, subcarriers=6, users=(1, 2, 3),
                                         seed=seed, weights=(0.5, 1.0, 2.0)))
        power = rng.uniform(0.0, s.p_max / 6, size=(3, 6))
        for assignment in (solve_all_cells(s, power, mode="greedy"),
                           np.zeros((3, 3, 6), dtype=np.int8)):
            assert_same_rates(s, power, assignment)


def test_held_link_kernel_matches_the_full_link_set_bit_for_bit():
    # The view gathers each subcarrier's user once; the kernel on it equals
    # the full kernel gathered at that user, and never reads the NaN filler.
    rng = np.random.default_rng(5)
    cells, subcarriers = np.ogrid[:3, :6]
    for seed in range(4):
        s = poison_padding(make_scenario(cells=3, subcarriers=6, users=(1, 2, 3),
                                         seed=seed))
        power = rng.uniform(0.0, s.p_max / 6, size=(3, 6))
        assignment = solve_all_cells(s, power, mode="greedy")
        links = assigned_links(s, assignment, require_complete=True)
        assert assigned_links(s, links) is links
        user = assignment.argmax(axis=1)
        for got, full in zip(link_terms(links, power), link_terms(s, power)):
            assert got.shape == (3, 6)
            assert got.tobytes() == full[cells, user, subcarriers].tobytes()


def test_wsmr_with_tied_users_matches_per_cell_formula():
    # Equal gains and powers give every subcarrier the same rate, so users
    # with equally many subcarriers tie; cell 1's padded row is NaN.
    s = poison_padding(hand_scenario(np.full((2, 2, 3, 8), 1e-4), users_per_cell=(3, 2)))
    power = np.full((2, 8), s.p_max / 8)
    assignment = np.zeros((2, 3, 8), dtype=np.int8)
    for n, u in enumerate([0, 0, 0, 0, 1, 1, 2, 2]):
        assignment[0, u, n] = 1
    assignment[1, np.arange(8) % 2, np.arange(8)] = 1
    rates = assert_same_rates(s, power, assignment)
    assert rates[0, 1] == rates[0, 2]
    assert rates[1, 0] == rates[1, 1]
    assert wsmr(s, power, assignment).min_rates == (rates[0, 1], rates[1, 0])


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
        rate_gradient(s, power, 1, 0, 0)
    with pytest.raises(IndexError):
        rate_gradient(s, power, 0, 2, 0)
    with pytest.raises(IndexError):
        rate_gradient(s, power, 0, 0, 3)


def link_terms_as_fresh_arrays(links, power):
    """`link_terms` as the expression of fresh arrays it replaced, noise
    added first: (noise + (total - signal)) * snr_gap."""
    gains = links.gains
    if isinstance(links, AssignedLinks):
        own_gains = links.own_gains
    else:
        cells = np.arange(len(gains))
        own_gains = gains[cells, cells]
    own_power = power.reshape((len(power),) + (1,) * (gains.ndim - 3) + power.shape[1:])
    signal = own_gains * own_power
    total = (gains * own_power[:, None]).sum(axis=0)
    return signal, (links.noise + (total - signal)) * links.snr_gap


@pytest.mark.parametrize("users", [2, 3, (1, 2, 3, 2)])
def test_in_place_link_kernel_matches_the_fresh_array_expression(users):
    # The kernel forms its denominator in the buffer of the interference
    # total; every link of a scenario and of its held-link view, the rates
    # and the per-user sums keep the bits of the fresh-array expression.
    rng = np.random.default_rng(59)
    for seed in range(4):
        s = make_scenario(cells=4, subcarriers=7, users=users, seed=seed,
                          snr_gap=float(rng.uniform(1.0, 9.0)))
        power = rng.uniform(0.0, s.p_max / 7, size=(4, 7))
        power[rng.uniform(size=power.shape) < 0.2] = 0.0
        assignment = solve_all_cells(s, power, mode="greedy")
        links = assigned_links(s, assignment, require_complete=True)
        for view in (s, links):
            want = link_terms_as_fresh_arrays(view, power)
            got = link_terms(view, power)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
            rates = np.log1p(want[0] / want[1])
            assert link_rates(view, power).tobytes() == rates.tobytes()
        signal, denom, sums = links.evaluate(power)
        want_signal, want_denom = link_terms_as_fresh_arrays(links, power)
        want_sums = links.per_user(np.log1p(want_signal / want_denom)).sum(axis=2)
        assert signal.tobytes() == want_signal.tobytes()
        assert denom.tobytes() == want_denom.tobytes()
        assert sums.tobytes() == want_sums.tobytes()
