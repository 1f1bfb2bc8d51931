import numpy as np
import pytest

from netalloc import (RateTableError, cell_user_rates, exhaustive_min_rate,
                      link_rates, rate_table, solve_all_cells, solve_exact,
                      solve_greedy, validate_assignment, wsmr)

from conftest import make_scenario


def test_two_by_two_diagonal():
    table = np.array([[3.0, 1.0], [1.0, 3.0]])
    result = solve_exact(table)
    assert result.min_rate == pytest.approx(3.0, abs=1e-15)
    assert tuple(result.assignment) == (0, 1)


def test_two_by_two_forced_split():
    # Every split gives one user a single subcarrier; the best min is 1.
    table = np.array([[2.0, 2.0], [1.0, 1.0]])
    result = solve_exact(table)
    assert result.min_rate == pytest.approx(1.0, abs=1e-15)


def test_single_user_takes_everything():
    table = np.array([[0.4, 1.1, 0.2, 0.8]])
    result = solve_exact(table)
    assert (result.assignment == 0).all()
    assert result.min_rate == pytest.approx(table.sum(), rel=1e-15)


def test_zero_rate_column_still_assigned():
    table = np.array([[1.0, 0.0], [2.0, 0.0]])
    result = solve_exact(table)
    assert set(result.assignment.tolist()) <= {0, 1}
    assert result.assignment.shape == (2,)


def test_greedy_never_beats_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 8))
        table = rng.exponential(size=(k, n))
        g = solve_greedy(table)
        e = solve_exact(table)
        assert g.min_rate <= e.min_rate + 1e-12


def test_exact_matches_exhaustive_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(60):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(2, 7))
        table = rng.exponential(size=(k, n))
        best = exhaustive_min_rate(table)
        assert solve_exact(table).min_rate == pytest.approx(best, abs=1e-12)


def test_exact_min_rate_consistent_with_assignment():
    rng = np.random.default_rng(23)
    for _ in range(20):
        table = rng.exponential(size=(3, 6))
        result = solve_exact(table)
        totals = np.zeros(3)
        for n, u in enumerate(result.assignment):
            totals[u] += table[u, n]
        assert result.min_rate == pytest.approx(totals.min(), rel=1e-12)


def test_deterministic_resolution():
    table = np.array([[1.0, 1.0], [1.0, 1.0]])
    first = solve_exact(table)
    second = solve_exact(table)
    assert (first.assignment == second.assignment).all()
    assert first.min_rate == second.min_rate


def test_column_permutation_keeps_value():
    rng = np.random.default_rng(31)
    table = rng.exponential(size=(3, 6))
    perm = rng.permutation(6)
    base = solve_exact(table).min_rate
    shuffled = solve_exact(table[:, perm]).min_rate
    assert shuffled == pytest.approx(base, rel=1e-12)


def test_rate_table_matches_rate_model():
    s = make_scenario(cells=3, subcarriers=5, users=(1, 2, 3), seed=13)
    power = np.full((3, 5), s.p_max / 5)
    for m, k_m in enumerate(s.users_per_cell):
        table = rate_table(s, power, m)
        assert table.shape == (k_m, 5)
        assert np.array_equal(table, link_rates(s, power)[m, :k_m])


def test_solve_all_cells_shape_and_validity():
    s = make_scenario(cells=3, subcarriers=6, users=2, seed=19)
    power = np.full((3, 6), s.p_max / 6)
    assignment = solve_all_cells(s, power)
    assert assignment.shape == (3, 2, 6)
    assert assignment.dtype == np.int8
    validate_assignment(s, assignment, require_complete=True)
    for m in range(3):
        table = rate_table(s, power, m)
        expected = solve_exact(table)
        rates = cell_user_rates(s, power, assignment, m)
        assert rates.min() == pytest.approx(expected.min_rate, rel=1e-12)


def test_solve_all_cells_greedy_mode():
    s = make_scenario(cells=2, subcarriers=6, users=3, seed=29)
    power = np.full((2, 6), s.p_max / 6)
    greedy = solve_all_cells(s, power, mode="greedy")
    validate_assignment(s, greedy, require_complete=True)
    exact = solve_all_cells(s, power, mode="exact")
    assert wsmr(s, power, greedy).value <= wsmr(s, power, exact).value + 1e-12
    with pytest.raises(ValueError):
        solve_all_cells(s, power, mode="best")


def test_reassignment_never_hurts():
    # Replacing any complete assignment by the exact solve, cell by cell,
    # can only raise each cell's min rate.
    s = make_scenario(cells=3, subcarriers=6, users=2, seed=37)
    power = np.full((3, 6), s.p_max / 6)
    round_robin = np.zeros((3, 2, 6), dtype=np.int8)
    for n in range(6):
        round_robin[:, n % 2, n] = 1
    before = wsmr(s, power, round_robin)
    after = wsmr(s, power, solve_all_cells(s, power))
    assert after.value >= before.value - 1e-12
    for b, a in zip(before.min_rates, after.min_rates):
        assert a >= b - 1e-12


def test_rejects_bad_tables():
    with pytest.raises(RateTableError):
        solve_exact(np.zeros((0, 3)))
    with pytest.raises(RateTableError):
        solve_exact(np.zeros((2, 0)))
    with pytest.raises(RateTableError):
        solve_exact(np.array([1.0, 2.0]))
    with pytest.raises(RateTableError):
        solve_exact(np.array([[1.0, -0.1]]))
    with pytest.raises(RateTableError):
        solve_exact(np.array([[1.0, np.nan]]))
    with pytest.raises(RateTableError):
        solve_greedy(np.array([[np.inf, 1.0]]))


def test_more_users_than_subcarriers_allowed():
    # A cell can momentarily have more users than subcarriers; someone
    # simply ends up with nothing and the min rate is zero.
    table = np.array([[1.0], [2.0], [3.0]])
    result = solve_exact(table)
    assert result.min_rate == 0.0
    assert result.assignment.shape == (1,)
