import dataclasses
import math
import operator
import sys
from itertools import accumulate

import numpy as np
import pytest

from netalloc import (RateTableError, RunConfig, cell_user_rates,
                      exhaustive_min_rate, initial_point, link_rates, ocd_solve,
                      rate_table, run, solve_all_cells, solve_exact, solve_greedy,
                      subcarrier_alloc, validate_assignment, wsmr)
from netalloc.subcarrier_alloc import (FLOOR_MARGIN, AssignmentResult, _checked,
                                       _column_order, _greedy, _held_floor)

from conftest import make_scenario

MAX_MAPS = 4096     # exhaustive_min_rate's default limit on K^N


def random_tables(seed, count):
    """Seeded exponential tables, K in 1..4, N <= 12, small enough to enumerate."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 5))
        n_max = 12 if k == 1 else min(12, int(np.log(MAX_MAPS) / np.log(k) + 1e-9))
        n = int(rng.integers(1, n_max + 1))
        yield rng, rng.exponential(size=(k, n))


def perturbed(rng, assignment, k):
    """`assignment` with one or two subcarriers moved to another user."""
    moved = np.array(assignment)
    if k > 1:
        picks = rng.choice(moved.size, size=min(moved.size, int(rng.integers(1, 3))),
                           replace=False)
        moved[picks] = (moved[picks] + rng.integers(1, k, picks.size)) % k
    return moved


def bincount_value(table, assignment):
    k, n = table.shape
    return np.bincount(assignment, weights=table[assignment, np.arange(n)],
                       minlength=k).min()


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


def reference_greedy(table):
    """Greedy straight from its definition, on the numpy table."""
    totals = [0.0] * table.shape[0]
    assign = np.zeros(table.shape[1], dtype=np.int64)
    for n in np.argsort(-table.max(axis=0), kind="stable"):
        u = totals.index(min(totals))
        assign[n] = u
        totals[u] += table[u, n]
    return assign, min(totals)


def test_greedy_matches_its_definition_bit_for_bit():
    rng = np.random.default_rng(67)
    tables = [rng.exponential(size=(int(rng.integers(1, 6)), int(rng.integers(1, 70))))
              for _ in range(100)]
    # Small integers: ties in the column order and in the running totals,
    # at three users and at two (the two-user kernel), where all-zero
    # columns leave the totals tied after an add.
    tables += [rng.integers(0, 3, size=(3, 7)).astype(float) for _ in range(50)]
    for _ in range(80):
        table = rng.integers(0, 3, size=(2, int(rng.integers(1, 12)))).astype(float)
        table[:, rng.random(table.shape[1]) < 0.3] = 0.0
        tables.append(table)
    tables += [np.zeros((2, 5)), np.ones((2, 6))]
    for table in tables:
        assign, low = reference_greedy(table)
        result = solve_greedy(table)
        assert result.assignment.tobytes() == assign.tobytes()
        assert np.float64(result.min_rate).tobytes() == np.float64(low).tobytes()
    assert solve_greedy(np.ones((3, 4))).assignment.tolist() == [0, 1, 2, 0]


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


def test_exact_matches_enumeration_on_subnormal_tables():
    # Multiples of the least subnormal: every sum is exact, but each
    # y-weighted rate rounds to a whole unit, which the relative slack
    # (underflowed to 0) does not cover; 9 units here without the floor.
    unit = np.nextafter(0.0, 1.0)
    table = np.array([[0, 5, 2, 2, 3], [7, 7, 2, 4, 0]]) * unit
    assert solve_exact(table).min_rate == exhaustive_min_rate(table) == 10 * unit
    rng = np.random.default_rng(109)
    for _ in range(3000):
        table = rng.integers(0, 9, (int(rng.integers(2, 5)), int(rng.integers(2, 7)))) * unit
        assert solve_exact(table).min_rate == exhaustive_min_rate(table)


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
        table = rate_table(s, power)[m]
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
        table = rate_table(s, power)[m]
        expected = solve_exact(table)
        rates = cell_user_rates(s, power, assignment)[m]
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


def greedy_per_cell(s, power):
    """The full 0/1 tensor from one `solve_greedy` per cell's rate table."""
    out = np.zeros((s.num_cells, s.max_users, s.num_subcarriers), dtype=np.int8)
    for m, table in enumerate(rate_table(s, power)):
        out[m, solve_greedy(table).assignment, np.arange(s.num_subcarriers)] = 1
    return out


def test_greedy_mode_assigns_every_cell_as_solve_greedy_does():
    # One pass over the padded rates must give each cell what its own
    # `solve_greedy` gives: unequal cells (padded user rows are never read),
    # two users in every cell (no padding; the two-user kernel everywhere),
    # duplicated subcarriers (ties in the column order) and subcarriers no
    # station powers (all-zero columns, ties in the running totals).
    cases = []
    for seed in range(4):
        for users in ((1, 2, 3), 2):
            s = make_scenario(cells=3, subcarriers=9, users=users, seed=seed)
            cases.append((s, np.random.default_rng(seed).uniform(size=(3, 9)) * s.p_max / 9))
    for users in ((3, 1, 2), 2):
        s = make_scenario(cells=3, subcarriers=8, users=users, seed=5)
        cols = [0, 0, 1, 2, 1, 5, 6, 6]
        tied = dataclasses.replace(s, gains=s.gains[..., cols], noise=s.noise[..., cols])
        power = np.full((3, 8), s.p_max / 8)
        cases.append((tied, power))
        dark = power.copy()
        dark[:, [2, 5]] = 0.0
        dark[1, :4] = 0.0
        cases.append((tied, dark))
    for s, power in cases:
        got = solve_all_cells(s, power, mode="greedy")
        assert got.dtype == np.int8
        assert got.tobytes() == greedy_per_cell(s, power).tobytes()


def test_greedy_mode_rejects_non_finite_rates():
    s = make_scenario(cells=3, subcarriers=4, users=(1, 2, 3), seed=0)
    power = np.full((3, 4), s.p_max / 4)
    power[2, 1] = np.nan
    with pytest.raises(RateTableError, match="finite"):
        solve_all_cells(s, power, mode="greedy")


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


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # Greedy splits 3,3 | 2,2,2 as 3+2+2 vs 3+2 (min 5); the optimum 3+3 vs
    # 2+2+2 (min 6) is a leaf the search must reach, through 150 trailing
    # zero columns, below a recursion limit far smaller than N.
    table = np.zeros((2, 155))
    table[:, :5] = [3.0, 3.0, 2.0, 2.0, 2.0]
    assert solve_greedy(table).min_rate == 5.0
    limit = sys.getrecursionlimit()
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    sys.setrecursionlimit(depth + 50)
    try:
        result = solve_exact(table)
    finally:
        sys.setrecursionlimit(limit)
    assert result.min_rate == 6.0
    assert result.nodes > table.shape[1]
    assert sorted(result.assignment[:5].tolist()) == [0, 0, 1, 1, 1]


def test_node_counts():
    rng = np.random.default_rng(3)
    for _ in range(30):
        table = rng.exponential(size=(int(rng.integers(1, 4)),
                                      int(rng.integers(1, 10))))
        assert solve_greedy(table).nodes == 0
        cold = solve_exact(table)
        assert cold.nodes >= 1       # the root is always visited
        for current in (cold.assignment, solve_greedy(table).assignment,
                        rng.integers(0, table.shape[0], table.shape[1])):
            assert solve_exact(table, current).nodes <= cold.nodes
    # Held optimum: the search proves it in fewer nodes than from greedy.
    table = np.random.default_rng(5).exponential(size=(2, 16))
    cold = solve_exact(table)
    assert solve_exact(table, cold.assignment).nodes < cold.nodes


def test_warm_start_changes_nothing_in_the_result():
    moves = np.random.default_rng(43)
    for rng, table in random_tables(41, 120):
        k, n = table.shape
        cold = solve_exact(table)
        best = exhaustive_min_rate(table)
        assert cold.min_rate == pytest.approx(best, abs=1e-12)
        for current in (cold.assignment, solve_greedy(table).assignment,
                        rng.integers(0, k, n), rng.integers(0, k, n),
                        perturbed(moves, cold.assignment, k),
                        perturbed(moves, cold.assignment, k)):
            warm = solve_exact(table, current)
            assert warm.assignment.tobytes() == cold.assignment.tobytes()
            assert warm.min_rate == cold.min_rate


def test_warm_start_with_tied_optima_keeps_the_cold_choice():
    # Every split of two equal columns is optimal; the held one must not win.
    table = np.ones((2, 4))
    cold = solve_exact(table)
    for current in ([1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 0], [1, 1, 1, 0]):
        warm = solve_exact(table, np.array(current))
        assert warm.assignment.tobytes() == cold.assignment.tobytes()
    # Small integer tables: tied optima are common and every sum is exact,
    # so the value matches enumeration bit for bit.
    rng = np.random.default_rng(59)
    for _ in range(40):
        table = rng.integers(0, 4, size=(int(rng.integers(1, 5)), 6)).astype(float)
        k = table.shape[0]
        cold = solve_exact(table)
        assert cold.min_rate == exhaustive_min_rate(table)
        for _ in range(3):
            warm = solve_exact(table, perturbed(rng, cold.assignment, k))
            assert warm.assignment.tobytes() == cold.assignment.tobytes()
            assert warm.min_rate == cold.min_rate


def test_warm_start_survives_rounding_in_the_held_value():
    # The held optimum sums to 1.4000000000000001 in index order, one ulp
    # above the root's bound of 1.4; an unshrunk floor would cut the root
    # and return greedy's 0.7.
    table = np.array([[0.1, 0.3, 0.4, 1.1], [0.3, 0.4, 1.1, 0.4]])
    cold = solve_exact(table)
    assert cold.min_rate == pytest.approx(1.4, rel=1e-15)
    for current in (cold.assignment, 1 - cold.assignment, [0, 0, 1, 1]):
        warm = solve_exact(table, np.array(current))
        assert warm.assignment.tobytes() == cold.assignment.tobytes()
        assert warm.min_rate == cold.min_rate


def test_rejects_bad_current():
    table = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    for bad, words in ((np.array([0, 1]), "shape"),
                       (np.array([[0, 1, 0]]), "shape"),
                       (np.array([0, 2, 1]), "outside"),
                       (np.array([0, -1, 1]), "outside"),
                       (np.array([0.0, 1.0, 0.0]), "integer")):
        with pytest.raises(RateTableError, match=words):
            solve_exact(table, bad)
    assert solve_exact(table, [0, 1, 1]).min_rate == 3.0


def test_solve_all_cells_warm_start_matches_cold():
    s = make_scenario(cells=3, subcarriers=8, users=(1, 2, 3), seed=43)
    power = np.full((3, 8), s.p_max / 8)
    held = np.array([np.arange(8) % k for k in s.users_per_cell])
    warm = solve_all_cells(s, power, current=held)
    assert warm.tobytes() == solve_all_cells(s, power).tobytes()


def test_solve_all_cells_rejects_a_misshapen_current():
    s = make_scenario(cells=3, subcarriers=8, users=2, seed=43)
    power = np.full((3, 8), s.p_max / 8)
    for rows in (2, 4):
        with pytest.raises(RateTableError, match="shape"):
            solve_all_cells(s, power, current=np.zeros((rows, 8), dtype=np.int64))
    with pytest.raises(RateTableError, match="shape"):
        solve_all_cells(s, power, current=np.zeros((3, 7), dtype=np.int64))
    # Greedy mode ignores a well-shaped `current` but refuses a misshapen one.
    for shape in ((2, 8), (3, 7)):
        with pytest.raises(RateTableError, match="shape"):
            solve_all_cells(s, power, mode="greedy", current=np.zeros(shape, dtype=np.int64))


def unpruned_polish(cols, picks):
    """`_polish` without its skip of dead swaps: every swap is scanned."""
    totals = [0.0] * len(cols[0])
    for col, u in zip(cols, picks):
        totals[u] += col[u]
    while True:
        low = min(totals)
        w = totals.index(low)
        theirs = [(d, v, cols[d][w], totals[v] - cols[d][v])
                  for d, v in enumerate(picks) if v != w]
        best, step = low, None
        for d, v, gain, left in theirs:
            new_w = low + gain
            worse = left if left < new_w else new_w
            if worse > best:
                best, step = worse, (d, -1, left, new_w)
        if step is None:
            for e, owner in enumerate(picks):
                if owner != w:
                    continue
                back = cols[e]
                base = low - back[w]
                for d, v, gain, left in theirs:
                    new_v, new_w = left + back[v], base + gain
                    worse = new_v if new_v < new_w else new_w
                    if worse > best:
                        best, step = worse, (d, e, new_v, new_w)
        if step is None:
            return picks
        d, e, new_v, new_w = step
        v = picks[d]
        totals[v], totals[w] = new_v, new_w
        picks[d] = w
        if e >= 0:
            picks[e] = v


def polish(table, start):
    """`_polish` from `start` on `table`, with the totals it is handed."""
    cols = table.T.tolist()
    return subcarrier_alloc._polish(cols, list(start), subcarrier_alloc._totals(cols, start))


def test_local_search_polishes_without_losing_value():
    rng = np.random.default_rng(47)
    tables = [rng.exponential(size=(int(rng.integers(1, 5)), int(rng.integers(1, 33))))
              for _ in range(200)]
    # Small integers: tied totals, tied steps and swaps that only tie.
    tables += [rng.integers(0, 4, size=(int(rng.integers(1, 5)), int(rng.integers(1, 13))))
               .astype(float) for _ in range(200)]
    for table in tables:
        k, n = table.shape
        start = rng.integers(0, k, n)
        polished = np.array(polish(table, start.tolist()))
        assert polished.shape == (n,)
        assert ((polished >= 0) & (polished < k)).all()
        assert bincount_value(table, polished) >= bincount_value(table, start)
        again = polish(table, start.tolist())
        assert again == polished.tolist()
        # Skipping swaps that cannot win changes no step.
        assert unpruned_polish(table.T.tolist(), start.tolist()) == again


def test_local_search_moves_then_swaps():
    # User 0 holds nothing: two moves hand it subcarriers 0 and 2, the best
    # move each time, and the optimum (min 3) is reached.
    table = np.array([[2.0, 0.5, 1.5], [1.0, 3.0, 3.0]])
    assert polish(table, [1, 1, 1]) == [0, 1, 0]
    assert polish(table, [0, 1, 0]) == [0, 1, 0]
    # Both users on their worse subcarrier: no move helps, a swap does.
    table = np.array([[1.0, 5.0], [5.0, 1.0]])
    assert polish(table, [0, 1]) == [1, 0]
    # Users 0 and 2 tie at zero; the lower index is served first.
    table = np.array([[3.0, 3.0], [0.0, 1.0], [2.0, 0.0]])
    assert polish(table, [1, 1]) == [0, 1]


def test_local_search_floor_shrinks_the_search(monkeypatch):
    rng = np.random.default_rng(61)
    starts = []
    for _ in range(12):
        table = rng.exponential(size=(2, 32))
        cold = solve_exact(table)
        starts.append((table, perturbed(rng, cold.assignment, 2), cold))
    polished = [solve_exact(table, start) for table, start, _ in starts]
    monkeypatch.setattr(subcarrier_alloc, "_polish", lambda cols, picks, totals: picks)
    plain = [solve_exact(table, start) for table, start, _ in starts]
    for (_, _, cold), fast, slow in zip(starts, polished, plain):
        assert fast.assignment.tobytes() == slow.assignment.tobytes() \
            == cold.assignment.tobytes()
    assert sum(r.nodes for r in polished) < sum(r.nodes for r in plain)


def dual_ycols(cols):
    """`solve_exact`'s ycols: each rate times its user's weight at the dual point."""
    return np.array(cols) * subcarrier_alloc._dual_point(cols)


def floor_of(table, current):
    order = _column_order(table)
    cols = table[:, order].T.tolist()
    return _held_floor(table, current, order, cols, dual_ycols(cols))


def test_held_floor_lies_between_the_held_value_and_the_optimum():
    rng = np.random.default_rng(101)
    for _ in range(150):
        k = int(rng.integers(1, 5))
        table = rng.exponential(size=(k, int(rng.integers(1, 7))))
        best = exhaustive_min_rate(table)
        for current in (solve_exact(table).assignment, solve_greedy(table).assignment,
                        rng.integers(0, k, table.shape[1])):
            floor = floor_of(table, current)
            assert floor <= best
            # The floor sums in branching order, bincount in index order.
            assert floor >= bincount_value(table, current) * (1.0 - 2.0 * FLOOR_MARGIN)


def test_floor_polishes_the_lagrangian_rounding_at_the_dual_point(monkeypatch):
    # At y = (1/2, 1/4, 1/4) subcarrier 1 weighs 1.0 for users 0 and 1 alike
    # and goes to user 0; the rounding is [1, 0, 0, 2, 2], with value 3.
    table = np.array([[1.0, 2.0, 4.0, 1.0, 0.0],
                      [3.0, 4.0, 1.0, 2.0, 0.0],
                      [1.0, 1.0, 1.0, 4.0, 3.0]])
    starts = []

    def recorded(cols, picks, totals):
        starts.append(list(picks))
        return picks

    def branching(table, assignments):
        """Each assignment in the branching order `_polish` sees."""
        return [np.asarray(a)[_column_order(table)].tolist() for a in assignments]

    monkeypatch.setattr(subcarrier_alloc, "_dual_point", lambda cols: [0.5, 0.25, 0.25])
    monkeypatch.setattr(subcarrier_alloc, "_polish", recorded)
    # A held assignment worth less: the rounding is polished and sets the floor.
    assert floor_of(table, np.zeros(5, dtype=np.int64)) == 3.0 * (1.0 - FLOOR_MARGIN)
    # One worth as much (3): the held one is polished.  One worth more (4) too.
    for held in ([1, 0, 0, 0, 2], [1, 1, 0, 2, 2]):
        floor_of(table, np.array(held))
    assert starts == branching(table, ([1, 0, 0, 2, 2], [1, 0, 0, 0, 2], [1, 1, 0, 2, 2]))
    # On random tables and simplex points, the rounding is numpy's argmax
    # of y_u * r_un, which takes the lowest index on ties.
    rng = np.random.default_rng(103)
    for _ in range(40):
        k, n = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        table = rng.integers(0, 3, size=(k, n)).astype(float)
        y = rng.dirichlet(np.ones(k)) if rng.random() < 0.5 else np.full(k, 1.0 / k)
        monkeypatch.setattr(subcarrier_alloc, "_dual_point", lambda cols: y.tolist())
        held = np.zeros(n, dtype=np.int64)
        rounded = (y[:, None] * table).argmax(axis=0)
        # Small integers: every sum is exact, so the values compare exactly.
        better = bincount_value(table, rounded) > bincount_value(table, held)
        starts[:] = []
        floor_of(table, held)
        assert starts == branching(table, [rounded if better else held])


def held_polish_floor(table, current, order, cols, ycols):
    """The floor without the Lagrangian rounding: the better of the held
    assignment and its polish, each valued by `bincount` on `table`."""
    if current is None:
        return -np.inf
    raw = np.asarray(current)
    held = raw[order].tolist()
    picks = subcarrier_alloc._polish(cols, held[:], subcarrier_alloc._totals(cols, held))
    value = bincount_value(table, raw)
    if picks != held:
        polished = np.empty(raw.size, dtype=np.int64)
        polished[order] = picks
        value = max(value, bincount_value(table, polished))
    return value * (1.0 - FLOOR_MARGIN)


def run_inputs(scenarios):
    """Every (table, held assignment) exact OCD runs on `scenarios` hand to
    `solve_exact`."""
    real, inputs = subcarrier_alloc.solve_exact, []

    def captured(table, current=None):
        inputs.append((np.array(table), None if current is None else np.array(current)))
        return real(table, current)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(subcarrier_alloc, "solve_exact", captured)
        for s in scenarios:
            run(s, RunConfig())
    return inputs


@pytest.fixture(scope="module")
def ocd_run_inputs():
    """The `solve_exact` inputs of a seeded exact OCD run at 3x32x2, the CLI
    default."""
    return run_inputs([make_scenario(cells=3, subcarriers=32, users=2, seed=0)])


def test_rounding_floor_shrinks_the_warm_search_of_an_ocd_run(monkeypatch, ocd_run_inputs):
    # Every warm solve of a seeded exact OCD run at 3x32x2, the CLI default.
    inputs = ocd_run_inputs
    assert len(inputs) > 10 and all(current is not None for _, current in inputs)
    ours = [solve_exact(table, current) for table, current in inputs]
    monkeypatch.setattr(subcarrier_alloc, "_held_floor", held_polish_floor)
    theirs = [solve_exact(table, current) for table, current in inputs]
    for got, want in zip(ours, theirs):
        assert_same_result(got, want)
    assert sum(r.nodes for r in ours) < sum(r.nodes for r in theirs)


def reference_solve_exact(table, current=None):
    """`solve_exact` before its Lagrangian bound: the per-user bound and the
    average bound (the Lagrangian bound at y = 1/K) only, with the same
    column order, greedy seed and held-assignment floor."""
    table = _checked(table)
    k, n_sub = table.shape
    order = _column_order(table)
    cols = table[:, order].T.tolist()
    floor = _held_floor(table, current, order, cols, dual_ycols(cols))
    rest = [[0.0] * k for _ in range(n_sub + 1)]
    rest_best = [0.0] * (n_sub + 1)
    for d in range(n_sub - 1, -1, -1):
        rest[d] = [r + c for r, c in zip(rest[d + 1], cols[d])]
        rest_best[d] = rest_best[d + 1] + max(cols[d])
    greedy = _greedy(order, cols)
    best_min = greedy.min_rate
    best_picks = None
    totals = [[0.0] * k for _ in range(n_sub + 1)]
    picks = [-1] * n_sub
    nodes = 0
    depth = 0
    entering = True
    while depth >= 0:
        if entering:
            nodes += 1
            here = totals[depth]
            if depth == n_sub:
                low = min(here)
                if low > best_min:
                    best_min = low
                    best_picks = picks[:]
                depth -= 1
                entering = False
                continue
            bound = min(map(operator.add, here, rest[depth]))
            avg = (sum(here) + rest_best[depth]) / k
            if avg < bound:
                bound = avg
            if bound <= best_min or bound < floor:
                depth -= 1
                entering = False
                continue
            picks[depth] = -1
        u = picks[depth] + 1
        if u == k:
            depth -= 1
            continue
        picks[depth] = u
        child = totals[depth + 1]
        child[:] = totals[depth]
        child[u] += cols[depth][u]
        depth += 1
        entering = True
    if best_picks is None:
        best_assign = greedy.assignment
    else:
        best_assign = np.empty(n_sub, dtype=np.int64)
        best_assign[order] = best_picks
    return AssignmentResult(assignment=best_assign, min_rate=best_min, nodes=nodes)


def entering_solve_exact(table, current=None):
    """`solve_exact` before its children were priced by their parent: every
    node is entered, and backed out of, on a pass of its own; the two
    bounds are tested against the incumbent and the floor one at a time;
    and the set-up is Python running sums.  The node-for-node reference."""
    table = _checked(table)
    k, n_sub = table.shape
    order = _column_order(table)
    cols = table[:, order].T.tolist()
    y = subcarrier_alloc._dual_point(cols)
    ycols = [list(map(operator.mul, y, col)) for col in cols]
    floor = _held_floor(table, current, order, cols, np.array(ycols))
    rest = [[0.0] * k]
    for col in reversed(cols):
        rest.append(list(map(operator.add, rest[-1], col)))
    rest.reverse()
    slack = max(FLOOR_MARGIN * sum(map(max, cols)), n_sub * math.ulp(0.0))
    rest_y = list(accumulate(map(max, reversed(ycols)), initial=slack))[::-1]
    greedy = _greedy(order, cols)
    best_min = greedy.min_rate
    best_picks = None
    totals = [[0.0] * k for _ in range(n_sub + 1)]
    ytotals = [0.0] * (n_sub + 1)
    picks = [-1] * n_sub
    nodes = 0
    depth = 0
    entering = True
    while depth >= 0:
        if entering:
            nodes += 1
            if depth == n_sub:
                low = min(totals[depth])
                if low > best_min:
                    best_min = low
                    best_picks = picks[:]
                depth -= 1
                entering = False
                continue
            bound = ytotals[depth] + rest_y[depth]
            if bound > best_min and bound >= floor:
                bound = min(map(operator.add, totals[depth], rest[depth]))
            if bound <= best_min or bound < floor:
                depth -= 1
                entering = False
                continue
            picks[depth] = -1
        u = picks[depth] + 1
        if u == k:
            depth -= 1
            continue
        picks[depth] = u
        child = totals[depth + 1]
        child[:] = totals[depth]
        child[u] += cols[depth][u]
        ytotals[depth + 1] = ytotals[depth] + ycols[depth][u]
        depth += 1
        entering = True
    if best_picks is None:
        best_assign = greedy.assignment
    else:
        best_assign = np.empty(n_sub, dtype=np.int64)
        best_assign[order] = best_picks
    return AssignmentResult(assignment=best_assign, min_rate=best_min, nodes=nodes)


def reference_tables():
    """Seeded exponential tables with K = 1..4, then small-integer tables
    (tied optima, exact sums) with some all-zero columns."""
    tables = [table for _, table in random_tables(71, 80)]
    rng = np.random.default_rng(73)
    for _ in range(60):
        k = int(rng.integers(1, 5))
        table = rng.integers(0, 4, size=(k, int(rng.integers(1, 7)))).astype(float)
        table[:, rng.random(table.shape[1]) < 0.3] = 0.0
        tables.append(table)
    return tables


def assert_same_result(got, want):
    assert got.assignment.tobytes() == want.assignment.tobytes()
    assert np.float64(got.min_rate).tobytes() == np.float64(want.min_rate).tobytes()


@pytest.fixture(scope="module")
def post_ocd_tables():
    """Every cell's table after one OCD phase from the starting point, at
    3x10x3 and 3x10x4, two seeds each."""
    tables = []
    for users in (3, 4):
        for seed in (0, 1):
            s = make_scenario(cells=3, subcarriers=10, users=users, seed=seed)
            power, assignment = initial_point(s)
            tables += rate_table(s, ocd_solve(s, assignment, power).power)
    return tables


def test_lagrangian_bound_matches_the_reference_cold_and_warm():
    rng = np.random.default_rng(79)
    for table in reference_tables():
        k, n = table.shape
        cold = reference_solve_exact(table)
        for current in (None, cold.assignment, solve_greedy(table).assignment,
                        rng.integers(0, k, n)):
            want = reference_solve_exact(table, current)
            assert_same_result(want, cold)
            assert_same_result(solve_exact(table, current), want)


def test_lagrangian_bound_visits_fewer_nodes_on_post_ocd_tables(post_ocd_tables):
    ours = [solve_exact(table) for table in post_ocd_tables]
    theirs = [reference_solve_exact(table) for table in post_ocd_tables]
    for got, want in zip(ours, theirs):
        assert_same_result(got, want)
    assert sum(r.nodes for r in ours) < sum(r.nodes for r in theirs)


def test_search_matches_the_entering_loop_node_for_node(post_ocd_tables, ocd_run_inputs):
    # Cold, and warm from the held (or optimal), the greedy and a random
    # assignment: the same assignment and min_rate bytes, and the same nodes.
    rng = np.random.default_rng(107)
    # Small multiples of the least subnormal: every sum is exact and the
    # relative slack underflows, so only its absolute floor is left.
    tiny = [rng.integers(0, 9, size=(int(rng.integers(2, 5)), int(rng.integers(2, 7))))
            * np.nextafter(0.0, 1.0) for _ in range(100)]
    tables = reference_tables() + tiny + list(post_ocd_tables)
    held = [None] * len(tables)
    tables += [table for table, _ in ocd_run_inputs]
    held += [current for _, current in ocd_run_inputs]
    for table, current in zip(tables, held):
        k, n = table.shape
        cold = entering_solve_exact(table)
        assert_same_node_for_node(solve_exact(table), cold)
        for start in (cold.assignment if current is None else current,
                      solve_greedy(table).assignment, rng.integers(0, k, n)):
            assert_same_node_for_node(solve_exact(table, start),
                                      entering_solve_exact(table, start))


def assert_same_node_for_node(got, want):
    assert_same_result(got, want)
    assert got.nodes == want.nodes


@pytest.fixture(scope="module")
def two_user_run_inputs():
    """The `solve_exact` inputs of exact OCD runs at 3x10x2, seeds 0 and 1."""
    return run_inputs([make_scenario(cells=3, subcarriers=10, users=2, seed=seed)
                       for seed in (0, 1)])


def test_two_user_search_matches_the_generic_search_node_for_node(monkeypatch,
                                                                  two_user_run_inputs):
    # Cold, and warm from the held (or optimal), the greedy and a random
    # assignment: the same assignment and min_rate bytes, and the same nodes.
    rng = np.random.default_rng(113)
    tables = [rng.exponential(size=(2, int(rng.integers(1, 13)))) for _ in range(80)]
    # Small integers: tied optima, exact sums, some all-zero columns.
    for _ in range(60):
        table = rng.integers(0, 4, size=(2, int(rng.integers(1, 9)))).astype(float)
        table[:, rng.random(table.shape[1]) < 0.3] = 0.0
        tables.append(table)
    tables += [rng.exponential(size=(2, 1)) for _ in range(5)]
    tables += [np.zeros((2, 1)), np.array([[0.0], [1.0]])]
    tables += [rng.integers(0, 9, size=(2, int(rng.integers(1, 7)))) * np.nextafter(0.0, 1.0)
               for _ in range(60)]
    held = [None] * len(tables)
    tables += [table for table, _ in two_user_run_inputs]
    held += [current for _, current in two_user_run_inputs]
    cases = []
    for table, current in zip(tables, held):
        n = table.shape[1]
        cold = solve_exact(table)
        starts = (None, cold.assignment if current is None else current,
                  solve_greedy(table).assignment, rng.integers(0, 2, n))
        cases += [(table, start, solve_exact(table, start)) for start in starts]
    monkeypatch.setattr(subcarrier_alloc, "_search_two", subcarrier_alloc._search)
    for table, start, got in cases:
        assert_same_node_for_node(got, solve_exact(table, start))
    assert sum(got.nodes for _, _, got in cases) > 2 * len(cases)


def test_solve_all_cells_runs_both_searches_as_the_generic_one_does(monkeypatch):
    # One, two and three users: one call runs the two-user search on cell 1
    # and the generic search on cell 2.
    s = make_scenario(cells=3, subcarriers=8, users=(1, 2, 3), seed=43)
    power = np.full((3, 8), s.p_max / 8)
    held = np.array([np.arange(8) % k for k in s.users_per_cell])
    ran = []

    def counted(search):
        def wrapped(cols, *rest):
            ran.append((search.__name__, len(cols[0])))
            return search(cols, *rest)
        return wrapped

    with monkeypatch.context() as patch:
        for name in ("_search", "_search_two"):
            patch.setattr(subcarrier_alloc, name, counted(getattr(subcarrier_alloc, name)))
        ours = [solve_all_cells(s, power, current=current) for current in (None, held)]
    assert ("_search_two", 2) in ran and ("_search", 3) in ran
    assert ("_search", 2) not in ran
    monkeypatch.setattr(subcarrier_alloc, "_search_two", subcarrier_alloc._search)
    for got, current in zip(ours, (None, held)):
        assert got.tobytes() == solve_all_cells(s, power, current=current).tobytes()


@pytest.mark.parametrize("point", ["first vertex", "last vertex", "uniform"])
def test_result_does_not_depend_on_the_dual_point(monkeypatch, point, post_ocd_tables):
    def fixed(cols):
        k = len(cols[0])
        if point == "uniform":
            return [1.0 / k] * k
        return np.eye(k)[0 if point == "first vertex" else -1].tolist()

    tables = reference_tables() + list(post_ocd_tables)
    results = [solve_exact(table) for table in tables]
    monkeypatch.setattr(subcarrier_alloc, "_dual_point", fixed)
    for table, result in zip(tables, results):
        assert_same_result(solve_exact(table), result)
        held = perturbed(np.random.default_rng(83), result.assignment, table.shape[0])
        assert_same_result(solve_exact(table, held), result)


def test_lagrangian_bound_survives_rounding_at_an_integral_root():
    # The LP relaxation is integral: at y = (11/18, 7/18) the root's
    # Lagrangian bound equals the optimum, 3.1.  Two leaves reach it; the
    # first in branching order sums to 3.1, a later one to 3.1000000000000005,
    # and that one is the result.  Without the margin an ancestor of the
    # later leaf bounds at 3.1 and is cut, and the first leaf is returned.
    table = np.array([[0.7, 0.7, 1.1, 1.3, 0.7, 0.2], [1.1, 1.3, 0.4, 0.6, 1.1, 0.7]])
    cols = table[:, subcarrier_alloc._column_order(table)].T.tolist()
    y = subcarrier_alloc._dual_point(cols)
    assert y == pytest.approx([11 / 18, 7 / 18], rel=1e-15)
    root = sum(max(w * c for w, c in zip(y, col)) for col in cols)
    assert root == pytest.approx(3.1, rel=1e-15)
    cold = solve_exact(table)
    assert_same_result(cold, reference_solve_exact(table))
    assert cold.min_rate > 3.1
    assert cold.assignment.tolist() == [1, 1, 0, 0, 0, 1]
    for current in (cold.assignment, 1 - cold.assignment, [0, 1, 0, 0, 1, 1]):
        assert_same_result(solve_exact(table, np.array(current)), cold)


def grid_min(table, steps):
    """Brute-force minimum of f(y) = sum_n max_u y_u * table[u, n] over the
    simplex points with coordinates in multiples of 1 / steps."""
    k = table.shape[0]
    heads = np.array(list(np.ndindex(*(steps + 1,) * (k - 1))), dtype=float)
    heads = heads[heads.sum(axis=1) <= steps]
    points = np.column_stack([heads, steps - heads.sum(axis=1)]) / steps
    return (points[:, :, None] * table).max(axis=1).sum(axis=1).min()


def dual_value(table):
    y = np.array(subcarrier_alloc._dual_point(table.T.tolist()))
    assert (y >= 0.0).all() and y.sum() == pytest.approx(1.0, abs=1e-12)
    return (y[:, None] * table).max(axis=0).sum()


def test_dual_point_is_exact_at_two_users():
    rng = np.random.default_rng(89)
    tables = [rng.exponential(size=(2, int(rng.integers(1, 20)))) for _ in range(60)]
    tables += [rng.integers(0, 3, size=(2, 6)).astype(float) for _ in range(20)]
    tables += [np.zeros((2, 3)), np.array([[1.0, 2.0], [0.0, 0.0]])]
    for table in tables:
        assert dual_value(table) <= grid_min(table, 2000) * (1.0 + 1e-12)


def test_dual_point_is_near_the_minimum_at_three_users():
    # A fixed number of subgradient steps: within 5% of the minimum over a
    # 1/60 grid (the worst of these tables measured 2.6% above it).
    rng = np.random.default_rng(97)
    for _ in range(30):
        table = rng.exponential(size=(3, int(rng.integers(2, 16))))
        value = dual_value(table)
        assert value <= grid_min(table, 60) * 1.05
