"""Per-cell subcarrier assignment for a fixed power allocation.

With powers frozen, each cell assigns every one of its subcarriers to exactly
one own user so that the worst user total is as large as possible.  Cells
decouple (a cell's assignment does not change the interference it causes), so
the problem is solved cell by cell on a precomputed (users x subcarriers)
rate table.

Two solvers: an exact depth-first branch and bound and a one-pass greedy.
Both are deterministic, including tie handling, so repeated runs give
byte-identical results.

The greedy loop has two kernels too.  At two users `_greedy_picks_two`
keeps the two totals as scalars and picks user 0 when its total is at or
below user 1's; every other K runs the generic `_greedy_picks` loop, which
picks the first user holding the lowest total and is the reference for the
two-user kernel.  Both make the same adds in the same order, so they pick
the same users and return the same bytes, in `solve_greedy`, in the greedy
mode of `solve_all_cells` and as the incumbent that seeds `solve_exact`.

The exact search prunes a branch whose upper bound does not beat the
incumbent (seeded by greedy).  Its main bound is Lagrangian (Fisher, Mgmt.
Sci. 1981): for any point y on the simplex, the y-weighted sum of the users'
totals so far plus, for each remaining subcarrier, the largest y-weighted
rate on it bounds the worst user total of every completion.  y is computed
once per table, near the minimum of that bound at the root, which is the
value of the LP relaxation; the bound then costs one add per node.  The
second bound, each user's total plus all its remaining rates, catches what
one fixed y misses deeper in the tree.

A node is priced when its parent tries it, in one pass of the search loop:
the Lagrangian bound first, and only for a child that passes it, a copy of
the users' totals and the per-user bound.  Both compare with one threshold,
`cut`, the larger of the floor below and the float just above the
incumbent, so `bound < cut` holds exactly when the bound is at or below the
incumbent or below the floor.  `nodes` counts the root and every child
priced, cut or not.  The per-table set-up (the suffix sums of both bounds,
the y-weighted rates and the rounding below) is a few array passes over
the (N, K) table in branching order.

One set-up feeds one of two search kernels.  At two users, the size of the
paper's experiment and of the CLI default, `_search_two` keeps the two
users' totals as two scalars per depth, so no list is copied and no `min`
is mapped over a pair.  Every other K runs the generic `_search`, which is
also the reference the two-user kernel is tested against: both make the
same adds in the same order, so they visit the same nodes and return the
same bytes.

Given the assignment a cell already holds, the search also prunes below a
floor: the best of three feasible assignments' values on the new table,
shrunk by a relative `FLOOR_MARGIN`.  The three are the held assignment;
the Lagrangian rounding at y, each subcarrier to the user with the largest
y-weighted rate (Fisher's Lagrangian heuristic); and the better of those
two, polished by a local search towards the worst user.  After a power
phase the held assignment is usually within a few percent of the optimum,
far closer than greedy, the rounding is often closer still, and the polish
closes more of the gap, so the floor cuts most of the tree.  All three are
feasible, so the floor is at most the optimum and never cuts an ancestor of
the first optimal leaf in branching order.  The incumbent is still greedy's
and still moves only on strict improvement, so the result depends neither
on the held assignment, nor on the rounding or the local search, nor on y.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .lr_power import SimplexPlan
from .rate_model import link_rates
from .scenario import Scenario


# The `mode` values of `solve_all_cells`, which `coordinator.RunConfig` and
# the CLI's --subcarrier accept.
SUBCARRIER_MODES = ("exact", "greedy")
# Relative shrink of the held assignment's value before it prunes the search.
FLOOR_MARGIN = 1e-12
# Projected subgradient steps towards the dual point at K >= 3, and the
# first step's length on the simplex (later ones shrink as 1 / sqrt(t + 1)).
DUAL_STEPS = 20
DUAL_STEP = 0.2


class RateTableError(ValueError):
    """Rate table or held assignment is empty, misshapen, or invalid."""


@dataclass(frozen=True)
class AssignmentResult:
    """assignment[n] is the user index owning subcarrier n; `nodes` counts
    the search nodes visited (0 for greedy)."""

    assignment: np.ndarray
    min_rate: float
    nodes: int


def rate_table(scenario: Scenario, power: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per cell, the (K_m, N) user-on-subcarrier rates; one `link_rates` call."""
    rates = link_rates(scenario, power)
    return tuple(rates[m, :k_m] for m, k_m in enumerate(scenario.users_per_cell))


def _checked(table: np.ndarray) -> np.ndarray:
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
        raise RateTableError(f"rate table must be 2-D and nonempty, got shape {table.shape}")
    _check_entries(table)
    return table


def _check_entries(rates: np.ndarray) -> None:
    if not np.isfinite(rates).all():
        raise RateTableError("rate table entries must be finite")
    if (rates < 0.0).any():
        raise RateTableError("rate table entries must be nonnegative")


def _column_order(table: np.ndarray) -> np.ndarray:
    # Decreasing best-user value; ties by ascending subcarrier index.
    return np.argsort(-table.max(axis=0), kind="stable")


def solve_greedy(table: np.ndarray) -> AssignmentResult:
    """One pass over subcarriers in decreasing best-rate order.

    Each subcarrier goes to whichever user currently has the lowest total,
    lowest user index on ties.
    """
    table = _checked(table)
    order = _column_order(table)
    return _greedy(order, table[:, order].T.tolist())


def _greedy(order: np.ndarray, cols: list) -> AssignmentResult:
    # cols[d][u]: user u's rate on subcarrier order[d].
    picks, low = _greedy_picks(cols, len(cols[0]))
    assign = np.empty(len(order), dtype=np.int64)
    assign[order] = picks
    return AssignmentResult(assignment=assign, min_rate=low, nodes=0)


def _greedy_picks(cols, k: int) -> tuple[list, float]:
    """The greedy loop over `cols`, an iterable whose d-th item holds the k
    users' rates on the subcarrier at depth d in branching order: (the user
    picked at each depth, the worst user total).  At two users it is
    `_greedy_picks_two`; this loop is the reference for it."""
    if k == 2:
        return _greedy_picks_two(cols)
    totals = [0.0] * k
    picks = []
    for col in cols:
        u = totals.index(min(totals))
        picks.append(u)
        totals[u] += col[u]
    return picks, min(totals)


def _greedy_picks_two(cols) -> tuple[list, float]:
    """`_greedy_picks` at two users, on two scalar totals: the same adds in
    the same order.  a <= b is `totals.index(min(totals)) == 0` for finite
    totals, and the worst total is taken the same way."""
    a = b = 0.0
    picks = []
    for x, y in cols:
        if a <= b:
            a += x
            picks.append(0)
        else:
            b += y
            picks.append(1)
    return picks, a if a <= b else b


def _greedy_all_cells(scenario: Scenario, power: np.ndarray) -> np.ndarray:
    """Every cell's greedy assignment as a (M, N) user-index array.

    One pass over the padded (M, Kmax, N) rates: one check of the real
    users' entries, one stable row-wise sort of the columns by their best
    real-user rate, and one `tolist` of the sorted rates, user-major as
    they lie.  Then `solve_greedy`'s loop per cell, on the cell's real user
    rows zipped into per-depth columns, so no padded user is read: the
    two-user kernel at K_m = 2, the generic loop at every other K_m.  Each
    row equals `solve_greedy` on that cell's rate table, bit for bit.
    """
    rates = link_rates(scenario, power)
    real = scenario.real_users
    _check_entries(rates[real])
    best = np.max(rates, axis=1, where=real[..., None], initial=-np.inf)
    order = np.argsort(-best, axis=1, kind="stable")
    rows = np.take_along_axis(rates, order[:, None, :], axis=2).tolist()
    users = np.empty(order.shape, dtype=np.int64)
    users[np.arange(len(order))[:, None], order] = [
        _greedy_picks(zip(*cell_rows[:k]), k)[0]
        for cell_rows, k in zip(rows, scenario.users_per_cell)]
    return users


def _totals(cols: list, picks: list) -> list:
    """Every user's total under `picks` on `cols`, summed in branching order."""
    totals = [0.0] * len(cols[0])
    for col, u in zip(cols, picks):
        totals[u] += col[u]
    return totals


def _polish(cols: list, picks: list, totals: list) -> list:
    """Local search towards the worst user; `picks` is improved in place.

    cols[d][u] is user u's rate on subcarrier d, and picks[d] is the user
    holding it; `totals` is `_totals(cols, picks)`, updated in place too.
    Each step gives the worst user (lowest index on ties) a subcarrier
    another user holds: as a move, or, only when no move helps, as a swap
    for one of the worst user's own subcarriers.  The step taken
    is the one that leaves the lower of the two changed totals highest, and
    only if both end strictly above the old worst total, so the sorted
    totals rise with every step and the search ends.
    """
    while True:
        low = min(totals)
        w = totals.index(low)
        # Each subcarrier d another user v holds: w's rate on it, and v's
        # total without it.
        theirs = [(d, v, cols[d][w], totals[v] - cols[d][v])
                  for d, v in enumerate(picks) if v != w]
        best, step = low, None
        for d, v, gain, left in theirs:
            new_w = low + gain
            worse = left if left < new_w else new_w
            if worse > best:
                best, step = worse, (d, -1, left, new_w)
        if step is None and theirs:
            # A swap leaves w at most base + the largest gain: skip every
            # held subcarrier e whose swaps cannot beat the best so far.
            top = max([gain for _, _, gain, _ in theirs])
            for e, owner in enumerate(picks):
                if owner != w:
                    continue
                back = cols[e]
                base = low - back[w]
                if base + top <= best:
                    continue
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


def _held_floor(table: np.ndarray, current, order: np.ndarray, cols: list,
                ycols: np.ndarray) -> float:
    """Prune floor from the assignment a cell already holds; minus infinity
    without one.

    Three feasible assignments are valued on the search's own `cols`
    (subcarriers in branching `order`), with totals summed in that order:
    the held one; the Lagrangian rounding at the dual point y, which gives
    each subcarrier to the user with the largest y-weighted rate in the
    (N, K) array `ycols` (ycols[d, u] = y_u * cols[d][u] with y from
    `_dual_point(cols)`; lowest user index on ties); and the better
    of those two, held on a tie, polished by `_polish`.  The floor is the
    best of the three values shrunk by `FLOOR_MARGIN`.  Every candidate is
    a feasible assignment, so no value exceeds the optimum, whatever y or
    the local search does.
    """
    if current is None:
        return -np.inf
    k, n_sub = table.shape
    raw = np.asarray(current)
    if raw.shape != (n_sub,):
        raise RateTableError(
            f"current must be a ({n_sub},) user-index vector, got shape {raw.shape}")
    if raw.dtype.kind not in "iu":
        raise RateTableError(
            f"current must hold integer user indices, got dtype {raw.dtype}")
    held = raw[order].tolist()
    if min(held) < 0 or max(held) >= k:
        raise RateTableError(f"current has a user index outside 0..{k - 1}")
    # argmax takes the first maximum: the lowest user index wins ties.
    rounded = ycols.argmax(axis=1).tolist()
    start, totals = held, _totals(cols, held)
    rounded_totals = _totals(cols, rounded)
    value, rounded_value = min(totals), min(rounded_totals)
    if rounded_value > value:
        start, totals, value = rounded, rounded_totals, rounded_value
    picks = _polish(cols, start[:], totals)
    if picks != start:
        value = max(value, min(_totals(cols, picks)))
    return value * (1.0 - FLOOR_MARGIN)


def _dual_point(cols: list) -> list:
    """A simplex point y at or near the minimum of f(y) = sum_d max_u y_u * cols[d][u].

    f is convex and piecewise linear, and its minimum is the value of the LP
    relaxation of the max-min assignment.  At two users the minimum is exact:
    a weighted median of the breakpoints.  From three users on, y is the best
    of `DUAL_STEPS` projected subgradient steps.  Any y gives a valid bound,
    so a poor one costs pruning, never a different result.
    """
    k = len(cols[0])
    if k == 1:
        return [1.0]
    if k == 2:
        # f(t, 1 - t) = sum_d max(t * a_d, (1 - t) * b_d) is convex in t, with
        # slope -sum b at t = 0 rising by a_d + b_d at each b_d / (a_d + b_d).
        need = 0.0
        kinks = []
        for a, b in cols:
            need += b
            if a + b > 0.0:
                kinks.append((b / (a + b), a + b))
        kinks.sort()
        slope, t = 0.0, 0.5
        for t, rise in kinks:
            slope += rise
            if slope >= need:
                break
        return [t, 1.0 - t]
    table = np.array(cols).T
    totals = table.sum(axis=1)
    if not totals.all():
        # A user with nothing to gain: y on it bounds every node by 0.
        return np.eye(k)[totals.argmin()].tolist()
    # Projected subgradient from y proportional to 1 / totals, the point
    # that weighs every user's whole table equally; best point seen wins.
    project = SimplexPlan(1.0, True, (k,))
    y = totals.min() / totals
    y /= y.sum()
    at = np.arange(table.shape[1])
    best_y, best_f = y, np.inf
    for t in range(DUAL_STEPS):
        weighted = y[:, None] * table
        win = weighted.argmax(axis=0)
        f = weighted[win, at].sum()
        if f < best_f:
            best_y, best_f = y, f
        grad = np.bincount(win, weights=table[win, at], minlength=k)
        grad -= grad.mean()
        norm = np.sqrt(grad @ grad)
        if norm == 0.0:
            break
        y = project(y - DUAL_STEP / np.sqrt(t + 1.0) * grad / norm)
    return best_y.tolist()


def solve_exact(table: np.ndarray, current=None) -> AssignmentResult:
    """Max-min optimal assignment by branch and bound.

    Subcarriers are branched in decreasing best-rate order; at each node the
    candidate users are tried in ascending index.  A branch is cut when an
    upper bound on its best reachable minimum fails to exceed the incumbent.
    The greedy solution seeds the incumbent and incumbents move only on
    strict improvement, so the returned assignment is a deterministic
    function of the table: the first leaf in branching order that reaches
    the optimum, or greedy's when greedy is already optimal.

    Two bounds prune.  The Lagrangian bound at a point y computed once per
    table (see `_dual_point`; besides the warm floor's rounding, nothing
    else about the search depends on y) is
    the y-weighted sum of the totals so far plus a suffix sum, over the
    remaining subcarriers, of the largest y-weighted rate: one add per node.
    The per-user bound is each user's total plus all of its remaining
    rates.  In exact arithmetic both are at least the worst user total of
    every leaf below the node, so neither cuts an ancestor of the first
    optimal leaf, and the result is the same for every y.  The Lagrangian
    bound is inflated by `FLOOR_MARGIN` times the table's sum of
    per-subcarrier best rates, an upper limit on every sum the search
    forms, so that rounding in its differently ordered sums (and in y's own
    sum) cannot cut such an ancestor either; on subnormal rates, where that
    product underflows, by N times the least subnormal.  The per-user bound
    has no margin, so that it still cuts at exact ties; its rounding can
    only cut a leaf whose computed minimum is within an ulp or so of the
    incumbent.

    `current`, a (N,) user-index vector such as the assignment the cell
    already holds, only speeds the search up.  With it, the best value of
    three assignments on `table` (the held one, the Lagrangian rounding at
    y, and the better of those two polished by a local search; see
    `_held_floor`), shrunk by a relative `FLOOR_MARGIN`, is a prune floor:
    a branch whose bound is below it holds no optimal leaf, so it is cut
    too.  All three are feasible assignments, so their values are at most
    the optimum.  The first optimal leaf's ancestors all have bounds at
    or above the optimum, so the floor never cuts them, and the result is
    the same with or without `current`.  The margin keeps rounding in the
    differently ordered sums of the bound and the floor's value from ever
    cutting such an ancestor.

    Each node is priced by its parent, in the pass of the loop that tries
    it: first the one-add Lagrangian bound, then, only if that passes, the
    child's totals are copied and the per-user bound is taken.  A bound
    cuts when it is below `cut = max(floor, nextafter(incumbent, inf))`,
    recomputed whenever the incumbent moves; for floats that is exactly
    "at or below the incumbent, or below the floor".  The root is priced
    the same way before the loop.

    The set-up above is shared; the loop is one of two kernels.  At K = 2
    `_search_two` holds each user's running total as a scalar per depth; at
    every other K the generic `_search` holds a list per depth.  The generic
    kernel stays as the only path for K != 2 and as the reference the
    two-user kernel is tested against, node for node.

    The search is an explicit stack, so its depth is not limited by
    Python's recursion limit.  `nodes` counts the nodes it visits: the root
    and every child priced, whether cut or not, so it equals the count of a
    search that enters each node before testing it.
    """
    table = _checked(table)
    k, n_sub = table.shape
    order = _column_order(table)
    # ranked[d, u] = cols[d][u]: user u's rate on the subcarrier branched at
    # depth d.
    ranked = table[:, order].T
    cols = ranked.tolist()
    # The dual point y: ycols[d, u] = y_u * cols[d][u] feeds both the floor's
    # Lagrangian rounding and the Lagrangian bound.
    ycols = ranked * _dual_point(cols)
    floor = _held_floor(table, current, order, cols, ycols)

    # rest[d, u]: what user u could still gain from depths d.. on, and
    # rest_y[d] the sum of max_u ycols[n, u] over n >= d plus a slack for
    # rounding: every sum the search forms is at most sum_n max_u cols[n][u].
    # Both are running sums from the last depth; accumulate adds in sequence,
    # so each equals the running sum of a loop bit for bit.  Adding the slack
    # to the last depth's term seeds rest_y with it (s + a == a + s).  On
    # subnormal rates the relative slack underflows, while each of a bound's
    # N products y_u * r_un is off by up to half the least subnormal, so the
    # slack is at least N of those; on normal rates the relative term is the
    # larger by hundreds of orders of magnitude.
    rest = np.add.accumulate(ranked[::-1], axis=0)[::-1]
    best_y = ycols.max(axis=1)
    best_y[-1] += max(FLOOR_MARGIN * sum(ranked.max(axis=1).tolist()),
                      n_sub * math.ulp(0.0))
    rest_y = np.add.accumulate(best_y[::-1])[::-1]
    root_y, root = rest_y[0], rest[0].min()
    # after[d] and after_y[d]: the sums from depth d + 1 on, which bound the
    # children of a node at depth d.
    after, after_y = rest[1:].tolist(), rest_y[1:].tolist()
    ycols = ycols.tolist()

    best_picks, best_min = _greedy_picks(cols, k)
    # The root, priced like every other node: the Lagrangian bound, then the
    # per-user bound (no user can gain more than all the subcarriers).
    cut = max(floor, math.nextafter(best_min, math.inf))
    nodes = 1
    if root_y >= cut and root >= cut:
        search = _search_two if k == 2 else _search
        best_picks, best_min, nodes = search(cols, ycols, after, after_y, floor,
                                             best_picks, best_min)

    best_assign = np.empty(n_sub, dtype=np.int64)
    best_assign[order] = best_picks
    return AssignmentResult(assignment=best_assign, min_rate=best_min, nodes=nodes)


def _search(cols: list, ycols: list, after: list, after_y: list, floor: float,
            best_picks: list, best_min: float) -> tuple[list, float, int]:
    """The depth-first search below a root that passed both bounds, at any
    number of users: (the best picks in branching order, their worst user
    total, the nodes visited counting the root).  `best_picks` and
    `best_min` are the greedy incumbent; see `solve_exact` for the rest."""
    k, n_sub = len(cols[0]), len(cols)
    # A node is cut when a bound falls below `cut`: at or below the
    # incumbent, or below the floor.
    cut = max(floor, math.nextafter(best_min, math.inf))
    # totals[d]: the users' totals after the picks at depths 0..d-1, and
    # ytotals[d] their y-weighted sum; picks[d]: the last user tried at depth d.
    totals = [[0.0] * k for _ in range(n_sub + 1)]
    ytotals = [0.0] * n_sub
    picks = [-1] * n_sub
    last = n_sub - 1
    nodes = 1
    depth = 0
    add = operator.add
    while depth >= 0:
        u = picks[depth] + 1
        if u == k:
            depth -= 1
            continue
        picks[depth] = u
        # The child that gives depth's subcarrier to u, priced here.
        nodes += 1
        child = totals[depth + 1]
        if depth == last:
            child[:] = totals[depth]
            child[u] += cols[depth][u]
            low = min(child)
            if low > best_min:
                best_min = low
                best_picks = picks[:]
                cut = max(floor, math.nextafter(best_min, math.inf))
            continue
        ytotal = ytotals[depth] + ycols[depth][u]
        if ytotal + after_y[depth] < cut:
            continue
        child[:] = totals[depth]
        child[u] += cols[depth][u]
        if min(map(add, child, after[depth])) < cut:
            continue
        depth += 1
        ytotals[depth] = ytotal
        picks[depth] = -1
    return best_picks, best_min, nodes


def _search_two(cols: list, ycols: list, after: list, after_y: list, floor: float,
                best_picks: list, best_min: float) -> tuple[list, float, int]:
    """`_search` at two users, node for node: the same adds in the same
    order, on two scalar totals per depth instead of a list."""
    n_sub = len(cols)
    cut = max(floor, math.nextafter(best_min, math.inf))
    # t0[d], t1[d]: users 0's and 1's totals after the picks at depths 0..d-1.
    t0 = [0.0] * n_sub
    t1 = [0.0] * n_sub
    ytotals = [0.0] * n_sub
    picks = [-1] * n_sub
    last = n_sub - 1
    nodes = 1
    depth = 0
    while depth >= 0:
        u = picks[depth] + 1
        if u == 2:
            depth -= 1
            continue
        picks[depth] = u
        nodes += 1
        a, b = t0[depth], t1[depth]
        if depth == last:
            if u:
                b += cols[depth][1]
            else:
                a += cols[depth][0]
            # min(a, b), exactly: both are finite.
            low = a if a <= b else b
            if low > best_min:
                best_min = low
                best_picks = picks[:]
                cut = max(floor, math.nextafter(best_min, math.inf))
            continue
        ytotal = ytotals[depth] + ycols[depth][u]
        if ytotal + after_y[depth] < cut:
            continue
        if u:
            b += cols[depth][1]
        else:
            a += cols[depth][0]
        rest = after[depth]
        if a + rest[0] < cut or b + rest[1] < cut:
            continue
        depth += 1
        t0[depth], t1[depth] = a, b
        ytotals[depth] = ytotal
        picks[depth] = -1
    return best_picks, best_min, nodes


def solve_all_cells(scenario: Scenario, power: np.ndarray, *,
                    mode: str = "exact", current=None) -> np.ndarray:
    """Assign every cell's subcarriers; returns the full 0/1 tensor.

    `current`, a (M, N) user-index array whose row m is cell m's held
    assignment, warm-starts the exact solve (see `solve_exact`); any other
    shape raises `RateTableError`.  Greedy has no use for it, and assigns
    every cell in one pass (see `_greedy_all_cells`).
    """
    if mode not in SUBCARRIER_MODES:
        raise ValueError(f"mode must be one of {SUBCARRIER_MODES}, got {mode!r}")
    shape = (scenario.num_cells, scenario.num_subcarriers)
    if current is not None and np.shape(current) != shape:
        raise RateTableError(f"current must be a {shape} user-index array, "
                             f"got shape {np.shape(current)}")
    if mode == "greedy":
        users = _greedy_all_cells(scenario, power)
    else:
        users = np.array([
            solve_exact(table, None if current is None else current[m]).assignment
            for m, table in enumerate(rate_table(scenario, power))])
    out = np.zeros((scenario.num_cells, scenario.max_users,
                    scenario.num_subcarriers), dtype=np.int8)
    out[np.arange(scenario.num_cells)[:, None], users,
        np.arange(scenario.num_subcarriers)] = 1
    return out
