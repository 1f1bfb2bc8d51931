"""Benchmark power control by classical Lagrangian relaxation.

The per-cell minimum-rate constraints are dualized with multipliers that live
on a scaled simplex: the multipliers of cell m stay nonnegative and sum to
the cell weight, which is exactly the set over which the dual of the max-min
objective is bounded.  Each outer iteration every cell best-responds to the
frozen interference of the previous iterate by maximizing its dualized
objective over its power budget, then the multipliers take a projected
subgradient step that shifts weight toward users below their cell's average
rate.  With interference frozen, the dualized objective is a weighted sum of
ln(1 + c_n p_n) over the cell's subcarriers, so the best response is exact
weighted water-filling (Palomar & Fonollosa, IEEE TSP 2005), and the
multiplier step is a sort-based simplex projection (Duchi et al., ICML 2008).

`lr_solve` builds, once per phase, everything that stays fixed while the
phase runs: the `AssignedLinks` view, a `WaterFillingPlan` for the (cell,
subcarrier) rows at p_max, a `SimplexPlan` for the multiplier rows (padded to
the largest cell) and the first denominators.  A sweep is then one array pass
over all cells with one link evaluation: water-filling against the
denominators the previous sweep's evaluation left, one
`AssignedLinks.evaluate` call at the new powers (this sweep's padded
per-user rate sums and the next sweep's denominators), the multiplier step,
and a `rate_model.WsmrResult` of those sums, the objective and the per-cell
worst user rates that the relay reads.  The plans work in place on their
own intermediates, and a `SimplexPlan` whose slots are all real with
positive totals skips its masks.  The public `best_response` and
`update_multipliers` build a plan and call it.  Rows repeat the per-cell
arithmetic bit for bit, except a cell's average rate once rows have 8 or
more user slots: numpy's pairwise summation blocks a padded row sum
differently.

When every cell has two users and a positive weight, as in the paper's
experiment, a sweep's work is a handful of numbers per cell, and numpy's
per-call overhead dominates it.  There the multipliers stay Python pairs
for the whole phase, and two stages run on Python floats: the best
response, by `WaterFillingPlan.scalar` when the plan holds at most
`SCALAR_ENTRIES` entries (each subcarrier's weight read from its holder's
pair), and the per-user stage, by `_pair_pass` (the cell mean, the
multiplier step, the projection and the worst rate, one cell at a time).
Both repeat the numpy route's operations in the same order, so every run
keeps its bits: LR's outcome is chaotic at the last bit, and any change to
the order of the operations would move it.  The objective stays numpy's
dot of the weights and the worst rates.  Ragged and zero-weight cells take
the numpy route, and so do larger plans' water-filling, a row the scalar
kernel hands back and a sweep whose multipliers are not all finite.  A
sweep whose power iterate or rate sums are not all finite raises
`LrDivergenceError`, on either route.

Both methods run in the same loop, `bus.relay`: same Jacobi information
pattern, exchange and stop test as the decomposed method, so iteration
counts and message totals are comparable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bus import MessageBus, PhaseError, TraceRow, relay
# `wsmr` is not called here (a sweep reports from the rate sums it already
# has); the name stays bound because perfbench's tracer rebinds `wsmr` in
# every power module and its tests expect it here.
from .rate_model import (WsmrResult, assigned_links, validate_power,  # noqa: F401
                         wsmr)
from .scenario import Scenario

ALPHA0 = 1.0
BETA = 0.1


class LrDivergenceError(PhaseError):
    """The relaxation produced a non-finite iterate."""


@dataclass(frozen=True)
class LrResult:
    power: np.ndarray
    lam: list[np.ndarray]
    trace: list[TraceRow]
    converged: bool
    iterations: int


class SimplexPlan:
    """Row-wise Euclidean projection onto {x >= 0, sum(x) = total}, set up
    once for fixed totals and real slots and then called on any number of
    value arrays of `shape`.

    `total` holds one finite nonnegative total per row (checked here) and
    `real` (broadcast to `shape`, so `True` marks every slot) the slots that
    exist.
    Padded slots are masked, never computed with, and come out zero, as does
    every row of total zero; when every slot is real and every total
    positive, nothing needs masking and `masked` is False.  Each row sorts
    its real values in decreasing order ahead of its padded slots and keeps
    the longest prefix that stays above its shift (Duchi et al., ICML 2008).
    """

    def __init__(self, total, real: np.ndarray | bool, shape: tuple[int, ...]):
        total = np.asarray(total, dtype=float).reshape(-1, 1)
        if not (np.isfinite(total).all() and total.min() >= 0.0):
            raise ValueError(
                f"simplex total must be finite and nonnegative, got {total.ravel()!r}")
        width = shape[-1]
        self.shape, self.total = shape, total
        self.real = (np.zeros(shape, dtype=bool) | real).reshape(-1, width)
        self.live = self.real & (total > 0.0)
        self.masked = not self.live.all()
        # Sort keys are -value on real slots and +inf on padded ones, so real
        # slots fill each row's prefix, in decreasing order of value.
        self.pad_key = np.where(self.real, 0.0, np.inf)
        self.ranks = np.arange(1, width + 1)
        self.first = self.ranks <= self.real.sum(axis=-1, keepdims=True)
        self.offsets = np.arange(len(self.real))[:, None] * width
        self.before = self.offsets - 1     # before + rank: flat index of that rank

    def __call__(self, v: np.ndarray) -> np.ndarray:
        vals = v.reshape(self.real.shape)
        if self.masked:
            vals = np.where(self.real, vals, 0.0)
        at = (self.pad_key - vals).argsort(axis=-1, kind="stable")
        at += self.offsets
        dropped = vals.take(at)
        cumulative = np.add.accumulate(dropped, axis=-1)
        cumulative -= self.total
        above = cumulative / self.ranks
        np.subtract(dropped, above, out=above)
        valid = above > 0.0
        if self.masked:
            valid &= self.first
        rank = np.maximum.reduce(valid * self.ranks, axis=-1, keepdims=True, initial=1)
        shift = cumulative.take(self.before + rank)
        shift /= rank
        out = vals - shift
        np.maximum(out, 0.0, out=out)
        if self.masked:
            out = np.where(self.live, out, 0.0)
        return out.reshape(self.shape)

    def step(self, lam: np.ndarray, residuals: np.ndarray, t: int) -> np.ndarray:
        """Projected subgradient step from `lam` along `residuals`, of the
        diminishing size ALPHA0 / (1 + BETA * t) for outer iteration t >= 0."""
        if not t >= 0:
            raise ValueError(f"step index t must be nonnegative, got {t!r}")
        moved = ALPHA0 / (1.0 + BETA * t) * residuals
        moved += lam
        return self(moved)


def update_multipliers(lam: np.ndarray, residuals: np.ndarray, weights, t: int,
                       real: np.ndarray) -> np.ndarray:
    """Projected subgradient step on every cell's multiplier row at once.

    `lam` and `residuals` hold one row per cell, padded to the largest cell,
    with `real` marking the user slots that exist.  `residuals[m, u]` should
    be positive when user u lags its cell (here: cell average rate minus the
    user's rate).  Every row takes the step of `SimplexPlan.step` and is
    projected back onto the simplex summing to the cell weight.
    """
    lam = np.asarray(lam, dtype=float)
    return SimplexPlan(weights, real, lam.shape).step(lam, np.asarray(residuals), t)


def _pair_pass(sums: list, lam: list, weights: list, t: int):
    """The per-user stage of a sweep at two users per cell, on Python floats.

    `sums` is the `tolist` of the (M, 2) rate sums, `lam` the M multiplier
    pairs and `weights` the M positive cell weights.  Each cell forms
    what the numpy route forms, with the same operations in the same order:
    the mean (s0 + s1) / 2, the moved pair (a, b) of `SimplexPlan.step` at
    index t, the projection's shift that the sort route picks (its rank-2
    shift h = ((a + b) - weight) / 2 when min(a, b) > h, else its rank-1
    shift max(a, b) - weight), the new multipliers and the cell's worst rate
    as `WsmrResult.from_sums` reduces it.  For floats x - y > 0 exactly when
    x > y, so the rank test compares min(a, b) with h directly.  Ties keep
    numpy's bits: the shift does not depend on the sign of a tied zero, a
    multiplier before its clamp at zero is never -0.0, and the worst rate
    takes the second operand on a tie, as numpy's minimum does on x86.

    Returns (multiplier pairs, worst rates), or None as soon as a cell's
    sums or multipliers are not all finite: there Python's comparisons would
    drop a NaN that numpy's minimum and maximum carry.
    """
    step = ALPHA0 / (1.0 + BETA * t)
    rows, worsts = [], []
    for (s0, s1), (l0, l1), w in zip(sums, lam, weights):
        mean = (s0 + s1) / 2.0
        # An infinite or NaN term makes the sum infinite or NaN.
        if not math.isfinite(mean + l0 + l1):
            return None
        a = step * (mean - s0) + l0
        b = step * (mean - s1) + l1
        half = ((a + b) - w) / 2.0
        if a < b:
            shift = half if a > half else b - w
        else:
            shift = half if b > half else a - w
        a -= shift
        b -= shift
        rows.append((a if a > 0.0 else 0.0, b if b > 0.0 else 0.0))
        worsts.append(s0 if s0 < s1 else s1)
    return rows, worsts


# Plans of at most this many entries (rows x width) take
# `WaterFillingPlan.scalar` when their weights come as lists.  The scalar
# kernel's cost grows with the entries, while numpy's ~30 calls cost about
# the same up to hundreds of them.  On one core of a 2-vCPU VM (Python
# 3.11, numpy 2.4) the two broke even near 40 entries (5 x 8, 3 x 16), and
# at 7 x 8 numpy took 24 us against the scalar kernel's 34.
SCALAR_ENTRIES = 36


def _pairwise_sum(values: list) -> float:
    """The sum of at most 128 floats in numpy's order for a contiguous row
    (its pairwise summation): one running sum below 8 values, else eight
    running sums over whole blocks of eight, combined as a tree, then the
    values after the last whole block."""
    n = len(values)
    if n < 8:
        total = 0.0
        for x in values:
            total += x
        return total
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    i = 8
    while i + 8 <= n:
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
        i += 8
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    while i < n:
        total += values[i]
        i += 1
    return total


class WaterFillingPlan:
    """Row-wise exact weighted water-filling, set up once for a `shape` and a
    budget shared by every row, then called on any number of inputs.

    A call maximizes sum_n weight[n] * ln(1 + coeff[n] * p[n]) over each
    row's budget set: p_n = max(0, weight[n] / nu - 1 / coeff[n]), with the
    level nu set so the budget is spent.  Subcarriers enter the active set in
    decreasing order of weight[n] * coeff[n] (a stable sort, so ties keep
    index order), and the level of the first k of them is sum(weight) /
    (budget + sum(1 / coeff)); the active set is the longest prefix whose
    last entry still lies above its level.  Entries with zero weight or zero
    coefficient get no power, and nothing gets power at a budget of zero;
    the budget must be finite and nonnegative, and the inputs nonnegative.

    A call runs one of two kernels with the same arithmetic.  An array
    `weight` takes the numpy kernel, one pass over all rows.  Weights given
    as the nested list of their rows take `scalar`, on Python floats, when
    the plan is `small`: at most SCALAR_ENTRIES entries and a positive
    budget.  On a larger or dry plan, or when `scalar` hands a row back,
    every row takes the numpy kernel.
    """

    def __init__(self, shape: tuple[int, ...], budget: float):
        if not 0.0 <= budget < np.inf:
            raise ValueError(f"budget must be finite and nonnegative, got {budget!r}")
        width = shape[-1]
        self.shape, self.budget = shape, budget
        self.rows = (int(np.prod(shape[:-1])), width)
        self.dry = budget == 0.0 or 0 in self.rows
        self.small = self.rows[0] * width <= SCALAR_ENTRIES and not self.dry
        self.ranks = np.arange(1, width + 1)
        self.offsets = np.arange(self.rows[0])[:, None] * width
        self.before = self.offsets - 1     # before + rank: flat index of that rank

    def __call__(self, coeff: np.ndarray, weight: np.ndarray | list) -> np.ndarray:
        if type(weight) is list:
            if self.small:
                filled = self.scalar(coeff.reshape(self.rows).tolist(), weight)
                if filled is not None:
                    return np.array(filled).reshape(self.shape)
            weight = np.array(weight).reshape(self.shape)
        gain = (weight * coeff).reshape(self.rows)
        if self.dry:
            return np.zeros(self.shape)
        at = (-gain).argsort(axis=-1, kind="stable")
        at += self.offsets
        gain, weight = gain.take(at), weight.take(at)
        on = gain > 0.0                       # a prefix of every sorted row
        inv = np.divide(1.0, coeff.take(at), out=np.zeros(self.rows), where=on)
        levels = np.add.accumulate(weight, axis=-1)
        spread = np.add.accumulate(inv, axis=-1)
        spread += self.budget
        levels /= spread
        # Past the prefix gain <= 0 <= levels, so k is the last entry of the
        # prefix above its level, or 1.
        k = np.maximum.reduce((gain > levels) * self.ranks, axis=-1, keepdims=True,
                              initial=1)
        on &= self.ranks <= k
        filled = np.divide(weight, levels.take(self.before + k), out=np.zeros(self.rows),
                           where=on)
        filled -= inv
        np.maximum(filled, 0.0, out=filled)
        p = np.empty(self.rows)
        p.put(at, filled)
        # Rounding only; keeps p feasible.
        total = np.add.reduce(p, axis=-1, keepdims=True)
        np.maximum(total, self.budget, out=total)
        p *= np.divide(self.budget, total, out=total)
        return p.reshape(self.shape)

    def scalar(self, coeff: list, weight: list) -> list | None:
        """The numpy kernel's rows on Python floats: `coeff` and `weight` are
        lists of rows of floats, in the plan's (rows, width) layout, of any
        width up to 128 (`_pairwise_sum`).

        Each row repeats the numpy kernel's operations in its order: the
        stable descending sort of weight * coeff, the running sums of the
        sorted weights and of 1 / coeff, the level test with rank 1 as the
        floor, weight / level_k - 1 / coeff clamped at zero, and the rescale
        by the row total, summed as numpy sums a row (`_pairwise_sum`).  An
        entry outside the sorted positive prefix gets 0.0, as numpy's masked
        division leaves it.  Returns the powers, row after row, in one flat
        list; or None, for the numpy kernel to take every row, when a row's
        gain sum or power total is not finite (NaN keys sort differently in
        the two kernels) or its level is not positive (Python raises where
        numpy divides to inf).
        """
        budget = self.budget
        isfinite = math.isfinite
        mul = operator.mul
        out = []
        for c, w in zip(coeff, weight):
            gain = list(map(mul, w, c))
            if not isfinite(sum(gain)):
                return None
            n = len(gain)
            at = sorted(range(n), key=gain.__getitem__, reverse=True)
            total_w = total_inv = 0.0
            rank = k = 0
            for i in at:
                g = gain[i]
                if not g > 0.0:
                    break
                rank += 1
                total_w += w[i]
                total_inv += 1.0 / c[i]
                level = total_w / (total_inv + budget)
                if g > level or rank == 1:
                    k, level_k = rank, level
            p = [0.0] * n
            if k:
                if not level_k > 0.0:
                    return None
                for i in at[:k]:
                    x = w[i] / level_k - 1.0 / c[i]
                    if x > 0.0:
                        p[i] = x
            total = _pairwise_sum(p)
            if not isfinite(total):
                return None
            # budget / max(total, budget) is exactly 1.0 when total <= budget.
            if total > budget:
                scale = budget / total
                p = [x * scale for x in p]
            out += p
        return out


def best_response(coeff: np.ndarray, weight: np.ndarray,
                  budget: float) -> np.ndarray:
    """Maximize sum_n weight[n] * ln(1 + coeff[n] * p[n]) over the budget set.

    Works row-wise on the last axis of nonnegative 1-D or 2-D inputs, every
    row with the same budget, by exact weighted water-filling (see
    `WaterFillingPlan`).  Each row repeats the arithmetic of its own 1-D call
    bit for bit.
    """
    coeff = np.asarray(coeff, dtype=float)
    weight = np.asarray(weight, dtype=float)
    return WaterFillingPlan(coeff.shape, budget)(coeff, weight)


def lr_solve(scenario: Scenario, assignment: np.ndarray, initial_power: np.ndarray,
             *, psi: float = 0.1, max_iters: int = 200,
             bus: MessageBus | None = None) -> LrResult:
    """Run the relaxation until the power iterates settle.

    Outer iteration t is one sweep of `bus.relay`: every cell best-responds
    to the previous iterate's interference, then the multipliers are
    updated from the per-user rate gaps at the new powers.  The relay stops
    like the decomposed method: stacked power movement below `psi`, or
    `max_iters` outer iterations.  A sweep whose power iterate or rate sums
    are not all finite raises `LrDivergenceError`, carrying its iteration
    and the rows before it.  At two users per cell with positive weights
    the sweep runs on Python floats (see the module docstring): the
    multipliers are pairs, water-filling takes the scalar kernel on plans of
    at most `SCALAR_ENTRIES` entries, and the (M, 2) multiplier array is
    built only for the result or for a sweep `_pair_pass` hands back.
    """
    links = assigned_links(scenario, assignment, require_complete=True)
    validate_power(scenario, initial_power)
    report_sizes = [scenario.num_subcarriers + k for k in scenario.users_per_cell]
    real = scenario.real_users
    counts = np.array(scenario.users_per_cell, dtype=float)[:, None]
    weights = np.array(scenario.weights, dtype=float)
    own_gain = links.own_gains
    lam = np.where(real, weights[:, None] / counts, 0.0)
    water = WaterFillingPlan(own_gain.shape, scenario.p_max)
    simplex = SimplexPlan(weights, real, lam.shape)
    # Two users per cell with positive weights: the multipliers stay Python
    # pairs, and small plans read their weights from them by holder.
    pairs = lam.shape[1] == 2 and not simplex.masked
    scalar = pairs and water.small
    if pairs:
        lam = lam.tolist()
    holders = links.user.tolist()
    weight_list = weights.tolist()
    # The relay hands each sweep the iterate the previous one returned, so
    # the denominators at it are the previous sweep's.
    _, denom, _ = links.evaluate(initial_power)

    def sweep(iteration, power):
        nonlocal lam, denom
        if scalar:
            weight = [[pair[u] for u in users] for pair, users in zip(lam, holders)]
        else:
            weight = np.asarray(lam).take(links.slot)
        power_now = water(own_gain / denom, weight)
        if not np.isfinite(power_now).all():
            raise LrDivergenceError("power iterate is not finite")
        _, denom, sums = links.evaluate(power_now)        # padded slots 0
        if pairs:
            stage = _pair_pass(sums.tolist(), lam, weight_list, iteration - 1)
            if stage is not None:
                lam, worsts = stage
                return power_now, WsmrResult(float(np.dot(weights, worsts)), tuple(worsts))
        if not np.isfinite(sums).all():
            raise LrDivergenceError("rate sums are not finite")
        mean = np.add.reduce(sums, axis=1, keepdims=True)
        mean /= counts
        lam = simplex.step(np.asarray(lam), mean - sums, iteration - 1)
        if pairs:
            lam = lam.tolist()
        return power_now, WsmrResult.from_sums(sums, real, weights)

    power, trace, converged = relay(
        sweep, np.asarray(initial_power, dtype=float), report_sizes,
        psi=psi, max_iters=max_iters, bus=bus)
    lam = np.asarray(lam)
    return LrResult(power=power,
                    lam=[lam[m, :k] for m, k in enumerate(scenario.users_per_cell)],
                    trace=trace, converged=converged, iterations=len(trace))
