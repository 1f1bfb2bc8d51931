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
denominators the previous sweep's rate evaluation left, one `link_terms` call
at the new powers (this sweep's rates and the next sweep's denominators),
the multiplier step, and a `bus.SweepReport` of what the relay reads: the
objective and the per-cell worst user rates, from the padded per-user rate
sums and the phase's weight array, with the same arithmetic as
`rate_model.wsmr`.  The plans work in place on their own
intermediates, and a `SimplexPlan` whose slots are all real with positive
totals skips its masks.  The public `best_response`, `project_simplex` and
`update_multipliers` build a plan and call it.  Rows repeat the per-cell
arithmetic bit for bit, except a cell's average rate once rows have 8 or
more user slots: numpy's pairwise summation blocks a padded row sum
differently.

Both methods run in the same loop, `bus.relay`: same Jacobi information
pattern, exchange and stop test as the decomposed method, so iteration
counts and message totals are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bus import MessageBus, PhaseError, SweepReport, TraceRow, relay
# `wsmr` is not called here (a sweep reports from the rate sums it already
# has); the name stays bound because perfbench's tracer rebinds `wsmr` in
# every power module and its tests expect it here.
from .rate_model import (assigned_links, link_terms, validate_power,  # noqa: F401
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

    `total` holds one nonnegative total per row (checked here) and `real`
    (broadcast to `shape`, so `True` marks every slot) the slots that exist.
    Padded slots are masked, never computed with, and come out zero, as does
    every row of total zero; when every slot is real and every total
    positive, nothing needs masking and `masked` is False.  Each row sorts
    its real values in decreasing order ahead of its padded slots and keeps
    the longest prefix that stays above its shift (Duchi et al., ICML 2008).
    """

    def __init__(self, total, real: np.ndarray | bool, shape: tuple[int, ...]):
        total = np.asarray(total, dtype=float).reshape(-1, 1)
        if total.min() < 0.0:
            raise ValueError(f"simplex total must be nonnegative, got {total.ravel()!r}")
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
        """Projected subgradient step of size `dual_step_size(t)`."""
        moved = dual_step_size(t) * residuals
        moved += lam
        return self(moved)


def project_simplex(v: np.ndarray, total, real: np.ndarray | bool) -> np.ndarray:
    """Euclidean projection of each row's real slots onto {x >= 0, sum(x) = total}.

    Works row-wise on the last axis of a 1-D or 2-D `v`; `total` holds one
    nonnegative total per row and `real` (broadcast to `v`, so `True` marks
    every slot) the slots that exist.  See `SimplexPlan`.
    """
    v = np.asarray(v, dtype=float)
    return SimplexPlan(total, real, v.shape)(v)


def dual_step_size(t: int) -> float:
    """Diminishing multiplier step ALPHA0 / (1 + BETA * t) for outer iteration t."""
    return ALPHA0 / (1.0 + BETA * t)


def update_multipliers(lam: np.ndarray, residuals: np.ndarray, weights, t: int,
                       real: np.ndarray) -> np.ndarray:
    """Projected subgradient step on every cell's multiplier row at once.

    `lam` and `residuals` hold one row per cell, padded to the largest cell,
    with `real` marking the user slots that exist.  `residuals[m, u]` should
    be positive when user u lags its cell (here: cell average rate minus the
    user's rate).  Every row steps by `dual_step_size(t)` times its residual
    and is projected back onto the simplex summing to the cell weight.
    """
    lam = np.asarray(lam, dtype=float)
    return SimplexPlan(weights, real, lam.shape).step(lam, np.asarray(residuals), t)


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
    coefficient get no power, and nothing gets power at a budget of zero.
    """

    def __init__(self, shape: tuple[int, ...], budget: float):
        width = shape[-1]
        self.shape, self.budget = shape, budget
        self.rows = (int(np.prod(shape[:-1])), width)
        self.dry = budget <= 0.0 or 0 in self.rows
        self.ranks = np.arange(1, width + 1)
        self.offsets = np.arange(self.rows[0])[:, None] * width
        self.before = self.offsets - 1     # before + rank: flat index of that rank

    def __call__(self, coeff: np.ndarray, weight: np.ndarray) -> np.ndarray:
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
    `max_iters` outer iterations.
    """
    links = assigned_links(scenario, assignment, require_complete=True)
    validate_power(scenario, initial_power)
    report_sizes = [scenario.num_subcarriers + k for k in scenario.users_per_cell]
    real = scenario.real_users
    counts = np.array(scenario.users_per_cell, dtype=float)[:, None]
    weights = np.array(scenario.weights, dtype=float)
    cells = np.arange(scenario.num_cells)
    own_gain = links.own_gains
    held_slot = cells[:, None] * scenario.max_users + links.user   # flat index into lam
    lam = np.where(real, weights[:, None] / counts, 0.0)
    water = WaterFillingPlan(own_gain.shape, scenario.p_max)
    simplex = SimplexPlan(weights, real, lam.shape)
    # The relay hands each sweep the iterate the previous one returned, so
    # the denominators at it are the previous sweep's.
    _, denom = link_terms(links, initial_power)

    def sweep(iteration, power):
        nonlocal lam, denom
        power_now = water(own_gain / denom, lam.take(held_slot))
        if not np.isfinite(power_now).all():
            raise LrDivergenceError("power iterate is not finite")
        signal, denom = link_terms(links, power_now)
        sums = links.per_user(np.log1p(signal / denom)).sum(axis=2)   # padded slots 0
        mean = np.add.reduce(sums, axis=1, keepdims=True)
        mean /= counts
        lam = simplex.step(lam, mean - sums, iteration - 1)
        return power_now, SweepReport.from_sums(sums, real, weights)

    power, trace, converged = relay(
        sweep, np.asarray(initial_power, dtype=float), report_sizes,
        psi=psi, max_iters=max_iters, bus=bus)
    return LrResult(power=power,
                    lam=[lam[m, :k] for m, k in enumerate(scenario.users_per_cell)],
                    trace=trace, converged=converged, iterations=len(trace))
