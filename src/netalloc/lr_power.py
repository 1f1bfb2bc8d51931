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

One sweep is one array pass over all cells: one `link_terms` call on the
phase's `AssignedLinks` view gives every cell's coefficients, then the
row-wise `best_response`, `wsmr` and `update_multipliers` (multipliers padded
to the largest cell) do the rest.  Rows repeat the per-cell arithmetic bit
for bit, except a cell's average rate once rows have 8 or more user slots:
numpy's pairwise summation blocks a padded row sum differently.

Both methods run in the same loop, `bus.relay`: same Jacobi information
pattern, exchange and stop test as the decomposed method, so iteration
counts and message totals are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bus import MessageBus, PhaseError, TraceRow, relay
from .rate_model import assigned_links, link_terms, validate_power, wsmr
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


def project_simplex(v: np.ndarray, total, real: np.ndarray | bool) -> np.ndarray:
    """Euclidean projection of each row's real slots onto {x >= 0, sum(x) = total}.

    Works row-wise on the last axis of a 1-D or 2-D `v`; `total` holds one
    nonnegative total per row and `real` (broadcast to `v`, so `True` marks
    every slot) the slots that exist.  Padded slots are masked, never
    computed with, and come out zero, as does every row of total zero.
    Each row sorts its real values in decreasing order ahead of its padded
    slots and keeps the longest prefix that stays above its shift (Duchi et
    al., ICML 2008).
    """
    v = np.asarray(v, dtype=float)
    total = np.asarray(total, dtype=float).reshape(-1, 1)
    if total.min() < 0.0:
        raise ValueError(f"simplex total must be nonnegative, got {total.ravel()!r}")
    real = (np.zeros(v.shape, dtype=bool) | real).reshape(-1, v.shape[-1])
    vals = np.where(real, v.reshape(real.shape), 0.0)
    rows = np.arange(len(vals))[:, None]
    ranks = np.arange(1, vals.shape[-1] + 1)
    order = np.lexsort((-vals, ~real), axis=-1)
    dropped = vals[rows, order]
    cumulative = np.add.accumulate(dropped, axis=-1) - total
    valid = real[rows, order] & (dropped - cumulative / ranks > 0.0)
    rho = np.maximum.reduce(valid * ranks, axis=-1, keepdims=True, initial=1) - 1
    shift = cumulative[rows, rho] / (rho + 1.0)
    return np.where(real & (total > 0.0), np.maximum(vals - shift, 0.0), 0.0).reshape(v.shape)


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
    step = dual_step_size(t)
    return project_simplex(np.asarray(lam) + step * np.asarray(residuals),
                           weights, real)


def best_response(coeff: np.ndarray, weight: np.ndarray,
                  budget: float) -> np.ndarray:
    """Maximize sum_n weight[n] * ln(1 + coeff[n] * p[n]) over the budget set.

    Works row-wise on the last axis of nonnegative 1-D or 2-D inputs, every
    row with the same budget.  Exact weighted water-filling: p_n = max(0,
    weight[n] / nu - 1 / coeff[n]), with the level nu set so the budget is
    spent.  Subcarriers enter the active set in decreasing order of
    weight[n] * coeff[n] (a stable sort, so ties keep index order), and the
    level of the first k of them is sum(weight) / (budget + sum(1 / coeff));
    the active set is the longest prefix whose last entry still lies above
    its level.  Entries with zero weight or zero coefficient get no power.
    Each row repeats the arithmetic of its own 1-D call bit for bit.
    """
    coeff = np.asarray(coeff, dtype=float)
    weight = np.asarray(weight, dtype=float)
    gain = weight * coeff
    if budget <= 0.0 or gain.size == 0:
        return np.zeros_like(gain)
    shape = gain.shape
    coeff, weight, gain = (x.reshape(-1, shape[-1]) for x in (coeff, weight, gain))
    rows = np.arange(len(gain))[:, None]
    ranks = np.arange(1, shape[-1] + 1)
    order = np.argsort(-gain, axis=-1, kind="stable")
    gain, weight = gain[rows, order], weight[rows, order]
    on = gain > 0.0                       # a prefix of every sorted row
    inv = np.divide(1.0, coeff[rows, order], out=np.zeros_like(gain), where=on)
    levels = np.add.accumulate(weight, axis=-1) / (budget + np.add.accumulate(inv, axis=-1))
    # Past the prefix gain <= 0 <= levels, so k is the last entry of the
    # prefix above its level, or 1.
    k = np.maximum.reduce((gain > levels) * ranks, axis=-1, keepdims=True, initial=1)
    filled = np.divide(weight, levels[rows, k - 1], out=np.zeros_like(gain),
                       where=on & (ranks <= k))
    p = np.empty_like(gain)
    p[rows, order] = np.maximum(filled - inv, 0.0)
    total = p.sum(axis=-1, keepdims=True)
    p *= budget / np.maximum(total, budget)   # rounding only; keeps p feasible
    return p.reshape(shape)


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
    counts = np.array(scenario.users_per_cell)
    weights = np.array(scenario.weights, dtype=float)
    cells = np.arange(scenario.num_cells)
    own_gain = links.gains[cells, cells]
    lam = np.where(real, (weights / counts)[:, None], 0.0)

    def sweep(iteration, power):
        nonlocal lam
        _, denom = link_terms(links, power)
        power_now = best_response(own_gain / denom, lam[cells[:, None], links.user],
                                  scenario.p_max)
        if not np.isfinite(power_now).all():
            raise LrDivergenceError("power iterate is not finite")
        reported = wsmr(scenario, power_now, links)
        rates = np.zeros(real.shape)
        rates[real] = np.concatenate(reported.user_rates)
        residuals = (rates.sum(axis=1) / counts)[:, None] - rates
        lam = update_multipliers(lam, residuals, weights, iteration - 1, real)
        return power_now, reported

    power, trace, converged = relay(
        sweep, np.asarray(initial_power, dtype=float), report_sizes,
        psi=psi, max_iters=max_iters, bus=bus)
    return LrResult(power=power, lam=[lam[m, :k] for m, k in enumerate(counts)],
                    trace=trace, converged=converged, iterations=len(trace))
