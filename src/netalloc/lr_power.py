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
weighted water-filling (Palomar & Fonollosa, IEEE TSP 2005).

Both methods run in the same loop, `bus.relay`: same Jacobi information
pattern, exchange and stop test as the decomposed method, so iteration
counts and message totals are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bus import MessageBus, PhaseError, TraceRow, relay
from .rate_model import link_terms, validate_assignment, validate_power, wsmr
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


def project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = total}."""
    if total < 0.0:
        raise ValueError(f"simplex total must be nonnegative, got {total!r}")
    v = np.asarray(v, dtype=float)
    if total == 0.0:
        return np.zeros_like(v)
    dropped = np.sort(v)[::-1]
    cumulative = np.cumsum(dropped) - total
    ranks = np.arange(1, v.size + 1)
    valid = dropped - cumulative / ranks > 0.0
    rho = int(np.nonzero(valid)[0][-1])
    shift = cumulative[rho] / (rho + 1.0)
    return np.maximum(v - shift, 0.0)


def dual_step_size(t: int) -> float:
    """Diminishing multiplier step ALPHA0 / (1 + BETA * t) for outer iteration t."""
    return ALPHA0 / (1.0 + BETA * t)


def update_multipliers(lam: list[np.ndarray], residuals: list[np.ndarray],
                       weights, t: int) -> list[np.ndarray]:
    """Projected subgradient step on every cell's multiplier block.

    `residuals[m][u]` should be positive when user u lags its cell (here:
    cell average rate minus the user's rate).  Each block steps by
    `dual_step_size(t)` times its residual and is projected back onto the
    simplex summing to the cell weight.
    """
    step = dual_step_size(t)
    return [project_simplex(lam_m + step * res_m, w_m)
            for lam_m, res_m, w_m in zip(lam, residuals, weights)]


def best_response(coeff: np.ndarray, weight: np.ndarray,
                  budget: float) -> np.ndarray:
    """Maximize sum_n weight[n] * ln(1 + coeff[n] * p[n]) over the budget set.

    Exact weighted water-filling: p_n = max(0, weight[n] / nu - 1 / coeff[n]),
    with the level nu set so the budget is spent.  Subcarriers enter the
    active set in decreasing order of weight[n] * coeff[n], and the level of
    the first k of them is sum(weight) / (budget + sum(1 / coeff)); the active
    set is the longest prefix whose last entry still lies above its level.
    Entries with zero weight or zero coefficient get no power.
    """
    coeff = np.asarray(coeff, dtype=float)
    weight = np.asarray(weight, dtype=float)
    gain = weight * coeff
    p = np.zeros_like(gain)
    order = np.argsort(-gain, kind="stable")
    order = order[gain[order] > 0.0]
    if order.size == 0 or budget <= 0.0:
        return p
    inv = 1.0 / coeff[order]
    levels = np.cumsum(weight[order]) / (budget + np.cumsum(inv))
    above = np.nonzero(gain[order] > levels)[0]
    k = int(above[-1]) + 1 if above.size else 1
    active = order[:k]
    p[active] = np.maximum(weight[active] / levels[k - 1] - inv[:k], 0.0)
    total = float(p.sum())
    if total > budget:
        p *= budget / total      # rounding only; keeps the result feasible
    return p


def _cell_best_response(scenario: Scenario, assignment: np.ndarray, m: int,
                        denom: np.ndarray, lam_m: np.ndarray) -> np.ndarray:
    """Best response of cell m to the link denominators `denom` of `link_terms`.

    Each own subcarrier gets the coefficient gain / denom and the multiplier
    of the user it is assigned to; unassigned subcarriers get neither.
    """
    k_m = scenario.users_per_cell[m]
    own = np.asarray(assignment)[m, :k_m] == 1
    coeff = np.where(own, scenario.gains[m, m, :k_m] / denom[m, :k_m], 0.0).sum(axis=0)
    weight = np.where(own, lam_m[:, None], 0.0).sum(axis=0)
    return best_response(coeff, weight, scenario.p_max)


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
    validate_assignment(scenario, assignment, require_complete=True)
    validate_power(scenario, initial_power)
    report_sizes = [scenario.num_subcarriers + k for k in scenario.users_per_cell]
    lam = [np.full(k, w / k) for k, w in
           zip(scenario.users_per_cell, scenario.weights)]

    def sweep(iteration, power):
        nonlocal lam
        _, denom = link_terms(scenario, power)
        power_now = np.vstack([
            _cell_best_response(scenario, assignment, m, denom, lam[m])
            for m in range(scenario.num_cells)])
        if not np.isfinite(power_now).all():
            raise LrDivergenceError("power iterate is not finite")
        reported = wsmr(scenario, power_now, assignment)
        residuals = [r.mean() - r for r in reported.user_rates]
        lam = update_multipliers(lam, residuals, scenario.weights, iteration - 1)
        return power_now, reported

    power, trace, converged = relay(
        sweep, np.asarray(initial_power, dtype=float), report_sizes,
        psi=psi, max_iters=max_iters, bus=bus)
    return LrResult(power=power, lam=lam, trace=trace,
                    converged=converged, iterations=len(trace))
