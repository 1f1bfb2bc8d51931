"""Link rates and the network objective.

The downlink rate of user u in cell m on subcarrier n is

    ln(1 + P[m,n] * g[m,m,u,n] / ((noise + interference) * snr_gap))

in nats per channel use, where the interference is the power every other
station spends on the same subcarrier times its gain into this user, and the
SNR gap scales the whole noise-plus-interference term.  A user's rate is the
sum over the subcarriers its own cell assigned to it; the network objective is
the weighted sum over cells of each cell's worst user rate.

Cells couple only through that noise-plus-interference term, so one kernel,
`link_terms`, computes it for every link at once: it returns the received
signal and the gap-scaled denominator over (cell, user, subcarrier), padded
user rows included.  Every rate consumer (`link_rates`, `wsmr`, the
subcarrier rate tables and both power methods) reads those two arrays and
slices or masks away the padded rows.  `sinr`, `rate_subcarrier` and
`rate_gradient` compute single links on their own, as independent checks of
the kernel.

Everything here takes the full (num_cells, num_subcarriers) power matrix P and
the (num_cells, max_users, num_subcarriers) 0/1 assignment tensor A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import Scenario

BUDGET_TOL = 1e-9


class PowerValidationError(ValueError):
    """Power matrix has wrong shape or violates budgets/nonnegativity."""


class AssignmentValidationError(ValueError):
    """Assignment tensor has wrong shape or breaks exclusivity."""


def _check_user(scenario: Scenario, m: int, u: int) -> None:
    if not 0 <= m < scenario.num_cells:
        raise IndexError(f"cell index {m} out of range [0, {scenario.num_cells})")
    if not 0 <= u < scenario.users_per_cell[m]:
        raise IndexError(
            f"user index {u} out of range [0, {scenario.users_per_cell[m]}) for cell {m}")


def _check_subcarrier(scenario: Scenario, n: int) -> None:
    if not 0 <= n < scenario.num_subcarriers:
        raise IndexError(
            f"subcarrier index {n} out of range [0, {scenario.num_subcarriers})")


def validate_power(scenario: Scenario, power: np.ndarray, *,
                   budget_tol: float = BUDGET_TOL) -> None:
    """Check shape, finiteness, nonnegativity and per-station budgets."""
    power = np.asarray(power)
    want = (scenario.num_cells, scenario.num_subcarriers)
    if power.shape != want:
        raise PowerValidationError(f"power: expected shape {want}, got {power.shape}")
    if not np.isfinite(power).all():
        m, n = np.argwhere(~np.isfinite(power))[0]
        raise PowerValidationError(f"power[{m},{n}] is not finite: {power[m, n]!r}")
    if (power < -budget_tol).any():
        m, n = np.argwhere(power < -budget_tol)[0]
        raise PowerValidationError(f"power[{m},{n}] is negative: {power[m, n]!r}")
    sums = power.sum(axis=1)
    over = sums > scenario.p_max + budget_tol
    if over.any():
        m = int(np.argmax(over))
        raise PowerValidationError(
            f"power rows must sum to at most p_max={scenario.p_max}; "
            f"row {m} sums to {sums[m]!r}")


def validate_assignment(scenario: Scenario, assignment: np.ndarray, *,
                        require_complete: bool = False) -> None:
    """Check shape, 0/1 entries, exclusivity and padded-user emptiness.

    With `require_complete`, every subcarrier of every cell must be assigned
    to exactly one user instead of at most one.
    """
    a = np.asarray(assignment)
    want = (scenario.num_cells, scenario.max_users, scenario.num_subcarriers)
    if a.shape != want:
        raise AssignmentValidationError(f"assignment: expected shape {want}, got {a.shape}")
    if not np.isin(a, (0, 1)).all():
        m, u, n = np.argwhere(~np.isin(a, (0, 1)))[0]
        raise AssignmentValidationError(
            f"assignment[{m},{u},{n}] must be 0 or 1, got {a[m, u, n]!r}")
    for m, k_m in enumerate(scenario.users_per_cell):
        if a[m, k_m:, :].any():
            raise AssignmentValidationError(
                f"assignment cell {m} uses padded user rows >= {k_m}")
        per_sub = a[m, :k_m, :].sum(axis=0)
        if (per_sub > 1).any():
            n = int(np.argmax(per_sub > 1))
            raise AssignmentValidationError(
                f"cell {m} subcarrier {n} assigned to {per_sub[n]} users; "
                f"at most one allowed")
        if require_complete and (per_sub != 1).any():
            n = int(np.argmax(per_sub != 1))
            raise AssignmentValidationError(
                f"cell {m} subcarrier {n} is unassigned but a complete "
                f"assignment was required")


def sinr(scenario: Scenario, power: np.ndarray, u: int, m: int, n: int) -> float:
    """Signal-to-interference-plus-noise ratio of user (m, u) on subcarrier n."""
    _check_user(scenario, m, u)
    _check_subcarrier(scenario, n)
    power = np.asarray(power, dtype=float)
    signal = power[m, n] * scenario.gains[m, m, u, n]
    others = sum(power[l, n] * scenario.gains[l, m, u, n]
                 for l in range(scenario.num_cells) if l != m)
    return signal / ((scenario.noise[m, u, n] + others) * scenario.snr_gap)


def rate_subcarrier(scenario: Scenario, power: np.ndarray, u: int, m: int, n: int) -> float:
    """Rate of user (m, u) on subcarrier n, in nats per channel use."""
    return float(np.log1p(sinr(scenario, power, u, m, n)))


def link_terms(scenario: Scenario, power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(signal, denom) of every link, each over (cell, max_users, subcarrier).

    signal[m, u, n] = gains[m, m, u, n] * P[m, n] is what user (m, u) receives
    from its own station; denom[m, u, n] is its noise plus the power of every
    other station on subcarrier n, times the SNR gap.  Padded user rows are
    computed over filler and must be sliced or masked away by the caller.
    """
    power = np.asarray(power, dtype=float)
    cells = np.arange(scenario.num_cells)
    signal = scenario.gains[cells, cells] * power[:, None, :]
    total = (scenario.gains * power[:, None, None, :]).sum(axis=0)
    denom = (scenario.noise + (total - signal)) * scenario.snr_gap
    return signal, denom


def link_rates(scenario: Scenario, power: np.ndarray) -> np.ndarray:
    """Rate of every user on every subcarrier, over (cell, max_users, subcarrier)."""
    signal, denom = link_terms(scenario, power)
    return np.log1p(signal / denom)


def _user_rates(scenario: Scenario, rates: np.ndarray,
                assignment: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per cell, each real user's rate summed over its assigned subcarriers."""
    a = np.asarray(assignment)
    return tuple((rates[m, :k_m] * a[m, :k_m]).sum(axis=1)
                 for m, k_m in enumerate(scenario.users_per_cell))


def cell_user_rates(scenario: Scenario, power: np.ndarray, assignment: np.ndarray,
                    m: int) -> np.ndarray:
    """Rates of all users of cell m under the given assignment (length K_m)."""
    return _user_rates(scenario, link_rates(scenario, power), assignment)[m]


@dataclass(frozen=True)
class WsmrResult:
    """Weighted sum of per-cell minimum rates plus the supporting detail.

    `user_rates[m]` holds the rates of cell m's K_m users.
    """

    value: float
    min_rates: tuple[float, ...]
    argmin_users: tuple[int, ...]
    user_rates: tuple[np.ndarray, ...]


def wsmr(scenario: Scenario, power: np.ndarray, assignment: np.ndarray) -> WsmrResult:
    """Network objective: sum over cells of weight * worst own-user rate.

    Ties in the per-cell minimum resolve to the lowest user index.
    """
    validate_assignment(scenario, assignment)
    user_rates = _user_rates(scenario, link_rates(scenario, power), assignment)
    argmins = tuple(int(np.argmin(r)) for r in user_rates)
    mins = tuple(float(r[i]) for r, i in zip(user_rates, argmins))
    value = float(np.dot(scenario.weights, mins))
    return WsmrResult(value=value, min_rates=mins, argmin_users=argmins,
                      user_rates=user_rates)


def rate_gradient(scenario: Scenario, power: np.ndarray, u: int, m: int, n: int) -> np.ndarray:
    """d rate_{u,m,n} / d power[l, n] for every station l (length M).

    The own-cell entry is positive, every other entry nonpositive; powers of
    other subcarriers never enter, so those derivatives are identically zero
    and are not returned.
    """
    _check_user(scenario, m, u)
    _check_subcarrier(scenario, n)
    power = np.asarray(power, dtype=float)
    gap = scenario.snr_gap
    own_gain = scenario.gains[m, m, u, n]
    cross = scenario.gains[:, m, u, n] * power[:, n]
    denom = (scenario.noise[m, u, n] + cross.sum() - cross[m]) * gap
    signal = power[m, n] * own_gain
    grad = np.empty(scenario.num_cells)
    # d/dP_l of ln(1 + s/D) with D linear in P_l: -(g_l*gap) * s / (D*(D+s))
    grad[:] = -(scenario.gains[:, m, u, n] * gap) * signal / (denom * (denom + signal))
    grad[m] = own_gain / (denom + signal)
    return grad
