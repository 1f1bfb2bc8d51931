"""Link rates and the network objective.

The downlink rate of user u in cell m on subcarrier n is

    ln(1 + P[m,n] * g[m,m,u,n] / ((noise + interference) * snr_gap))

in nats per channel use, where the interference is the power every other
station spends on the same subcarrier times its gain into this user, and the
SNR gap scales the whole noise-plus-interference term.  A user's rate is the
sum over the subcarriers its own cell assigned to it; the network objective is
the weighted sum over cells of each cell's worst user rate.

Cells couple only through that noise-plus-interference term, so one kernel,
`link_terms`, computes it for a whole link set: a scenario's (cell, user,
subcarrier) links, padded rows included, for the subcarrier rate tables, or
the (cell, subcarrier) links an assignment holds, gathered once per power
phase into an `AssignedLinks` view on which the power path never reads a
padded row.  `sinr`, `rate_subcarrier` and `rate_gradient` compute single
links on their own, as independent checks of the kernel.

Everything here takes the full (num_cells, num_subcarriers) power matrix P and
the (num_cells, max_users, num_subcarriers) 0/1 assignment A or its view.
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


def validate_power(scenario: Scenario, power: np.ndarray) -> None:
    """Check shape, finiteness, nonnegativity and per-station budgets."""
    power = np.asarray(power)
    want = (scenario.num_cells, scenario.num_subcarriers)
    if power.shape != want:
        raise PowerValidationError(f"power: expected shape {want}, got {power.shape}")
    if not np.isfinite(power).all():
        m, n = np.argwhere(~np.isfinite(power))[0]
        raise PowerValidationError(f"power[{m},{n}] is not finite: {power[m, n]!r}")
    if (power < -BUDGET_TOL).any():
        m, n = np.argwhere(power < -BUDGET_TOL)[0]
        raise PowerValidationError(f"power[{m},{n}] is negative: {power[m, n]!r}")
    sums = power.sum(axis=1)
    over = sums > scenario.p_max + BUDGET_TOL
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
    binary = (a == 0) | (a == 1)
    if not binary.all():
        m, u, n = np.argwhere(~binary)[0]
        raise AssignmentValidationError(
            f"assignment[{m},{u},{n}] must be 0 or 1, got {a[m, u, n]!r}")
    # Per cell, in the order each cell is checked: padded rows, then
    # exclusivity, then completeness; the first cell failing any check names
    # the error.
    padded = ~scenario.real_users
    uses_padded = (a.any(axis=2) & padded).any(axis=1)
    # Summed over padded rows too: a cell using them fails on them first.
    per_sub = a.sum(axis=1)
    shared = (per_sub > 1).any(axis=1)
    failing = uses_padded | shared
    if require_complete:
        failing |= (per_sub != 1).any(axis=1)
    if failing.any():
        m = int(np.argmax(failing))
        k_m = scenario.users_per_cell[m]
        if uses_padded[m]:
            raise AssignmentValidationError(
                f"assignment cell {m} uses padded user rows >= {k_m}")
        if shared[m]:
            n = int(np.argmax(per_sub[m] > 1))
            raise AssignmentValidationError(
                f"cell {m} subcarrier {n} assigned to {per_sub[m, n]} users; "
                f"at most one allowed")
        n = int(np.argmax(per_sub[m] != 1))
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


@dataclass(frozen=True)
class AssignedLinks:
    """The links an assignment (mask `held`) holds, user[m, n] on subcarrier n of
    cell m: gains[l, m, n] = gains[l, m, user[m, n], n] (0 if none), noise[m, n],
    and the own-cell gains own_gains[m, n] = gains[m, m, n]."""

    held: np.ndarray
    user: np.ndarray
    gains: np.ndarray
    noise: np.ndarray
    snr_gap: float
    own_gains: np.ndarray

    def per_user(self, values: np.ndarray) -> np.ndarray:
        """(cell, subcarrier) link values put at their users' slots, else 0."""
        return np.where(self.held, values[:, None, :], 0.0)


def assigned_links(scenario: Scenario, assignment, *,
                   require_complete: bool = False) -> AssignedLinks:
    """The validated `AssignedLinks` of `assignment`; a view is checked only as complete."""
    if isinstance(assignment, AssignedLinks):
        if require_complete and not assignment.held.any(axis=1).all():
            validate_assignment(scenario, assignment.held, require_complete=True)
        return assignment
    validate_assignment(scenario, assignment, require_complete=require_complete)
    held = np.asarray(assignment) == 1
    user = held.argmax(axis=1)
    at = np.arange(scenario.num_cells)[:, None], user, np.arange(scenario.num_subcarriers)
    gains = np.where(held.any(axis=1), scenario.gains[(slice(None), *at)], 0.0)
    cells = np.arange(scenario.num_cells)
    return AssignedLinks(held, user, gains, scenario.noise[at], scenario.snr_gap,
                         gains[cells, cells])


def link_terms(scenario: Scenario | AssignedLinks,
               power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(signal, denom) of every link of a scenario or an `AssignedLinks` view:
    signal = gains[m, m, ..., n] * P[m, n] from the own station, denom the
    noise plus every other station's signal, times the SNR gap."""
    power = np.asarray(power, dtype=float)
    gains = scenario.gains
    if isinstance(scenario, AssignedLinks):
        own_gains = scenario.own_gains
    else:
        cells = np.arange(len(gains))
        own_gains = gains[cells, cells]
    own_power = power.reshape((len(power),) + (1,) * (gains.ndim - 3) + power.shape[1:])
    signal = own_gains * own_power
    total = (gains * own_power[:, None]).sum(axis=0)
    denom = (scenario.noise + (total - signal)) * scenario.snr_gap
    return signal, denom


def link_rates(scenario: Scenario | AssignedLinks, power: np.ndarray) -> np.ndarray:
    """Rate of every link of a scenario or an `AssignedLinks` view."""
    signal, denom = link_terms(scenario, power)
    return np.log1p(signal / denom)


def cell_user_rates(scenario: Scenario, power: np.ndarray,
                    assignment) -> tuple[np.ndarray, ...]:
    """Per cell, the K_m users' rates summed over their assigned subcarriers."""
    links = assigned_links(scenario, assignment)
    sums = links.per_user(link_rates(links, power)).sum(axis=2)
    return tuple(sums[m, :k_m] for m, k_m in enumerate(scenario.users_per_cell))


@dataclass(frozen=True)
class WsmrResult:
    """Weighted sum of per-cell minimum rates plus the supporting detail.

    `user_rates[m]` holds the rates of cell m's K_m users.
    """

    value: float
    min_rates: tuple[float, ...]
    argmin_users: tuple[int, ...]
    user_rates: tuple[np.ndarray, ...]


def wsmr(scenario: Scenario, power: np.ndarray, assignment) -> WsmrResult:
    """Network objective: sum over cells of weight * worst own-user rate.

    Ties in the per-cell minimum resolve to the lowest user index: the
    minimum is taken with padded user slots at +inf, which sort after every
    real user.
    """
    links = assigned_links(scenario, assignment)
    sums = links.per_user(link_rates(links, power)).sum(axis=2)
    padded = np.where(scenario.real_users, sums, np.inf)
    mins = np.minimum.reduce(padded, axis=1)
    return WsmrResult(value=float(np.dot(scenario.weights, mins)),
                      min_rates=tuple(mins.tolist()),
                      argmin_users=tuple(padded.argmin(axis=1).tolist()),
                      user_rates=tuple(sums[m, :k_m] for m, k_m
                                       in enumerate(scenario.users_per_cell)))


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
    # d/dP_l of ln(1 + s/D) with D linear in P_l: -(g_l*gap) * s / (D*(D+s))
    grad = -(scenario.gains[:, m, u, n] * gap) * signal / (denom * (denom + signal))
    grad[m] = own_gain / (denom + signal)
    return grad
