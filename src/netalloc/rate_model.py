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
padded row.  `AssignedLinks.evaluate` is the one place that turns a power
into per-user rates: the held links' signal and denominator and every
user's rate sum, padded to (M, Kmax).  `cell_user_rates` returns those sums,
and `WsmrResult.from_sums` reduces them to the objective; `wsmr` and both
power methods' sweeps report through it.  `rate_gradient` differentiates
one link on its own, as an independent check of the kernel; the scalar
single-link references live with the tests.

Everything here takes the full (num_cells, num_subcarriers) power matrix P and
the (num_cells, max_users, num_subcarriers) 0/1 assignment A or its view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


@dataclass(frozen=True)
class AssignedLinks:
    """The links an assignment (mask `held`) holds, user[m, n] on subcarrier n of
    cell m: gains[l, m, n] = gains[l, m, user[m, n], n] (0 if none), noise[m, n],
    the own-cell gains own_gains[m, n] = gains[m, m, n], and slot[m, n], the
    flat index of the holder's entry in a padded (M, Kmax) user array."""

    held: np.ndarray
    user: np.ndarray
    gains: np.ndarray
    noise: np.ndarray
    snr_gap: float
    own_gains: np.ndarray
    slot: np.ndarray

    def per_user(self, values: np.ndarray) -> np.ndarray:
        """(cell, subcarrier) link values put at their users' slots, else 0."""
        return np.where(self.held, values[:, None, :], 0.0)

    def evaluate(self, power: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(signal, denom, sums) at `power`: the held links' `link_terms` and
        the padded (M, Kmax) sums of every user's rates over its held links,
        exactly 0 in the slots of users that hold none."""
        signal, denom = link_terms(self, power)
        rates = signal / denom
        np.log1p(rates, out=rates)
        return signal, denom, np.add.reduce(self.per_user(rates), axis=2)


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
    cells = np.arange(scenario.num_cells)
    at = cells[:, None], user, np.arange(scenario.num_subcarriers)
    gains = np.where(held.any(axis=1), scenario.gains[(slice(None), *at)], 0.0)
    return AssignedLinks(held, user, gains, scenario.noise[at], scenario.snr_gap,
                         gains[cells, cells], cells[:, None] * scenario.max_users + user)


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
    # (noise + (total - signal)) * snr_gap, formed in the buffer of total.
    denom = np.add.reduce(gains * own_power[:, None], axis=0)
    denom -= signal
    denom += scenario.noise
    denom *= scenario.snr_gap
    return signal, denom


def link_rates(scenario: Scenario | AssignedLinks, power: np.ndarray) -> np.ndarray:
    """Rate of every link of a scenario or an `AssignedLinks` view."""
    signal, denom = link_terms(scenario, power)
    rates = signal / denom
    return np.log1p(rates, out=rates)


def cell_user_rates(scenario: Scenario, power: np.ndarray, assignment) -> np.ndarray:
    """Every user's rate summed over its assigned subcarriers, as a padded
    (M, Kmax) array; padded user slots hold exactly 0."""
    return assigned_links(scenario, assignment).evaluate(power)[2]


class WsmrResult(NamedTuple):
    """The network objective `value` and the per-cell worst user rates."""

    value: float
    min_rates: tuple[float, ...]

    @classmethod
    def from_sums(cls, sums: np.ndarray, real: np.ndarray, weights) -> "WsmrResult":
        """The objective of padded (M, Kmax) user-rate `sums`, with `real`
        marking the user slots that exist and one weight per cell: the
        weighted sum of the per-cell minima over real slots."""
        mins = np.minimum.reduce(sums, axis=1, where=real, initial=np.inf)
        return cls(float(np.dot(weights, mins)), tuple(mins.tolist()))


def wsmr(scenario: Scenario, power: np.ndarray, assignment) -> WsmrResult:
    """Network objective: sum over cells of weight * worst own-user rate."""
    sums = cell_user_rates(scenario, power, assignment)
    return WsmrResult.from_sums(sums, scenario.real_users, scenario.weights)


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
