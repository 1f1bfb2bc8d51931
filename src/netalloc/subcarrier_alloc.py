"""Per-cell subcarrier assignment for a fixed power allocation.

With powers frozen, each cell assigns every one of its subcarriers to exactly
one own user so that the worst user total is as large as possible.  Cells
decouple (a cell's assignment does not change the interference it causes), so
the problem is solved cell by cell on a precomputed (users x subcarriers)
rate table.

Two solvers: an exact depth-first branch and bound and a one-pass greedy.
Both are deterministic, including tie handling, so repeated runs give
byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rate_model import link_rates
from .scenario import Scenario


class RateTableError(ValueError):
    """Rate table is empty, misshapen, or has invalid entries."""


@dataclass(frozen=True)
class AssignmentResult:
    """assignment[n] is the user index owning subcarrier n."""

    assignment: np.ndarray
    min_rate: float


def rate_table(scenario: Scenario, power: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per cell, the (K_m, N) user-on-subcarrier rates; one `link_rates` call."""
    rates = link_rates(scenario, power)
    return tuple(rates[m, :k_m] for m, k_m in enumerate(scenario.users_per_cell))


def _checked(table: np.ndarray) -> np.ndarray:
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
        raise RateTableError(f"rate table must be 2-D and nonempty, got shape {table.shape}")
    if not np.isfinite(table).all():
        raise RateTableError("rate table entries must be finite")
    if (table < 0.0).any():
        raise RateTableError("rate table entries must be nonnegative")
    return table


def _column_order(table: np.ndarray) -> list[int]:
    # Decreasing best-user value; ties by ascending subcarrier index.
    return np.argsort(-table.max(axis=0), kind="stable").tolist()


def solve_greedy(table: np.ndarray) -> AssignmentResult:
    """One pass over subcarriers in decreasing best-rate order.

    Each subcarrier goes to whichever user currently has the lowest total,
    lowest user index on ties.
    """
    table = _checked(table)
    k, n_sub = table.shape
    totals = [0.0] * k
    assign = np.zeros(n_sub, dtype=np.int64)
    for n in _column_order(table):
        u = min(range(k), key=lambda i: (totals[i], i))
        assign[n] = u
        totals[u] += table[u, n]
    return AssignmentResult(assignment=assign, min_rate=min(totals))


def solve_exact(table: np.ndarray) -> AssignmentResult:
    """Max-min optimal assignment by branch and bound.

    Subcarriers are branched in decreasing best-rate order; at each node the
    candidate users are tried in ascending index.  A branch is cut when an
    upper bound on its best reachable minimum fails to exceed the incumbent.
    The greedy solution seeds the incumbent and incumbents move only on
    strict improvement, so the returned assignment is a deterministic
    function of the table.
    """
    table = _checked(table)
    k, n_sub = table.shape
    order = _column_order(table)

    # rest[u][d]: what user u could still gain from subcarriers order[d:].
    # rest_best[d]: same with the per-subcarrier best user, for an average bound.
    rest = [[0.0] * (n_sub + 1) for _ in range(k)]
    rest_best = [0.0] * (n_sub + 1)
    col_max = table.max(axis=0)
    for d in range(n_sub - 1, -1, -1):
        n = order[d]
        for u in range(k):
            rest[u][d] = rest[u][d + 1] + table[u, n]
        rest_best[d] = rest_best[d + 1] + col_max[n]

    greedy = solve_greedy(table)
    best_min = greedy.min_rate
    best_assign = greedy.assignment.copy()
    totals = [0.0] * k
    partial = np.zeros(n_sub, dtype=np.int64)

    def descend(depth: int) -> None:
        nonlocal best_min, best_assign
        if depth == n_sub:
            low = min(totals)
            if low > best_min:
                best_min = low
                best_assign = partial.copy()
            return
        # Bound 1: every user can at best collect all remaining subcarriers.
        bound = min(totals[u] + rest[u][depth] for u in range(k))
        # Bound 2: the minimum never exceeds the average of the totals.
        avg = (sum(totals) + rest_best[depth]) / k
        if avg < bound:
            bound = avg
        if bound <= best_min:
            return
        n = order[depth]
        for u in range(k):
            totals[u] += table[u, n]
            partial[n] = u
            descend(depth + 1)
            totals[u] -= table[u, n]
        partial[n] = 0

    descend(0)
    return AssignmentResult(assignment=best_assign, min_rate=best_min)


def solve_all_cells(scenario: Scenario, power: np.ndarray, *,
                    mode: str = "exact") -> np.ndarray:
    """Assign every cell's subcarriers; returns the full 0/1 tensor."""
    if mode not in ("exact", "greedy"):
        raise ValueError(f"mode must be 'exact' or 'greedy', got {mode!r}")
    solver = solve_exact if mode == "exact" else solve_greedy
    out = np.zeros((scenario.num_cells, scenario.max_users,
                    scenario.num_subcarriers), dtype=np.int8)
    for m, table in enumerate(rate_table(scenario, power)):
        result = solver(table)
        out[m, result.assignment, np.arange(scenario.num_subcarriers)] = 1
    return out
