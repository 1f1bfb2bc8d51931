"""Brute-force reference optimizers for verification.

These deliberately share no logic with the production solvers: the
assignment oracle enumerates every user-per-subcarrier map, the power oracle
scans a dense grid.  Both are exponential or grid-resolution bound, so they
refuse instances beyond hard size limits instead of silently taking forever.
They back the `oracle` CLI subcommand and the test suite; nothing on the
solving path calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import Scenario

MAX_ASSIGNMENT_MAPS = 4096
MAX_GRID_SUBCARRIERS = 2
# Points of the power grid, grid^N: each of its few float arrays is 8 MB.
MAX_GRID_POINTS = 10**6


class OracleSizeError(ValueError):
    """Instance exceeds the oracle's hard size limits."""


def exhaustive_min_rate(table: np.ndarray) -> float:
    """Best achievable minimum user total over all complete assignments.

    Enumerates all K^N maps (vectorized over the whole enumeration), so the
    table must satisfy K^N <= MAX_ASSIGNMENT_MAPS.
    """
    table = np.asarray(table, dtype=float)
    k, n_sub = table.shape
    count = k ** n_sub
    if count > MAX_ASSIGNMENT_MAPS:
        raise OracleSizeError(f"assignment oracle limited to K^N <= "
                              f"{MAX_ASSIGNMENT_MAPS}, got {k}^{n_sub} = {count}")
    totals = np.zeros((count, k))
    codes = np.arange(count)
    for n in range(n_sub):
        digit = (codes // (k ** n)) % k
        totals[codes, digit] += table[digit, n]    # one user per map and subcarrier
    return float(totals.min(axis=1).max())


@dataclass(frozen=True)
class GridOptimum:
    value: float
    power: np.ndarray


def grid_power_optimum(scenario: Scenario, assignment: np.ndarray, *,
                       grid_points: int = 200) -> GridOptimum:
    """Best min user rate of a single isolated cell over a power grid.

    Scans `grid_points` levels per subcarrier over [0, p_max], keeping only
    budget-feasible combinations.  Limited to one cell (no interference), at
    most two subcarriers and grid^N <= MAX_GRID_POINTS.
    """
    if scenario.num_cells != 1:
        raise OracleSizeError(
            f"power grid oracle handles a single cell, got {scenario.num_cells}")
    n_sub = scenario.num_subcarriers
    if n_sub > MAX_GRID_SUBCARRIERS:
        raise OracleSizeError(
            f"power grid oracle limited to N <= {MAX_GRID_SUBCARRIERS}, got {n_sub}")
    if grid_points < 2:
        raise OracleSizeError(f"grid needs at least 2 points, got {grid_points}")
    if grid_points ** n_sub > MAX_GRID_POINTS:
        raise OracleSizeError(f"power grid oracle limited to grid^N <= {MAX_GRID_POINTS}, "
                              f"got {grid_points}^{n_sub}")

    a = np.asarray(assignment)
    levels = np.linspace(0.0, scenario.p_max, grid_points)
    axes = np.meshgrid(*([levels] * n_sub), indexing="ij")
    total = sum(axes)
    feasible = total <= scenario.p_max * (1.0 + 1e-12)

    worst = np.full(axes[0].shape, np.inf)
    for u in range(scenario.users_per_cell[0]):
        coeff = scenario.gains[0, 0, u, :] / (scenario.noise[0, u, :] * scenario.snr_gap)
        rate = np.zeros(axes[0].shape)
        for n in range(n_sub):
            if a[0, u, n]:
                rate = rate + np.log1p(coeff[n] * axes[n])
        worst = np.minimum(worst, rate)
    worst = np.where(feasible, worst, -np.inf)
    flat = int(np.argmax(worst))
    idx = np.unravel_index(flat, worst.shape)
    best_power = np.array([[axes[n][idx] for n in range(n_sub)]])
    return GridOptimum(value=float(worst[idx]), power=best_power)
