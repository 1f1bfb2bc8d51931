"""Shared builders for the test suite."""

import numpy as np
import pytest

from netalloc import Scenario, ScenarioParams, generate_scenario


def make_scenario(cells=3, subcarriers=8, users=2, seed=0, **kw):
    params = ScenarioParams(num_cells=cells, num_subcarriers=subcarriers,
                            users_per_cell=users, seed=seed, **kw)
    return generate_scenario(params)


def hand_scenario(gains, users_per_cell, *, p_max=1.0, noise_power=1e-6,
                  snr_gap=1.0, weights=1.0, seed=0):
    """Scenario with explicitly chosen gains (positions are placeholders)."""
    gains = np.asarray(gains, dtype=float)
    m_cells, _, k_max, n_sub = gains.shape
    params = ScenarioParams(
        num_cells=m_cells, num_subcarriers=n_sub, users_per_cell=users_per_cell,
        p_max=p_max, noise_power=noise_power, snr_gap=snr_gap, weights=weights,
        seed=seed)
    return Scenario(
        params=params,
        bs_positions=np.zeros((m_cells, 2)),
        user_positions=tuple(np.zeros((k, 2)) for k in params.users_per_cell),
        gains=gains,
        noise=np.full((m_cells, k_max, n_sub), noise_power))


def scenarios_equal(a, b):
    """Bit-exact equality of parameters, geometry and channel data."""
    return (a.params == b.params and np.array_equal(a.bs_positions, b.bs_positions)
            and len(a.user_positions) == len(b.user_positions)
            and all(map(np.array_equal, a.user_positions, b.user_positions))
            and np.array_equal(a.gains, b.gains) and np.array_equal(a.noise, b.noise))


def sinr(scenario, power, u, m, n):
    """SINR of user (m, u) on subcarrier n, one link at a time: the noise plus
    every other station's signal summed here, not by `link_terms`."""
    power = np.asarray(power, dtype=float)
    signal = power[m, n] * scenario.gains[m, m, u, n]
    others = sum(power[l, n] * scenario.gains[l, m, u, n]
                 for l in range(scenario.num_cells) if l != m)
    return signal / ((scenario.noise[m, u, n] + others) * scenario.snr_gap)


def rate_subcarrier(scenario, power, u, m, n):
    """Rate of user (m, u) on subcarrier n, in nats per channel use."""
    return float(np.log1p(sinr(scenario, power, u, m, n)))


def fd_rate_gradient(scenario, power, u, m, n):
    """Central-difference gradient of the (u, m, n) rate in every station's
    power on subcarrier n; the independent verification route."""
    grad = np.empty(scenario.num_cells)
    for l in range(scenario.num_cells):
        h = 1e-6 * max(power[l, n], 1.0)
        up = power.copy()
        up[l, n] += h
        down = power.copy()
        down[l, n] -= h
        grad[l] = (rate_subcarrier(scenario, up, u, m, n)
                   - rate_subcarrier(scenario, down, u, m, n)) / (2.0 * h)
    return grad


def per_cell_user_rates(scenario, power, assignment):
    """`cell_user_rates` cell by cell from `link_rates`: each cell's K_m rows
    summed over the subcarriers, one array per cell."""
    from netalloc import link_rates

    rates = link_rates(scenario, power)
    a = np.asarray(assignment)
    return tuple((rates[m, :k_m] * a[m, :k_m]).sum(axis=1)
                 for m, k_m in enumerate(scenario.users_per_cell))


def per_cell_wsmr(scenario, power, assignment):
    """`wsmr` cell by cell: the minimum of each cell's `per_cell_user_rates`;
    the reference the padded all-cell route must equal bit for bit."""
    from netalloc import WsmrResult

    mins = tuple(float(r.min()) for r in per_cell_user_rates(scenario, power, assignment))
    return WsmrResult(value=float(np.dot(scenario.weights, mins)), min_rates=mins)


@pytest.fixture
def small_scenario():
    return make_scenario(cells=3, subcarriers=4, users=2, seed=11)
