"""Problem-instance construction: cell geometry, channel gains, budgets, weights.

A Scenario bundles everything the allocation algorithms treat as fixed: base
station and user positions, linear channel power gains between every base
station and every user on every subcarrier, per-receiver noise power, the SNR
gap of the modulation scheme, per-station transmit power budgets, and per-cell
priority weights.  Instances are immutable and fully determined by their
ScenarioParams, including the RNG seed, so the same parameters always produce
bit-identical scenarios.

Radio quantities are stored in linear units (watts, dimensionless gains).
Decibel values are converted at the edges (CLI flags, user code) with
`db_to_linear`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict
from functools import cached_property

import numpy as np

# Users are never placed closer to their base station than this, which keeps
# the unit-distance pathloss model from producing gains above one.
MIN_USER_DISTANCE = 1.0

_AXIAL_DIRS = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


class ScenarioValidationError(ValueError):
    """Parameter or scenario data violates a structural invariant."""


class ScenarioFormatError(ValueError):
    """A scenario file is unreadable or has inconsistent dimensions."""


def db_to_linear(value_db: float) -> float:
    """Convert a decibel quantity to its linear ratio (0 dB -> 1.0)."""
    return 10.0 ** (float(value_db) / 10.0)


def _as_per_cell(value, num_cells: int, name: str) -> tuple:
    """Broadcast a scalar to a per-cell tuple, or check an explicit one."""
    if np.isscalar(value):
        return tuple([value] * num_cells)
    out = tuple(value)
    if len(out) != num_cells:
        raise ScenarioValidationError(
            f"{name}: expected {num_cells} entries, got {len(out)}")
    return out


def _real(value) -> bool:
    """A finite real number that is not a bool."""
    return not isinstance(value, (bool, np.bool_)) and math.isfinite(value)


@dataclass(frozen=True)
class ScenarioParams:
    """Knobs for `generate_scenario`.

    `users_per_cell` and `weights` accept either a scalar (applied to every
    cell) or a per-cell sequence.  `noise_power`, `p_max` and `snr_gap` are
    linear (watts / ratio), not dB.
    """

    num_cells: int = 3
    num_subcarriers: int = 32
    users_per_cell: int | tuple[int, ...] = 2
    cell_radius: float = 40.0
    p_max: float = 1.0
    noise_power: float = 1e-6
    snr_gap: float = 1.0
    weights: float | tuple[float, ...] = 1.0
    pathloss_exponent: float = 3.5
    seed: int = 0

    def __post_init__(self):
        cells = self.num_cells if type(self.num_cells) is int and self.num_cells > 0 else 1
        for key in ("users_per_cell", "weights"):
            object.__setattr__(self, key, _as_per_cell(getattr(self, key), cells, key))

    def violations(self) -> list[str]:
        """Return one message per invalid field, empty when all is well.

        Counts and the seed must be of type `int` exactly: `True` is an
        `int` too, and would pass for 1.  The real-valued fields and every
        weight must not be bools either: `True > 0.0` holds, and a scenario
        built from it would carry the bool."""
        bad = []
        if type(self.num_cells) is not int or self.num_cells < 1:
            bad.append(f"num_cells: must be a positive integer, got {self.num_cells!r}")
        if type(self.num_subcarriers) is not int or self.num_subcarriers < 1:
            bad.append(f"num_subcarriers: must be a positive integer, got {self.num_subcarriers!r}")
        for m, k in enumerate(self.users_per_cell):
            if type(k) is not int or k < 1:
                bad.append(f"users_per_cell[{m}]: must be a positive integer, got {k!r}")
        if not _real(self.cell_radius) or not (self.cell_radius > MIN_USER_DISTANCE):
            bad.append(f"cell_radius: must be finite and > {MIN_USER_DISTANCE}, got {self.cell_radius!r}")
        if not _real(self.p_max) or not (self.p_max > 0.0):
            bad.append(f"p_max: must be finite and positive, got {self.p_max!r}")
        if not _real(self.noise_power) or not (self.noise_power > 0.0):
            bad.append(f"noise_power: must be finite and positive, got {self.noise_power!r}")
        if not _real(self.snr_gap) or not (self.snr_gap >= 1.0):
            bad.append(f"snr_gap: must be finite and >= 1, got {self.snr_gap!r}")
        w_ok = all(_real(w) and w >= 0.0 for w in self.weights)
        if not w_ok:
            bad.append(f"weights: entries must be finite, nonnegative numbers, got {self.weights!r}")
        elif not any(w > 0.0 for w in self.weights):
            bad.append(f"weights: at least one cell weight must be positive, got {self.weights!r}")
        if not _real(self.pathloss_exponent) or not (self.pathloss_exponent > 0.0):
            bad.append(f"pathloss_exponent: must be finite and positive, got {self.pathloss_exponent!r}")
        if type(self.seed) is not int or self.seed < 0:
            bad.append(f"seed: must be a nonnegative integer, got {self.seed!r}")
        return bad

    def validated(self) -> "ScenarioParams":
        bad = self.violations()
        if bad:
            raise ScenarioValidationError("; ".join(bad))
        return self


@dataclass(frozen=True)
class Scenario:
    """Immutable problem instance.

    gains has axes (transmitter station l, cell m, user u, subcarrier n):
    gains[l, m, u, n] is the channel power gain from station l to user u of
    cell m on subcarrier n.  The user axis is padded to the largest cell;
    entries at u >= users_per_cell[m] are filler (set to 1.0; `real_users`
    marks the slots that exist).  The power path reads only held links
    (`rate_model.AssignedLinks`) and the rate tables slice filler off, so no
    result depends on it.
    noise has axes (cell, user, subcarrier) with the same padding.
    """

    params: ScenarioParams
    bs_positions: np.ndarray
    user_positions: tuple[np.ndarray, ...]
    gains: np.ndarray
    noise: np.ndarray

    @property
    def num_cells(self) -> int:
        return self.params.num_cells

    @property
    def num_subcarriers(self) -> int:
        return self.params.num_subcarriers

    @property
    def users_per_cell(self) -> tuple[int, ...]:
        return self.params.users_per_cell

    @property
    def max_users(self) -> int:
        return max(self.params.users_per_cell)

    @cached_property
    def real_users(self) -> np.ndarray:
        """(cell, max_users) mask of the user slots that exist: built once
        per scenario and read-only, because every caller shares it."""
        mask = np.arange(self.max_users) < np.array(self.users_per_cell)[:, None]
        mask.flags.writeable = False
        return mask

    @property
    def weights(self) -> tuple[float, ...]:
        return self.params.weights

    @property
    def p_max(self) -> float:
        return self.params.p_max

    @property
    def snr_gap(self) -> float:
        return self.params.snr_gap

    def cells_users(self):
        """Iterate over all real (cell, user) index pairs."""
        for m, k_m in enumerate(self.params.users_per_cell):
            for u in range(k_m):
                yield m, u


def hex_layout(num_cells: int, cell_radius: float) -> np.ndarray:
    """Place `num_cells` stations on a triangular lattice, spiralling outward.

    Neighbouring stations sit exactly 2 * cell_radius apart.  The first
    station is at the origin; subsequent ones fill hexagonal rings in a fixed
    order so that any prefix of a larger layout matches the smaller layout.
    """
    spacing = 2.0 * cell_radius
    cells = [(0, 0)]
    ring = 1
    while len(cells) < num_cells:
        q, r = -ring, ring
        for step_q, step_r in _AXIAL_DIRS:
            for _ in range(ring):
                cells.append((q, r))
                q, r = q + step_q, r + step_r
        ring += 1
    xy = np.empty((num_cells, 2))
    for i, (q, r) in enumerate(cells[:num_cells]):
        xy[i, 0] = spacing * (q + r / 2.0)
        xy[i, 1] = spacing * (r * math.sqrt(3.0) / 2.0)
    return xy


def generate_scenario(params: ScenarioParams) -> Scenario:
    """Draw a random scenario from `params`.

    Users are placed uniformly over the annulus between MIN_USER_DISTANCE and
    the cell radius around their own station: two uniforms per user, cell by
    cell.  Then each station-to-user-to-subcarrier link gets an independent
    unit-mean exponential fade on top of distance pathloss, drawn as one
    (K_m, N) block per (station l, cell m) pair, l outermost.
    """
    params.validated()
    m_cells = params.num_cells
    n_sub = params.num_subcarriers
    k_max = max(params.users_per_cell)
    rng = np.random.default_rng(params.seed)

    bs = hex_layout(m_cells, params.cell_radius)
    user_pos = []
    r_min2 = MIN_USER_DISTANCE ** 2
    r_max2 = params.cell_radius ** 2
    for m in range(m_cells):
        pts = np.empty((params.users_per_cell[m], 2))
        for u in range(params.users_per_cell[m]):
            frac, angle_frac = rng.uniform(size=2)
            radius = math.sqrt(r_min2 + frac * (r_max2 - r_min2))
            angle = 2.0 * math.pi * angle_frac
            pts[u, 0] = bs[m, 0] + radius * math.cos(angle)
            pts[u, 1] = bs[m, 1] + radius * math.sin(angle)
        user_pos.append(pts)

    gains = np.ones((m_cells, m_cells, k_max, n_sub))
    for l in range(m_cells):
        for m in range(m_cells):
            k_m = params.users_per_cell[m]
            dist = np.linalg.norm(user_pos[m] - bs[l], axis=1)
            dist = np.maximum(dist, MIN_USER_DISTANCE)
            path = dist ** (-params.pathloss_exponent)
            fade = rng.exponential(1.0, size=(k_m, n_sub))
            gains[l, m, :k_m, :] = path[:, None] * fade

    noise = np.full((m_cells, k_max, n_sub), params.noise_power)
    return Scenario(params=params, bs_positions=bs,
                    user_positions=tuple(user_pos), gains=gains, noise=noise)


def scenario_violations(scenario: Scenario) -> list[str]:
    """List every invariant the scenario breaks; empty means valid."""
    bad = list(scenario.params.violations())
    p = scenario.params
    if bad:
        return bad
    k_max = max(p.users_per_cell)
    if scenario.bs_positions.shape != (p.num_cells, 2):
        bad.append(f"bs_positions: expected shape {(p.num_cells, 2)}, "
                   f"got {scenario.bs_positions.shape}")
    if len(scenario.user_positions) != p.num_cells:
        bad.append(f"user_positions: expected {p.num_cells} cells, "
                   f"got {len(scenario.user_positions)}")
    else:
        for m, pts in enumerate(scenario.user_positions):
            want = (p.users_per_cell[m], 2)
            if pts.shape != want:
                bad.append(f"user_positions[{m}]: expected shape {want}, got {pts.shape}")
    want_g = (p.num_cells, p.num_cells, k_max, p.num_subcarriers)
    if scenario.gains.shape != want_g:
        bad.append(f"gains: expected shape {want_g}, got {scenario.gains.shape}")
        return bad
    want_n = (p.num_cells, k_max, p.num_subcarriers)
    if scenario.noise.shape != want_n:
        bad.append(f"noise: expected shape {want_n}, got {scenario.noise.shape}")
        return bad
    for m, u in scenario.cells_users():
        block = scenario.gains[:, m, u, :]
        if not (np.isfinite(block).all() and (block > 0.0).all()):
            l, n = np.argwhere(~(np.isfinite(block) & (block > 0.0)))[0]
            bad.append(f"gains[l={l}][m={m}][u={u}][n={n}]: must be finite and "
                       f"strictly positive, got {block[l, n]!r}")
        nz = scenario.noise[m, u, :]
        if not (np.isfinite(nz).all() and (nz > 0.0).all()):
            n = int(np.argwhere(~(np.isfinite(nz) & (nz > 0.0)))[0][0])
            bad.append(f"noise[m={m}][u={u}][n={n}]: must be finite and "
                       f"strictly positive, got {nz[n]!r}")
    return bad


def save_scenario(scenario: Scenario, path: str | os.PathLike) -> None:
    """Write the scenario as JSON.

    Arrays are nested lists in index order; the gains entry is ragged
    (gains[l][m][u][n] with u running over the real users of cell m, no
    padding).  Floats round-trip exactly because Python's float repr is
    shortest-exact.
    """
    p = scenario.params
    doc = {
        "format": "netalloc-scenario",
        "version": 1,
        "params": asdict(p),
        "bs_positions": scenario.bs_positions.tolist(),
        "user_positions": [pts.tolist() for pts in scenario.user_positions],
        "gains": [[scenario.gains[l, m, :p.users_per_cell[m], :].tolist()
                   for m in range(p.num_cells)]
                  for l in range(p.num_cells)],
        "noise": [scenario.noise[m, :p.users_per_cell[m], :].tolist()
                  for m in range(p.num_cells)],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _require(doc: dict, key: str, path) -> object:
    if key not in doc:
        raise ScenarioFormatError(f"{path}: missing required field {key!r}")
    return doc[key]


def load_scenario(path: str | os.PathLike) -> Scenario:
    """Read a scenario written by `save_scenario` and re-validate it.

    Dimension mismatches raise ScenarioFormatError; well-formed files whose
    values break invariants (e.g. a negative gain) raise
    ScenarioValidationError.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(
                f"{path}: not valid JSON (line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg})") from exc
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"{path}: top level must be a JSON object")

    raw_params = _require(doc, "params", path)
    try:
        params = ScenarioParams(**dict(raw_params))
    except TypeError as exc:
        raise ScenarioFormatError(f"{path}: bad params block: {exc}") from exc
    bad = params.violations()
    if bad:
        raise ScenarioValidationError(f"{path}: " + "; ".join(bad))

    m_cells = params.num_cells
    n_sub = params.num_subcarriers
    k_max = max(params.users_per_cell)

    def shaped(value, want_shape, ctx):
        arr = np.asarray(value, dtype=float)
        if arr.shape != want_shape:
            raise ScenarioFormatError(
                f"{path}: {ctx}: expected shape {want_shape}, got {arr.shape}")
        return arr

    bs = shaped(_require(doc, "bs_positions", path), (m_cells, 2), "bs_positions")
    raw_users = _require(doc, "user_positions", path)
    if len(raw_users) != m_cells:
        raise ScenarioFormatError(
            f"{path}: user_positions: expected {m_cells} cells, got {len(raw_users)}")
    user_pos = tuple(
        shaped(raw_users[m], (params.users_per_cell[m], 2),
               f"user_positions[{m}]")
        for m in range(m_cells))

    raw_gains = _require(doc, "gains", path)
    if len(raw_gains) != m_cells:
        raise ScenarioFormatError(
            f"{path}: gains: expected {m_cells} transmitter blocks, got {len(raw_gains)}")
    gains = np.ones((m_cells, m_cells, k_max, n_sub))
    for l in range(m_cells):
        if len(raw_gains[l]) != m_cells:
            raise ScenarioFormatError(
                f"{path}: gains[l={l}]: expected {m_cells} cell blocks, "
                f"got {len(raw_gains[l])}")
        for m in range(m_cells):
            k_m = params.users_per_cell[m]
            block = shaped(raw_gains[l][m], (k_m, n_sub),
                           f"gains[l={l}][m={m}]")
            gains[l, m, :k_m, :] = block

    raw_noise = _require(doc, "noise", path)
    if len(raw_noise) != m_cells:
        raise ScenarioFormatError(
            f"{path}: noise: expected {m_cells} cells, got {len(raw_noise)}")
    noise = np.full((m_cells, k_max, n_sub), params.noise_power)
    for m in range(m_cells):
        noise[m, :params.users_per_cell[m], :] = shaped(
            raw_noise[m], (params.users_per_cell[m], n_sub), f"noise[m={m}]")

    scenario = Scenario(params=params, bs_positions=bs, user_positions=user_pos,
                        gains=gains, noise=noise)
    bad = scenario_violations(scenario)
    if bad:
        raise ScenarioValidationError(f"{path}: " + "; ".join(bad))
    return scenario
