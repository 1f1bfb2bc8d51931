"""Distributed power control by splitting the global optimality conditions.

The power problem (assignment frozen) maximizes the weighted sum of per-cell
auxiliary rates R_m subject to every user of cell m reaching at least R_m and
to per-station budget and nonnegativity limits.  Cell rates couple through
interference, so instead of solving cells independently, each cell keeps its
own constraints and absorbs a first-order model of its effect on every other
cell: foreign rate constraints enter its objective weighted by the other
cells' current multipliers.

Per iteration every cell takes exactly one primal-dual interior-point Newton
step on its subproblem, reading only the previous iteration's snapshot of all
cells (a Jacobi sweep), then reports (powers, auxiliary rate, multipliers) to
the central agent, which rebroadcasts and checks whether the stacked power
iterates moved less than psi in Euclidean norm.

Stacking each cell's first-order conditions reproduces the first-order
conditions of the undecomposed problem.  `stacked_cell_residuals` (per-cell
route) and `global_kkt_residual` (whole-problem route) compute the two sides
through independent code paths so the identity can be checked numerically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .bus import IterationRecord, MessageBus
from .rate_model import (cell_user_rates, link_terms, rate_gradient,
                         validate_assignment, validate_power, wsmr)
from .scenario import Scenario

FRACTION_TO_BOUNDARY = 0.995
BARRIER_DECAY = 0.7
BARRIER_FLOOR = 1e-10
BARRIER_INIT = 0.01
AUX_RATE_INIT_FACTOR = 0.9
SLACK_FLOOR = 1e-6
REGULARIZATION = 1e-8


class OcdStepError(RuntimeError):
    """A cell's Newton system stayed singular after regularization."""

    def __init__(self, cell: int, detail: str, iteration: int | None = None,
                 trace: list | None = None):
        self.cell = cell
        self.iteration = iteration
        self.detail = detail
        self.trace = trace or []
        super().__init__(str(self))

    def __str__(self) -> str:
        where = f"iteration {self.iteration}, " if self.iteration is not None else ""
        return f"Newton step failed ({where}cell {self.cell}): {self.detail}"


@dataclass(frozen=True)
class CellState:
    """One cell's primal-dual iterate.

    `mu` and `slack_g` cover the local constraints in a fixed order: entry 0
    is the power budget, entries 1..N the per-subcarrier nonnegativity
    bounds.  `lam` and `slack_h` cover the own-user minimum-rate constraints.
    """

    power: np.ndarray
    aux_rate: float
    lam: np.ndarray
    mu: np.ndarray
    slack_h: np.ndarray
    slack_g: np.ndarray
    barrier: float


@dataclass(frozen=True)
class NewtonStep:
    """Raw Newton direction plus the damped updated state."""

    d_power: np.ndarray
    d_aux_rate: float
    d_lam: np.ndarray
    d_mu: np.ndarray
    alpha: float
    state: CellState


@dataclass(frozen=True)
class KktResidual:
    """First-order-condition residuals, cells concatenated in index order.

    Per cell the stationarity block is (d/d power[n] for each n, d/d aux
    rate); the primal block is (positive part of each rate constraint, then
    of budget and nonnegativity); the complementarity block pairs each
    multiplier with its constraint value.
    """

    stationarity: np.ndarray
    primal: np.ndarray
    complementarity: np.ndarray

    @property
    def max_abs(self) -> float:
        return max(float(np.abs(self.stationarity).max()),
                   float(np.abs(self.primal).max()),
                   float(np.abs(self.complementarity).max()))


@dataclass(frozen=True)
class OcdResult:
    power: np.ndarray
    aux_rates: np.ndarray
    lam: list[np.ndarray]
    mu: list[np.ndarray]
    states: list[CellState]
    trace: list[IterationRecord]
    converged: bool
    iterations: int


def project_power(power: np.ndarray, p_max: float) -> np.ndarray:
    """Clip negatives and rescale any row exceeding the budget."""
    out = np.maximum(np.asarray(power, dtype=float), 0.0)
    sums = out.sum(axis=1)
    for m in np.nonzero(sums > p_max)[0]:
        out[m] *= p_max / sums[m]
    return out


def _subproblem_terms(scenario: Scenario, assignment: np.ndarray, cell: int,
                      states: list[CellState]):
    """Value, derivatives and own constraints of one cell's subproblem.

    The snapshot is the (M, N) power matrix of `states`, whose row `cell` is
    this cell's own power, so one `link_terms` call gives the denominators of
    every link: own users see the snapshot's interference, and a foreign
    user's denominator already holds this cell's interference at its own
    power.  Returns (phi, grad, curv, h, jac_h, curv_h) where grad/curv run
    over the N + 1 variables (powers then aux rate), curv is the diagonal of
    the Lagrangian Hessian contribution of phi alone, and curv_h[u] holds the
    diagonal second derivatives of rate constraint u with respect to the
    powers.
    """
    n_sub = scenario.num_subcarriers
    gap = scenario.snr_gap
    k_own = scenario.users_per_cell[cell]
    a = np.asarray(assignment) == 1
    signal, denom = link_terms(scenario, np.vstack([st.power for st in states]))
    full = denom + signal
    rates = np.log1p(signal / denom)
    aux_rate = states[cell].aux_rate

    own = a[cell, :k_own]
    d_rate = scenario.gains[cell, cell, :k_own] / full[cell, :k_own]
    h = aux_rate - np.where(own, rates[cell, :k_own], 0.0).sum(axis=1)
    jac_h = np.zeros((k_own, n_sub + 1))
    jac_h[:, :n_sub] = np.where(own, -d_rate, 0.0)
    jac_h[:, n_sub] = 1.0
    curv_h = np.where(own, d_rate * d_rate, 0.0)          # -(d2 rate) >= 0

    # Foreign users (o, u) weighted by their frozen multipliers; this cell's
    # row and the padded user rows are masked out.
    lam_bar = np.zeros(a.shape[:2])
    for o, st in enumerate(states):
        lam_bar[o, :st.lam.size] = st.lam
    foreign = a.copy()
    foreign[cell] = False
    into = scenario.gains[cell] * gap                  # this station into (o, u)
    weighted = lam_bar[:, :, None] * into
    phi = scenario.weights[cell] * aux_rate
    phi -= sum(float(st.lam.sum()) * st.aux_rate
               for o, st in enumerate(states) if o != cell)
    phi += float((lam_bar * np.where(foreign, rates, 0.0).sum(axis=2)).sum())
    grad = np.zeros(n_sub + 1)
    grad[:n_sub] = np.where(foreign, weighted * (1.0 / full - 1.0 / denom),
                            0.0).sum(axis=(0, 1))
    grad[n_sub] = scenario.weights[cell]
    curv = np.zeros(n_sub + 1)
    curv[:n_sub] = np.where(
        foreign, weighted * into * (1.0 / (denom * denom) - 1.0 / (full * full)),
        0.0).sum(axis=(0, 1))
    return phi, grad, curv, h, jac_h, curv_h


def _local_constraints(power: np.ndarray, p_max: float):
    """Budget and nonnegativity values plus their Jacobian over (p, aux)."""
    n_sub = power.shape[0]
    g = np.empty(1 + n_sub)
    g[0] = power.sum() - p_max
    g[1:] = -power
    jac_g = np.zeros((1 + n_sub, n_sub + 1))
    jac_g[0, :n_sub] = 1.0
    jac_g[1:, :n_sub] = -np.eye(n_sub)
    return g, jac_g


def local_objective(scenario: Scenario, assignment: np.ndarray, cell: int,
                    states: list[CellState]) -> float:
    """This cell's subproblem objective at the given joint state."""
    phi, *_ = _subproblem_terms(scenario, assignment, cell, states)
    return phi


def constraint_residuals(scenario: Scenario, assignment: np.ndarray, cell: int,
                         states: list[CellState]):
    """(rate constraints h, local constraints g) of one cell, raw signed."""
    _, _, _, h, _, _ = _subproblem_terms(scenario, assignment, cell, states)
    g, _ = _local_constraints(states[cell].power, scenario.p_max)
    return h, g


def _max_step(values: np.ndarray, directions: np.ndarray) -> float:
    shrink = directions < 0.0
    if not shrink.any():
        return 1.0
    limit = float((FRACTION_TO_BOUNDARY * (-values[shrink] / directions[shrink])).min())
    return min(1.0, limit)


def newton_step(scenario: Scenario, assignment: np.ndarray, cell: int,
                states: list[CellState]) -> NewtonStep:
    """One interior-point Newton step of `cell` against the snapshot `states`.

    Builds the primal-dual system for the cell's subproblem (variables,
    slacks and multipliers of its own constraints only), solves it with a
    single dense linear solve, damps by a shared fraction-to-boundary step
    and decays the barrier.  A singular system gets one diagonal
    regularization retry before raising OcdStepError.
    """
    st = states[cell]
    n_sub = scenario.num_subcarriers
    n_x = n_sub + 1
    _, grad, curv, h, jac_h, curv_h = _subproblem_terms(scenario, assignment, cell, states)
    g, jac_g = _local_constraints(st.power, scenario.p_max)

    k = h.shape[0]
    n_g = g.shape[0]
    hess_diag = np.zeros(n_x)
    hess_diag[:n_sub] = curv[:n_sub] - st.lam @ curv_h
    # Inertia safeguard: the coupling terms can turn single coordinates
    # convex, which makes pure Newton oscillate into the positivity
    # boundary; flooring the curvature keeps the step productive without
    # moving any fixed point (residuals are untouched).
    np.minimum(hess_diag[:n_sub], -REGULARIZATION, out=hess_diag[:n_sub])

    r_stat = grad - jac_h.T @ st.lam - jac_g.T @ st.mu
    r_ph = h + st.slack_h
    r_pg = g + st.slack_g
    r_ch = st.lam * st.slack_h - st.barrier
    r_cg = st.mu * st.slack_g - st.barrier

    size = n_x + 2 * k + 2 * n_g
    i_sh = n_x
    i_sg = i_sh + k
    i_lam = i_sg + n_g
    i_mu = i_lam + k
    system = np.zeros((size, size))
    system[:n_x, :n_x] = np.diag(hess_diag)
    system[:n_x, i_lam:i_lam + k] = -jac_h.T
    system[:n_x, i_mu:] = -jac_g.T
    system[i_sh:i_sh + k, :n_x] = jac_h
    system[i_sh:i_sh + k, i_sh:i_sh + k] = np.eye(k)
    system[i_sg:i_sg + n_g, :n_x] = jac_g
    system[i_sg:i_sg + n_g, i_sg:i_sg + n_g] = np.eye(n_g)
    rows = np.arange(k)
    system[i_lam + rows, i_sh + rows] = st.lam
    system[i_lam + rows, i_lam + rows] = st.slack_h
    rows = np.arange(n_g)
    system[i_mu + rows, i_sg + rows] = st.mu
    system[i_mu + rows, i_mu + rows] = st.slack_g

    rhs = -np.concatenate((r_stat, r_ph, r_pg, r_ch, r_cg))

    solution = None
    for attempt in range(2):
        try:
            candidate = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            candidate = None
        if candidate is not None and np.isfinite(candidate).all():
            solution = candidate
            break
        if attempt == 0:
            system[np.arange(n_x), np.arange(n_x)] += REGULARIZATION
    if solution is None:
        raise OcdStepError(cell, "KKT system singular even after regularization")

    d_x = solution[:n_x]
    d_sh = solution[i_sh:i_sh + k]
    d_sg = solution[i_sg:i_sg + n_g]
    d_lam = solution[i_lam:i_lam + k]
    d_mu = solution[i_mu:]

    alpha = min(_max_step(st.slack_h, d_sh), _max_step(st.slack_g, d_sg),
                _max_step(st.lam, d_lam), _max_step(st.mu, d_mu))

    new_state = CellState(
        power=st.power + alpha * d_x[:n_sub],
        aux_rate=st.aux_rate + alpha * d_x[n_sub],
        lam=st.lam + alpha * d_lam,
        mu=st.mu + alpha * d_mu,
        slack_h=st.slack_h + alpha * d_sh,
        slack_g=st.slack_g + alpha * d_sg,
        barrier=max(BARRIER_DECAY * st.barrier, BARRIER_FLOOR),
    )
    return NewtonStep(d_power=d_x[:n_sub], d_aux_rate=float(d_x[n_sub]),
                      d_lam=d_lam, d_mu=d_mu, alpha=alpha, state=new_state)


def init_cell_states(scenario: Scenario, assignment: np.ndarray,
                     power: np.ndarray) -> list[CellState]:
    """Strictly interior starting point around the given power matrix.

    The auxiliary rate starts just below the cell's achieved minimum so the
    rate constraints begin inactive; multipliers start at weight / K for
    rates (making the aux-rate stationarity exact), floored so a zero-weight
    cell still starts strictly interior, and at one for the local
    constraints; slacks match the constraint values up to a small floor.
    """
    states = []
    for m in range(scenario.num_cells):
        rates = cell_user_rates(scenario, power, assignment, m)
        aux = AUX_RATE_INIT_FACTOR * float(rates.min())
        k_m = scenario.users_per_cell[m]
        lam = np.full(k_m, max(scenario.weights[m] / k_m, SLACK_FLOOR))
        g, _ = _local_constraints(power[m].astype(float), scenario.p_max)
        h = aux - rates
        states.append(CellState(
            power=power[m].astype(float).copy(), aux_rate=aux, lam=lam,
            mu=np.ones(1 + scenario.num_subcarriers),
            slack_h=np.maximum(-h, SLACK_FLOOR),
            slack_g=np.maximum(-g, SLACK_FLOOR),
            barrier=BARRIER_INIT))
    return states


def ocd_solve(scenario: Scenario, assignment: np.ndarray, initial_power: np.ndarray,
              *, psi: float = 0.1, max_iters: int = 200,
              bus: MessageBus | None = None) -> OcdResult:
    """Run the decomposed power method until the iterates settle.

    Every iteration exchanges state through the bus (one gather and one
    broadcast per cell), advances each cell by one Newton step against the
    previous iteration's snapshot, and stops once the stacked power matrix
    moves less than `psi` in Euclidean norm, or after `max_iters` iterations.
    The reported and returned powers are projected onto the feasible box and
    budgets; the stop test uses the raw iterates.
    """
    if not (psi > 0.0 and np.isfinite(psi)):
        raise ValueError(f"psi must be finite and positive, got {psi!r}")
    if not isinstance(max_iters, int) or max_iters < 1:
        raise ValueError(f"max_iters must be a positive integer, got {max_iters!r}")
    validate_assignment(scenario, assignment, require_complete=True)
    validate_power(scenario, initial_power)
    if bus is None:
        bus = MessageBus()

    report_sizes = [scenario.num_subcarriers + 1 + k for k in scenario.users_per_cell]
    states = init_cell_states(scenario, assignment, initial_power)
    power_prev = np.asarray(initial_power, dtype=float).copy()
    trace: list[IterationRecord] = []
    converged = False
    started = time.perf_counter()

    for iteration in range(1, max_iters + 1):
        bus.exchange(report_sizes)
        try:
            steps = [newton_step(scenario, assignment, m, states)
                     for m in range(scenario.num_cells)]
        except OcdStepError as exc:
            exc.iteration = iteration
            exc.trace = trace
            raise
        states = [step.state for step in steps]
        power_now = np.vstack([st.power for st in states])
        delta = float(np.linalg.norm(power_now - power_prev))
        snapshot_wsmr = wsmr(scenario, project_power(power_now, scenario.p_max),
                             assignment)
        trace.append(IterationRecord(
            iteration=iteration, wsmr=snapshot_wsmr.value, delta_p_norm=delta,
            min_rates=snapshot_wsmr.min_rates, messages=bus.messages_total,
            bytes=bus.bytes_total, elapsed_s=time.perf_counter() - started))
        power_prev = power_now
        if delta < psi:
            converged = True
            break

    return OcdResult(
        power=project_power(power_prev, scenario.p_max),
        aux_rates=np.array([st.aux_rate for st in states]),
        lam=[st.lam for st in states], mu=[st.mu for st in states],
        states=states, trace=trace, converged=converged, iterations=len(trace))


def states_from_point(scenario: Scenario, assignment: np.ndarray,
                      power: np.ndarray, aux_rates: np.ndarray,
                      lam: list[np.ndarray], mu: list[np.ndarray]) -> list[CellState]:
    """Wrap an arbitrary primal-dual point as per-cell states.

    Slacks are set consistent with the constraints (floored to stay
    positive); they do not affect the first-order residuals.
    """
    states = []
    for m in range(scenario.num_cells):
        rates = cell_user_rates(scenario, power, assignment, m)
        h = aux_rates[m] - rates
        g, _ = _local_constraints(np.asarray(power, dtype=float)[m], scenario.p_max)
        states.append(CellState(
            power=np.asarray(power, dtype=float)[m].copy(),
            aux_rate=float(aux_rates[m]), lam=np.asarray(lam[m], dtype=float),
            mu=np.asarray(mu[m], dtype=float),
            slack_h=np.maximum(-h, SLACK_FLOOR),
            slack_g=np.maximum(-g, SLACK_FLOOR), barrier=BARRIER_FLOOR))
    return states


def cell_kkt_residual(scenario: Scenario, assignment: np.ndarray, cell: int,
                      states: list[CellState]):
    """One cell's first-order residual blocks at the joint state.

    Uses the subproblem route: the cell's own gradient with frozen foreign
    multipliers, evaluated at the snapshot formed by the states themselves.
    Returns (stationarity, primal, complementarity) for this cell.
    """
    st = states[cell]
    _, grad, _, h, jac_h, _ = _subproblem_terms(scenario, assignment, cell, states)
    g, jac_g = _local_constraints(st.power, scenario.p_max)
    stationarity = grad - jac_h.T @ st.lam - jac_g.T @ st.mu
    primal = np.concatenate((np.maximum(h, 0.0), np.maximum(g, 0.0)))
    complementarity = np.concatenate((st.lam * h, st.mu * g))
    return stationarity, primal, complementarity


def stacked_cell_residuals(scenario: Scenario, assignment: np.ndarray,
                           states: list[CellState]) -> KktResidual:
    """Concatenate every cell's subproblem residual blocks in cell order."""
    stat, primal, comp = [], [], []
    for m in range(scenario.num_cells):
        s_m, p_m, c_m = cell_kkt_residual(scenario, assignment, m, states)
        stat.append(s_m)
        primal.append(p_m)
        comp.append(c_m)
    return KktResidual(stationarity=np.concatenate(stat),
                       primal=np.concatenate(primal),
                       complementarity=np.concatenate(comp))


def global_kkt_residual(scenario: Scenario, assignment: np.ndarray,
                        power: np.ndarray, aux_rates: np.ndarray,
                        lam: list[np.ndarray], mu: list[np.ndarray]) -> KktResidual:
    """First-order residual of the undecomposed power problem.

    Walks the full problem's Lagrangian constraint by constraint using the
    per-link rate gradients, deliberately not sharing code with the
    subproblem route, and emits blocks in the same per-cell layout as
    `stacked_cell_residuals`.
    """
    power = np.asarray(power, dtype=float)
    n_sub = scenario.num_subcarriers
    stat_p = np.zeros((scenario.num_cells, n_sub))
    stat_aux = np.zeros(scenario.num_cells)
    a = np.asarray(assignment)

    for m in range(scenario.num_cells):
        lam_m = np.asarray(lam[m], dtype=float)
        stat_aux[m] = scenario.weights[m] - float(lam_m.sum())
        for u in range(scenario.users_per_cell[m]):
            for n in np.nonzero(a[m, u, :])[0]:
                stat_p[:, n] += lam_m[u] * rate_gradient(scenario, power, u, m, n)
    for m in range(scenario.num_cells):
        stat_p[m] += -mu[m][0] + mu[m][1:]

    stat, primal, comp = [], [], []
    for m in range(scenario.num_cells):
        stat.append(np.concatenate((stat_p[m], [stat_aux[m]])))
        rates = cell_user_rates(scenario, power, a, m)
        h = aux_rates[m] - rates
        g = np.concatenate(([power[m].sum() - scenario.p_max], -power[m]))
        primal.append(np.concatenate((np.maximum(h, 0.0), np.maximum(g, 0.0))))
        comp.append(np.concatenate((lam[m] * h, mu[m] * g)))
    return KktResidual(stationarity=np.concatenate(stat),
                       primal=np.concatenate(primal),
                       complementarity=np.concatenate(comp))
