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
cells (a Jacobi sweep).  `newton_step` is that sweep and owns the snapshot:
it evaluates the link kernel and every cell's subproblem terms once, then
steps each cell.  A step eliminates slacks and multipliers in closed form and
solves one reduced (N+1)x(N+1) system in the cell's powers and aux rate.
Each cell then reports (powers, auxiliary rate, multipliers) to
the central agent (`bus.relay`), which rebroadcasts and checks whether the
stacked power iterates moved less than psi in Euclidean norm.

Stacking each cell's first-order conditions reproduces the first-order
conditions of the undecomposed problem.  `stacked_cell_residuals` (per-cell
route) and `global_kkt_residual` (whole-problem route) compute the two sides
through independent code paths so the identity can be checked numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bus import MessageBus, PhaseError, TraceRow, relay
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


class OcdStepError(PhaseError):
    """A cell's Newton step failed.

    Raised when a slack is not strictly positive (the reduced system divides
    by the slacks), or when the reduced system is singular or yields a
    non-finite direction.  There is no regularization retry.
    """

    def __init__(self, cell: int, detail: str, iteration: int | None = None,
                 trace: list | None = None):
        self.cell = cell
        super().__init__(detail, iteration, trace)

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
    states: list[CellState]
    trace: list[TraceRow]
    converged: bool
    iterations: int


def project_power(power: np.ndarray, p_max: float) -> np.ndarray:
    """Clip negatives and rescale any row exceeding the budget."""
    out = np.maximum(np.asarray(power, dtype=float), 0.0)
    sums = out.sum(axis=1)
    for m in np.nonzero(sums > p_max)[0]:
        out[m] *= p_max / sums[m]
    return out


def _subproblem_terms(scenario: Scenario, assignment: np.ndarray,
                      states: list[CellState]) -> list[tuple]:
    """Value, derivatives and own constraints of every cell's subproblem.

    The snapshot is the (M, N) power matrix of `states`, whose row m is cell
    m's own power, so one `link_terms` call gives the denominators of every
    link for every cell: own users see the snapshot's interference, and a
    foreign user's denominator already holds cell m's interference at its
    own power.  The rates, the reciprocal differences, the padded multiplier
    matrix and each cell's lam-weighted aux rate are computed once per
    snapshot.  Entry m is (phi, grad, curv, h, jac_h, curv_h) of cell m,
    where grad/curv run over the N + 1 variables (powers then aux rate),
    curv is the diagonal of the Lagrangian Hessian contribution of phi
    alone, and curv_h[u] holds the diagonal second derivatives of rate
    constraint u with respect to the powers.
    """
    n_sub = scenario.num_subcarriers
    gap = scenario.snr_gap
    a = np.asarray(assignment) == 1
    signal, denom = link_terms(scenario, np.vstack([st.power for st in states]))
    full = denom + signal
    rates = np.log1p(signal / denom)
    rate_sums = np.where(a, rates, 0.0).sum(axis=2)
    d_inv = 1.0 / full - 1.0 / denom
    d_inv_sq = 1.0 / (denom * denom) - 1.0 / (full * full)
    # Foreign users (o, u) are weighted by their frozen multipliers; each
    # cell masks out its own row, and the padded user rows are masked out.
    lam_bar = np.zeros(a.shape[:2])
    for o, st in enumerate(states):
        lam_bar[o, :st.lam.size] = st.lam
    lam_aux = [float(st.lam.sum()) * st.aux_rate for st in states]
    coupled = lam_bar * rate_sums

    terms = []
    for cell, st in enumerate(states):
        k_own = scenario.users_per_cell[cell]
        own = a[cell, :k_own]
        d_rate = scenario.gains[cell, cell, :k_own] / full[cell, :k_own]
        h = st.aux_rate - rate_sums[cell, :k_own]
        jac_h = np.zeros((k_own, n_sub + 1))
        jac_h[:, :n_sub] = np.where(own, -d_rate, 0.0)
        jac_h[:, n_sub] = 1.0
        curv_h = np.where(own, d_rate * d_rate, 0.0)      # -(d2 rate) >= 0

        others = np.arange(len(states)) != cell
        foreign = a & others[:, None, None]
        into = scenario.gains[cell] * gap              # this station into (o, u)
        weighted = lam_bar[:, :, None] * into
        phi = scenario.weights[cell] * st.aux_rate
        phi -= sum(v for o, v in enumerate(lam_aux) if o != cell)
        phi += float(np.where(others[:, None], coupled, 0.0).sum())
        grad = np.zeros(n_sub + 1)
        grad[:n_sub] = np.where(foreign, weighted * d_inv, 0.0).sum(axis=(0, 1))
        grad[n_sub] = scenario.weights[cell]
        curv = np.zeros(n_sub + 1)
        curv[:n_sub] = np.where(foreign, weighted * into * d_inv_sq,
                                0.0).sum(axis=(0, 1))
        terms.append((phi, grad, curv, h, jac_h, curv_h))
    return terms


def _local_constraints(power: np.ndarray, p_max: float) -> np.ndarray:
    """Budget and nonnegativity values g = (sum(p) - p_max, -p).

    Their Jacobian J_g over (p, aux) is an all-ones budget row over -I with
    a zero aux column, so it is applied in closed form: J_g d = (sum(d_p),
    -d_p), J_g^T v = (v_0 - v_1.., 0), and J_g^T W J_g is W_0 on the whole
    power block plus diag(W_1..).
    """
    g = np.empty(1 + power.shape[0])
    g[0] = power.sum() - p_max
    g[1:] = -power
    return g


def _jac_g_transpose(v: np.ndarray) -> np.ndarray:
    """J_g^T v for the local constraints; see `_local_constraints`."""
    return np.append(v[0] - v[1:], 0.0)


def local_objective(scenario: Scenario, assignment: np.ndarray, cell: int,
                    states: list[CellState]) -> float:
    """This cell's subproblem objective at the given joint state."""
    return _subproblem_terms(scenario, assignment, states)[cell][0]


def constraint_residuals(scenario: Scenario, assignment: np.ndarray, cell: int,
                         states: list[CellState]):
    """(rate constraints h, local constraints g) of one cell, raw signed."""
    h = _subproblem_terms(scenario, assignment, states)[cell][3]
    return h, _local_constraints(states[cell].power, scenario.p_max)


def _max_step(values: np.ndarray, directions: np.ndarray) -> float:
    shrink = directions < 0.0
    if not shrink.any():
        return 1.0
    limit = float((FRACTION_TO_BOUNDARY * (-values[shrink] / directions[shrink])).min())
    return min(1.0, limit)


def newton_step(scenario: Scenario, assignment: np.ndarray,
                states: list[CellState]) -> list[NewtonStep]:
    """One Jacobi sweep: each cell's Newton step against the snapshot `states`.

    The sweep owns the snapshot: `_subproblem_terms` evaluates it once (one
    link-kernel call) for all cells.  Per cell it linearizes the primal-dual
    conditions of the subproblem (variables, slacks and multipliers of the
    cell's own constraints only) and eliminates slacks and multipliers in
    closed form, leaving one (N+1)x(N+1) reduced system in the powers and
    aux rate (Nocedal & Wright, ch. 19).  Slacks and multipliers are
    recovered from the primal direction, all four blocks are damped by a
    shared fraction-to-boundary step, and the barrier decays.  The
    elimination divides by the slacks, so every slack must be strictly
    positive; otherwise, or when the reduced system is singular,
    OcdStepError is raised for the first failing cell.  There is no
    regularization retry.
    """
    n_sub = scenario.num_subcarriers
    steps = []
    for cell, (st, terms) in enumerate(
            zip(states, _subproblem_terms(scenario, assignment, states))):
        if not ((st.slack_h > 0.0).all() and (st.slack_g > 0.0).all()):
            raise OcdStepError(
                cell, "Newton system singular: a slack is not strictly positive")
        _, grad, curv, h, jac_h, curv_h = terms
        g = _local_constraints(st.power, scenario.p_max)

        hess_diag = np.zeros(n_sub + 1)
        hess_diag[:n_sub] = curv[:n_sub] - st.lam @ curv_h
        # Inertia safeguard: the coupling terms can turn single coordinates
        # convex, which makes pure Newton oscillate into the positivity
        # boundary; flooring the curvature keeps the step productive without
        # moving any fixed point (residuals are untouched).
        np.minimum(hess_diag[:n_sub], -REGULARIZATION, out=hess_diag[:n_sub])

        r_stat = grad - jac_h.T @ st.lam - _jac_g_transpose(st.mu)
        r_ph = h + st.slack_h
        r_pg = g + st.slack_g
        r_ch = st.lam * st.slack_h - st.barrier
        r_cg = st.mu * st.slack_g - st.barrier

        w_h = st.lam / st.slack_h
        w_g = st.mu / st.slack_g
        reduced = np.diag(hess_diag) - jac_h.T @ (w_h[:, None] * jac_h)
        reduced[:n_sub, :n_sub] -= w_g[0] + np.diag(w_g[1:])
        rhs = (-r_stat + jac_h.T @ ((st.lam * r_ph - r_ch) / st.slack_h)
               + _jac_g_transpose((st.mu * r_pg - r_cg) / st.slack_g))
        try:
            d_x = np.linalg.solve(reduced, rhs)
        except np.linalg.LinAlgError:
            d_x = None
        if d_x is None or not np.isfinite(d_x).all():
            raise OcdStepError(cell, "reduced Newton system singular")
        d_sh = -r_ph - jac_h @ d_x
        d_sg = -r_pg - np.append(d_x[:n_sub].sum(), -d_x[:n_sub])
        d_lam = -(r_ch + st.lam * d_sh) / st.slack_h
        d_mu = -(r_cg + st.mu * d_sg) / st.slack_g

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
        steps.append(NewtonStep(d_power=d_x[:n_sub], d_aux_rate=float(d_x[n_sub]),
                                d_lam=d_lam, d_mu=d_mu, alpha=alpha, state=new_state))
    return steps


def _cell_states(scenario: Scenario, power: np.ndarray,
                 user_rates: tuple[np.ndarray, ...], aux_rates, lam, mu,
                 barrier: float) -> list[CellState]:
    """Per-cell states at `power` whose slacks match the constraint values
    up to SLACK_FLOOR; each state holds its own copies of lam and mu."""
    power = np.asarray(power, dtype=float)
    states = []
    for m, rates in enumerate(user_rates):
        g = _local_constraints(power[m], scenario.p_max)
        states.append(CellState(
            power=power[m].copy(), aux_rate=float(aux_rates[m]),
            lam=np.array(lam[m], dtype=float), mu=np.array(mu[m], dtype=float),
            slack_h=np.maximum(rates - aux_rates[m], SLACK_FLOOR),
            slack_g=np.maximum(-g, SLACK_FLOOR), barrier=barrier))
    return states


def init_cell_states(scenario: Scenario, assignment: np.ndarray,
                     power: np.ndarray) -> list[CellState]:
    """Strictly interior starting point around the given power matrix.

    The auxiliary rate starts just below the cell's achieved minimum so the
    rate constraints begin inactive; multipliers start at weight / K for
    rates (making the aux-rate stationarity exact), floored so a zero-weight
    cell still starts strictly interior, and at one for the local
    constraints; slacks match the constraint values up to a small floor.
    """
    rates = cell_user_rates(scenario, power, assignment)
    aux = [AUX_RATE_INIT_FACTOR * float(r.min()) for r in rates]
    lam = [np.full(k_m, max(w / k_m, SLACK_FLOOR))
           for w, k_m in zip(scenario.weights, scenario.users_per_cell)]
    mu = np.ones((scenario.num_cells, 1 + scenario.num_subcarriers))
    return _cell_states(scenario, power, rates, aux, lam, mu, BARRIER_INIT)


def ocd_solve(scenario: Scenario, assignment: np.ndarray, initial_power: np.ndarray,
              *, psi: float = 0.1, max_iters: int = 200,
              bus: MessageBus | None = None) -> OcdResult:
    """Run the decomposed power method until the iterates settle.

    Each sweep of `bus.relay` advances every cell by one Newton step against
    the previous iteration's snapshot; the relay exchanges state through the
    bus (one gather and one broadcast per cell) and stops once the stacked
    power matrix moves less than `psi` in Euclidean norm, or after
    `max_iters` iterations.  The reported and returned powers are projected
    onto the feasible box and budgets; the stop test uses the raw iterates.
    """
    validate_assignment(scenario, assignment, require_complete=True)
    validate_power(scenario, initial_power)
    report_sizes = [scenario.num_subcarriers + 1 + k for k in scenario.users_per_cell]
    states = init_cell_states(scenario, assignment, initial_power)

    def sweep(iteration, power):
        nonlocal states
        states = [step.state for step in newton_step(scenario, assignment, states)]
        power_now = np.vstack([st.power for st in states])
        return power_now, wsmr(scenario, project_power(power_now, scenario.p_max),
                               assignment)

    power, trace, converged = relay(
        sweep, np.asarray(initial_power, dtype=float), report_sizes,
        psi=psi, max_iters=max_iters, bus=bus)
    return OcdResult(power=project_power(power, scenario.p_max), states=states,
                     trace=trace, converged=converged, iterations=len(trace))


def states_from_point(scenario: Scenario, assignment: np.ndarray,
                      power: np.ndarray, aux_rates: np.ndarray,
                      lam: list[np.ndarray], mu: list[np.ndarray]) -> list[CellState]:
    """Wrap an arbitrary primal-dual point as per-cell states.

    Slacks are set consistent with the constraints (floored to stay
    positive); they do not affect the first-order residuals.
    """
    return _cell_states(scenario, power, cell_user_rates(scenario, power, assignment),
                        aux_rates, lam, mu, BARRIER_FLOOR)


def _residual_blocks(st: CellState, terms: tuple, p_max: float):
    _, grad, _, h, jac_h, _ = terms
    g = _local_constraints(st.power, p_max)
    return (grad - jac_h.T @ st.lam - _jac_g_transpose(st.mu),
            np.concatenate((np.maximum(h, 0.0), np.maximum(g, 0.0))),
            np.concatenate((st.lam * h, st.mu * g)))


def cell_kkt_residual(scenario: Scenario, assignment: np.ndarray, cell: int,
                      states: list[CellState]):
    """One cell's first-order residual blocks at the joint state.

    Uses the subproblem route: the cell's own gradient with frozen foreign
    multipliers, evaluated at the snapshot formed by the states themselves.
    Returns (stationarity, primal, complementarity) for this cell.
    """
    terms = _subproblem_terms(scenario, assignment, states)[cell]
    return _residual_blocks(states[cell], terms, scenario.p_max)


def stacked_cell_residuals(scenario: Scenario, assignment: np.ndarray,
                           states: list[CellState]) -> KktResidual:
    """Concatenate every cell's subproblem residual blocks in cell order."""
    blocks = [_residual_blocks(st, terms, scenario.p_max) for st, terms in
              zip(states, _subproblem_terms(scenario, assignment, states))]
    stat, primal, comp = zip(*blocks)
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

    user_rates = cell_user_rates(scenario, power, a)
    stat, primal, comp = [], [], []
    for m in range(scenario.num_cells):
        stat.append(np.concatenate((stat_p[m], [stat_aux[m]])))
        h = aux_rates[m] - user_rates[m]
        g = np.concatenate(([power[m].sum() - scenario.p_max], -power[m]))
        primal.append(np.concatenate((np.maximum(h, 0.0), np.maximum(g, 0.0))))
        comp.append(np.concatenate((lam[m] * h, mu[m] * g)))
    return KktResidual(stationarity=np.concatenate(stat),
                       primal=np.concatenate(primal),
                       complementarity=np.concatenate(comp))
