"""Distributed power control by splitting the global optimality conditions.

The power problem (assignment frozen) maximizes the weighted sum of per-cell
auxiliary rates R_m subject to every user of cell m reaching at least R_m and
to per-station budget and nonnegativity limits.  Cell rates couple through
interference, so instead of solving cells independently, each cell keeps its
own constraints and absorbs a first-order model of its effect on every other
cell: foreign rate constraints enter its objective weighted by the other
cells' current multipliers.

Per iteration every cell takes exactly one primal-dual interior-point Newton
step on its subproblem, reading only the previous iteration's snapshot of
all cells (a Jacobi sweep).  The iterate is one `OcdState` that holds every
cell as a row, its user axis padded to the largest cell.  `newton_step` is
the sweep: it forms every cell's subproblem terms once, as padded all-cell
arrays, then steps all cells with one set of array operations and returns
the next `OcdState`.  Uniform and ragged cells take the same route: the
padded user slots' rate rows are masked in every sweep, and on uniform
cells the masks select every entry.  What stays fixed while the assignment
does lives in one `OcdPhase`, built once per `ocd_solve` call: the held
links, the gap-scaled coupling gains and the fixed rows of the reduced
system.  The phase also evaluates each power snapshot once, keeping the
held links' `AssignedLinks.evaluate` (the signal, noise plus interference
and the users' padded rate sums).  The starting point and the first Newton
step read one snapshot, and so do a sweep's report, a
`rate_model.WsmrResult` of those sums, and the next Newton step, so t
sweeps make t + 1 link evaluations, the start included.  A step eliminates
slacks and multipliers in closed form, leaving a reduced (N+1)x(N+1) system
in the cell's powers and aux rate.
That matrix is a diagonal plus rank K + 1 (the K rate rows and the budget row),
except that its aux diagonal entry is 0; bordering the aux coordinate with
eps = mean of the power diagonal, once added and once subtracted as a row of
its own, makes it a strictly negative diagonal plus rank K + 2.  So Woodbury
(Golub & Van Loan, sec. 2.1.4) replaces the dense solve with one batched
(K+2)x(K+2) capacitance solve over all cells, O(NK^2) per cell instead of
O(N^3).  Near the barrier floor the multiplier/slack weights reach ~1e10 and
the capacitance solve alone can lose most digits, so two steps of iterative
refinement on the structured residual follow it; with them the step agrees
with the dense solve to its own rounding floor.  Each cell then reports
(powers, auxiliary rate, multipliers) to the central agent (`bus.relay`),
which rebroadcasts and checks whether the stacked power iterates moved less
than psi in Euclidean norm.

Stacking each cell's first-order conditions reproduces the first-order
conditions of the undecomposed problem.  `stacked_cell_residuals` (per-cell
route) and `global_kkt_residual` (whole-problem route) compute the two sides
through independent code paths so the identity can be checked numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bus import MessageBus, PhaseError, TraceRow, relay
# `wsmr` is not called here (a sweep reports from the rate sums it forms);
# the name stays bound because perfbench's tracer rebinds `wsmr` in every
# power module and its tests expect it here.
from .rate_model import (AssignedLinks, WsmrResult, assigned_links,  # noqa: F401
                         cell_user_rates, rate_gradient, validate_power, wsmr)
from .scenario import Scenario

FRACTION_TO_BOUNDARY = 0.995
BARRIER_DECAY = 0.7
BARRIER_FLOOR = 1e-10
BARRIER_INIT = 0.01
AUX_RATE_INIT_FACTOR = 0.9
SLACK_FLOOR = 1e-6
REGULARIZATION = 1e-8
# Iterative-refinement steps after each batched capacitance solve; see
# `_solve_reduced`.
REFINEMENT_STEPS = 2


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
class OcdState:
    """Every cell's primal-dual iterate, one row per cell.

    `power` is (M, N) and `aux_rate` (M,).  `mu` and `slack_g` (M, N + 1)
    cover the local constraints in a fixed order: entry 0 is the power
    budget, entries 1..N the per-subcarrier nonnegativity bounds.  `lam` and
    `slack_h` (M, Kmax) cover the own-user minimum-rate constraints; the
    slots of users a cell does not have hold exactly 0 and 1, which a step
    leaves unchanged.  All cells share one barrier.
    """

    power: np.ndarray
    aux_rate: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    slack_h: np.ndarray
    slack_g: np.ndarray
    barrier: float


@dataclass(frozen=True)
class NewtonStep:
    """Every cell's raw Newton direction and step length, one row per cell,
    plus the damped updated state."""

    d_power: np.ndarray
    d_aux_rate: np.ndarray
    d_lam: np.ndarray
    d_mu: np.ndarray
    alpha: np.ndarray
    state: OcdState


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
        return max(float(np.abs(block).max()) for block in
                   (self.stationarity, self.primal, self.complementarity))


@dataclass(frozen=True)
class OcdResult:
    power: np.ndarray
    state: OcdState
    trace: list[TraceRow]
    converged: bool
    iterations: int


def project_power(power: np.ndarray, p_max: float) -> np.ndarray:
    """Clip negatives and rescale any row exceeding the budget."""
    out = np.maximum(np.asarray(power, dtype=float), 0.0)
    sums = out.sum(axis=1)
    scale = np.ones_like(sums)
    np.divide(p_max, sums, out=scale, where=sums > p_max)
    out *= scale[:, None]
    return out


class OcdPhase:
    """What stays fixed while the assignment does, and the last snapshot.

    `ocd_solve` builds one per call from the scenario and the assignment or
    its `AssignedLinks` view, and passes it to `newton_step` in place of the
    assignment.  It holds the held links' view `links`; the gap-scaled
    coupling gains `into`, into[m, o, n] station m's gain into cell o's held
    link on n, each cell's own block zeroed, and `into_sq`, their squares,
    so the curvature contraction in `_subproblem_terms` reads two operands;
    the cell `weights`; and the fixed rows of every cell's reduced system
    (see `_solve_reduced`): the budget row over the powers and the aux
    border e_aux.

    `snapshot(power)` returns the held links' `AssignedLinks.evaluate` at a
    power, (signal, denom, rate_sums), and keeps it until it is asked for a
    power with other bits.  So a sweep's report and the next Newton step,
    which read the same power whenever projecting it changes nothing, share
    one evaluation.  `_subproblem_terms` adds the signal to the denominator
    where it reads them, so an evaluation that only feeds a report skips
    that add.
    """

    def __init__(self, scenario: Scenario, assignment):
        links = assigned_links(scenario, assignment)
        m_cells, n_sub = scenario.num_cells, scenario.num_subcarriers
        cells = np.arange(m_cells)
        self.links = links
        self.into = links.gains * links.snr_gap
        self.into[cells, cells] = 0.0
        self.into_sq = self.into * self.into
        self.weights = np.array(scenario.weights, dtype=float)
        self.budget = np.zeros((m_cells, 1, n_sub + 1))
        self.budget[..., :n_sub] = 1.0
        self.e_aux = np.zeros((m_cells, 1, n_sub + 1))
        self.e_aux[..., n_sub] = 1.0
        self._bits = None
        self._snapshot = None

    def snapshot(self, power: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The held links at `power`: one evaluation per new power."""
        power = np.asarray(power, dtype=float)
        bits = power.tobytes()
        if bits != self._bits:
            self._bits = bits
            self._snapshot = self.links.evaluate(power)
        return self._snapshot


def _phase(scenario: Scenario, assignment) -> OcdPhase:
    """`assignment` itself if it is a phase, else a phase built from it."""
    if isinstance(assignment, OcdPhase):
        return assignment
    return OcdPhase(scenario, assignment)


@dataclass(frozen=True)
class SubproblemTerms:
    """Every cell's subproblem at one snapshot, as padded all-cell arrays.

    Row m belongs to cell m.  `grad` and `curv` run over the N + 1 variables
    (powers then aux rate) and are the gradient and the diagonal second
    derivatives of the cell's objective phi_m = w_m aux_m plus, for every
    other cell o, sum_u lam_ou (rate_ou - aux_o); the step never needs phi's
    value, so it is not computed.  `h`, `jac_h` and `curv_h` run over the Kmax
    user slots: each rate constraint's value, its Jacobian over the N + 1
    variables, and its diagonal second derivatives -(d2 rate) >= 0 over the
    powers.  `real` marks the user slots that exist; padded slots hold
    zeros.
    """

    grad: np.ndarray
    curv: np.ndarray
    h: np.ndarray
    jac_h: np.ndarray
    curv_h: np.ndarray
    real: np.ndarray


def _subproblem_terms(scenario: Scenario, assignment,
                      state: OcdState) -> SubproblemTerms:
    """Objective derivatives and own constraints of every cell's subproblem.

    Takes the assignment, its view or an `OcdPhase`.  Only the held links
    (m, user[m, n], n) enter, so padded user rows are never read.  Row m of
    the snapshot is cell m's own power, so one phase snapshot gives every
    cell's denominators.  Foreign links enter cell m's objective weighted by
    their holders' frozen multipliers through station m's gain into them:
    one contraction over the phase's coupling gains `into`.
    """
    phase = _phase(scenario, assignment)
    links, into = phase.links, phase.into
    n_sub = scenario.num_subcarriers
    real = scenario.real_users
    signal, denom, rate_sums = phase.snapshot(state.power)
    full = denom + signal
    d_rate = links.per_user(links.own_gains / full)

    lam_held = state.lam.take(links.slot)
    weighted = lam_held * (1.0 / full - 1.0 / denom)
    weighted_sq = lam_held * (1.0 / (denom * denom) - 1.0 / (full * full))
    grad = np.empty((scenario.num_cells, n_sub + 1))
    grad[:, :n_sub] = np.einsum("mon,on->mn", into, weighted)
    grad[:, n_sub] = phase.weights
    curv = np.zeros(grad.shape)
    curv[:, :n_sub] = np.einsum("mon,on->mn", phase.into_sq, weighted_sq)
    jac_h = np.zeros(real.shape + (n_sub + 1,))
    jac_h[..., :n_sub] = -d_rate
    jac_h[..., n_sub] = real
    h = np.where(real, state.aux_rate[:, None] - rate_sums, 0.0)
    return SubproblemTerms(grad=grad, curv=curv, h=h,
                           jac_h=jac_h, curv_h=d_rate * d_rate, real=real)


def _local_constraints(power: np.ndarray, p_max: float) -> np.ndarray:
    """Budget and nonnegativity values g = (sum(p) - p_max, -p), per row.

    Their Jacobian J_g over (p, aux) is an all-ones budget row over -I with
    a zero aux column, so it is applied in closed form: J_g d = (sum(d_p),
    -d_p), J_g^T v = (v_0 - v_1.., 0), and J_g^T W J_g is W_0 on the whole
    power block plus diag(W_1..).
    """
    g = np.empty(power.shape[:-1] + (1 + power.shape[-1],))
    g[..., 0] = power.sum(axis=-1) - p_max
    g[..., 1:] = -power
    return g


def _jac_g_transpose(v: np.ndarray) -> np.ndarray:
    """J_g^T v for the local constraints, per row; see `_local_constraints`."""
    out = np.zeros(v.shape)
    out[..., :-1] = v[..., :1] - v[..., 1:]
    return out


def _max_step(values: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Per row, the fraction-to-boundary step length, at most 1."""
    shrink = directions < 0.0
    ratio = np.divide(values, -directions, out=np.full(values.shape, np.inf),
                      where=shrink)
    return np.minimum(FRACTION_TO_BOUNDARY * ratio.min(axis=1), 1.0)


def _solve_capacitance(cap: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched solve; a singular cell's solution comes back NaN.

    Only when the batch is singular are the cells solved one by one, so
    that the caller's finiteness check names the first failing cell.
    """
    try:
        return np.linalg.solve(cap, rhs)
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for cell, (matrix, b) in enumerate(zip(cap, rhs)):
            try:
                out[cell] = np.linalg.solve(matrix, b)
            except np.linalg.LinAlgError:
                pass
        return out


def _solve_reduced(phase: OcdPhase, d_pow: np.ndarray, rows: np.ndarray,
                   mult: np.ndarray, slack: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve every cell's reduced system (D - sum_r w_r v_r v_r^T) x = rhs.

    `d_pow` is the (M, N) strictly negative diagonal of the power block and
    the aux diagonal is 0; each of the R = Kmax + 1 (M, R, N + 1) `rows` v_r
    carries weight w_r = mult / slack.  The aux coordinate is bordered with
    eps = mean(D) on both sides, D^ = diag(D, eps) and one more row, the
    phase's e_aux, of weight eps, so the matrix is D^ - V'^T S' V' and
    Woodbury reduces it to the (R + 1)x(R + 1) capacitance S'^-1 - V' D^-1
    V'^T.  Rows whose multiplier is 0 carry no weight and are dropped, so
    slack / mult is never formed for them.  Two refinement steps follow the
    solve, each on the structured residual rhs - (D^ x - V'^T S' V' x) at
    O(NK) cost.  The diagonal and weights span from the 1e-8 curvature floor
    to ~1e10 near the barrier floor, where the Woodbury form alone cancels
    large terms: at a converged iterate it returned a direction of ~1e15
    where the dense solve gives < 1e-8.  One step brings it within about
    1e-11 of the dense solve, the second to the dense solve's own rounding
    floor.
    """
    # The row mean, with np.mean's arithmetic and without its Python overhead.
    eps = np.add.reduce(d_pow, axis=1, keepdims=True) / d_pow.shape[1]
    d_hat = np.concatenate((d_pow, eps), axis=1)
    active = mult > 0.0
    v = np.concatenate((np.where(active[..., None], rows, 0.0), phase.e_aux), axis=1)
    s = np.concatenate((mult / slack, eps), axis=1)
    s_inv = np.concatenate(
        (np.divide(slack, mult, out=np.ones_like(slack), where=active), 1.0 / eps),
        axis=1)
    v_t = v.transpose(0, 2, 1)
    d_inv_v_t = v_t / d_hat[..., None]
    cap = -(v @ d_inv_v_t)
    cap.reshape(len(cap), -1)[:, ::cap.shape[1] + 1] += s_inv     # the diagonals

    def solve(r):
        y = r / d_hat
        x = y + (d_inv_v_t @ _solve_capacitance(cap, v @ y[..., None]))[..., 0]
        if not np.isfinite(x).all():
            raise OcdStepError(int(np.argmin(np.isfinite(x).all(axis=1))),
                               "reduced Newton system singular")
        return x

    x = solve(rhs)
    for _ in range(REFINEMENT_STEPS):
        x = x + solve(rhs - d_hat * x + (v_t @ (s[..., None] * (v @ x[..., None])))[..., 0])
    return x


def newton_step(scenario: Scenario, assignment,
                state: OcdState) -> NewtonStep:
    """One Jacobi sweep: every cell's Newton step against the snapshot `state`.

    Takes the assignment, its `AssignedLinks` view or an `OcdPhase`; given
    no phase, it builds one.  `_subproblem_terms` reads the phase's snapshot
    at `state.power` for all cells, evaluated at most once (one
    `AssignedLinks.evaluate` call).  Each cell linearizes the primal-dual
    conditions of its subproblem (variables, slacks and multipliers of its
    own constraints only) and eliminates slacks and multipliers in closed
    form, leaving one reduced system in the powers and aux rate (Nocedal &
    Wright, ch. 19).  That matrix is diagonal plus rank K + 1 (the rate rows
    and the budget row) with a zero aux diagonal, so all cells are solved at
    once through their (K + 2)x(K + 2) Woodbury capacitance, the aux
    coordinate bordered with eps = mean(D), with two refinement steps; see
    `_solve_reduced`.  Slacks and multipliers are recovered from the primal
    direction, each cell's four blocks are damped by a shared
    fraction-to-boundary step, and the barrier decays.  The elimination
    divides by the slacks, so every slack must be strictly positive;
    otherwise, or when a reduced system is singular or yields a non-finite
    direction, OcdStepError is raised for the first failing cell.  There is
    no regularization retry.
    """
    n_sub = scenario.num_subcarriers
    power, aux, lam, mu = state.power, state.aux_rate, state.lam, state.mu
    slack_h, slack_g, barrier = state.slack_h, state.slack_g, state.barrier
    if not ((slack_h > 0.0).all() and (slack_g > 0.0).all()):
        positive = (slack_h > 0.0).all(axis=1) & (slack_g > 0.0).all(axis=1)
        raise OcdStepError(int(np.argmin(positive)),
                           "Newton system singular: a slack is not strictly positive")
    phase = _phase(scenario, assignment)
    t = _subproblem_terms(scenario, phase, state)

    # Inertia safeguard: the coupling terms can turn single coordinates
    # convex, which makes pure Newton oscillate into the positivity
    # boundary; flooring the curvature keeps the step productive without
    # moving any fixed point (residuals are untouched).
    hess = np.minimum(t.curv[:, :n_sub] - np.einsum("mk,mkn->mn", lam, t.curv_h),
                      -REGULARIZATION)
    r_stat = t.grad - np.einsum("mkj,mk->mj", t.jac_h, lam) - _jac_g_transpose(mu)
    r_ph = np.where(t.real, t.h + slack_h, 0.0)
    r_pg = _local_constraints(power, scenario.p_max) + slack_g
    r_ch = np.where(t.real, lam * slack_h - barrier, 0.0)
    r_cg = mu * slack_g - barrier
    rhs = (-r_stat + np.einsum("mkj,mk->mj", t.jac_h, (lam * r_ph - r_ch) / slack_h)
           + _jac_g_transpose((mu * r_pg - r_cg) / slack_g))
    d_x = _solve_reduced(
        phase, hess - mu[:, 1:] / slack_g[:, 1:],
        np.concatenate((t.jac_h, phase.budget), axis=1),
        np.concatenate((lam, mu[:, :1]), axis=1),
        np.concatenate((slack_h, slack_g[:, :1]), axis=1), rhs)

    # A padded user slot has a zero rate row and residuals, so its slack and
    # multiplier directions are exact zeros: it keeps lam 0 and slack 1.
    d_power, d_aux = d_x[:, :n_sub], d_x[:, n_sub]
    d_sh = -r_ph - np.einsum("mkj,mj->mk", t.jac_h, d_x)
    d_sg = -r_pg - np.concatenate((d_power.sum(axis=1, keepdims=True), -d_power), axis=1)
    d_lam = -(r_ch + lam * d_sh) / slack_h
    d_mu = -(r_cg + mu * d_sg) / slack_g
    alpha = _max_step(np.concatenate((slack_h, slack_g, lam, mu), axis=1),
                      np.concatenate((d_sh, d_sg, d_lam, d_mu), axis=1))

    step = alpha[:, None]
    return NewtonStep(
        d_power=d_power, d_aux_rate=d_aux, d_lam=d_lam, d_mu=d_mu, alpha=alpha,
        state=OcdState(power=power + step * d_power, aux_rate=aux + alpha * d_aux,
                       lam=lam + step * d_lam, mu=mu + step * d_mu,
                       slack_h=slack_h + step * d_sh, slack_g=slack_g + step * d_sg,
                       barrier=max(BARRIER_DECAY * barrier, BARRIER_FLOOR)))


def _power_floor(scenario: Scenario) -> float:
    """min(SLACK_FLOOR, p_max / N^2): the least starting power and the least
    local-constraint slack.  A slack floored far above a tiny power starts
    -p + s far from zero, and a damped step then takes the power negative."""
    return min(SLACK_FLOOR, scenario.p_max / scenario.num_subcarriers ** 2)


def _state_at(scenario: Scenario, power: np.ndarray, rates: np.ndarray,
              aux_rate: np.ndarray, lam: np.ndarray, mu: np.ndarray,
              barrier: float) -> OcdState:
    """The state at `power`, with padded (M, Kmax) user `rates`, whose slacks
    match the constraint values up to SLACK_FLOOR, or up to `_power_floor`
    for the local constraints; padded user slots get slack 1."""
    return OcdState(
        power=power, aux_rate=aux_rate, lam=lam, mu=mu,
        slack_h=np.where(scenario.real_users,
                         np.maximum(rates - aux_rate[:, None], SLACK_FLOOR), 1.0),
        slack_g=np.maximum(-_local_constraints(power, scenario.p_max),
                           _power_floor(scenario)),
        barrier=barrier)


def init_cell_states(scenario: Scenario, assignment, power: np.ndarray) -> OcdState:
    """Strictly interior starting point around the given power matrix.

    The auxiliary rate starts just below the cell's achieved minimum so the
    rate constraints begin inactive; multipliers start at weight / K for
    rates (making the aux-rate stationarity exact), floored so a zero-weight
    cell still starts strictly interior, and at one for the local
    constraints; slacks match the constraint values up to a small floor.
    Takes the assignment, its `AssignedLinks` view or an `OcdPhase`, and
    reads the rates from the phase's snapshot at the starting power, which
    is the power the first Newton step reads.
    """
    # Lift powers a damped step could take below 0 to the power floor; a row
    # lifted over budget pays from its largest entry.
    lifted = np.maximum(power, _power_floor(scenario))
    excess = np.minimum((lifted - power).sum(axis=1), lifted.sum(axis=1) - scenario.p_max)
    rows = np.flatnonzero(excess > 0.0)
    lifted[rows, lifted[rows].argmax(axis=1)] -= excess[rows]
    real = scenario.real_users
    rates = _phase(scenario, assignment).snapshot(lifted)[2]
    aux = AUX_RATE_INIT_FACTOR * np.where(real, rates, np.inf).min(axis=1)
    per_user = np.asarray(scenario.weights) / np.asarray(scenario.users_per_cell)
    lam = np.where(real, np.maximum(per_user, SLACK_FLOOR)[:, None], 0.0)
    mu = np.ones((scenario.num_cells, 1 + scenario.num_subcarriers))
    return _state_at(scenario, lifted, rates, aux, lam, mu, BARRIER_INIT)


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

    One `OcdPhase` serves the starting point and every sweep of the call.
    The first Newton step reads the starting point's snapshot, and a sweep's
    report and the next Newton step share one whenever the projection
    leaves the power's bits as they are, so t sweeps evaluate the links
    t + 1 times, the start included; a sweep whose power the projection
    moves evaluates both the projected and the raw power.
    """
    links = assigned_links(scenario, assignment, require_complete=True)
    validate_power(scenario, initial_power)
    report_sizes = [scenario.num_subcarriers + 1 + k for k in scenario.users_per_cell]
    phase = OcdPhase(scenario, links)
    state = init_cell_states(scenario, phase, initial_power)
    real = scenario.real_users
    reported = None

    def sweep(iteration, power):
        nonlocal state, reported
        state = newton_step(scenario, phase, state).state
        reported = project_power(state.power, scenario.p_max)
        _, _, rate_sums = phase.snapshot(reported)
        return state.power, WsmrResult.from_sums(rate_sums, real, phase.weights)

    # The relay's last raw iterate is the last sweep's state.power, so the
    # projection that sweep reported is the returned power.
    _, trace, converged = relay(
        sweep, np.asarray(initial_power, dtype=float), report_sizes,
        psi=psi, max_iters=max_iters, bus=bus)
    return OcdResult(power=reported, state=state,
                     trace=trace, converged=converged, iterations=len(trace))


def states_from_point(scenario: Scenario, assignment: np.ndarray,
                      power: np.ndarray, aux_rates: np.ndarray,
                      lam: list[np.ndarray], mu: list[np.ndarray]) -> OcdState:
    """Wrap an arbitrary primal-dual point, with cell m's multipliers
    `lam[m]` and `mu[m]`, as a state that owns copies of them.

    Slacks are set consistent with the constraints (floored to stay
    positive); they do not affect the first-order residuals.
    """
    power = np.array(power, dtype=float)
    padded_lam = np.zeros(scenario.real_users.shape)
    padded_lam[scenario.real_users] = np.concatenate(lam)
    return _state_at(scenario, power, cell_user_rates(scenario, power, assignment),
                     np.array(aux_rates, dtype=float), padded_lam,
                     np.array(mu, dtype=float), BARRIER_FLOOR)


def stacked_cell_residuals(scenario: Scenario, assignment: np.ndarray,
                           state: OcdState) -> KktResidual:
    """Concatenate every cell's subproblem residual blocks in cell order;
    padded user slots are masked out."""
    t = _subproblem_terms(scenario, assignment, state)
    g = _local_constraints(state.power, scenario.p_max)
    stat = t.grad - np.einsum("mkj,mk->mj", t.jac_h, state.lam) - _jac_g_transpose(state.mu)
    kept = np.concatenate((t.real, np.ones(g.shape, dtype=bool)), axis=1)
    return KktResidual(
        stationarity=stat.ravel(),
        primal=np.concatenate((np.maximum(t.h, 0.0), np.maximum(g, 0.0)), axis=1)[kept],
        complementarity=np.concatenate((state.lam * t.h, state.mu * g), axis=1)[kept])


def global_kkt_residual(scenario: Scenario, assignment: np.ndarray,
                        power: np.ndarray, aux_rates: np.ndarray,
                        lam: list[np.ndarray], mu: list[np.ndarray]) -> KktResidual:
    """First-order residual of the undecomposed power problem.

    Walks the full problem's Lagrangian constraint by constraint using the
    per-link rate gradients, deliberately not sharing code with the
    subproblem route, and emits blocks in the same per-cell layout as
    `stacked_cell_residuals`.  Takes the assignment or its `AssignedLinks`
    view.
    """
    power = np.asarray(power, dtype=float)
    n_sub = scenario.num_subcarriers
    stat_p = np.zeros((scenario.num_cells, n_sub))
    stat_aux = np.zeros(scenario.num_cells)
    # A view is read only through its mask: this route gathers its own links.
    a = assignment.held if isinstance(assignment, AssignedLinks) else np.asarray(assignment)

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
        h = aux_rates[m] - user_rates[m, :scenario.users_per_cell[m]]
        g = np.concatenate(([power[m].sum() - scenario.p_max], -power[m]))
        primal.append(np.concatenate((np.maximum(h, 0.0), np.maximum(g, 0.0))))
        comp.append(np.concatenate((lam[m] * h, mu[m] * g)))
    return KktResidual(stationarity=np.concatenate(stat),
                       primal=np.concatenate(primal),
                       complementarity=np.concatenate(comp))
