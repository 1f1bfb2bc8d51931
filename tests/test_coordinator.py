import dataclasses
import types
import warnings

import numpy as np
import pytest

import netalloc.coordinator as coord_module
import netalloc.lr_power as lr_module
import netalloc.ocd_power as ocd_module
import netalloc.rate_model as rate_module
import netalloc.subcarrier_alloc as alloc_module
from netalloc import (AssignmentValidationError, CoordinatorAbort,
                      LrDivergenceError, MessageBus, OcdStepError, PhaseError,
                      RunConfig, ScenarioParams, generate_scenario,
                      initial_point, lr_solve, ocd_solve, relay, run,
                      solve_all_cells, validate_assignment, validate_power,
                      wsmr)

from conftest import make_scenario


def desk_scenario(seed=0, **kw):
    return make_scenario(cells=3, subcarriers=4, users=2, seed=seed, **kw)


def test_message_bus_exchange_accounting():
    # Three cells, each reporting 8 powers, one auxiliary rate, 2 multipliers.
    record = MessageBus().exchange([8 + 1 + 2] * 3)
    assert record.messages == 6
    assert record.total_bytes == 792
    # Unequal reports: 24 + 40 bytes gathered, each broadcast to the other cell.
    record = MessageBus().exchange([3, 5])
    assert (record.messages, record.total_bytes) == (4, 128)


def test_message_bus_accumulates_and_validates():
    bus = MessageBus()
    first = bus.exchange([2 + 1 + 1])
    assert first.messages == 2
    bus.exchange([2 + 1 + 1])
    assert bus.messages_total == 4
    assert bus.bytes_total == 2 * first.total_bytes
    for bad in ([], [3, -1], [None]):
        with pytest.raises(ValueError):
            bus.exchange(bad)
    assert bus.messages_total == 4


def test_message_bus_prices_report_sizes_by_value():
    # A list mutated in place after a valid exchange is validated again: the
    # bus keys what it has priced by the sizes, never by the list.
    bus = MessageBus()
    sizes = [3, 3]
    first = bus.exchange(sizes)
    assert bus.exchange(list(sizes)) == first
    totals = (bus.messages_total, bus.bytes_total)
    assert totals == (2 * first.messages, 2 * first.total_bytes)
    sizes[1] = -1
    with pytest.raises(ValueError, match="cell 1"):
        bus.exchange(sizes)
    assert (bus.messages_total, bus.bytes_total) == totals


@pytest.mark.parametrize("solve", [ocd_solve, lr_solve])
def test_standalone_phase_is_round_zero_on_its_own_clock(solve):
    s = desk_scenario()
    power, assignment = initial_point(s)
    bus = MessageBus()
    result = solve(s, assignment, power, psi=1e-12, max_iters=5, bus=bus)
    assert [row.round for row in result.trace] == [0] * 5
    elapsed = [row.elapsed_s for row in result.trace]
    assert 0.0 <= elapsed[0] and all(b >= a for a, b in zip(elapsed, elapsed[1:]))


REPORT = types.SimpleNamespace(value=1.0, min_rates=(1.0,))


def halving_sweep(bus, num_cells, calls):
    """A toy sweep that halves the power and checks it follows one exchange."""
    def sweep(iteration, power):
        assert bus.messages_total == 2 * num_cells * iteration
        calls.append((iteration, power.copy()))
        reported = types.SimpleNamespace(value=10.0 * iteration,
                                         min_rates=(float(iteration),))
        return power / 2.0, reported
    return sweep


def test_relay_stops_strictly_below_psi_on_raw_iterates():
    # Powers 8, 4, 2, 1, 0.5 move by 4, 2, 1, 0.5: a move of exactly psi = 1
    # goes on, the next one stops.
    bus, calls = MessageBus(), []
    power, trace, converged = relay(halving_sweep(bus, 2, calls),
                                    np.array([8.0]), [3, 3], psi=1.0,
                                    max_iters=10, bus=bus)
    assert converged and power.tolist() == [0.5]
    assert [(i, p.tolist()) for i, p in calls] == \
        [(1, [8.0]), (2, [4.0]), (3, [2.0]), (4, [1.0])]
    assert [row.delta_p_norm for row in trace] == [4.0, 2.0, 1.0, 0.5]
    assert [row.iteration for row in trace] == [1, 2, 3, 4]
    assert all(row.round == 0 and row.phase == "power" for row in trace)
    assert [row.wsmr for row in trace] == [10.0, 20.0, 30.0, 40.0]
    assert [row.min_rates for row in trace] == [(1.0,), (2.0,), (3.0,), (4.0,)]
    assert [row.messages for row in trace] == [4, 8, 12, 16]
    assert [row.bytes for row in trace] == [96, 192, 288, 384]
    elapsed = [row.elapsed_s for row in trace]
    assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))


def test_relay_iteration_budget_and_own_bus():
    calls = []
    bus = MessageBus()
    power, trace, converged = relay(halving_sweep(bus, 1, calls),
                                    np.array([8.0]), [1], psi=0.1,
                                    max_iters=3, bus=bus)
    assert not converged and power.tolist() == [1.0] and len(trace) == 3
    # Without a bus the relay counts on its own, starting from zero.
    _, trace, _ = relay(lambda i, p: (p / 2.0, REPORT), np.array([8.0]), [1],
                        psi=0.1, max_iters=3)
    assert [row.messages for row in trace] == [2, 4, 6]


def test_relay_validation():
    def never(iteration, power):
        raise AssertionError("the sweep must not run")
    bus = MessageBus()
    for kw in (dict(psi=0.0), dict(psi=-1.0), dict(psi=np.nan), dict(psi=np.inf),
               dict(max_iters=0), dict(max_iters=-1), dict(max_iters=1.5),
               dict(max_iters=True)):
        with pytest.raises(ValueError):
            relay(never, np.zeros(1), [1], **dict(dict(psi=0.1, max_iters=5), **kw),
                  bus=bus)
    assert bus.messages_total == 0


@pytest.mark.parametrize("psi, cap", [
    (0.0, 5), (-1.0, 5), (np.nan, 5), (np.inf, 5), (True, 5), (np.True_, 5),
    (0.1, 0), (0.1, 1.5), (0.1, True)])
def test_relay_refuses_what_the_config_refuses(psi, cap):
    # One stop-rule check serves both; only the cap's name differs.
    def never(iteration, power):
        raise AssertionError("the sweep must not run")
    with pytest.raises(ValueError) as refused:
        RunConfig(psi=psi, max_power_iters=cap).validated()
    with pytest.raises(ValueError) as relayed:
        relay(never, np.zeros(1), [1], psi=psi, max_iters=cap)
    assert str(relayed.value) == str(refused.value).replace("max_power_iters", "max_iters")


def test_relay_attaches_iteration_and_rows_to_phase_errors():
    class ToyError(PhaseError):
        pass

    def sweep(iteration, power):
        if iteration == 3:
            raise ToyError("toy failure")
        return power / 2.0, REPORT

    with pytest.raises(ToyError) as excinfo:
        relay(sweep, np.array([8.0]), [1], psi=1e-9, max_iters=10)
    assert excinfo.value.iteration == 3
    assert [row.iteration for row in excinfo.value.trace] == [1, 2]
    assert str(excinfo.value) == "toy failure"


def test_initial_point_layout():
    s = make_scenario(cells=2, subcarriers=5, users=2, seed=1)
    power, assignment = initial_point(s)
    assert (power == s.p_max / 5).all()
    validate_power(s, power)
    validate_assignment(s, assignment, require_complete=True)
    for n in range(5):
        for m in range(2):
            assert assignment[m, n % 2, n] == 1


def test_config_validation():
    RunConfig().validated()
    RunConfig(wsmr_tol=0.0).validated()
    RunConfig(wsmr_tol=np.inf).validated()
    bad = [dict(psi=0.0), dict(psi=np.nan), dict(max_power_iters=0),
           dict(max_rounds=0), dict(wsmr_tol=-1.0), dict(power_method="fast"),
           dict(subcarrier_mode="random"), dict(max_power_iters=True),
           dict(max_rounds=True)]
    for kw in bad:
        with pytest.raises(ValueError):
            RunConfig(**kw).validated()


@pytest.mark.parametrize("name", ["psi", "wsmr_tol"])
def test_config_refuses_bools_as_reals(name):
    # `True > 0.0` holds and `False >= 0.0` too, so a range check alone
    # would take them; a config must carry a real number.
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            RunConfig(**{name: flag}).validated()


def test_run_improves_and_reports_consistently():
    s = desk_scenario()
    power, assignment = initial_point(s)
    start = wsmr(s, power, assignment).value
    result = run(s, RunConfig(psi=0.05, max_rounds=4))
    assert result.best_wsmr >= start
    assert result.best_wsmr >= result.final_wsmr - 1e-12
    assert result.final_wsmr == pytest.approx(
        wsmr(s, result.final_power, result.final_assignment).value, rel=1e-12)
    assert result.best_wsmr == pytest.approx(
        wsmr(s, result.best_power, result.best_assignment).value, rel=1e-12)
    validate_power(s, result.final_power)
    validate_assignment(s, result.final_assignment, require_complete=True)


def test_run_single_round_when_tolerance_is_infinite():
    s = desk_scenario()
    result = run(s, RunConfig(wsmr_tol=np.inf))
    assert result.rounds == 1
    assert result.power_iterations == result.first_phase_iterations
    sub_rows = [r for r in result.trace if r.phase == "subcarrier"]
    assert len(sub_rows) == 1


def test_round_stop_reads_the_relative_change_at_any_scale():
    # At a noise power of 1e30 W (300 dBW) every objective is below 1e-34
    # nats.  OCD's first round more than doubles it, so the run goes on; LR's
    # drops it to exactly 0, and the next round's 0 -> 0 is no change.
    s = make_scenario(noise_power=1e30)
    start = wsmr(s, *initial_point(s)).value
    ocd = run(s, RunConfig(power_method="ocd"))
    first = [row.wsmr for row in ocd.trace if row.phase == "subcarrier"][0]
    assert 0.0 < start < first / 2 < 1e-34
    assert (ocd.stop_reason, ocd.rounds) == ("rounds", 10)
    lr = run(s, RunConfig(power_method="lr"))
    assert (lr.stop_reason, lr.rounds, lr.final_wsmr) == ("tolerance", 2, 0.0)


def test_run_trace_structure():
    s = desk_scenario()
    result = run(s, RunConfig(psi=0.05, max_rounds=3))
    rounds_seen = sorted({r.round for r in result.trace})
    assert rounds_seen == list(range(result.rounds))
    for idx in rounds_seen:
        rows = [r for r in result.trace if r.round == idx]
        assert rows[-1].phase == "subcarrier"
        power_rows = rows[:-1]
        assert all(r.phase == "power" for r in power_rows)
        assert [r.iteration for r in power_rows] == \
            list(range(1, len(power_rows) + 1))
    assert result.power_iterations == \
        sum(1 for r in result.trace if r.phase == "power")
    # A subcarrier phase is cell-local: its row carries the running totals
    # of the power row before it.
    for before, row in zip(result.trace, result.trace[1:]):
        if row.phase == "subcarrier":
            assert before.phase == "power"
            assert (row.messages, row.bytes) == (before.messages, before.bytes)
    elapsed = [r.elapsed_s for r in result.trace]
    assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))


def test_run_message_totals_span_phases():
    s = desk_scenario()
    result = run(s, RunConfig(psi=0.05, max_rounds=3))
    assert result.messages == 2 * 3 * result.power_iterations
    assert result.trace[-1].messages == result.messages
    assert result.trace[-1].bytes == result.bytes
    messages = [r.messages for r in result.trace]
    assert all(b >= a for a, b in zip(messages, messages[1:]))


def test_run_reassignment_rows_never_drop_wsmr():
    s = desk_scenario(seed=3)
    result = run(s, RunConfig(psi=0.05, max_rounds=4))
    for idx in range(result.rounds):
        rows = [r for r in result.trace if r.round == idx]
        assert rows[-1].wsmr >= rows[-2].wsmr - 1e-10


def test_run_deterministic():
    s = desk_scenario(seed=5)
    first = run(s, RunConfig(psi=0.05, max_rounds=3))
    second = run(s, RunConfig(psi=0.05, max_rounds=3))
    assert (first.final_power == second.final_power).all()
    assert first.best_wsmr == second.best_wsmr
    for a, b in zip(first.trace, second.trace):
        assert (a.round, a.phase, a.iteration, a.wsmr, a.delta_p_norm,
                a.messages, a.bytes) == \
            (b.round, b.phase, b.iteration, b.wsmr, b.delta_p_norm,
             b.messages, b.bytes)


def test_run_with_benchmark_method_and_greedy_mode():
    s = desk_scenario(seed=1)
    power, assignment = initial_point(s)
    start = wsmr(s, power, assignment).value
    result = run(s, RunConfig(psi=0.05, max_rounds=2, power_method="lr",
                              subcarrier_mode="greedy", max_power_iters=100))
    assert result.best_wsmr >= start
    assert result.rounds >= 1


def test_ocd_run_with_zero_weight_cell():
    # Validation accepts a zero cell weight; OCD must still start interior.
    for seed in range(4):
        s = make_scenario(cells=3, subcarriers=8, users=2, seed=seed,
                          weights=(0.0, 1.0, 1.0))
        power, assignment = initial_point(s)
        start = wsmr(s, power, assignment).value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run(s, RunConfig(power_method="ocd"))
        validate_power(s, result.best_power)
        validate_assignment(s, result.best_assignment, require_complete=True)
        assert np.isfinite(result.best_wsmr)
        assert result.best_wsmr >= start


@pytest.mark.parametrize("field", [{"pathloss_exponent": 0.1}, {"cell_radius": 1.01},
                                   {"p_max": 1e-9, "pathloss_exponent": 0.1}])
def test_ocd_restarts_from_near_zero_powers(field):
    # At psi 1e-9 round 0 leaves some powers at 4e-16 to 7e-16.  Round 1
    # used to start them far below their floored slacks, a damped step took
    # one negative, and log1p warned before the next system went NaN.  At
    # p_max 1e-9 the uniform start itself lay far below a slack floored at
    # SLACK_FLOOR, with the same outcome in round 0.
    s = make_scenario(cells=3, subcarriers=8, users=2, seed=0, **field)
    start = wsmr(s, *initial_point(s)).value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run(s, RunConfig(psi=1e-9, max_power_iters=2000, max_rounds=2,
                                  power_method="ocd"))
    assert result.rounds == 2
    assert np.isfinite(result.best_wsmr)
    assert result.best_wsmr >= start
    validate_power(s, result.best_power)
    validate_assignment(s, result.best_assignment, require_complete=True)


@pytest.mark.parametrize("solve", [ocd_solve, lr_solve])
def test_solvers_reject_an_incomplete_held_link_view(solve):
    # A view passed in place of the assignment is still held to the
    # complete assignment a power phase needs.
    s = desk_scenario()
    power, assignment = initial_point(s)
    assignment[1, :, 2] = 0
    links = rate_module.assigned_links(s, assignment)
    with pytest.raises(AssignmentValidationError, match="cell 1 subcarrier 2"):
        solve(s, links, power)


@pytest.mark.parametrize("solve", [ocd_solve, lr_solve])
def test_each_power_phase_validates_its_assignment_once(monkeypatch, solve):
    # A phase validates its assignment when it builds its held-link view,
    # not again on every sweep's objective evaluation.
    s = desk_scenario()
    power, assignment = initial_point(s)
    real = rate_module.validate_assignment
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("require_complete", False))
        return real(*args, **kwargs)

    for module in (rate_module, ocd_module, lr_module):
        monkeypatch.setattr(module, "validate_assignment", counted, raising=False)
    result = solve(s, assignment, power, psi=1e-12, max_iters=10)
    assert result.iterations == 10
    assert calls == [True]


def test_unequal_cells_never_read_padded_rows():
    # Cells with 1, 2 and 3 users pad the user axis to 3.  Overwriting the
    # filler with NaN must not change any result: every consumer slices or
    # masks the padded rows away instead of multiplying them by zero.
    for seed in range(4):
        s = make_scenario(cells=3, subcarriers=6, users=(1, 2, 3), seed=seed)
        gains, noise = s.gains.copy(), s.noise.copy()
        for m, k_m in enumerate(s.users_per_cell):
            gains[:, m, k_m:, :] = np.nan
            noise[m, k_m:, :] = np.nan
        poisoned = dataclasses.replace(s, gains=gains, noise=noise)
        for method in ("ocd", "lr"):
            for mode in ("exact", "greedy"):
                config = RunConfig(power_method=method, subcarrier_mode=mode)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    clean = run(s, config)
                    dirty = run(poisoned, config)
                assert np.isfinite(clean.best_wsmr)
                assert dirty.best_wsmr == clean.best_wsmr
                assert dirty.best_power.tobytes() == clean.best_power.tobytes()


@pytest.mark.parametrize("method", ["ocd", "lr"])
def test_run_abort_carries_partial_trace(monkeypatch, method):
    s = desk_scenario()
    real = getattr(coord_module, f"{method}_solve")
    calls = {"count": 0}

    def flaky(scenario, assignment, power, **kw):
        calls["count"] += 1
        if calls["count"] == 2:
            trace = real(scenario, assignment, power, **dict(kw, max_iters=2)).trace
            if method == "ocd":
                raise OcdStepError(0, "forced failure", iteration=3, trace=trace)
            raise LrDivergenceError("forced failure", iteration=3, trace=trace)
        return real(scenario, assignment, power, **kw)

    monkeypatch.setattr(coord_module, f"{method}_solve", flaky)
    with pytest.raises(CoordinatorAbort) as excinfo:
        coord_module.run(s, RunConfig(psi=1e-9, max_rounds=5, max_power_iters=40,
                                      wsmr_tol=0.0, power_method=method))
    assert "forced failure" in str(excinfo.value)
    partial = excinfo.value.trace
    assert partial, "abort should carry the rows produced so far"
    assert partial[0].round == 0
    failed_round_rows = [r for r in partial if r.round == 1]
    assert len(failed_round_rows) == 2
    assert all(r.phase == "power" for r in failed_round_rows)


@pytest.mark.parametrize("method, cause", [("ocd", alloc_module.RateTableError),
                                           ("lr", LrDivergenceError)])
def test_a_run_whose_rates_overflow_aborts_with_its_trace(method, cause):
    # At a subnormal noise power the SINR overflows.  OCD's power phases
    # finish until a subcarrier phase meets rates that are not finite; LR's
    # second sweep meets rate sums that are not finite.
    s = make_scenario(cells=2, subcarriers=3, users=2, seed=0, noise_power=1e-320)
    with np.errstate(all="ignore"), pytest.raises(CoordinatorAbort) as excinfo:
        run(s, RunConfig(power_method=method))
    assert isinstance(excinfo.value.__cause__, cause)
    partial = excinfo.value.trace
    assert partial and partial[-1].phase == "power"
    if method == "lr":
        assert [(r.round, r.iteration) for r in partial] == [(0, 1)]
    else:
        assert "subcarrier phase" in str(excinfo.value)
        assert any(r.phase == "subcarrier" for r in partial)


def test_run_respects_round_budget():
    s = desk_scenario(seed=7)
    result = run(s, RunConfig(psi=0.05, max_rounds=2, wsmr_tol=0.0))
    assert result.rounds == 2


def run_fingerprint(result):
    """Every byte of a RunResult except the wall-clock times in its trace."""
    fields = dataclasses.asdict(dataclasses.replace(
        result, trace=[dataclasses.replace(row, elapsed_s=0.0) for row in result.trace]))
    return repr({key: value.tobytes() if isinstance(value, np.ndarray) else value
                 for key, value in fields.items()})


def test_exact_run_is_unchanged_without_the_warm_start(monkeypatch):
    s = make_scenario(cells=3, subcarriers=10, users=(2, 3, 2), seed=11)
    config = RunConfig(psi=0.05, max_rounds=4, wsmr_tol=0.0)
    warm = run(s, config)
    real = alloc_module.solve_exact
    held = []

    def cold(table, current=None):
        held.append(current)
        return real(table)

    monkeypatch.setattr(alloc_module, "solve_exact", cold)
    assert run_fingerprint(run(s, config)) == run_fingerprint(warm)
    assert len(held) == 3 * warm.rounds
    assert all(current is not None for current in held)


def paper_scenario(seed):
    return generate_scenario(ScenarioParams(3, 8, 2, seed=seed))


def reference_best(s, max_rounds, wsmr_tol=1e-3):
    """The LR alternation with only the tolerance and round-cap stops, written
    apart from `run`: lr_solve, solve_all_cells and wsmr, keeping the best
    (wsmr, power, assignment) on strict improvement."""
    power, assignment = initial_point(s)
    previous = wsmr(s, power, assignment).value
    best = (previous, power, assignment)
    for _ in range(max_rounds):
        power = lr_solve(s, assignment, power, psi=0.1).power
        value = wsmr(s, power, assignment).value
        if value > best[0]:
            best = (value, power, assignment)
        assignment = solve_all_cells(s, power)
        value = wsmr(s, power, assignment).value
        if value > best[0]:
            best = (value, power, assignment)
        # The relative change; from exactly 0 it is 0 if the value stays 0.
        if previous == 0.0:
            relative = 0.0 if value == 0.0 else np.inf
        else:
            relative = abs(value - previous) / abs(previous)
        if relative < wsmr_tol:
            break
        previous = value
    return best


# Seed: (stop_reason, rounds) of the 3x8x2 LR run at the default config.
# Seeds 5 and 22 first repeat a state in their last round.
LR_STOPS = {0: ("tolerance", 3), 4: ("rounds", 10), 19: ("rounds", 10),
            13: ("cycle", 6), 18: ("cycle", 5), 23: ("cycle", 5),
            5: ("cycle", 10), 22: ("cycle", 10)}


@pytest.mark.parametrize("seed", sorted(LR_STOPS))
def test_lr_run_says_why_it_stopped_and_keeps_the_best(seed):
    s = paper_scenario(seed)
    reason, rounds = LR_STOPS[seed]
    for max_rounds in (10, 40):
        result = run(s, RunConfig(psi=0.1, power_method="lr", max_rounds=max_rounds))
        if max_rounds == 10 or reason != "rounds":
            # A cycle found by round 10 ends the run at 40 rounds too.
            assert (result.stop_reason, result.rounds) == (reason, rounds)
        assert len({r.round for r in result.trace}) == result.rounds
        value, power, assignment = reference_best(s, max_rounds)
        assert (result.best_wsmr, result.best_power.tobytes(),
                result.best_assignment.tobytes()) == \
            (value, power.tobytes(), assignment.tobytes())


@pytest.mark.parametrize("seed", sorted(LR_STOPS))
def test_ocd_run_never_stops_on_a_cycle(seed):
    result = run(paper_scenario(seed), RunConfig(psi=0.1, power_method="ocd"))
    assert result.stop_reason in ("tolerance", "rounds")


def test_a_run_back_at_its_start_stops_on_a_cycle(monkeypatch):
    # One user per cell leaves a single assignment, the round-robin one; a
    # power phase that hands back its starting powers then returns the run to
    # its start after one round.  wsmr_tol 0 keeps the tolerance rule out.
    s = make_scenario(cells=2, subcarriers=4, users=1, seed=0)
    real = coord_module.ocd_solve

    def standing(scenario, links, power, **kw):
        return dataclasses.replace(real(scenario, links, power, **kw), power=power)

    monkeypatch.setattr(coord_module, "ocd_solve", standing)
    result = coord_module.run(s, RunConfig(wsmr_tol=0.0))
    assert (result.stop_reason, result.rounds) == ("cycle", 1)
    start_power, start_assignment = initial_point(s)
    assert result.final_power.tobytes() == start_power.tobytes()
    assert result.final_assignment.tobytes() == start_assignment.tobytes()


def test_relay_refuses_bools_as_psi():
    # `True > 0.0` holds, so a range check alone would run the phase with a
    # psi of 1.0; the relay refuses it as `RunConfig.validated()` does.
    def never(iteration, power):
        raise AssertionError("the sweep must not run")
    s = desk_scenario()
    power, assignment = initial_point(s)
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match="psi must be a real number"):
            relay(never, np.zeros(1), [1], psi=flag, max_iters=5)
        for solve in (lr_solve, ocd_solve):
            with pytest.raises(ValueError, match="psi must be a real number"):
                solve(s, assignment, power, psi=flag)
