"""Closed-loop benchmark of netalloc.

One client issues one operation at a time, each only after the previous one
has returned; there are no threads or worker processes.  See
`workloads.py` for the workloads and `README.md` for the metrics.

    python3 perfbench/run.py --workload ocd-wide --seed 1 --seconds 40 --trace 0

`--trace 0` measures the end-to-end metrics with the program unmodified.
`--trace 1` makes a separate run of untraced and traced operation pairs and
reports the per-layer metrics.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  Run
details (environment, per-entry times, result digest) are written under
`perfbench/out/`, and in a traced run the spans as well.
"""

import os
import time

_STARTED = time.perf_counter()

# One BLAS thread unless the caller chose otherwise.  The benchmark is one
# closed-loop client; on two vCPUs an idle OpenBLAS worker spins against it,
# which made a 100x100 solve 7-10x slower and its time swing several-fold.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402  (set-up time includes every import)
import gzip
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CHILD_SETUPS = 2          # fresh-process set-ups measured besides this one
# Reported times are scaled to a machine on which `ReferenceLoop` takes
# CAL_REF_S.  On the 2-vCPU virtual machine this benchmark was built on, the
# same operation ran up to 50% slower or faster from one minute to the next;
# scaling each op by the loop timings nearest it removes most of that drift,
# and no program change can move the loop.
CAL_REF_S = 0.003
CAL_REPEATS = 3
SETUP_LOOPS = 3           # loop timings that scale the set-up time
MAX_MEASURE_S = 140.0     # stop even mid-pass, to exit within 180 s
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NETALLOC_THREADS")

# Per-layer timing stats, by span name.  Per-op values are totals over the
# traced operations divided by their number.
TIMED = {
    "ocd_power.newton_step": ("calls", "time_s", "p50_us"),
    "ocd_power.ocd_solve": ("time_s", "self_s"),
    "lr_power.best_response": ("calls", "time_s", "p50_us"),
    "lr_power.update_multipliers": ("time_s",),
    "lr_power.lr_solve": ("time_s", "self_s"),
    "subcarrier_alloc.solve_all_cells": ("calls", "time_s"),
    "subcarrier_alloc.solve_exact": ("calls", "time_s", "p50_us"),
    "subcarrier_alloc.solve_greedy": ("calls", "time_s"),
    "subcarrier_alloc.rate_table": ("calls", "time_s"),
    "rate_model.wsmr": ("calls", "time_s"),
    "rate_model.cell_user_rates": ("calls", "time_s"),
    "scenario.generate_scenario": ("time_s",),
    "coordinator.run": ("self_s",),
    "experiment_cli.run_ensemble": ("self_s",),
    "bus.exchange": ("calls", "time_s"),
}
STAT_UNITS = {"calls": "count", "time_s": "s", "self_s": "s", "p50_us": "us"}


def import_program():
    """Import netalloc from this checkout's sources, never from elsewhere."""
    if not (SRC / "netalloc" / "__init__.py").is_file():
        raise SystemExit(f"error: netalloc sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import netalloc
    if not Path(netalloc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: netalloc imported from {netalloc.__file__}, not {SRC}")


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 values beyond it.

    The percentile is the share of values at or below the returned one.
    With 10 values or fewer no percentile qualifies, and the maximum is
    returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


class ReferenceLoop:
    """A fixed piece of work that uses no netalloc code, timed to gauge machine speed.

    It mixes what the program's time goes to: interpreter arithmetic,
    object and dict churn, and numpy calls on small arrays with fancy
    indexing.  It holds no large array, so it does not raise peak memory.
    """

    def __init__(self):
        import numpy
        self.np = numpy
        rng = numpy.random.default_rng(0)
        self.gains = rng.random((3, 3, 2, 8))
        self.power = rng.random((3, 8))
        self.mask = rng.random(8) > 0.5

    def _work(self) -> None:
        np = self.np
        total = 0.0
        for i in range(10000):
            total += i * 0.5
        churn = []
        for i in range(3000):
            item = {"a": i, "b": (i, total)}
            churn.append(item["a"] + len(item["b"]))
        a = np.ones(16)
        for _ in range(200):
            a = np.log1p(a * 0.5) + a.sum() * 1e-9
        for _ in range(120):
            ns = np.nonzero(self.mask)[0]
            cross = self.gains[:, 1, 0, ns] * self.power[:, ns]
            denom = 1e-6 + cross.sum(axis=0) - cross[1]
            float(np.log1p(self.power[1, ns] * self.gains[1, 1, 0, ns] / denom).sum())

    def seconds(self) -> float:
        """Median time of CAL_REPEATS runs of the work, as the machine runs now."""
        samples = []
        for _ in range(CAL_REPEATS):
            started = time.perf_counter()
            self._work()
            samples.append(time.perf_counter() - started)
        return statistics.median(samples)


def git_commit() -> str | None:
    """The checked-out commit, read from `.git` inside the checkout; None without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": sys.version,
        "numpy": numpy.__version__,
        "numpy_config": numpy.show_config(mode="dicts"),
        "thread_env": {key: os.environ.get(key) for key in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def op_time_metrics(times: dict) -> tuple[dict, float]:
    """ops_per_s, op_p50_s and op_tail_s from per-entry op times, and the tail's percentile.

    Each catalog entry counts once: its time is the median of its samples.
    """
    per_entry = [statistics.median(times[e]) for e in sorted(times)]
    tail_s, tail_pct = tail(per_entry)
    return {"ops_per_s": (len(per_entry) / sum(per_entry), "1/s"),
            "op_p50_s": (statistics.median(per_entry), "s"),
            "op_tail_s": (tail_s, "s")}, tail_pct


def end_to_end_metrics(times: dict, outcomes: dict, attempted: int, failed: int,
                       setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """Run-level metrics from per-entry op times and each entry's first outcome."""
    metrics, tail_pct = op_time_metrics(times)
    entry_runs = [outcomes[e].runs for e in sorted(outcomes) if outcomes[e].runs]

    def entry_mean(value) -> float:
        if not entry_runs:
            return 0.0
        return statistics.fmean(statistics.fmean(value(r) for r in runs)
                                for runs in entry_runs)

    metrics.update({
        "wsmr_mean": (entry_mean(lambda r: r.best_wsmr), "nats/use"),
        "converged_frac": (entry_mean(lambda r: float(r.first_phase_converged)), "frac"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    })
    notes = {"op_tail_percentile": tail_pct, "op_tail_entries": len(times),
             "error_rate": failed / attempted}
    return metrics, notes


def layer_metrics(spans: list, outcomes: list, op_scale: list[float],
                  overhead: float) -> dict:
    """Per-layer metrics from the traced operations' spans and results.

    `op_scale[k]` scales the times of the spans of traced op k, as the op's
    own time was scaled; its length is the number of traced ops.
    """
    from tracing import END, INFO, NAME, OP, START, self_times
    scale = [op_scale[span[OP]] for span in spans]
    own = [t * f for t, f in zip(self_times(spans), scale)]
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)
    per_op = max(len(op_scale), 1)
    metrics = {}
    for name, stats in TIMED.items():
        members = by_name.get(name, [])
        durations = [(spans[i][END] - spans[i][START]) * scale[i] for i in members]
        values = {
            "calls": len(members) / per_op,
            "time_s": sum(durations) / per_op,
            "self_s": sum(own[i] for i in members) / per_op,
            "p50_us": statistics.median(durations) * 1e6 if durations else 0.0,
        }
        for stat in stats:
            metrics[f"{name}.{stat}"] = (values[stat], STAT_UNITS[stat])

    def infos(name):
        return [spans[i][INFO] for i in by_name.get(name, [])]

    exchanged = [info for info in infos("bus.exchange") if isinstance(info, tuple)]
    metrics["bus.messages_per_op"] = (sum(m for m, _ in exchanged) / per_op, "count")
    metrics["bus.bytes_per_op"] = (sum(b for _, b in exchanged) / per_op, "B")
    for layer, solver in (("ocd_power", "ocd_solve"), ("lr_power", "lr_solve")):
        got = infos(f"{layer}.{solver}")
        phases = [info for info in got if isinstance(info, tuple)]
        metrics[f"{layer}.iters_to_psi_mean"] = (
            statistics.fmean(i for i, _ in phases) if phases else 0.0, "count")
        metrics[f"{layer}.phase_converged_frac"] = (
            statistics.fmean(float(c) for _, c in phases) if phases else 0.0, "frac")
        metrics[f"{layer}.errors"] = (float(sum(isinstance(i, str) for i in got)), "count")

    runs = [r for outcome in outcomes for r in outcome.runs]
    gains = reassignments = 0
    for r in runs:
        last_power = None
        for row in r.trace:
            if row.phase == "power":
                last_power = row.wsmr
            else:
                reassignments += 1
                gains += last_power is not None and row.wsmr > last_power
    metrics["coordinator.rounds_mean"] = (
        statistics.fmean(r.rounds for r in runs) if runs else 0.0, "count")
    metrics["coordinator.reassign_gain_frac"] = (
        gains / reassignments if reassignments else 0.0, "frac")
    metrics["trace_overhead_frac"] = (overhead, "frac")
    return metrics


class Session:
    """One benchmark run: set-up state plus everything measured so far."""

    def __init__(self, workload_name: str, seed: int):
        import workloads
        self.wl = workloads
        self.workload = workloads.WORKLOADS[workload_name]
        self.entries, self.order = workloads.build_catalog(self.workload, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprints: dict[int, str] = {}
        self.outcomes: dict = {}
        self.loop = ReferenceLoop()
        # Reference-loop times, SETUP_LOOPS taken after set-up and one after
        # every op; and (entry, op seconds, position in `loops` of the loop
        # just before).
        self.loops: list[float] = []
        self.sequence: list[tuple[int, float, int]] = []

    def timed_op(self, index: int):
        """Run, time and check one operation; the timer covers only the call."""
        entry = self.entries[index]
        self.attempted += 1
        started = time.perf_counter()
        try:
            outcome = self.wl.run_op(self.workload, entry)
        except Exception as exc:  # a failed op is counted, never fatal
            seconds = time.perf_counter() - started
            self._fail(index, f"{type(exc).__name__}: {exc}")
            return seconds, None
        seconds = time.perf_counter() - started
        problems = self.wl.check(self.workload, entry, outcome)
        line = self.wl.fingerprint(outcome)
        if self.fingerprints.setdefault(index, line) != line:
            problems.append(f"rerun gave {line}, first run {self.fingerprints[index]}")
        self.outcomes.setdefault(index, outcome)
        if problems:
            self._fail(index, "; ".join(problems))
        return seconds, outcome

    def op(self, index: int):
        """`timed_op`, then a reference-loop timing for scaling it."""
        seconds, outcome = self.timed_op(index)
        self.sequence.append((index, seconds, len(self.loops) - 1))
        self.loops.append(self.loop.seconds())
        return outcome

    def scaled_times(self) -> list[float]:
        """Each op's time scaled by the median of the two loops before it and two after."""
        return [seconds * CAL_REF_S / statistics.median(self.loops[max(0, k - 1):k + 3])
                for _, seconds, k in self.sequence]

    def _fail(self, index: int, detail: str) -> None:
        self.failed += 1
        self.problems.append(f"entry {index}: {detail}")

    def digest(self) -> str:
        return self.wl.digest([f"{i}:{self.fingerprints[i]}" for i in sorted(self.fingerprints)])


def measure(session: Session, seconds: float) -> None:
    """Whole passes over the catalog, and on until `seconds` have passed."""
    started = time.perf_counter()
    position = 0
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_MEASURE_S or (position >= len(session.order) and elapsed >= seconds):
            break
        session.op(session.order[position % len(session.order)])
        position += 1


def measure_traced(session: Session, seconds: float):
    """Pairs of one untraced and one traced run of the same entry.

    Returns the spans, the traced ops' outcomes, each traced op's time
    scale factor and the tracing overhead.
    """
    from tracing import Tracer
    pairs = max(1, min(len(session.order), round(seconds / session.workload.pair_seconds)))
    tracer = Tracer()
    outcomes = []
    started = time.perf_counter()
    for k in range(pairs):
        if time.perf_counter() - started >= MAX_MEASURE_S:
            break
        index = session.order[k]
        session.op(index)
        tracer.op = k
        with tracer:
            outcome = session.op(index)
        if outcome is not None:
            outcomes.append(outcome)
    scaled = session.scaled_times()
    op_scale = [t / seconds for t, (_, seconds, _) in zip(scaled[1::2], session.sequence[1::2])]
    overhead = sum(scaled[1::2]) / sum(scaled[0::2]) - 1.0
    return tracer.spans, outcomes, op_scale, overhead


def by_entry(sequence: list, times: list[float]) -> dict[int, list[float]]:
    out: dict[int, list[float]] = {}
    for (index, _, _), seconds in zip(sequence, times):
        out.setdefault(index, []).append(seconds)
    return out


def child_setup_seconds(args) -> list[tuple[float, float]]:
    """(scaled, raw) set-up times of fresh interpreters running this same set-up."""
    out = []
    for _ in range(CHILD_SETUPS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        out.append((sample["setup_s"], sample["setup_raw_s"]))
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc-paper", "ocd-wide", "assign-exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    session = Session(args.workload, args.seed)
    session.wl.run_op(session.workload, session.entries[0])     # untimed warm-up
    setup_raw_s = time.perf_counter() - _STARTED
    session.loops.extend(session.loop.seconds() for _ in range(SETUP_LOOPS))
    setup_s = setup_raw_s * CAL_REF_S / statistics.median(session.loops)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": environment(args.seed)}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans, outcomes, op_scale, overhead = measure_traced(session, args.seconds)
        pairs = len(op_scale)
        metrics = layer_metrics(spans, outcomes, op_scale, overhead)
        spans_path = OUT / f"{stem}-spans.json.gz"
        with gzip.open(spans_path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "info"],
                       "spans": spans}, fh)
        details.update(traced_ops=pairs, entries=session.order[:pairs],
                       spans=str(spans_path.relative_to(ROOT)))
    else:
        measure(session, args.seconds)
        raw = by_entry(session.sequence, [seconds for _, seconds, _ in session.sequence])
        scaled = by_entry(session.sequence, session.scaled_times())
        setups = [(setup_s, setup_raw_s)] + child_setup_seconds(args)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, notes = end_to_end_metrics(
            scaled, session.outcomes, session.attempted, session.failed,
            statistics.median(s for s, _ in setups), peak_rss_mb)
        unscaled = {k: v for k, (v, _) in op_time_metrics(raw)[0].items()}
        details.update(notes, unscaled=unscaled, setup_samples_s=setups,
                       entry_times_s={str(k): v for k, v in sorted(scaled.items())},
                       entry_raw_times_s={str(k): v for k, v in sorted(raw.items())})
    details.update(op_sequence=session.sequence, reference_loop_s=session.loops,
                   attempted=session.attempted, failed=session.failed,
                   problems=session.problems, result_digest=session.digest(),
                   digest_entries=len(session.fingerprints),
                   metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    details_path = OUT / f"{stem}.json"
    details_path.write_text(json.dumps(details, indent=1, default=str) + "\n")
    print(f"details: {details_path.relative_to(ROOT)}")
    for problem in session.problems[:20]:
        print(f"failed: {problem}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
