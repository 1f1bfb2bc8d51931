"""Timing spans recorded from outside the program.

`Tracer` swaps every binding of a public netalloc function for a thin
wrapper that records one span per call, and puts the originals back when it
is uninstalled.  Modules import functions by name (`wsmr` is bound in
`rate_model`, `coordinator`, `ocd_power`, `lr_power`, `experiment_cli` and
the package itself), so a target is replaced wherever a netalloc module
holds the same function object, not only in its defining module.

A span is `[name, start, end, parent, op, info]`: `parent` is the index of
the enclosing span (-1 at the top), `op` the benchmark operation it belongs
to, and `info` what `OBSERVE` extracts from the return value, or the
exception type name when the call raised.  Spans stay in memory until the
benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute path, span name) of every traced public function.
TARGETS = (
    ("scenario", "generate_scenario", "scenario.generate_scenario"),
    ("rate_model", "wsmr", "rate_model.wsmr"),
    ("rate_model", "cell_user_rates", "rate_model.cell_user_rates"),
    ("subcarrier_alloc", "solve_all_cells", "subcarrier_alloc.solve_all_cells"),
    ("subcarrier_alloc", "solve_exact", "subcarrier_alloc.solve_exact"),
    ("subcarrier_alloc", "solve_greedy", "subcarrier_alloc.solve_greedy"),
    ("subcarrier_alloc", "rate_table", "subcarrier_alloc.rate_table"),
    ("ocd_power", "newton_step", "ocd_power.newton_step"),
    ("ocd_power", "ocd_solve", "ocd_power.ocd_solve"),
    ("lr_power", "best_response", "lr_power.best_response"),
    ("lr_power", "update_multipliers", "lr_power.update_multipliers"),
    ("lr_power", "lr_solve", "lr_power.lr_solve"),
    ("bus", "MessageBus.exchange", "bus.exchange"),
    ("coordinator", "run", "coordinator.run"),
    ("experiment_cli", "run_ensemble", "experiment_cli.run_ensemble"),
)

# Return-value summaries kept on the span, for the solver and traffic counts.
OBSERVE = {
    "ocd_power.ocd_solve": lambda r: (r.iterations, r.converged),
    "lr_power.lr_solve": lambda r: (r.iterations, r.converged),
    "bus.exchange": lambda r: (r.messages, r.total_bytes),
}

NAME, START, END, PARENT, OP, INFO = range(6)
PACKAGE = "netalloc"


def _resolve(owner, path: str):
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Installs span-recording wrappers on netalloc's public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, observe = self.spans, self._stack, OBSERVE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[INFO] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if observe is not None:
                span[INFO] = observe(result)
            return result

        return traced

    @staticmethod
    def _modules():
        return [mod for key, mod in sorted(sys.modules.items())
                if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        try:
            for module, path, name in TARGETS:
                owner, leaf = _resolve(sys.modules[f"{PACKAGE}.{module}"], path)
                original = getattr(owner, leaf)
                wrapper = self._wrap(name, original)
                holders = [owner] if "." in path else modules
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, attr, original))
                            setattr(holder, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span[START]
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(span[END] - span[START] - covered)
    return out
