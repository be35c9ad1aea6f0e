"""Run one ``pathcent`` CLI command in-process with every layer wrapped in spans.

Usage::

    python bench/trace.py SPANS.json -- <pathcent cli arguments>

Every public function of every ``pathcent.*`` module is replaced, in every
namespace that binds it, by a wrapper that records a span: name, start, end
and the index of the enclosing span. So are the public model methods and
``PathDataset`` construction, and the callback of each CLI command. The CLI
then runs through ``pathcent.cli.main``; the spans, aggregated per name, and
the counters are written to ``SPANS.json``. The process exits with the CLI's
own exit code.

Spans are recorded from outside the program, so the package is not edited.
``encode_path`` is left unwrapped: it runs once per path inside
``fit_mogen`` and its time belongs to the fit.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import weakref

MODULES = ("pathdata", "models", "centrality", "experiment", "smells", "cli")
#: Public functions left unwrapped, for the reason in the module docstring.
UNWRAPPED = frozenset({"encode_path"})
#: Public model methods that are layer entry points.
MODEL_METHODS = ("expected_visits", "reach_totals", "log_likelihood", "dof")
#: Span of the benchmark's own residual check; its time is no layer's.
RESIDUAL_SPAN = "bench.residual"


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent]``; parent -1 at top."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.records: dict[str, list] = {}

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, name, fn, after=None):
        """``fn`` recording one span per call. ``name`` is a string or a
        function of the call's arguments; ``after(result, args)`` runs once
        the span is closed, to record counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(result, args)
            return result

        traced.__bench_traced__ = True
        return traced

    def summary(self) -> dict:
        """Per span name: calls, total seconds, and self seconds (the span's
        duration minus the time its child spans cover)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[i]
        return layers


def _is_public_function(attr: str, obj) -> bool:
    return (not attr.startswith("_") and attr not in UNWRAPPED
            and inspect.isfunction(obj) and obj.__module__.startswith("pathcent"))


def install(tracer: Tracer) -> list[str]:
    """Wrap every public pathcent function in every pathcent namespace.

    Returns the names still bound to an unwrapped public function; the
    benchmark treats a non-empty list as a failed check.
    """
    mods = {m: importlib.import_module(f"pathcent.{m}") for m in MODULES}
    namespaces = [importlib.import_module("pathcent"), *mods.values()]
    hooks = _counter_hooks(tracer)

    wrapped: dict[int, object] = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if _is_public_function(attr, obj) and obj.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                span_name = _compute_span_name if name == "centrality.compute" else name
                wrapped[id(obj)] = tracer.wrap(span_name, obj, hooks.get(name))
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if id(obj) in wrapped:
                setattr(ns, attr, wrapped[id(obj)])

    model_cls = mods["models"].MOGenModel
    for meth in MODEL_METHODS:
        if hasattr(model_cls, meth):
            setattr(model_cls, meth, tracer.wrap(f"models.{meth}", getattr(model_cls, meth),
                                                 hooks.get(f"models.{meth}")))

    dataset_cls = mods["pathdata"].PathDataset
    dataset_cls.__init__ = tracer.wrap("pathdata.PathDataset", dataset_cls.__init__)

    for cmd_name, cmd in mods["cli"].cli.commands.items():
        cmd.callback = tracer.wrap(f"cli.{cmd_name}", cmd.callback)

    return sorted(
        f"{ns.__name__}.{attr}"
        for ns in namespaces
        for attr, obj in vars(ns).items()
        if _is_public_function(attr, obj) and not getattr(obj, "__bench_traced__", False)
    )


def _compute_span_name(args, kwargs) -> str:
    measure = kwargs.get("measure", args[1] if len(args) > 1 else "unknown")
    return f"centrality.compute.{measure}"


def _counter_hooks(tracer: Tracer) -> dict:
    """Counters recorded after a call returns, keyed by span name."""
    solved = {"sf": weakref.WeakSet(), "reach": weakref.WeakSet()}

    def residual_check(kind: str, transpose: bool):
        """Once per model and system: count the solve and record
        ||(I-Q)^T x - S||_inf for S.F or ||(I-Q) x - 1||_inf for F.1."""

        def hook(x, args):
            model = args[0]
            if model in solved[kind]:
                return
            solved[kind].add(model)
            span = tracer.open(RESIDUAL_SPAN)
            q = model.trans_p.T if transpose else model.trans_p
            rhs = model.start_p if transpose else 1.0
            tracer.peak("models.solve.residual_max", float(abs(x - q @ x - rhs).max()))
            tracer.close(span)
            tracer.add("models.solve.calls", 1)

        return hook

    def fit_mogen(model, args):
        tracer.add("models.fit_mogen.states", model.n_states)
        tracer.add("models.fit_mogen.nnz", model.trans_p.nnz)
        tracer.peak("size.states_max", model.n_states)
        tracer.peak("size.nnz_max", model.trans_p.nnz)
        if tracer.parent_name() == "models.select_order":
            tracer.add("models.select_order.fits", 1)

    def select_order(k, args):
        tracer.records.setdefault("models.select_order.orders", []).append(k)

    return {
        "pathdata.parse_paths": lambda ds, a: tracer.add("pathdata.parse_paths.paths", ds.total),
        "pathdata.extract_paths": lambda ds, a: tracer.add("pathdata.extract_paths.edges", len(a[0])),
        "pathdata.rolling_windows": lambda ws, a: tracer.add("pathdata.rolling_windows.windows", len(ws)),
        "models.expected_visits": residual_check("sf", transpose=True),
        "models.reach_totals": residual_check("reach", transpose=False),
        "models.fit_mogen": fit_mogen,
        "models.select_order": select_order,
        "experiment.project_up": lambda out, a: tracer.add("experiment.project_up.targets", len(a[1])),
        "smells.windowed_centralities": lambda s, a: tracer.add("smells.windows", len(s.window_starts)),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace.py SPANS.json -- <pathcent cli arguments>", file=sys.stderr)
        return 1
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    unwrapped = install(tracer)
    code = importlib.import_module("pathcent.cli").main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "unwrapped": unwrapped, "spans": len(tracer.spans),
                   "layers": tracer.summary(), "counters": tracer.counters,
                   "records": tracer.records}, fh, sort_keys=True, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
