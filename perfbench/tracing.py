"""In-process traced run: span recorders around each layer's public functions.

The recorder wraps every public function of ``bayesfuse.{fileio, dists,
combine, information, ratios, search}`` (generators excepted, since a span
around one would close before its work runs), the constructors and
validators of the two distribution classes, and ``bayesfuse.cli.main`` as
the root span of each operation.  Each wrapper is patched onto its module
and into every ``bayesfuse`` namespace that imported it by name, so calls
such as ``bayesfuse.cli.bayes_posterior`` or
``bayesfuse.search.max_loss_exhaustive`` are seen without editing the
package.  The originals are restored after every traced pass.

Spans (name, start, end, parent, op id) are kept in memory and written out
at the end.  ``canonical_key`` runs twice per atom of every discrete file
loaded, so it is only counted and timed, not given one span per call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import math
import os
import statistics
import time
import traceback

import inputs
import workloads

LAYERS = ("cli", "fileio", "dists", "combine", "information", "ratios", "search")
_AGGREGATE_ONLY = {"dists.canonical_key"}
# (class, method) -> span name; __post_init__ is each class's validation.
_CLASS_METHODS = {
    ("DiscreteDist", "from_pairs"): "dists.from_pairs",
    ("DiscreteDist", "__post_init__"): "dists.DiscreteDist.__post_init__",
    ("GridDensity", "from_values"): "dists.from_values",
    ("GridDensity", "__post_init__"): "dists.GridDensity.__post_init__",
}
PROBE_ATOMS = 2000


class Recorder:
    """Collects spans, per-function call/total/self times and work counts."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.stats: dict[str, list] = {}
        self.edges: dict[tuple[str, str], float] = {}
        self.counts: dict[str, int] = {}
        self.op_id = 0
        self._next_span = 0

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _enter(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        span_id = self._next_span
        self._next_span += 1
        # span id, name, start, time covered by children, parent span id
        frame = [span_id, name, time.perf_counter(), 0.0, parent]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        span_id, name, start, children, parent = frame
        duration = end - start
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - children
        if self.stack:
            outer = self.stack[-1]
            outer[3] += duration
            key = (outer[1], name)
            self.edges[key] = self.edges.get(key, 0.0) + duration
        if name not in _AGGREGATE_ONLY:
            self.spans.append((span_id, name, start, end, parent, self.op_id))

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name: str, fn, hook=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = recorder._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._exit(frame)
            if hook is not None:
                hook(recorder, args, result)
            return result

        return wrapper


# ------------------------------------------------------------------ counting


def _joint_size(p0, like) -> int:
    like_masses = dict(like.atoms)
    return sum(1 for k, m in p0.atoms if m > 0.0 and like_masses.get(k, 0.0) > 0.0)


def _count_read(rec, args, _result):
    rec.count("fileio.bytes_read", os.path.getsize(args[0]))


def _count_written(rec, args, _result):
    rec.count("fileio.bytes_written", os.path.getsize(args[1]))


def _count_points(rec, _args, result):
    rec.count("search.points_evaluated", result.evaluated_count)


def _count_events(rec, args, _result):
    rec.count("information.events_enumerated", 2 ** _joint_size(args[1], args[2]) - 1)


def _count_weighted_events(rec, args, _result):
    pair = args[1]
    rec.count("information.events_enumerated", 2 ** _joint_size(pair.prior, pair.likelihood) - 1)


def _count_cells(rec, _args, result):
    rec.count("dists.smoothed_cells", result.n_cells)


_HOOKS = {
    "fileio.load_distribution": _count_read,
    "fileio.save_distribution": _count_written,
    "search.minimize_max_loss": _count_points,
    "search.minimize_weighted_loss": _count_points,
    "search.minimize_mlr_spread": _count_points,
    "information.max_loss_exhaustive": _count_events,
    "information.weighted_max_loss_exhaustive": _count_weighted_events,
    "dists.smooth_uniform": _count_cells,
}


# ------------------------------------------------------------------ patching


class Patches:
    """Installs the wrappers into every bayesfuse namespace and undoes it."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"bayesfuse.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("bayesfuse"), *modules.values()]
        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if layer == "cli":
                    if name != "main":
                        continue
                elif name.startswith("_") or inspect.isgeneratorfunction(obj):
                    continue
                full = f"{layer}.{name}"
                replacements[id(obj)] = self.recorder.wrap(full, obj, _HOOKS.get(full))
        for namespace in namespaces:
            for name, obj in list(vars(namespace).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._set(namespace, name, wrapper)
        for (cls_name, name), full in _CLASS_METHODS.items():
            cls = getattr(modules["dists"], cls_name)
            raw = vars(cls)[name]
            if isinstance(raw, classmethod):
                self._set(cls, name, classmethod(self.recorder.wrap(full, raw.__func__)))
            else:
                self._set(cls, name, self.recorder.wrap(full, raw))

    def _set(self, owner, name: str, value) -> None:
        self.undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self.undo:
            owner, name, value = self.undo.pop()
            setattr(owner, name, value)


# ------------------------------------------------------------------- probes


def build_probes(workload):
    """Fixed-size direct calls made once per traced pass, built before patching.

    ``enumerate_simplex`` at the verify size splits simplex enumeration from
    objective evaluation; ``proportionality_check`` runs on the first
    ``PROBE_ATOMS`` joint atoms (or central cells) of the workload's pair.
    """
    from bayesfuse.dists import DiscreteDist, GridDensity

    files = workload.case.files
    prior, like = files["prior"], files["likelihood"]
    if isinstance(prior, inputs.DiscreteFile):
        keys, u, v = workloads.joint(prior, like)
        keys, u, v = keys[:PROBE_ATOMS], u[:PROBE_ATOMS], v[:PROBE_ATOMS]

        def dist(masses):
            return DiscreteDist(tuple(zip(keys, (masses / math.fsum(masses)).tolist())))

        triple = (dist(u * v), dist(u), dist(v))
    else:
        grid = prior.grid
        f0 = workloads.normal_densities(prior)
        fl = workloads.normal_densities(like)
        start = max(0, grid.cells // 2 - PROBE_ATOMS // 2)
        cut = slice(start, start + PROBE_ATOMS)
        origin = grid.origin + start * grid.delta

        def dist(values):
            return GridDensity.from_values(origin, grid.delta, values.tolist())

        triple = (dist(f0[cut] * fl[cut]), dist(f0[cut]), dist(fl[cut]))
    K = workload.case.sizes.get("K", inputs.VERIFY_K)
    n = inputs.VERIFY_SHARED
    return triple, n, K, math.comb(K + n - 1, n - 1)


def run_probes(recorder: Recorder, probes) -> list[str]:
    from bayesfuse import combine, search

    (pstar, p0, like), n, K, points = probes
    errors = []
    with recorder.span("search.enumerate_simplex"):
        seen = sum(1 for _ in search.enumerate_simplex(n, K))
    if seen != points:
        errors.append(f"enumerate_simplex yielded {seen} points, expected {points}")
    if not combine.proportionality_check(pstar, p0, like, 1e-12):
        errors.append("proportionality_check rejected the product rule")
    return errors


# ---------------------------------------------------------------- the run


def run_op_inprocess(main, op) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(op.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation, not a benchmark abort
        rc = 1
        err.write(traceback.format_exc())
    return rc, out.getvalue(), time.perf_counter() - start


def _pass_summary(recorder: Recorder, op_seconds: float) -> dict:
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_calls, _total, self_s) in recorder.stats.items():
        layer_self[name.split(".", 1)[0]] += self_s
    totals = {name: stat[1] for name, stat in recorder.stats.items()}
    calls = {name: stat[0] for name, stat in recorder.stats.items()}
    cross_check = sum(
        seconds
        for (outer, inner), seconds in recorder.edges.items()
        if outer.startswith("search.") and inner.endswith("max_loss_exhaustive")
    )
    counts = dict(recorder.counts)
    minimize = sum(totals.get(f"search.{n}", 0.0) for n in _MINIMIZERS)
    exhaustive = sum(
        totals.get(f"information.{n}", 0.0)
        for n in ("max_loss_exhaustive", "weighted_max_loss_exhaustive")
    )
    smooth = totals.get("dists.smooth_uniform", 0.0)
    points = counts.get("search.points_evaluated", 0)
    events = counts.get("information.events_enumerated", 0)
    cells = counts.get("dists.smoothed_cells", 0)
    values = {f"{layer}.self_s": seconds for layer, seconds in layer_self.items()}
    for name in _DETAIL_TIMES:
        values[f"{name}_s"] = totals.get(name, 0.0)
    values.update(
        {
            "search.cross_check_s": cross_check,
            "search.points_per_s": points / minimize if minimize else 0.0,
            "information.events_per_s": events / exhaustive if exhaustive else 0.0,
            "dists.smooth_cells_per_s": cells / smooth if smooth else 0.0,
            "dists.canonical_key_calls": calls.get("dists.canonical_key", 0),
            "fileio.bytes_read": counts.get("fileio.bytes_read", 0),
            "fileio.bytes_written": counts.get("fileio.bytes_written", 0),
            "search.points_evaluated": points,
            "information.events_enumerated": events,
            "traced_workload_s": op_seconds,
        }
    )
    return values


_MINIMIZERS = ("minimize_max_loss", "minimize_weighted_loss", "minimize_mlr_spread")
_DETAIL_TIMES = (
    "fileio.load_distribution",
    "fileio.save_distribution",
    "dists.canonical_key",
    "dists.from_pairs",
    "dists.normalize",
    "dists.discretize",
    "dists.smooth_uniform",
    "combine.check_compatible",
    "combine.joint_support",
    "combine.bayes_posterior",
    "combine.weighted_posterior",
    "combine.proportionality_check",
    "information.max_loss",
    "information.weighted_max_loss",
    "information.max_loss_exhaustive",
    "ratios.ratio_profile",
    "search.enumerate_simplex",
    *(f"search.{n}" for n in _MINIMIZERS),
)


def traced_run(workload, seconds: float) -> dict:
    """Untraced and traced in-process passes for ``seconds``.

    Returns per-pass medians of every layer value, the spans of the last
    traced pass, the tracing overhead, and the operation tallies.
    """
    from bayesfuse import cli

    probes = build_probes(workload)
    attempted = failed = 0
    failures: list[str] = []

    def one_pass(recorder: Recorder | None) -> float:
        nonlocal attempted, failed
        seen: dict[str, dict] = {}
        op_seconds = 0.0
        main = cli.main
        for op in workload.ops:
            if recorder is not None:
                recorder.op_id += 1
            rc, text, elapsed = run_op_inprocess(main, op)
            op_seconds += elapsed
            report = workloads.parse_report(text)
            seen[op.label] = report
            attempted += 1
            problem = workloads.run_check(op, rc, report, seen)
            if problem:
                failed += 1
                failures.append(f"{op.label}: {problem}")
        if recorder is not None:
            recorder.op_id += 1
            problems = run_probes(recorder, probes)
            attempted += 2
            failed += len(problems)
            failures.extend(f"probe: {p}" for p in problems)
        return op_seconds

    # A warm-up pass first, so that neither side pays first-call costs; then
    # untraced and traced passes alternate so their difference, the tracing
    # overhead, compares like with like.
    one_pass(None)
    recorder = Recorder()
    untraced: list[float] = []
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        untraced.append(one_pass(None))
        recorder.reset()
        patches = Patches(recorder)
        patches.install()
        try:
            op_seconds = one_pass(recorder)
        finally:
            patches.remove()
        passes.append(_pass_summary(recorder, op_seconds))
        last = time.perf_counter() - pair_start
        if time.perf_counter() - start + last > seconds:
            break
    # median_low keeps each value one that a pass measured, so counts stay exact.
    values = {name: statistics.median_low(p[name] for p in passes) for name in passes[0]}
    values["untraced_workload_s"] = statistics.median_low(untraced)
    values["tracing_overhead_s"] = values["traced_workload_s"] - values["untraced_workload_s"]
    return {
        "values": values,
        "passes": len(passes),
        "spans": [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "op": s[5]}
            for s in recorder.spans
        ],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
