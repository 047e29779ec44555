"""Span tracer for the traced run.

The library is instrumented from outside: each function named in
``SPANS`` is replaced, in every ``ncspheres`` module that binds it, by a
wrapper that records a span (name, start, end, parent, job).  Methods are
replaced on their class.  Spans live in flat arrays until the run ends;
``summary`` then turns them into per-layer calls and self times, and
``write`` dumps them as CSV.

A layer's self time is its span's duration minus the durations of its
child spans.  Time inside a job that no layer span covers (output capture,
argument parsing in the benchmark) is the benchmark's own time,
``bench.self_s``.  Counter hooks run after a span closes; their time is
taken out of the enclosing span and reported as ``trace.hook_s``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

JOB_SPAN = "bench.job"


def _items(t, args, kwargs, result):
    t.counts["partitions.enumerate_partitions.items"] += len(result)


def _t_map_entries(t, args, kwargs, result):
    t.counts["tensors.t_map.entries"] += len(result.entries)


def _delta_nonzero(t, args, kwargs, result):
    t.counts["tensors.delta.nonzero"] += result != 0


def _pairings_repeat(t, args, kwargs, result):
    t.repeat("weingarten.category_pairings", (args, tuple(sorted(kwargs.items()))))


def _gram_entries(t, args, kwargs, result):
    t.counts["weingarten.gram.entries"] += result.nrows * result.ncols


def _inverse(t, args, kwargs, result):
    matrix = args[0]
    t.maxima["weingarten.inverse.dim_max"] = max(
        t.maxima["weingarten.inverse.dim_max"], matrix.nrows)
    t.repeat("weingarten.inverse", hash(tuple(map(tuple, matrix.data))))


def _undetermined(t, args, kwargs, result):
    t.counts["relations.classify.undetermined"] += result == "undetermined"


def _saturate(t, args, kwargs, result):
    t.counts["relations.saturate.rules_promoted"] += len(result.engine.extra_rules)
    t.counts["relations.saturate.truncated"] += bool(result.truncated)


def _reduce_steps(t, args, kwargs, result):
    t.counts["relations.reduce.trace_steps"] += len(result[1])


# span name, module, attribute (``Class.method`` for methods), counter hook
SPANS = [
    ("partitions.enumerate_partitions", "ncspheres.partitions", "enumerate_partitions", _items),
    ("partitions.join", "ncspheres.partitions", "join", None),
    ("partitions.signature", "ncspheres.partitions", "signature", None),
    ("partitions.kernel", "ncspheres.partitions", "kernel", None),
    ("tensors.t_map", "ncspheres.tensors", "t_map", _t_map_entries),
    ("tensors.delta", "ncspheres.tensors", "delta", _delta_nonzero),
    ("tensors.tensor", "ncspheres.tensors", "SparseTensorMap.tensor", None),
    ("tensors.matmul", "ncspheres.tensors", "SparseTensorMap.matmul", None),
    ("tensors.compose", "ncspheres.tensors", "compose", None),
    ("weingarten.category_pairings", "ncspheres.weingarten", "category_pairings", _pairings_repeat),
    ("weingarten.gram", "ncspheres.weingarten", "gram", _gram_entries),
    ("weingarten.inverse", "ncspheres.weingarten", "ExactMatrix.inverse", _inverse),
    ("weingarten.rank", "ncspheres.weingarten", "ExactMatrix.rank", None),
    ("weingarten.moment", "ncspheres.weingarten", "moment", None),
    ("relations.classify", "ncspheres.relations", "classify_monomial_sphere", _undetermined),
    ("relations.saturate", "ncspheres.relations", "saturate", _saturate),
    ("relations.reduce", "ncspheres.relations", "reduce", _reduce_steps),
    ("relations.relation_group", "ncspheres.relations", "relation_group", None),
    ("models.check_intertwiner", "ncspheres.models", "check_intertwiner", None),
    ("models.check_fixed_vector_identity", "ncspheres.models", "check_fixed_vector_identity", None),
    ("models.check_sphere_relations", "ncspheres.models", "check_sphere_relations", None),
    ("models.haar_moment_mc", "ncspheres.models", "haar_moment_mc", None),
    ("cli.main", "ncspheres.cli", "main", None),
]

# per-layer metrics beyond calls and self time, with their units
EXTRA_METRICS = [
    ("partitions.enumerate_partitions.items", "count"),
    ("tensors.t_map.entries", "count"),
    ("tensors.delta.nonzero_frac", "frac"),
    ("weingarten.category_pairings.repeat_frac", "frac"),
    ("weingarten.gram.entries", "count"),
    ("weingarten.inverse.dim_max", "count"),
    ("weingarten.inverse.repeat_frac", "frac"),
    ("relations.classify.undetermined", "count"),
    ("relations.saturate.rules_promoted", "count"),
    ("relations.saturate.truncated", "count"),
    ("relations.reduce.trace_steps", "count"),
    ("bench.self_s", "s"),
    ("trace.hook_s", "s"),
]


def metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric a traced worker reports, with its unit."""
    out = []
    for name, *_ in SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    return out + EXTRA_METRICS


class Tracer:
    def __init__(self):
        self.names = [JOB_SPAN] + [name for name, *_ in SPANS]
        self.ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.jobs = array("i")
        self.stack = [-1]
        self.job = -1
        self.hook_ns: defaultdict[int, int] = defaultdict(int)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.seen: defaultdict[str, set] = defaultdict(set)
        self.missing: list[str] = []

    def repeat(self, name: str, key):
        """Count a call whose input was already seen in this process."""
        self.counts[f"{name}.repeat"] += key in self.seen[name]
        self.seen[name].add(key)

    def wrap(self, span_id: int, fn, hook=None):
        ids, starts, ends = self.ids, self.starts, self.ends
        parents, jobs, stack = self.parents, self.jobs, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            ids.append(span_id)
            parents.append(stack[-1])
            jobs.append(self.job)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                t0 = clock()
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # the library's return type changed; skip the counter
                self.hook_ns[stack[-1]] += clock() - t0
            return result

        return wrapper

    def install(self):
        """Replace every traced function in every loaded ncspheres module."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ncspheres" or name.startswith("ncspheres.")]
        for span_id, (name, module, attr, hook) in enumerate(SPANS, start=1):
            try:
                owner = importlib.import_module(module)
                path = attr.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapped = self.wrap(span_id, original, hook)
            if len(path) > 1:
                setattr(owner, path[-1], wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def summary(self) -> dict[str, float]:
        """Per-layer calls, self times and counters over all spans."""
        n = len(self.starts)
        child_ns = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_ns[p] += self.ends[i] - self.starts[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(n):
            name = self.names[self.ids[i]]
            calls[name] += 1
            self_ns[name] += (self.ends[i] - self.starts[i]) - child_ns[i] - self.hook_ns.get(i, 0)
        out: dict[str, float] = {}
        for name, *_ in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9

        def frac(num, den):
            return num / den if den else 0.0

        c = self.counts
        out.update({
            "partitions.enumerate_partitions.items": c["partitions.enumerate_partitions.items"],
            "tensors.t_map.entries": c["tensors.t_map.entries"],
            "tensors.delta.nonzero_frac": frac(c["tensors.delta.nonzero"], calls["tensors.delta"]),
            "weingarten.category_pairings.repeat_frac": frac(
                c["weingarten.category_pairings.repeat"], calls["weingarten.category_pairings"]),
            "weingarten.gram.entries": c["weingarten.gram.entries"],
            "weingarten.inverse.dim_max": self.maxima["weingarten.inverse.dim_max"],
            "weingarten.inverse.repeat_frac": frac(
                c["weingarten.inverse.repeat"], calls["weingarten.inverse"]),
            "relations.classify.undetermined": c["relations.classify.undetermined"],
            "relations.saturate.rules_promoted": c["relations.saturate.rules_promoted"],
            "relations.saturate.truncated": c["relations.saturate.truncated"],
            "relations.reduce.trace_steps": c["relations.reduce.trace_steps"],
            "bench.self_s": self_ns[JOB_SPAN] / 1e9,
            "trace.hook_s": sum(self.hook_ns.values()) / 1e9,
        })
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("job,span,start_ns,end_ns,parent\n")
            for i in range(len(self.starts)):
                fh.write(f"{self.jobs[i]},{self.names[self.ids[i]]},"
                         f"{self.starts[i]},{self.ends[i]},{self.parents[i]}\n")
