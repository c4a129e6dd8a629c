"""Outside-in span tracing of dllab's layers.

The benchmark never edits the package. Instead `install` replaces selected
functions with recording wrappers in every loaded ``dllab`` module namespace
that holds them; ``cli``, ``group`` and ``qilab`` import ``dlgraph`` and
``algebra`` names with ``from ... import``, so patching the defining module
alone would miss those call sites. ``BoundaryMap.clone_preimages`` is wrapped
on the class.

Each call records one span (name, start, end, parent) into flat arrays that
stay in memory until `Recorder.summary` reduces them when the pass ends.
Generator functions record one span per generator whose busy time is the sum
of its resumptions, so a consumer's work between items is not charged to the
generator. Self time is busy time minus the busy time of child spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (module, attribute, metric layer name, per-call count) for every traced
# function. The count, when given, maps a call's result to a number added to
# "<layer>.<count name>".
TARGETS = (
    ("algebra", "rational", "algebra.rational", None),
    ("algebra", "rat_add", "algebra.rat_add", None),
    ("algebra", "rat_scale_unit", "algebra.rat_scale_unit", None),
    ("algebra", "expand_local", "algebra.expand_local", None),
    ("algebra", "valuation", "algebra.valuation", None),
    ("group", "multiply", "group.multiply", None),
    ("group", "correspond", "group.correspond", None),
    ("group", "cayley_ball", "group.cayley_ball", ("elements", lambda r: len(r.elements))),
    ("group", "validate_correspondence", "group.validate_correspondence", None),
    ("dlgraph", "dl_neighbors", "dlgraph.dl_neighbors", ("out", len)),
    ("dlgraph", "dl_key", "dlgraph.dl_key", None),
    ("dlgraph", "dl_adjacent", "dlgraph.dl_adjacent", None),
    ("dlgraph", "ball", "dlgraph.ball", ("vertices", lambda r: len(r.vertices))),
    ("dlgraph", "dl_distance", "dlgraph.dl_distance", None),
    ("dlgraph", "box_size", "dlgraph.box_size", None),
    ("dlgraph", "box_boundary_size", "dlgraph.box_boundary_size", None),
    ("dlgraph", "export_dot", "dlgraph.export", ("bytes", lambda r: len(r.encode()))),
    ("dlgraph", "export_json", "dlgraph.export", ("bytes", lambda r: len(r.encode()))),
    ("qilab", "preimage_count", "qilab.preimage_count", None),
    ("qilab", "uf_chain_scan", "qilab.uf_chain_scan", None),
    ("qilab", "fiber_count_audit", "qilab.fiber_count_audit", None),
    ("qilab", "umap", "qilab.umap", None),
    ("qilab", "psi_apply", "qilab.psi_apply", None),
    ("qilab", "distortion", "qilab.distortion", None),
    ("cli", "main", "cli.main", None),
)
GENERATOR_TARGETS = (
    ("dlgraph", "box_members", "dlgraph.box_members"),
    ("dlgraph", "tree_descendants", "dlgraph.tree_descendants"),
)
METHOD_TARGETS = (
    ("qilab", "BoundaryMap", "clone_preimages", "qilab.clone_preimages", ("out", len)),
)

# Per-layer metrics a traced pass reports: (metric name, unit). Every one is
# reported on every workload; a layer a workload never reaches reads 0.
LAYER_METRICS = (
    ("qilab.preimage_count.calls", "count"),
    ("qilab.preimage_count.self_s", "s"),
    ("qilab.clone_preimages.calls", "count"),
    ("qilab.clone_preimages.self_s", "s"),
    ("qilab.clone_preimages.split_ratio", "clones/call"),
    ("qilab.uf_chain_scan.total_s", "s"),
    ("qilab.fiber_count_audit.total_s", "s"),
    ("dlgraph.box_members.yielded", "count"),
    ("dlgraph.box_members.self_s", "s"),
    ("dlgraph.box_size.self_s", "s"),
    ("dlgraph.box_boundary_size.self_s", "s"),
    ("algebra.rational.calls", "count"),
    ("algebra.rational.self_s", "s"),
    ("algebra.rat_add.calls", "count"),
    ("algebra.rat_add.self_s", "s"),
    ("algebra.rat_scale_unit.calls", "count"),
    ("algebra.rat_scale_unit.self_s", "s"),
    ("algebra.expand_local.calls", "count"),
    ("algebra.expand_local.self_s", "s"),
    ("algebra.valuation.self_s", "s"),
    ("group.multiply.calls", "count"),
    ("group.multiply.self_s", "s"),
    ("group.correspond.calls", "count"),
    ("group.correspond.self_s", "s"),
    ("group.cayley_ball.elements", "count"),
    ("group.cayley_ball.self_s", "s"),
    ("group.validate_correspondence.total_s", "s"),
    ("dlgraph.dl_neighbors.calls", "count"),
    ("dlgraph.dl_neighbors.self_s", "s"),
    ("dlgraph.dl_neighbors.out", "count"),
    ("dlgraph.dl_key.calls", "count"),
    ("dlgraph.dl_key.self_s", "s"),
    ("dlgraph.dl_adjacent.calls", "count"),
    ("dlgraph.dl_adjacent.self_s", "s"),
    ("dlgraph.ball.vertices", "count"),
    ("dlgraph.ball.self_s", "s"),
    ("dlgraph.dl_distance.calls", "count"),
    ("dlgraph.dl_distance.self_s", "s"),
    ("dlgraph.dl_distance.miss_ratio", "ratio"),
    ("qilab.umap.calls", "count"),
    ("qilab.umap.self_s", "s"),
    ("qilab.psi_apply.calls", "count"),
    ("qilab.psi_apply.self_s", "s"),
    ("dlgraph.tree_descendants.yielded", "count"),
    ("dlgraph.tree_descendants.self_s", "s"),
    ("qilab.distortion.total_s", "s"),
    ("dlgraph.export.bytes", "B"),
    ("dlgraph.export.self_s", "s"),
    ("cli.main.total_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.payload.bytes", "B"),
    ("trace.overhead_s", "s"),
)


class Recorder:
    """Span store: parallel arrays indexed by span id."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.counts = {}
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add_count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def summary(self) -> dict:
        """Reduce the spans to per-layer calls, self and total time."""
        n = len(self.name_of)
        child = [0.0] * n
        parent, busy, name_of = self.parent, self.busy, self.name_of
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += busy[i]
        out = {}
        for i in range(n):
            name = self.names[name_of[i]]
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += busy[i] - child[i]
            agg["total_s"] += busy[i]
        for key, value in self.counts.items():
            name, _, field = key.rpartition(".")
            out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})[field] = value
        # a distance lookup missed its memo when a neighbour expansion ran
        # beneath it, i.e. the lookup fell through to a BFS
        dist = self._name_ids.get("dlgraph.dl_distance")
        nbr = self._name_ids.get("dlgraph.dl_neighbors")
        if dist is not None:
            missed = set()
            for i in range(n):
                if name_of[i] != nbr:
                    continue
                p = parent[i]
                while p >= 0 and name_of[p] != dist:
                    p = parent[p]
                if p >= 0:
                    missed.add(p)
            out.setdefault("dlgraph.dl_distance", {"calls": 0})["misses"] = len(missed)
        return out


def _wrap_call(rec: Recorder, name: str, fn, count):
    nid = rec.name_id(name)
    stack, name_of, parent, start, end, busy = (
        rec.stack, rec.name_of, rec.parent, rec.start, rec.end, rec.busy,
    )
    count_key = f"{name}.{count[0]}" if count else None
    count_fn = count[1] if count else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = len(name_of)
        name_of.append(nid)
        parent.append(stack[-1])
        stack.append(sid)
        t0 = perf_counter()
        start.append(t0)
        end.append(t0)
        busy.append(0.0)
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            end[sid] = t1
            busy[sid] = t1 - t0
        if count_key is not None:
            rec.add_count(count_key, count_fn(result))
        return result

    return traced


def _wrap_generator(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)
    stack, name_of, parent, start, end, busy = (
        rec.stack, rec.name_of, rec.parent, rec.start, rec.end, rec.busy,
    )
    count_key = f"{name}.yielded"

    def iterate(inner, sid):
        yielded = 0
        try:
            while True:
                stack.append(sid)
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    busy[sid] += t1 - t0
                    end[sid] = t1
                yielded += 1
                yield item
        finally:
            inner.close()
            rec.add_count(count_key, yielded)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = len(name_of)
        name_of.append(nid)
        parent.append(stack[-1])
        now = perf_counter()
        start.append(now)
        end.append(now)
        busy.append(0.0)
        return iterate(fn(*args, **kwargs), sid)

    return traced


def install(rec: Recorder) -> "list[str]":
    """Wrap every target in every loaded dllab module; return those not found."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "dllab" or n.startswith("dllab.")]
    by_short = {m.__name__.rpartition(".")[2]: m for m in modules}
    missing = []

    def patch(home: str, attr: str, make) -> None:
        mod = by_short.get(home)
        original = getattr(mod, attr, None) if mod is not None else None
        if original is None:
            missing.append(f"{home}.{attr}")
            return
        wrapped = make(original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)

    for home, attr, name, count in TARGETS:
        patch(home, attr, lambda f, name=name, count=count: _wrap_call(rec, name, f, count))
    for home, attr, name in GENERATOR_TARGETS:
        patch(home, attr, lambda f, name=name: _wrap_generator(rec, name, f))
    for home, cls_name, attr, name, count in METHOD_TARGETS:
        cls = getattr(by_short.get(home), cls_name, None)
        original = getattr(cls, attr, None) if cls is not None else None
        if original is None:
            missing.append(f"{home}.{cls_name}.{attr}")
            continue
        setattr(cls, attr, _wrap_call(rec, name, original, count))
    return missing


def layer_metrics(summary: dict, payload_bytes: int) -> dict:
    """Map a Recorder summary to the LAYER_METRICS names (without overhead)."""

    def get(layer: str, field: str):
        return summary.get(layer, {}).get(field, 0)

    out = {}
    for metric, _unit in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if metric == "trace.overhead_s":
            continue
        if metric == "cli.payload.bytes":
            out[metric] = payload_bytes
        elif metric == "dlgraph.dl_distance.miss_ratio":
            calls = get(layer, "calls")
            out[metric] = get(layer, "misses") / calls if calls else 0.0
        elif metric == "qilab.clone_preimages.split_ratio":
            calls = get(layer, "calls")
            out[metric] = get(layer, "out") / calls if calls else 0.0
        else:
            out[metric] = get(layer, field)
    return out
