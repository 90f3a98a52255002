"""Spans around the package's public functions, for the benchmark's traced
run.

Each wrapper replaces a function where its callers look it up (for
example ``facealign.cascade.fit_node``, which ``_TreeBuilder.build`` reads
from the module at call time) and records a span: name, start, end, parent
span and the run phase it happened in. Spans stay in memory until the run
writes them out. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

NAME, START, END, PARENT, PHASE, FAILED, VALUE = range(7)


def _path_size(args, kwargs, out, pos=1):
    path = kwargs.get("path", args[pos] if len(args) > pos else None)
    return os.path.getsize(path)


# (module, attribute, span name, value recorded from (args, kwargs, result))
TARGETS = (
    ("facealign.synthetic", "SyntheticMapSource.maps_for", "maps.synthetic_request", None),
    ("facealign.synthetic", "FileMapSource.maps_for", "maps.file_request", None),
    ("facealign.synthetic", "synthesize", "maps.synthesize", None),
    ("facealign.synthetic", "read_maps", "maps.read", None),
    ("facealign.cascade", "robust_init", "pose.robust_init", None),
    ("facealign.synthetic", "robust_init", "pose.robust_init", None),
    ("facealign.pose", "fit_pose", "pose.fit_pose", None),
    ("facealign.pose", "score_shape", "pose.score_shape", None),
    ("facealign.cascade", "gen_candidates", "features.gen_candidates", None),
    ("facealign.cascade", "extract_pattern_values", "features.extract", None),
    ("facealign.cascade", "fit_node", "cascade.fit_node", None),
    ("facealign.cascade", "fit_tree", "cascade.fit_tree", lambda a, k, out: out.n_nodes),
    ("facealign.cascade", "train_parts", "cascade.train_parts", None),
    ("facealign.cascade", "apply_stage", "cascade.apply_stage", None),
    ("facealign.cascade", "predict", "cascade.predict", None),
    ("facealign.pipeline", "save_model", "modelio.save", _path_size),
    ("facealign.modelio", "load_model", "modelio.load",
     lambda a, k, out: _path_size(a, k, out, pos=0)),
)


class Tracer:
    """Records spans from wrapped package functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, value_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.phase, False, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if value_of is not None:
                span[VALUE] = value_of(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for module_name, attr, name, value_of in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, leaf = attr.split(".")
            for o in owners:
                owner = getattr(owner, o)
            fn = getattr(owner, leaf)
            self._undo.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(fn, name, value_of))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, fn = self._undo.pop()
            setattr(owner, leaf, fn)


def span_stats(spans, phase: str | None = None) -> dict:
    """Per span name: calls, failed calls, total and self seconds, and the
    sum of recorded values, over the spans of one phase (all if None)."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
    out = defaultdict(lambda: {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0,
                               "value": 0})
    for i, s in enumerate(spans):
        if phase is not None and s[PHASE] != phase:
            continue
        st = out[s[NAME]]
        dur = s[END] - s[START]
        st["calls"] += 1
        st["failed"] += int(s[FAILED])
        st["total_s"] += dur
        st["self_s"] += dur - child_s[i]
        st["value"] += s[VALUE] or 0
    return dict(out)


PER_LAYER_UNITS = {
    "maps.requests": "count/op", "maps.synthesized": "count/op",
    "maps.cache_hit_ratio": "ratio", "maps.synth_s": "s/op",
    "maps.read_calls": "count/op", "maps.read_s": "s/op",
    "pose.robust_init_calls": "count/op", "pose.robust_init_s": "s/op",
    "pose.fit_pose_calls": "count/op", "pose.fit_pose_failed": "count/op",
    "pose.fit_pose_s": "s/op", "pose.score_shape_s": "s/op",
    "pose.init_fallbacks": "count/op",
    "features.gen_candidates_calls": "count/op", "features.gen_candidates_s": "s/op",
    "features.extract_calls": "count/op", "features.extract_s": "s/op",
    "cascade.fit_node_calls": "count/op", "cascade.nodes_split": "count/op",
    "cascade.split_ratio": "ratio", "cascade.fit_node_s": "s/op",
    "cascade.fit_tree_s": "s/op", "cascade.trees_fitted": "count/op",
    "cascade.stages": "count/op", "cascade.train_parts_s": "s/op",
    "cascade.apply_stage_s": "s/op", "cascade.predict_self_s": "s/op",
    "modelio.save_s": "s/call", "modelio.load_s": "s/call", "modelio.model_bytes": "bytes",
}


def layer_metrics(spans, ops: int, time_scale: float) -> dict:
    """Per-layer metrics of the timed phase, per operation (one training or
    one served face). Self times are multiplied by time_scale, the run's
    drift normalisation factor. Model save and load are per call over the
    whole run, since serving loads its model during set-up."""
    t = span_stats(spans, "timed")
    every = span_stats(spans)

    def g(name, key):
        return t.get(name, {}).get(key, 0)

    def per_op(name, key="calls"):
        v = g(name, key) / ops
        return v * time_scale if key == "self_s" else v

    def per_call(name):
        st = every.get(name)
        return st["total_s"] / st["calls"] * time_scale if st else 0.0

    synth_requests = g("maps.synthetic_request", "calls")
    nodes = g("cascade.fit_tree", "value")
    fit_nodes = g("cascade.fit_node", "calls")
    sizes = [s[VALUE] for s in spans if s[NAME] in ("modelio.save", "modelio.load")]
    m = {
        "maps.requests": (synth_requests + g("maps.file_request", "calls")) / ops,
        "maps.synthesized": per_op("maps.synthesize"),
        "maps.cache_hit_ratio": (1.0 - g("maps.synthesize", "calls") / synth_requests
                                 if synth_requests else 0.0),
        "maps.synth_s": per_op("maps.synthesize", "self_s"),
        "maps.read_calls": per_op("maps.read"),
        "maps.read_s": per_op("maps.read", "self_s"),
        "pose.robust_init_calls": per_op("pose.robust_init"),
        "pose.robust_init_s": per_op("pose.robust_init", "self_s"),
        "pose.fit_pose_calls": per_op("pose.fit_pose"),
        "pose.fit_pose_failed": per_op("pose.fit_pose", "failed"),
        "pose.fit_pose_s": per_op("pose.fit_pose", "self_s"),
        "pose.score_shape_s": per_op("pose.score_shape", "self_s"),
        "pose.init_fallbacks": per_op("pose.robust_init", "failed"),
        "features.gen_candidates_calls": per_op("features.gen_candidates"),
        "features.gen_candidates_s": per_op("features.gen_candidates", "self_s"),
        "features.extract_calls": per_op("features.extract"),
        "features.extract_s": per_op("features.extract", "self_s"),
        "cascade.fit_node_calls": fit_nodes / ops,
        "cascade.nodes_split": nodes / ops,
        "cascade.split_ratio": nodes / fit_nodes if fit_nodes else 0.0,
        "cascade.fit_node_s": per_op("cascade.fit_node", "self_s"),
        "cascade.fit_tree_s": per_op("cascade.fit_tree", "self_s"),
        "cascade.trees_fitted": per_op("cascade.fit_tree"),
        "cascade.stages": per_op("cascade.train_parts"),
        "cascade.train_parts_s": per_op("cascade.train_parts", "self_s"),
        "cascade.apply_stage_s": per_op("cascade.apply_stage", "self_s"),
        "cascade.predict_self_s": per_op("cascade.predict", "self_s"),
        "modelio.save_s": per_call("modelio.save"),
        "modelio.load_s": per_call("modelio.load"),
        "modelio.model_bytes": max(sizes) if sizes else 0,
    }
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in m.items()}
