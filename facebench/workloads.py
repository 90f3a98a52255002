"""The benchmark's three workloads: set-up, timed phase and output checks.

Every workload runs in one process on one thread. Every corpus is fixed:
on sets of 40-60 faces the mean NME moves by about a quarter from one
random face set to the next, more than any useful bound, so the seed only
sets the order in which faces are served.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from facealign import cascade, default_model3d, default_schema, modelio, pipeline, pose
from facealign.heatmaps import SynthConfig, read_maps, synthesize
from facealign.metrics import evaluate
from facealign.pipeline import RunConfig
from facealign.synthetic import (
    CorpusConfig,
    FileMapSource,
    SyntheticMapSource,
    generate_corpus,
    write_corpus,
)

from benchlib import (
    RefSampler,
    busy_since,
    gather_score,
    nme_pct,
    normalise,
    normalise_series,
    reference_loop,
    run_queue_wait_s,
    tail_percentile,
)

HERE = os.path.dirname(os.path.abspath(__file__))

# Map noise of every corpus: 1 px coordinate jitter and 10% outlier peaks.
SYNTH = {"coordinate_noise_sigma": 1.0, "outlier_rate": 0.1}
TRAIN_SEED = 5  # RunConfig.seed of every model the benchmark trains

# train: 300 faces, more than the 256 maps RunConfig.map_source caches, so
# the faces past the cache are synthesised again at every stage.
TRAIN_CORPUS = {"count": 300, "seed": 1_000_003, "tag": "train"}
TRAIN_PARAMS = {"T": 4, "K1": 12, "K2": 6, "depth": 3, "candidates_per_node": 16,
                "shrinkage": 0.3, "Z": 5}
# a 60-face validation split keeps early stopping from ending training
# after the first (coarse) stage on the heavy-tailed 3D-init errors
VAL_FRACTION = 0.2
TRAIN_SETUPS = 9
MIN_TRAININGS = 3
# the trained model serves these faces in two rounds, untimed by --seconds
HELD_OUT = {"count": 60, "seed": 6_000_001, "tag": "heldout"}

SERVE = {
    "serve_3d": {
        "config": {"corpus": {"count": 40, "seed": 2_000_003, "tag": "fit3d"},
                   "init_mode": "3d", "val_fraction": VAL_FRACTION,
                   "train": {"T": 3, "K1": 10, "K2": 5, "depth": 3,
                             "candidates_per_node": 16, "shrinkage": 0.3, "Z": 25}},
        "pool": {"count": 60, "seed": 5_000_011, "tag": "serve3d"},
        "min_faces": 200,
        "files": False,
    },
    "serve_mean_files": {
        "config": {"corpus": {"count": 60, "seed": 3_000_017, "tag": "fitmean"},
                   "init_mode": "mean", "val_fraction": VAL_FRACTION,
                   "train": {"T": 4, "K1": 10, "K2": 6, "depth": 4,
                             "candidates_per_node": 16, "shrinkage": 0.25}},
        "pool": {"count": 50, "seed": 5_000_101, "tag": "servefiles"},
        "min_faces": 1000,
        "files": True,
    },
}
SERVE_SETUPS = 3
CHILD_TIMEOUT_S = 150
# Faces on which the in-memory model (in the training child) and the
# reloaded model must predict bitwise alike.
CHECK_SPEC = {"corpus": {"count": 4, "seed": 4_000_037, "tag": "check"}, "map_seed": 4_000_037}
# served faces checked again against robust_init, the synthesised maps or
# the in-memory model
CHECK_FACES = 8


class Run:
    """What one benchmark run collects: metrics, checks, counts, raw times."""

    def __init__(self, workload: str, seed: int, seconds: float, tmp: str, tracer=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.tracer = tracer
        self.metrics: dict = {}
        self.checks: dict = {}
        self.raw: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.timed_refs: list[float] = []
        self.trace_ops = 0  # operations the per-layer metrics are divided by

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def check(self, name: str, ok, detail: str = "") -> None:
        self.checks[name] = {"ok": bool(ok), "detail": detail}

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append("".join(traceback.format_exception(exc)))


def _measure_setups(run: Run, sampler: RefSampler, setup, repeats: int) -> list:
    outs, raw, norm = [], [], []
    for k in range(repeats):
        out, r, refs = sampler.timed(setup, k)
        outs.append(out)
        raw.append(r)
        norm.append(normalise(r, statistics.median(refs)))
    run.metric("setup_s", statistics.median(norm), "s")
    run.raw["setup_s"] = raw
    return outs


def _same(a, b) -> bool:
    return (a.used_fallback == b.used_fallback
            and np.array_equal(a.shape.coords, b.shape.coords)
            and np.array_equal(a.shape.visibility, b.shape.visibility)
            and np.array_equal(a.init_shape.coords, b.init_shape.coords))


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_predictions(run: Run, preds, samples) -> float:
    """Checks every workload makes on its final predictions; returns NME %."""
    coords = np.stack([p.shape.coords for p in preds])
    init = np.stack([p.init_shape.coords for p in preds])
    vis = np.stack([p.shape.visibility for p in preds])
    gt = np.stack([s.ground_truth.coords for s in samples])
    ann = np.stack([s.ground_truth.annotated for s in samples])
    bboxes = np.array([s.bbox for s in samples], dtype=np.float64)
    own = nme_pct(coords, gt, ann, bboxes)
    report = evaluate([p.shape for p in preds], [s.ground_truth for s in samples],
                      [s.bbox for s in samples], normalization="height")
    run.check("nme_matches_evaluate", abs(own - report.nme) <= 1e-9,
              f"own {own!r} evaluate {report.nme!r}")
    own_init = nme_pct(init, gt, ann, bboxes)
    run.check("final_nme_below_initial", own < own_init, f"final {own:.4f} initial {own_init:.4f}")
    run.check("coords_finite", np.isfinite(coords).all() and np.isfinite(init).all())
    run.check("visibility_in_unit_interval", bool(((vis >= 0.0) & (vis <= 1.0)).all()))
    return own


@contextlib.contextmanager
def _keep_saved_models(store: list):
    """Keep the last model run_train saves, to compare the reloaded file
    with the model as it was in memory."""
    original = pipeline.save_model

    def save_and_keep(model, path):
        store[:] = [model]
        return original(model, path)

    pipeline.save_model = save_and_keep
    try:
        yield
    finally:
        pipeline.save_model = original


def _serve_loop(run: Run, model, faces, source, min_faces: int, seconds: float):
    """Closed loop, one caller: per face, maps_for then cascade.predict.

    Each round sends every face once, in an order drawn from the seed; the
    loop ends after the round in which both min_faces and seconds are
    reached. A reference_loop runs before each face. Sets the latency
    metrics; returns the first round's predictions, in face order, and the
    reference samples.
    """
    order_rng = np.random.default_rng(run.seed)
    lat, refs, first = [], [], [None] * len(faces)
    mismatches, rounds = 0, 0
    wait_start, start = run_queue_wait_s(), time.perf_counter()
    while rounds == 0 or len(lat) < min_faces or time.perf_counter() - start < seconds:
        for i in order_rng.permutation(len(faces)):
            s = faces[i]
            refs.append(reference_loop())
            wait0, t0 = run_queue_wait_s(), time.perf_counter()
            try:
                pred = cascade.predict(model, source.maps_for(s), s.bbox)
            except Exception as exc:  # an operation that fails is counted, not fatal
                pred = None
                run.fail(exc)
            lat.append(busy_since(t0, wait0))
            if rounds == 0:
                first[i] = pred
            elif pred is not None and first[i] is not None and not _same(pred, first[i]):
                mismatches += 1
        rounds += 1
    run.attempted += len(lat)
    loop_wall, loop_wait = time.perf_counter() - start, run_queue_wait_s() - wait_start

    p_tail = tail_percentile(min_faces)
    norm = normalise_series(lat, refs)
    run.metric("latency_p50_ms", statistics.median(norm) * 1e3, "ms")
    run.metric("latency_tail_ms", np.percentile(norm, p_tail) * 1e3, "ms")
    run.raw.update({
        "faces": len(lat), "rounds": rounds, "tail_percentile": p_tail,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": float(np.percentile(lat, p_tail)) * 1e3,
        "serve_wall_s": loop_wall, "serve_run_queue_wait_s": loop_wait,
    })
    run.check("repeat_prediction_identical", rounds >= 2 and mismatches == 0,
              f"{rounds} rounds, {mismatches} mismatches")
    return first, refs


def run_train(run: Run) -> None:
    """Timed operation: one pipeline.run_train on the fixed corpus file.
    The saved model then serves the held-out faces."""
    model3d, schema = default_model3d(), default_schema()
    held_cfg = CorpusConfig(**HELD_OUT)

    def setup(k):
        cfg = RunConfig(corpus=TRAIN_CORPUS, synth=SYNTH, seed=TRAIN_SEED,
                        output_dir=os.path.join(run.tmp, f"corpus{k}"))
        pipeline.run_synth(cfg, write_map_files=False)
        held = generate_corpus(model3d, schema, held_cfg)
        return os.path.join(cfg.output_dir, "annotations.jsonl"), held

    saved: list = []
    raw, norm, digests = [], [], set()
    trainings = 0
    with RefSampler() as sampler, _keep_saved_models(saved):
        run.phase("setup")
        dataset_path, held = _measure_setups(run, sampler, setup, TRAIN_SETUPS)[-1]
        # run_train reads the corpus file itself, so every training gets
        # fresh Sample objects (train_model writes initials into them)
        cfg = RunConfig(dataset=dataset_path, synth=SYNTH, train=TRAIN_PARAMS,
                        init_mode="3d", feature_mode="heatmap", coarse_to_fine=True,
                        seed=TRAIN_SEED, val_fraction=VAL_FRACTION,
                        output_dir=os.path.join(run.tmp, "model"))
        run.phase("timed")
        first_ref = len(sampler.samples)
        wait_start, start = run_queue_wait_s(), time.perf_counter()
        model_path = None
        while trainings < MIN_TRAININGS or time.perf_counter() - start < run.seconds:
            trainings += 1
            try:
                model_path, r, refs = sampler.timed(pipeline.run_train, cfg)
            except Exception as exc:  # an operation that fails is counted, not fatal
                run.fail(exc)
                continue
            raw.append(r)
            norm.append(normalise(r, statistics.median(refs)))
            digests.add(_digest(model_path))
        run.timed_refs = sampler.samples[first_ref:]
        run.raw["train_wall_s"] = time.perf_counter() - start
        run.raw["train_run_queue_wait_s"] = run_queue_wait_s() - wait_start
    run.attempted += trainings
    run.trace_ops = trainings
    run.raw["train_s"] = raw
    if not raw:
        return
    run.metric("train_s", statistics.median(norm), "s")
    run.metric("model_kb", os.path.getsize(model_path) / 1024.0, "KB")
    run.check("trainings_byte_identical", len(digests) == 1, f"{len(digests)} distinct models")

    run.phase("serve")
    loaded = modelio.load_model(model_path)
    source = SyntheticMapSource(SynthConfig(**SYNTH), held_cfg.seed)
    faces = held.samples
    preds, _ = _serve_loop(run, loaded, faces, source, 2 * len(faces), 0.0)
    run.phase("check")
    ok = [(p, s) for p, s in zip(preds, faces) if p is not None]
    run.metric("nme_pct", _check_predictions(run, *zip(*ok)), "%")
    run.check("reload_equals_in_memory",
              all(_same(cascade.predict(saved[0], source.maps_for(s), s.bbox), p)
                  for p, s in ok[:CHECK_FACES]))


def _serve_setup(run: Run, spec: dict, pool_cfg: CorpusConfig, k: int):
    model3d, schema = default_model3d(), default_schema()
    out = os.path.join(run.tmp, f"setup{k}")
    child_cfg = {**spec["config"], "synth": SYNTH, "seed": TRAIN_SEED}
    subprocess.run(
        [sys.executable, os.path.join(HERE, "train_child.py"),
         "--config", json.dumps(child_cfg), "--check", json.dumps(CHECK_SPEC), "--out", out],
        check=True, timeout=CHILD_TIMEOUT_S,
    )
    pool = generate_corpus(model3d, schema, pool_cfg)
    synth_cfg = SynthConfig(**SYNTH)
    if spec["files"]:
        write_corpus(pool, synth_cfg, os.path.join(out, "pool"), pool_cfg)
        source = FileMapSource(os.path.join(out, "pool", "maps"), schema)
    else:
        source = SyntheticMapSource(synth_cfg, pool_cfg.seed)
    return out, pool, source, modelio.load_model(os.path.join(out, "model.facm"))


def run_serve(run: Run) -> None:
    """Timed operation: one face served by the model trained at set-up."""
    spec = SERVE[run.workload]
    pool_cfg = CorpusConfig(**spec["pool"])
    with RefSampler() as sampler:
        run.phase("setup")
        setups = _measure_setups(
            run, sampler, lambda k: _serve_setup(run, spec, pool_cfg, k), SERVE_SETUPS)
    child_runs = []
    for s in setups:
        with open(os.path.join(s[0], "train.json"), encoding="utf-8") as fh:
            child_runs.append(json.load(fh))
    run.metric("train_s", statistics.median(c["train_s"] for c in child_runs), "s")
    run.raw["train_s"] = [c["raw_s"] for c in child_runs]
    models = {_digest(os.path.join(s[0], "model.facm")) for s in setups}
    run.check("setup_models_byte_identical", len(models) == 1, f"{len(models)} distinct models")
    for s in setups[:-1]:
        shutil.rmtree(s[0])
    out, pool, source, model = setups[-1]
    run.metric("model_kb", os.path.getsize(os.path.join(out, "model.facm")) / 1024.0, "KB")

    run.phase("timed")
    faces = pool.samples
    preds, run.timed_refs = _serve_loop(run, model, faces, source, spec["min_faces"],
                                        run.seconds)
    run.trace_ops = run.attempted

    run.phase("check")
    ok = [(p, s) for p, s in zip(preds, faces) if p is not None]
    if not ok:
        return
    run.metric("nme_pct", _check_predictions(run, *zip(*ok)), "%")

    check_faces = generate_corpus(default_model3d(), default_schema(),
                                  CorpusConfig(**CHECK_SPEC["corpus"]))
    check_source = SyntheticMapSource(SynthConfig(**SYNTH), CHECK_SPEC["map_seed"])
    in_memory = np.load(os.path.join(out, "check.npz"))
    reloaded = [cascade.predict(model, check_source.maps_for(s), s.bbox)
                for s in check_faces.samples]
    run.check("reload_equals_in_memory",
              np.array_equal(np.stack([p.shape.coords for p in reloaded]), in_memory["coords"])
              and np.array_equal(np.stack([p.shape.visibility for p in reloaded]),
                                 in_memory["visibility"]))

    n = CHECK_FACES
    if spec["files"]:
        synth_cfg = SynthConfig(**SYNTH)
        run.check("file_maps_equal_synthesised_float32", all(
            np.array_equal(read_maps(source.path_for(s)).maps,
                           synthesize(s, synth_cfg, pool_cfg.seed).maps.astype(np.float32))
            for s in faces[:n]))
    else:
        score_ok, init_ok = True, True
        cfg = model.config
        for p, s in ok[:n]:
            if p.used_fallback:
                continue
            maps = source.maps_for(s)
            x, y, w, h = s.bbox
            res = pose.robust_init(maps, model.model3d, Z=cfg.Z, subset_size=cfg.subset_size,
                                   seed=cfg.seed, center=(x + w / 2.0, y + h / 2.0))
            own = gather_score(maps.maps, res.shape.coords)
            score_ok &= abs(own - res.score) <= 1e-9 * max(1.0, abs(res.score))
            init_ok &= np.array_equal(res.shape.coords, p.init_shape.coords)
        run.check("gather_reproduces_init_score", score_ok)
        run.check("predict_uses_robust_init_shape", init_ok)


WORKLOADS = {"train": run_train, "serve_3d": run_serve, "serve_mean_files": run_serve}
