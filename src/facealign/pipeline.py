"""Experiment plumbing shared by the CLI: run configuration, training,
prediction, evaluation, cross-dataset matrices and the ablation sweep.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

from . import default_model3d, default_schema
from .cascade import (
    MODES,
    CascadeModel,
    TrainConfig,
    make_initializer,
    predict_faces,
    train_cascade,
)
from .errors import (BOOL, STRING, DataError, SchemaError, at_least, check, is_a, is_real, one_of,
                     open_text, or_none, setting)
from .features import FreakPattern, default_pattern
from .heatmaps import SynthConfig
from .metrics import ced_curve, cross_matrix, evaluate
from .modelio import load_model, save_model
from .pose import Model3D, map_chunks, mean_shape_init
from .shapes import (
    AugmentConfig,
    Dataset,
    LandmarkSchema,
    augment,
    load_dataset,
    split_train_val,
)
from .synthetic import (
    CorpusConfig,
    FileMapSource,
    SyntheticMapSource,
    attach_pose_initials,
    generate_corpus,
    write_corpus,
)

# a section of settings that a config class of its own checks
JSON_OBJECT = is_a(dict, "a JSON object")


@dataclass
class RunConfig:
    """Flat experiment configuration; flags > file > defaults."""

    dataset: str | None = setting(None, or_none(STRING))
    schema: str = setting("builtin", STRING)
    model3d: str = setting("builtin", STRING)
    pattern: str = setting("builtin", STRING)
    # read .fapm maps here; None synthesizes them
    maps_dir: str | None = setting(None, or_none(STRING))
    synth: dict = setting({}, JSON_OBJECT)      # SynthConfig overrides
    corpus: dict = setting({}, JSON_OBJECT)     # CorpusConfig overrides
    train: dict = setting({}, JSON_OBJECT)      # TrainConfig overrides
    init_mode: str = setting("3d", one_of(MODES["init_mode"]))
    feature_mode: str = setting("heatmap", one_of(MODES["feature_mode"]))
    coarse_to_fine: bool = setting(True, BOOL)
    seed: int = setting(0, at_least(0))
    val_fraction: float = setting(0.1, (lambda v: is_real(v) and 0 < v < 1, "a number in (0, 1)"))
    augment_target: int | None = setting(None, or_none(at_least(1)))
    augment: dict = setting({}, JSON_OBJECT)    # AugmentConfig overrides
    output_dir: str = setting("out", STRING)

    def __post_init__(self):
        check(self, DataError)

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        raw = {}
        if path is not None:
            with open_text(path) as fh:
                try:
                    raw = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise DataError(f"config {path}: {exc}") from exc
            if not isinstance(raw, dict):
                raise DataError(f"config {path} is not a JSON object")
        if overrides:
            raw.update({k: v for k, v in overrides.items() if v is not None})
        known = {f for f in cls.__dataclass_fields__}
        bad = set(raw) - known
        if bad:
            raise DataError(f"unknown config keys: {sorted(bad)}")
        return cls(**raw)

    def load_schema(self) -> LandmarkSchema:
        return default_schema() if self.schema == "builtin" else LandmarkSchema.load(self.schema)

    def load_model3d(self, schema: LandmarkSchema) -> Model3D:
        """The 3D model; SchemaError unless it has the schema's landmark count."""
        model = default_model3d() if self.model3d == "builtin" else Model3D.load(self.model3d)
        if model.landmark_count != schema.landmark_count:
            raise SchemaError(f"the 3D model has {model.landmark_count} landmarks, "
                              f"the schema has {schema.landmark_count}")
        return model

    def load_pattern(self) -> FreakPattern:
        return default_pattern() if self.pattern == "builtin" else FreakPattern.load(self.pattern)

    def train_config(self) -> TrainConfig:
        if "coarse_to_fine" in self.train:
            raise DataError("bad train config: train.coarse_to_fine is not a train key, "
                            "coarse_to_fine is a top-level key")
        kw = {**self.train, "coarse_to_fine": self.coarse_to_fine}
        kw.setdefault("seed", self.seed)
        return _build("train", TrainConfig, kw)

    def synth_config(self) -> SynthConfig:
        return _build("synth", SynthConfig, self.synth)

    def corpus_config(self) -> CorpusConfig:
        kw = dict(self.corpus)
        kw.setdefault("seed", self.seed)
        return _build("corpus", CorpusConfig, kw)

    def map_source(self, schema=None):
        if self.maps_dir is not None:
            return FileMapSource(self.maps_dir, schema)
        return SyntheticMapSource(self.synth_config(), self.seed)


def _build(section: str, cls, kw: dict):
    try:
        return cls(**kw)
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad {section} config: {exc}") from exc


def load_run_dataset(cfg: RunConfig, schema: LandmarkSchema) -> Dataset:
    if cfg.dataset is None:
        raise DataError("config has no dataset path")
    return load_dataset(cfg.dataset, schema)


def run_synth(cfg: RunConfig, write_map_files: bool = True) -> Dataset:
    schema = cfg.load_schema()
    model = cfg.load_model3d(schema)
    corpus_cfg = cfg.corpus_config()
    ds = generate_corpus(model, schema, corpus_cfg)
    write_corpus(ds, cfg.synth_config(), cfg.output_dir, corpus_cfg,
                 write_map_files=write_map_files)
    return ds


def train_model(cfg: RunConfig, dataset: Dataset | None = None) -> CascadeModel:
    schema = cfg.load_schema()
    model3d = cfg.load_model3d(schema)
    pattern = cfg.load_pattern()
    tc = cfg.train_config()
    if cfg.init_mode == "3d" and tc.subset_size > len(model3d.distinct_indices):
        raise DataError(f"subset_size {tc.subset_size} exceeds the "
                        f"{len(model3d.distinct_indices)} distinct landmarks of the 3D model")
    if dataset is None:
        dataset = load_run_dataset(cfg, schema)
    maps = cfg.map_source(schema)
    train, val = split_train_val(dataset, cfg.val_fraction, cfg.seed)
    if cfg.augment_target is not None:
        aug_cfg = _build("augment", AugmentConfig, cfg.augment)
        if cfg.augment_target < len(train):
            raise DataError(f"augment_target {cfg.augment_target} is below the "
                            f"{len(train)} faces of the training split")
    # initials go on copies, so the caller's samples stay as they were
    train = Dataset([replace(s) for s in train.samples], train.schema)
    if cfg.init_mode == "3d":
        attach_pose_initials(train, model3d, maps, Z=tc.Z,
                             subset_size=tc.subset_size, seed=tc.seed)
    if cfg.augment_target is not None:
        train = augment(train, cfg.augment_target, aug_cfg, cfg.seed, model3d)
    # a mean-init model never reads a 3D model, so it stores none
    if cfg.init_mode != "3d":
        model3d = None
    mean = mean_shape_init(train)
    init_fn = make_initializer(cfg.init_mode, mean, model3d, tc)
    return train_cascade(
        train, val, maps, init_fn, tc, pattern,
        feature_mode=cfg.feature_mode, init_mode=cfg.init_mode,
        mean_shape=mean, model3d=model3d,
    )


def _output_file(cfg: RunConfig, name: str) -> str:
    """Path of output file name in cfg.output_dir, which is created."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


def run_train(cfg: RunConfig, dataset: Dataset | None = None) -> str:
    model = train_model(cfg, dataset)
    model_path = _output_file(cfg, "model.facm")
    save_model(model, model_path)
    tc = model.config
    log_lines = [
        "# training log",
        f"config: T={tc.T} K1={tc.K1} K2={tc.K2} depth={tc.depth} "
        f"candidates={tc.candidates_per_node} nu={tc.shrinkage} eta={tc.subsample} "
        f"Z={tc.Z} seed={tc.seed} init={model.init_mode} features={model.feature_mode} "
        f"coarse_to_fine={tc.coarse_to_fine}",
    ]
    for e in model.training_log:
        note = e.get("note", "")
        imp = e.get("improvement")
        imp_s = f" improvement={imp:.4f}" if imp is not None else ""
        log_lines.append(
            f"stage {e['stage']}: train_nme={e['train_nme']:.4f} "
            f"val_nme={e['val_nme']:.4f} parts={e['parts']}{imp_s} {note}".rstrip()
        )
    last = model.training_log[-1]
    if "early stop" in last.get("note", ""):
        log_lines.append(
            f"stopped early at stage {last['stage']} of {tc.T}: "
            f"relative improvement {last['improvement']:.4%} < {tc.early_stop_delta:.0%}"
        )
    with open(_output_file(cfg, "training_log.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(log_lines) + "\n")
    return model_path


def predict_dataset(model: CascadeModel, dataset: Dataset, maps_source,
                    seed: int | None = None):
    """predict_faces over the dataset, in pose.map_chunks chunks that hold
    one raster: chunks of BlobMaps serve 2-3x faster. No faces touch no map
    source."""
    if not len(dataset):
        return []
    return map_chunks(dataset.samples, maps_source.maps_for, lambda faces, maps: predict_faces(
        model, maps, [s.bbox for s in dataset.samples[faces]], seed), rasters=1)


def run_predict(cfg: RunConfig, model_path: str) -> str:
    model = load_model(model_path)
    ds = load_run_dataset(cfg, model.schema)
    maps = cfg.map_source(model.schema)
    preds = predict_dataset(model, ds, maps, seed=cfg.seed)
    out_path = _output_file(cfg, "predictions.jsonl")
    with open(out_path, "w", encoding="utf-8") as fh:
        for s, p in zip(ds.samples, preds):
            rec = {
                "image": s.image_ref,
                "coords": p.shape.coords.tolist(),
                "visibility": p.shape.visibility.tolist(),
                "fallback": p.used_fallback,
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return out_path


def run_eval(cfg: RunConfig, model_path: str, normalization: str = "height",
             epsilon: float = 8.0):
    model = load_model(model_path)
    ds = load_run_dataset(cfg, model.schema)
    maps = cfg.map_source(model.schema)
    preds = predict_dataset(model, ds, maps, seed=cfg.seed)
    report = evaluate(
        [p.shape for p in preds],
        [s.ground_truth for s in ds.samples],
        [s.bbox for s in ds.samples],
        normalization=normalization,
        epsilon=epsilon,
        schema=model.schema,
    )
    report.fallback_rate = sum(p.used_fallback for p in preds) / len(preds)
    out_path = _output_file(cfg, "report.txt")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    with open(_output_file(cfg, "ced.txt"), "w", encoding="utf-8") as fh:
        for e, c in ced_curve(report.per_image_nme):
            fh.write(f"{e:.6f} {c:.6f}\n")
    return report, out_path


def run_cross(base_cfg: RunConfig, dataset_paths: list[str], include_pooled: bool = True):
    """Train one model per dataset (plus a pooled model) and emit the
    distinct-landmark NME matrix."""
    schema = base_cfg.load_schema()
    datasets = [load_dataset(p, schema) for p in dataset_paths]
    maps = base_cfg.map_source(schema)
    models = []
    for ds in datasets:
        models.append(train_model(base_cfg, ds))
    if include_pooled:
        pooled = Dataset([s for ds in datasets for s in ds.samples], schema)
        models.append(train_model(base_cfg, pooled))
    preds = [[[p.shape for p in predict_dataset(m, ds, maps, seed=base_cfg.seed)]
              for ds in datasets] for m in models]
    matrix = cross_matrix(preds, datasets, schema.distinct_indices)
    out_path = _output_file(base_cfg, "cross_matrix.txt")
    names = list(dataset_paths)
    row_names = names + (["All"] if include_pooled else [])
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("train\\test " + " ".join(names) + "\n")
        for rn, row in zip(row_names, matrix):
            fh.write(rn + " " + " ".join(f"{v:.4f}" for v in row) + "\n")
    return matrix, out_path


ABLATION_ROWS = [
    ("3D+SE", "3d", "gray", True),
    ("MS+DE", "mean", "heatmap", True),
    ("3D+DE", "3d", "heatmap", False),
    ("3D+DE+CF", "3d", "heatmap", True),
]


def run_ablate(base_cfg: RunConfig, dataset: Dataset | None = None, epsilon: float = 4.0):
    """Sweep initialization/feature/coarse-to-fine configurations on one
    dataset and report height-normalized metrics per row."""
    schema = base_cfg.load_schema()
    if dataset is None:
        dataset = load_run_dataset(base_cfg, schema)
    maps = base_cfg.map_source(schema)
    rows = []
    for name, init_mode, feature_mode, cf in ABLATION_ROWS:
        cfg = replace(base_cfg, init_mode=init_mode, feature_mode=feature_mode,
                      coarse_to_fine=cf)
        model = train_model(cfg, dataset)
        preds = predict_dataset(model, dataset, maps, seed=cfg.seed)
        report = evaluate(
            [p.shape for p in preds],
            [s.ground_truth for s in dataset.samples],
            [s.bbox for s in dataset.samples],
            normalization="height", epsilon=epsilon, schema=schema,
        )
        rows.append((name, report.nme, report.auc, report.fr))
    out_path = _output_file(base_cfg, "ablation.txt")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(f"config nme auc_{epsilon:g} fr_{epsilon:g}\n")
        for name, nme_v, auc_v, fr_v in rows:
            fh.write(f"{name} {nme_v:.4f} {auc_v:.4f} {fr_v:.4f}\n")
    return rows, out_path
