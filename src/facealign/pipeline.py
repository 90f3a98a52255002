"""Experiment plumbing shared by the CLI: run configuration, training,
prediction, evaluation, cross-dataset matrices and the ablation sweep.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

from . import default_model3d, default_schema
from .cascade import (
    MODES,
    CascadeModel,
    TrainConfig,
    make_initializer,
    predict,
    train_cascade,
)
from .errors import DataError, is_int, is_real
from .features import FreakPattern, default_pattern
from .heatmaps import SynthConfig
from .metrics import ced_curve, cross_matrix, evaluate
from .modelio import load_model, save_model
from .pose import Model3D, mean_shape_init
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


@dataclass
class RunConfig:
    """Flat experiment configuration; flags > file > defaults."""

    dataset: str | None = None
    schema: str = "builtin"
    model3d: str = "builtin"
    pattern: str = "builtin"
    maps_dir: str | None = None        # read .fapm maps here; None synthesizes them
    synth: dict = field(default_factory=dict)       # SynthConfig overrides
    corpus: dict = field(default_factory=dict)      # CorpusConfig overrides
    train: dict = field(default_factory=dict)       # TrainConfig overrides
    init_mode: str = "3d"              # "3d" | "mean"
    feature_mode: str = "heatmap"      # "heatmap" | "gray"
    coarse_to_fine: bool = True
    seed: int = 0
    val_fraction: float = 0.1
    augment_target: int | None = None
    augment: dict = field(default_factory=dict)     # AugmentConfig overrides
    output_dir: str = "out"

    def __post_init__(self):
        for name, allowed in MODES.items():
            if getattr(self, name) not in allowed:
                raise DataError(f"{name} must be one of {list(allowed)}, "
                                f"not {getattr(self, name)!r}")
        checks = {
            "seed": (is_int(self.seed) and self.seed >= 0, "an integer >= 0"),
            "val_fraction": (is_real(self.val_fraction) and 0.0 < self.val_fraction < 1.0,
                             "a number in (0, 1)"),
            "augment_target": (self.augment_target is None
                               or is_int(self.augment_target) and self.augment_target >= 1,
                               "an integer >= 1 or null"),
            "coarse_to_fine": (isinstance(self.coarse_to_fine, bool), "true or false"),
        }
        for name in ("schema", "model3d", "pattern", "output_dir"):
            checks[name] = (isinstance(getattr(self, name), str), "a string")
        for name in ("dataset", "maps_dir"):
            v = getattr(self, name)
            checks[name] = (v is None or isinstance(v, str), "a string or null")
        for name in ("synth", "corpus", "train", "augment"):
            checks[name] = (isinstance(getattr(self, name), dict), "a JSON object")
        for name, (ok, what) in checks.items():
            if not ok:
                raise DataError(f"{name} must be {what}, not {getattr(self, name)!r}")

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        raw = {}
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
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

    def load_model3d(self) -> Model3D:
        return default_model3d() if self.model3d == "builtin" else Model3D.load(self.model3d)

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
    model = cfg.load_model3d()
    corpus_cfg = cfg.corpus_config()
    ds = generate_corpus(model, schema, corpus_cfg)
    write_corpus(ds, cfg.synth_config(), cfg.output_dir, corpus_cfg,
                 write_map_files=write_map_files)
    return ds


def train_model(cfg: RunConfig, dataset: Dataset | None = None) -> CascadeModel:
    schema = cfg.load_schema()
    model3d = cfg.load_model3d()
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
    return [predict(model, maps_source.maps_for(s), s.bbox, seed=seed)
            for s in dataset.samples]


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
