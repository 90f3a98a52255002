from dataclasses import replace

import numpy as np
import pytest

from facealign import heatmaps, pipeline
from facealign.cascade import predict
from facealign.errors import DataError
from facealign.heatmaps import ProbabilityMaps
from facealign.modelio import load_model, save_model
from facealign.pipeline import ABLATION_ROWS, RunConfig, predict_dataset, run_ablate, train_model
from facealign.pose import bbox_center, robust_init
from facealign.shapes import load_dataset, save_dataset
from facealign.synthetic import FileMapSource, SyntheticMapSource, generate_corpus, write_corpus


def same_prediction(a, b) -> bool:
    return (np.array_equal(a.shape.coords, b.shape.coords)
            and np.array_equal(a.shape.visibility, b.shape.visibility)
            and np.array_equal(a.init_shape.coords, b.init_shape.coords)
            and a.used_fallback == b.used_fallback)


def test_train_model_leaves_caller_samples_alone(model3d, schema, tmp_path):
    cfg = RunConfig(corpus={"count": 30, "seed": 8}, synth={"coordinate_noise_sigma": 0.5},
                    train={"T": 2, "K1": 4, "K2": 3, "depth": 2,
                           "candidates_per_node": 10, "shrinkage": 0.4, "Z": 5},
                    seed=4, init_mode="3d", val_fraction=0.2)
    path = tmp_path / "faces.jsonl"
    save_dataset(generate_corpus(model3d, schema, cfg.corpus_config()), path)
    ds = load_dataset(path, schema)
    train_model(cfg, ds)
    assert all(s.initial is None and s.pose is None for s in ds.samples)
    # a mean-init model on the same samples is the one a fresh set gives
    mean_cfg = replace(cfg, init_mode="mean")
    save_model(train_model(mean_cfg, ds), tmp_path / "a.facm")
    save_model(train_model(mean_cfg, load_dataset(path, schema)), tmp_path / "b.facm")
    assert (tmp_path / "a.facm").read_bytes() == (tmp_path / "b.facm").read_bytes()


@pytest.mark.parametrize("maps_source", ["synthetic", "files"])
def test_augmented_training_is_reproducible(model3d, schema, tmp_path, maps_source):
    cfg = RunConfig(corpus={"count": 30, "seed": 8}, synth={"coordinate_noise_sigma": 0.5},
                    train={"T": 2, "K1": 4, "K2": 3, "depth": 2,
                           "candidates_per_node": 10, "shrinkage": 0.4, "Z": 5},
                    seed=4, init_mode="3d", val_fraction=0.2)
    ds = generate_corpus(model3d, schema, cfg.corpus_config())
    if maps_source == "files":
        write_corpus(ds, cfg.synth_config(), tmp_path / "corpus", cfg.corpus_config())
        cfg = replace(cfg, maps_dir=str(tmp_path / "corpus" / "maps"))
    before = [(s.initial, s.pose, s.ground_truth.visibility.copy()) for s in ds.samples]
    aug_cfg = replace(cfg, augment_target=40,
                      augment={"yaw_noise": 10.0, "pitch_noise": 10.0, "roll_noise": 10.0,
                               "occlusion_prob": 0.5})
    for name, run_cfg in (("a", aug_cfg), ("b", aug_cfg), ("plain", cfg)):
        save_model(train_model(run_cfg, ds), tmp_path / f"{name}.facm")
    assert (tmp_path / "a.facm").read_bytes() == (tmp_path / "b.facm").read_bytes()
    assert (tmp_path / "a.facm").read_bytes() != (tmp_path / "plain.facm").read_bytes()
    for s, (initial, pose, vis) in zip(ds.samples, before):
        assert s.initial is initial and s.pose is pose
        np.testing.assert_array_equal(s.ground_truth.visibility, vis)


@pytest.mark.parametrize("feature_mode", ["heatmap", "gray"])
def test_training_builds_no_raster(model3d, schema, monkeypatch, feature_mode):
    # more faces than the 256 maps a cache once held: every face is served
    # from its blob centres, none is rasterised, the gray view included
    calls = []
    monkeypatch.setattr(heatmaps, "_blob", lambda *a: calls.append(a))
    cfg = RunConfig(corpus={"count": 300, "seed": 9}, synth={"coordinate_noise_sigma": 1.0},
                    train={"T": 2, "K1": 2, "K2": 1, "depth": 2,
                           "candidates_per_node": 8, "shrinkage": 0.4, "Z": 3},
                    seed=9, init_mode="3d", feature_mode=feature_mode, val_fraction=0.2)
    train_model(cfg, generate_corpus(model3d, schema, cfg.corpus_config()))
    assert calls == []


def test_training_draws_each_face_once(model3d, schema, monkeypatch, blob_draws):
    # the benchmark's train config: 300 faces requested at the init and at
    # every stage, each face's blob centres drawn on its first request
    requests, maps_for = [], SyntheticMapSource.maps_for

    def counted(self, sample):
        requests.append(sample.image_ref)
        return maps_for(self, sample)

    monkeypatch.setattr(SyntheticMapSource, "maps_for", counted)
    cfg = RunConfig(corpus={"count": 300, "seed": 1_000_003, "tag": "train"},
                    synth={"coordinate_noise_sigma": 1.0, "outlier_rate": 0.1},
                    train={"T": 4, "K1": 12, "K2": 6, "depth": 3, "candidates_per_node": 16,
                           "shrinkage": 0.3, "Z": 5},
                    seed=5, init_mode="3d", val_fraction=0.2)
    model = train_model(cfg, generate_corpus(model3d, schema, cfg.corpus_config()))
    assert len(model.stages) == 4
    assert len(requests) == 1500 and len(set(requests)) == 300
    assert len(blob_draws) == 300


def test_training_initials_use_the_train_seed(model3d, schema, monkeypatch):
    # validation faces and predict draw their hypothesis subsets from the
    # train seed, so the training faces must too, whatever the run seed
    cfg = RunConfig(corpus={"count": 20, "seed": 8}, synth={"coordinate_noise_sigma": 1.0},
                    train={"T": 1, "K1": 2, "K2": 1, "depth": 2,
                           "candidates_per_node": 6, "Z": 5, "seed": 7},
                    seed=0, init_mode="3d", val_fraction=0.2)
    seen = []
    real_train_cascade = pipeline.train_cascade

    def capture(train, *args, **kwargs):
        seen.append(train)
        return real_train_cascade(train, *args, **kwargs)

    monkeypatch.setattr(pipeline, "train_cascade", capture)
    train_model(cfg, generate_corpus(model3d, schema, cfg.corpus_config()))
    maps = cfg.map_source(schema)
    assert len(seen[0]) == 16
    for s in seen[0].samples:
        want = robust_init(maps.maps_for(s), model3d, Z=5, subset_size=6, seed=7,
                           center=bbox_center(s.bbox))
        assert np.array_equal(s.initial.coords, want.shape.coords)


def test_gray_model_serves_from_its_maps(model3d, schema, tmp_path):
    # the grayscale ablation reads the max over the maps it is given, so it
    # serves from them alone, from synthetic maps and from .fapm files
    cfg = RunConfig(corpus={"count": 24, "seed": 12}, synth={"coordinate_noise_sigma": 1.0},
                    train={"T": 2, "K1": 3, "K2": 2, "depth": 2,
                           "candidates_per_node": 8, "shrinkage": 0.4, "Z": 3},
                    seed=6, init_mode="3d", feature_mode="gray", val_fraction=0.25)
    ds = generate_corpus(model3d, schema, cfg.corpus_config())
    model = train_model(cfg, ds)
    write_corpus(ds, cfg.synth_config(), tmp_path, cfg.corpus_config())
    files = FileMapSource(tmp_path / "maps", schema)
    for source in (cfg.map_source(schema), files):
        preds = predict_dataset(model, ds, source)
        assert all(same_prediction(p, predict(model, source.maps_for(s), s.bbox))
                   for p, s in zip(preds, ds.samples))
    # from the mean shape, the gray model predicts what its heatmap twin
    # predicts on maps that each hold the max-over-maps raster
    gray = replace(model, init_mode="mean")
    twin = replace(gray, feature_mode="heatmap")
    moved = 0
    for s in ds.samples[:6]:
        maps = files.maps_for(s)
        flat = ProbabilityMaps(np.repeat(maps.maps.max(axis=0)[None], len(maps.maps), axis=0))
        p = predict(gray, maps, s.bbox)
        assert same_prediction(p, predict(twin, flat, s.bbox))
        moved += not np.array_equal(p.shape.coords, p.init_shape.coords)
    assert moved


def test_mean_init_model_holds_no_3d_model(model3d, schema, tmp_path):
    cfg = RunConfig(corpus={"count": 20, "seed": 4}, synth={"coordinate_noise_sigma": 1.0},
                    train={"T": 2, "K1": 3, "K2": 2, "depth": 2, "candidates_per_node": 8},
                    seed=3, init_mode="mean", val_fraction=0.2)
    ds = generate_corpus(model3d, schema, cfg.corpus_config())
    model = train_model(cfg, ds)
    assert model.model3d is None
    save_model(model, tmp_path / "mean.facm")
    raw = (tmp_path / "mean.facm").read_bytes()
    # the JSON header names every array and records has_model3d
    assert b'"has_model3d":false' in raw and b'"model3d_names":[]' in raw
    assert b"model3d/" not in raw
    loaded = load_model(tmp_path / "mean.facm")
    assert loaded.model3d is None
    # a mean model file written with a 3D model attached loads and predicts
    # the same, bitwise
    save_model(replace(model, model3d=model3d), tmp_path / "with3d.facm")
    with3d = load_model(tmp_path / "with3d.facm")
    assert with3d.model3d is not None
    source = cfg.map_source(schema)
    for s in ds.samples:
        maps = source.maps_for(s)
        p = predict(loaded, maps, s.bbox)
        assert same_prediction(p, predict(with3d, maps, s.bbox))
        assert same_prediction(p, predict(model, maps, s.bbox))


def test_run_ablate_reports_every_row(model3d, schema, tmp_path, monkeypatch):
    # the base config's coarse_to_fine is off: each row sets its own
    cfg = RunConfig(corpus={"count": 24, "seed": 5}, synth={"coordinate_noise_sigma": 1.0},
                    train={"T": 2, "K1": 2, "K2": 2, "depth": 2,
                           "candidates_per_node": 8, "Z": 3},
                    seed=2, val_fraction=0.2, coarse_to_fine=False, output_dir=str(tmp_path))
    save_dataset(generate_corpus(model3d, schema, cfg.corpus_config()), tmp_path / "faces.jsonl")
    ds = load_dataset(tmp_path / "faces.jsonl", schema)
    # a coarse_to_fine copy in the train section would override the rows'
    with pytest.raises(DataError, match="train.coarse_to_fine"):
        run_ablate(replace(cfg, train={**cfg.train, "coarse_to_fine": False}), ds)
    assert not (tmp_path / "ablation.txt").exists()
    models = []
    monkeypatch.setattr(pipeline, "train_model",
                        lambda *a: models.append(train_model(*a)) or models[-1])
    rows, path = run_ablate(cfg, ds)
    assert [r[0] for r in rows] == [r[0] for r in ABLATION_ROWS]
    assert [(m.init_mode, m.feature_mode, m.config.coarse_to_fine) for m in models] == [
        r[1:] for r in ABLATION_ROWS]
    assert np.all(np.isfinite([r[1:] for r in rows]))
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines == ["config nme auc_4 fr_4"] + [
        f"{name} {nme_v:.4f} {auc_v:.4f} {fr_v:.4f}" for name, nme_v, auc_v, fr_v in rows]
    assert all(s.initial is None and s.pose is None for s in ds.samples)
