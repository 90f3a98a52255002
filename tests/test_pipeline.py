from dataclasses import replace

import numpy as np

from facealign import heatmaps, pipeline
from facealign.modelio import save_model
from facealign.pipeline import RunConfig, train_model
from facealign.pose import bbox_center, robust_init
from facealign.shapes import load_dataset, save_dataset
from facealign.synthetic import generate_corpus


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


def test_training_builds_no_raster(model3d, schema, monkeypatch):
    # more faces than the 256 maps a cache once held: every face is served
    # from its blob centres, none is rasterised
    calls = []
    monkeypatch.setattr(heatmaps, "_blob", lambda *a: calls.append(a))
    cfg = RunConfig(corpus={"count": 300, "seed": 9}, synth={"coordinate_noise_sigma": 1.0},
                    train={"T": 2, "K1": 2, "K2": 1, "depth": 2,
                           "candidates_per_node": 8, "shrinkage": 0.4, "Z": 3},
                    seed=9, init_mode="3d", feature_mode="heatmap", val_fraction=0.2)
    train_model(cfg, generate_corpus(model3d, schema, cfg.corpus_config()))
    assert calls == []


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
