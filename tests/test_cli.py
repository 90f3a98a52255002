import argparse
import json
import struct
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facealign import default_model3d, pipeline
from facealign.cascade import predict
from facealign.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, _config_from_args, build_parser, run
from facealign.errors import DataError
from facealign.heatmaps import ProbabilityMaps, read_maps, write_maps
from facealign.metrics import nme, normalizer
from facealign.pipeline import RunConfig
from facealign.shapes import Shape, load_dataset
from facealign.synthetic import FileMapSource
from test_modelio import rewrite_model, without_model3d


TRAIN = {"T": 2, "K1": 4, "K2": 4, "depth": 2, "candidates_per_node": 12,
         "shrinkage": 0.4, "Z": 5}


def write_config(path, **kw):
    cfg = {
        "corpus": {"count": 24},
        "synth": {"coordinate_noise_sigma": 0.5},
        "train": TRAIN,
        "seed": 3,
    }
    cfg.update(kw)
    path.write_text(json.dumps(cfg))
    return path


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig.from_file(None)
        assert cfg.init_mode == "3d"
        assert cfg.feature_mode == "heatmap"
        assert cfg.coarse_to_fine

    def test_file_then_overrides(self, tmp_path):
        p = write_config(tmp_path / "c.json", seed=11, init_mode="mean")
        cfg = RunConfig.from_file(p)
        assert cfg.seed == 11 and cfg.init_mode == "mean"
        cfg = RunConfig.from_file(p, {"seed": 99, "init_mode": None})
        assert cfg.seed == 99          # flag beats file
        assert cfg.init_mode == "mean"  # None override leaves file value

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(DataError):
            RunConfig.from_file(p)

    @pytest.mark.parametrize("command, config, key", [
        ("train", {"maps_source": "synthetic"}, "maps_source"),
        ("train", {"maps_source": "files"}, "maps_source"),
        ("synth", {"maps_source": "files"}, "maps_source"),
        ("synth", {"corpus": {"count": 4, "size": 160}}, "size"),
        ("synth", {"corpus": {"count": 4, "size": 320}}, "size"),
    ])
    def test_removed_keys_exit_2(self, tmp_path, capsys, command, config, key):
        # maps come from files exactly when maps_dir is set, and every face
        # is drawn on the FACE_SIZE square its maps cover, so neither key
        # has a setting left
        cfg = write_config(tmp_path / "c.json", **config)
        rc = run([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("with_file", [False, True])
    def test_count_merges_into_the_corpus_settings(self, tmp_path, with_file):
        corpus = {"deform_magnitude": 2.0, "count": 24} if with_file else {}
        argv = ["synth", "--count", "5"]
        if with_file:
            argv += ["--config", str(write_config(tmp_path / "c.json", corpus=corpus))]
        cfg = _config_from_args(build_parser().parse_args(argv))
        assert cfg.corpus == {**corpus, "count": 5}


# the option strings each subcommand accepts: a common flag that a
# command's run_* function would not read is not registered for it
PARSER_TABLE = {
    "synth": {"--config", "--seed", "--out", "--count", "--no-maps"},
    "train": {"--config", "--seed", "--out", "--dataset", "--maps-dir",
              "--init", "--features", "--coarse-to-fine"},
    "predict": {"--config", "--seed", "--out", "--dataset", "--maps-dir", "--model"},
    "eval": {"--config", "--seed", "--out", "--dataset", "--maps-dir", "--model",
             "--epsilon", "--normalization"},
    "cross": {"--config", "--seed", "--out", "--maps-dir", "--init", "--features",
              "--coarse-to-fine", "--no-pooled"},
    "ablate": {"--config", "--seed", "--out", "--dataset", "--maps-dir", "--epsilon"},
}


class TestParser:
    def test_option_strings_per_command(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        table = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
                 for name, p in sub.choices.items()}
        assert table == PARSER_TABLE

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "m.facm", "--init", "mean"],
        ["predict", "--model", "m.facm", "--coarse-to-fine", "off"],
        ["ablate", "--features", "gray"],
        ["synth", "--dataset", "faces.jsonl"],
        ["cross", "--dataset", "faces.jsonl", "a.jsonl"],
    ])
    def test_ignored_flag_is_a_usage_error(self, tmp_path, capsys, argv):
        assert run(argv + ["--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["not-a-command"]) == EXIT_USAGE
        assert run([]) == EXIT_USAGE

    def test_help_is_success(self, capsys):
        assert run(["--help"]) == EXIT_OK

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        rc = run(["train", "--config", str(cfg),
                  "--dataset", str(tmp_path / "nope.jsonl"),
                  "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA

    def test_train_without_dataset(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        rc = run(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA


def _bad_choice(allowed):
    return st.text(max_size=8).filter(lambda v: v not in allowed)


# (config section or None for a top-level key, key, bad value)
BAD_SETTINGS = st.one_of(
    st.tuples(st.just("train"), st.sampled_from(["T", "K1", "K2", "candidates_per_node", "Z"]),
              st.integers(-3, 0)),
    st.tuples(st.just("train"), st.just("depth"), st.integers(-3, -1)),
    st.tuples(st.just("train"), st.just("subset_size"), st.integers(-3, 3)),
    # above the 24 distinct landmarks of the bundled 3D model (init_mode 3d)
    st.tuples(st.just("train"), st.just("subset_size"), st.integers(25, 40)),
    st.tuples(st.just("train"), st.just("seed"),
              st.one_of(st.booleans(), st.text(max_size=3), st.integers(max_value=-1))),
    st.tuples(st.just("train"), st.sampled_from(["K1", "depth", "Z"]),
              st.floats(0.1, 9.9).filter(lambda v: not v.is_integer())),
    st.tuples(st.just("train"), st.just("bogus"), st.integers()),
    st.tuples(st.just("train"), st.just("scale_floor"),
              st.one_of(st.text(max_size=3), st.none(), st.booleans(),
                        st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True))),
    # negative deltas are allowed: they switch early stopping off
    st.tuples(st.just("train"), st.just("early_stop_delta"),
              st.one_of(st.text(max_size=3), st.none(), st.booleans(),
                        st.sampled_from([float("inf"), float("-inf"), float("nan")]))),
    st.tuples(st.just("synth"), st.just("peak_sigma"), st.floats(max_value=0.0)),
    st.tuples(st.just("synth"), st.just("bogus"), st.integers()),
    st.tuples(st.none(), st.just("init_mode"), _bad_choice(["3d", "mean"])),
    st.tuples(st.none(), st.just("feature_mode"), _bad_choice(["heatmap", "gray"])),
    st.tuples(st.none(), st.just("val_fraction"),
              st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0))),
)


# (corpus key, bad value) for `facealign synth`
BAD_CORPUS = st.one_of(
    st.tuples(st.just("count"), st.integers(-5, 0)),
    st.tuples(st.sampled_from(["yaw_range", "pitch_range", "roll_range", "shift_range"]),
              st.floats(max_value=-1e-6, allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("scale_range"),
              st.sampled_from([[1.3, 1.0], [0.0, 1.2], [-1.0, 1.0], [1.0], 3, "ab", [True, 2]])),
    st.tuples(st.just("deform_style"), _bad_choice(["independent", "coupled"])),
    st.tuples(st.sampled_from(["count", "seed", "deform_seed"]),
              st.one_of(st.booleans(), st.text(max_size=3), st.floats(allow_nan=False),
                        st.none())),
    # the builtin schema has 10 parts, so a pattern needs 10 signs
    st.tuples(st.just("sign_patterns"),
              st.sampled_from([[[1, 2]], "x", ["x"], [[]], [1] * 10, [["a"] * 10],
                               [[1] * 10, [1] * 9], [[True] * 10], [[float("inf")] * 10]])),
)

_not_int = st.one_of(st.booleans(), st.text(max_size=4), st.none(),
                     st.floats(allow_nan=False), st.lists(st.integers(), max_size=2))
# (top-level key, value of the wrong type or range) for RunConfig
BAD_RUN_VALUES = st.one_of(
    st.tuples(st.just("seed"), st.one_of(_not_int, st.integers(max_value=-1))),
    st.tuples(st.just("augment_target"),
              st.one_of(_not_int.filter(lambda v: v is not None), st.integers(max_value=0))),
    st.tuples(st.just("val_fraction"),
              st.one_of(st.booleans(), st.text(max_size=4), st.none(),
                        st.lists(st.floats(0.1, 0.9), max_size=2))),
    st.tuples(st.just("coarse_to_fine"),
              st.one_of(st.integers(), st.text(max_size=4), st.none())),
    st.tuples(st.sampled_from(["schema", "model3d", "pattern", "output_dir"]),
              st.one_of(st.integers(), st.booleans(), st.none(),
                        st.lists(st.text(max_size=2), max_size=2))),
    st.tuples(st.sampled_from(["dataset", "maps_dir"]),
              st.one_of(st.integers(), st.booleans(), st.floats(allow_nan=False))),
    st.tuples(st.sampled_from(["synth", "corpus", "train", "augment"]),
              st.one_of(st.integers(), st.text(max_size=4), st.none(),
                        st.lists(st.integers(), max_size=2))),
)


@pytest.fixture(scope="module")
def faces(tmp_path_factory):
    """A 24-face annotation file with no map files."""
    d = tmp_path_factory.mktemp("faces")
    cfg = write_config(d / "c.json")
    assert run(["synth", "--config", str(cfg), "--out", str(d), "--no-maps"]) == EXIT_OK
    return d


class TestConfigErrors:
    @settings(max_examples=40, deadline=None)
    @given(bad=BAD_SETTINGS)
    def test_bad_train_config_is_data_error(self, faces, bad):
        section, key, value = bad
        cfg = json.loads((faces / "c.json").read_text())
        if section is None:
            cfg[key] = value
        else:
            cfg[section] = {**cfg[section], key: value}
        path = faces / "bad.json"
        path.write_text(json.dumps(cfg))
        rc = run(["train", "--config", str(path),
                  "--dataset", str(faces / "annotations.jsonl"),
                  "--out", str(faces / "out")])
        assert rc == EXIT_DATA
        assert not (faces / "out" / "model.facm").exists()

    @pytest.mark.parametrize("text", ["{bad", "[1]"])
    def test_malformed_config_file_is_data_error(self, faces, text):
        path = faces / "bad.json"
        path.write_text(text)
        rc = run(["train", "--config", str(path),
                  "--dataset", str(faces / "annotations.jsonl"),
                  "--out", str(faces / "out")])
        assert rc == EXIT_DATA

    def test_bad_corpus_config_is_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", corpus={"count": 4, "bogus": 1})
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: bad corpus config")

    @pytest.mark.parametrize("extra", [{"augment_target": 2},
                                       {"augment_target": 40, "augment": {"bogus": 1}},
                                       # geometric augmentation is not supported
                                       {"augment_target": 40, "augment": {"mirror_prob": 0.5}},
                                       # the 3D model is the run's model3d setting
                                       {"augment_target": 40, "augment": {"model3d": "builtin"}},
                                       {"augment_target": 40, "augment": {"occlusion_prob": "x"}},
                                       {"augment_target": 40, "augment": {"yaw_noise": -400}},
                                       {"augment_target": 40,
                                        "augment": {"occlusion_prob": 1.0,
                                                    "occlusion_frac": 3.0}}])
    def test_bad_augmentation_is_data_error(self, faces, extra, capsys):
        cfg = write_config(faces / "bad_aug.json", **extra)
        rc = run(["train", "--config", str(cfg),
                  "--dataset", str(faces / "annotations.jsonl"),
                  "--out", str(faces / "bad_aug_out")])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: ")
        assert not (faces / "bad_aug_out" / "model.facm").exists()

    def test_single_offset_pattern_is_data_error(self, faces, capsys):
        pattern = faces / "one_offset.txt"
        pattern.write_text("diameter 32.0\n0 1.0 0.0\n")
        cfg = write_config(faces / "one_offset.json", pattern=str(pattern))
        rc = run(["train", "--config", str(cfg),
                  "--dataset", str(faces / "annotations.jsonl"),
                  "--out", str(faces / "one_offset_out")])
        assert rc == EXIT_DATA
        assert "at least 2 offsets" in capsys.readouterr().err
        assert not (faces / "one_offset_out" / "model.facm").exists()

    @pytest.mark.parametrize("text, message", [
        ("diameter x\n0 0 0\n0 1 0\n", "non-number"),
        ("diameter\n0 0 0\n0 1 0\n", "needs 2 fields"),
        ("diameter 32\n0 0 0\n1.5 1 0\n", "non-number"),
        ("diameter 32\n0 0 0\n0 nan 0\n", "offsets must be finite"),
        ("diameter 32\n0 0 0\n0 1 inf\n", "offsets must be finite"),
        ("diameter nan\n0 0 0\n0 1 0\n", "diameter must be a finite number"),
        ("diameter inf\n0 0 0\n0 1 0\n", "diameter must be a finite number"),
        ("diameter 0\n0 0 0\n0 0 0\n", "diameter must be a finite number"),
    ])
    def test_bad_pattern_file_exits_2(self, faces, capsys, text, message):
        pattern = faces / "bad_pattern.txt"
        pattern.write_text(text)
        cfg = write_config(faces / "bad_pattern.json", pattern=str(pattern))
        rc = run(["train", "--config", str(cfg),
                  "--dataset", str(faces / "annotations.jsonl"),
                  "--out", str(faces / "bad_pattern_out")])
        assert rc == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (faces / "bad_pattern_out" / "model.facm").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r["bbox"].__setitem__(0, "x"), "line 1: bad L or bbox"),
        (lambda r: r.__setitem__("L", "x"), "line 1: bad L or bbox"),
        (lambda r: r.__setitem__("landmarks", 5), "line 1: landmarks must be a list"),
        (lambda r: r["landmarks"][0].__setitem__("x", float("nan")), "non-finite"),
        (lambda r: r["landmarks"][0].__setitem__("y", float("inf")), "non-finite"),
        (lambda r: r["landmarks"][0].__setitem__("v", float("nan")), "non-finite"),
        (lambda r: r["bbox"].__setitem__(2, float("nan")), "bbox must be finite"),
    ])
    def test_bad_annotation_exits_2(self, faces, tmp_path, capsys, edit, message):
        lines = (faces / "annotations.jsonl").read_text().splitlines()
        rec = json.loads(lines[0])
        edit(rec)
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        rc = run(["train", "--config", str(faces / "c.json"), "--dataset", str(path),
                  "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("synth", "peak_sigma", float("nan")),
        ("synth", "peak_sigma", float("inf")),
        ("synth", "peak_sigma", True),
        ("synth", "coordinate_noise_sigma", float("nan")),
        ("synth", "floor", float("nan")),
        ("synth", "floor", False),
        ("synth", "outlier_rate", True),
        ("corpus", "yaw_range", float("inf")),
        ("corpus", "shift_range", float("inf")),
        ("corpus", "scale_range", [1.0, float("inf")]),
        ("train", "shrinkage", True),
        ("train", "subsample", True),
        ("train", "tau_range", [-0.3, float("inf")]),
    ])
    def test_non_finite_setting_exits_2(self, faces, tmp_path, capsys, section, key, value):
        settings = {"corpus": {"count": 4, key: value}, "train": {**TRAIN, key: value}}
        cfg = write_config(tmp_path / "c.json", **{section: settings.get(section, {key: value})})
        command = ["train", "--dataset", str(faces / "annotations.jsonl")] \
            if section == "train" else ["synth"]
        rc = run([*command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @settings(max_examples=40, deadline=None)
    @given(bad=BAD_CORPUS)
    def test_bad_corpus_value_is_data_error(self, faces, bad):
        key, value = bad
        cfg = write_config(faces / "bad_corpus.json", corpus={"count": 4, key: value})
        out = faces / "bad_corpus_out"
        assert run(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_DATA
        assert not (out / "annotations.jsonl").exists()

    @settings(max_examples=60, deadline=None)
    @given(bad=BAD_RUN_VALUES)
    def test_bad_run_value_is_data_error(self, faces, bad):
        key, value = bad
        path = faces / "bad_run.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(DataError, match=key):
            RunConfig.from_file(path)

    def test_train_coarse_to_fine_key_exits_2(self, faces, capsys):
        # coarse_to_fine has one source, the top-level key (or
        # --coarse-to-fine); a copy in the train section is refused
        cfg = write_config(faces / "cf.json", train={**TRAIN, "coarse_to_fine": False})
        rc = run(["train", "--config", str(cfg), "--dataset", str(faces / "annotations.jsonl"),
                  "--out", str(faces / "cf_out")])
        assert rc == EXIT_DATA
        assert "train.coarse_to_fine" in capsys.readouterr().err
        assert not (faces / "cf_out").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"names": ["a"]}', "'parts', 'distinct', 'mirror'"),
        ("[1]", "not list"),
        ("{bad", "Expecting property name"),
    ])
    def test_bad_schema_file_exits_2(self, tmp_path, capsys, text, message):
        (tmp_path / "schema.json").write_text(text)
        cfg = write_config(tmp_path / "c.json", schema=str(tmp_path / "schema.json"))
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value, message", [
        (2, "nan", "finite"),
        (5, "1e400", "finite"),
        (1, "x", "line 5"),
        (7, "1.0", "line 5"),
    ])
    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_bad_model_file_exits_2(self, faces, tmp_path, capsys, command, field, value,
                                    message):
        # one bad field on the fifth line of the 3D model file
        path = tmp_path / "model.txt"
        default_model3d().save(path)
        lines = path.read_text().splitlines()
        tok = lines[4].split()
        tok[field] = value
        lines[4] = " ".join(tok)
        path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "c.json", model3d=str(path))
        dataset = ["--dataset", str(faces / "annotations.jsonl")] if command == "train" else []
        rc = run([command, "--config", str(cfg), *dataset, "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["x", True, 1.5, -1])
    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_bad_seed_exits_2(self, faces, seed, command, capsys):
        cfg = write_config(faces / "bad_seed.json", seed=seed)
        dataset = ["--dataset", str(faces / "annotations.jsonl")] if command == "train" else []
        rc = run([command, "--config", str(cfg), *dataset,
                  "--out", str(faces / "bad_seed_out")])
        assert rc == EXIT_DATA
        assert "seed must be an integer" in capsys.readouterr().err
        assert not (faces / "bad_seed_out").exists()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Full synth -> train -> predict -> eval pass through the CLI."""
    d = tmp_path_factory.mktemp("cli")
    cfg = write_config(d / "c.json")
    out = d / "run"
    assert run(["synth", "--config", str(cfg), "--out", str(out),
                "--no-maps"]) == EXIT_OK
    ann = out / "annotations.jsonl"
    assert run(["train", "--config", str(cfg), "--dataset", str(ann),
                "--out", str(out)]) == EXIT_OK
    return d, cfg, out


@pytest.fixture(scope="module")
def map_faces(workdir):
    """The workdir config's 24 faces with their .fapm map files."""
    d, cfg, _ = workdir
    out = d / "map_faces"
    assert run(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    return out


def damaged_maps(faces, directory, damage):
    """A maps directory for faces in which the first file is a copy that
    damage(path) has altered and the others are links to faces' files."""
    directory.mkdir()
    first, *rest = sorted((faces / "maps").iterdir())
    for path in rest:
        (directory / path.name).symlink_to(path)
    (directory / first.name).write_bytes(first.read_bytes())
    damage(directory / first.name)
    return directory


def nan_last_value(path):
    data = path.read_bytes()
    path.write_bytes(data[:-4] + struct.pack("<f", float("nan")))


def with_landmarks(L):
    def damage(path):
        raster = read_maps(path).maps
        write_maps(ProbabilityMaps(np.resize(raster, (L, *raster.shape[1:]))), path)
    return damage


class TestPipelineCommands:
    def test_synth_outputs(self, workdir):
        _, _, out = workdir
        lines = (out / "annotations.jsonl").read_text().strip().splitlines()
        assert len(lines) == 24
        assert json.loads((out / "manifest.json").read_text())["count"] == 24

    def test_train_outputs(self, workdir):
        _, _, out = workdir
        assert (out / "model.facm").exists()
        log = (out / "training_log.txt").read_text()
        # header echoes the boosting hyperparameters
        assert "T=2" in log and "K1=4" in log and "depth=2" in log
        assert "nu=0.4" in log and "eta=0.5" in log and "Z=5" in log
        assert "stage 0" in log

    def test_predict(self, workdir, capsys):
        _, cfg, out = workdir
        ann = out / "annotations.jsonl"
        rc = run(["predict", "--config", str(cfg), "--dataset", str(ann),
                  "--model", str(out / "model.facm"), "--out", str(out)])
        assert rc == EXIT_OK
        recs = [json.loads(l) for l in
                (out / "predictions.jsonl").read_text().splitlines()]
        assert len(recs) == 24
        assert len(recs[0]["coords"]) == 24

    def test_predict_requires_model_flag(self, workdir, capsys):
        _, cfg, out = workdir
        rc = run(["predict", "--config", str(cfg)])
        assert rc == EXIT_USAGE

    def test_eval(self, workdir, capsys):
        _, cfg, out = workdir
        ann = out / "annotations.jsonl"
        rc = run(["eval", "--config", str(cfg), "--dataset", str(ann),
                  "--model", str(out / "model.facm"), "--out", str(out),
                  "--epsilon", "8"])
        assert rc == EXIT_OK
        report = (out / "report.txt").read_text()
        assert "nme:" in report and "auc_8" in report
        ced = (out / "ced.txt").read_text().splitlines()
        assert len(ced) == 24
        captured = capsys.readouterr()
        assert "nme:" in captured.out

    def test_eval_on_a_nan_bbox_width_exits_2(self, workdir, tmp_path, capsys):
        _, cfg, out = workdir
        lines = (out / "annotations.jsonl").read_text().splitlines()
        rec = json.loads(lines[3])
        rec["bbox"][2] = float("nan")
        path = tmp_path / "nan_width.jsonl"
        path.write_text("\n".join(lines[:3] + [json.dumps(rec)] + lines[4:]) + "\n")
        rc = run(["eval", "--config", str(cfg), "--dataset", str(path),
                  "--model", str(out / "model.facm"), "--out", str(tmp_path / "eval")])
        assert rc == EXIT_DATA
        assert "bbox must be finite" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_eval_report_rerun_identical(self, workdir, capsys):
        _, cfg, out = workdir
        ann = out / "annotations.jsonl"
        args = ["eval", "--config", str(cfg), "--dataset", str(ann),
                "--model", str(out / "model.facm"), "--out", str(out)]
        assert run(args) == EXIT_OK
        first = (out / "report.txt").read_bytes()
        assert run(args) == EXIT_OK
        assert (out / "report.txt").read_bytes() == first

    def test_cross(self, workdir, tmp_path, capsys, monkeypatch):
        _, cfg, _ = workdir
        sets = []
        for tag, seed in (("seta", 31), ("setb", 32)):
            set_cfg = write_config(tmp_path / f"{tag}.json",
                                   corpus={"count": 24, "seed": seed, "tag": tag})
            assert run(["synth", "--config", str(set_cfg), "--out", str(tmp_path / tag),
                        "--no-maps"]) == EXIT_OK
            sets.append(str(tmp_path / tag / "annotations.jsonl"))
        models, train_model = [], pipeline.train_model
        monkeypatch.setattr(pipeline, "train_model",
                            lambda *a: models.append(train_model(*a)) or models[-1])
        assert run(["cross", "--config", str(cfg), *sets,
                    "--out", str(tmp_path / "cross")]) == EXIT_OK
        lines = (tmp_path / "cross" / "cross_matrix.txt").read_text().splitlines()
        assert lines[0] == "train\\test " + " ".join(sets)
        assert [line.split()[0] for line in lines[1:]] == sets + ["All"]
        # each entry is the mean per-sample NME over the distinct landmarks
        run_cfg = RunConfig.from_file(cfg)
        schema = run_cfg.load_schema()
        maps, idx = run_cfg.map_source(schema), schema.distinct_indices
        datasets = [load_dataset(p, schema) for p in sets]
        assert len(models) == 3
        def distinct(shape):
            return Shape(shape.coords[idx], shape.visibility[idx], shape.annotated[idx])

        for model, line in zip(models, lines[1:]):
            want = []
            for ds in datasets:
                errs = [nme(distinct(predict(model, maps.maps_for(s), s.bbox,
                                             seed=run_cfg.seed).shape),
                            distinct(s.ground_truth),
                            normalizer(s.ground_truth, s.bbox, "height"))
                        for s in ds.samples]
                want.append(f"{np.mean(errs):.4f}")
            assert line.split()[1:] == want

    def test_train_with_file_maps(self, workdir, tmp_path):
        # maps read back from disk instead of synthesized on demand
        d, cfg, out = workdir
        out2 = tmp_path / "filemaps"
        assert run(["synth", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert (out2 / "maps").exists()
        rc = run(["train", "--config", str(cfg),
                  "--dataset", str(out2 / "annotations.jsonl"),
                  "--maps-dir", str(out2 / "maps"),
                  "--out", str(out2)])
        assert rc == EXIT_OK
        assert (out2 / "model.facm").exists()

    def test_maps_dir_in_the_config_reads_map_files(self, workdir, map_faces, tmp_path,
                                                    monkeypatch):
        # maps_dir alone selects the .fapm files, as --maps-dir does
        _, cfg, _ = workdir
        maps, ann = map_faces / "maps", map_faces / "annotations.jsonl"
        cfg_maps = write_config(tmp_path / "maps.json", maps_dir=str(maps))
        reads = []
        file_maps_for = FileMapSource.maps_for
        monkeypatch.setattr(FileMapSource, "maps_for",
                            lambda self, s: reads.append(s) or file_maps_for(self, s))
        by_config, by_flag = tmp_path / "by_config", tmp_path / "by_flag"
        assert run(["train", "--config", str(cfg_maps), "--dataset", str(ann),
                    "--out", str(by_config)]) == EXIT_OK
        trained_reads = len(reads)
        assert trained_reads > 0
        assert run(["train", "--config", str(cfg), "--dataset", str(ann), "--maps-dir", str(maps),
                    "--out", str(by_flag)]) == EXIT_OK
        assert (by_config / "model.facm").read_bytes() == (by_flag / "model.facm").read_bytes()
        del reads[:]
        assert run(["eval", "--config", str(cfg_maps), "--dataset", str(ann),
                    "--model", str(by_config / "model.facm"), "--out", str(by_config)]) == EXIT_OK
        assert len(reads) >= 24

    @pytest.mark.parametrize("damage, code, message", [
        ("nan", EXIT_NUMERIC, "non-finite probability map value"),
        ("truncate", EXIT_DATA, "header implies"),
    ])
    def test_eval_on_a_bad_map_file(self, workdir, tmp_path, capsys, damage, code, message):
        _, cfg, out = workdir
        faces = tmp_path / "faces"
        assert run(["synth", "--config", str(cfg), "--count", "2",
                    "--out", str(faces)]) == EXIT_OK
        path = sorted((faces / "maps").iterdir())[0]
        data = path.read_bytes()
        path.write_bytes(data[:-4] + struct.pack("<f", float("nan")) if damage == "nan"
                         else data[:-4])
        rc = run(["eval", "--config", str(cfg), "--dataset", str(faces / "annotations.jsonl"),
                  "--maps-dir", str(faces / "maps"), "--model", str(out / "model.facm"),
                  "--out", str(tmp_path / "eval")])
        assert rc == code
        assert message in capsys.readouterr().err

    def test_train_on_a_bad_map_file_fails_before_the_cascade(self, workdir, map_faces,
                                                              tmp_path, capsys, monkeypatch):
        _, cfg, _ = workdir
        maps = damaged_maps(map_faces, tmp_path / "maps", nan_last_value)

        def not_reached(*args, **kwargs):
            raise AssertionError("train_cascade ran after the init met a bad map file")

        monkeypatch.setattr(pipeline, "train_cascade", not_reached)
        rc = run(["train", "--config", str(cfg), "--dataset", str(map_faces / "annotations.jsonl"),
                  "--maps-dir", str(maps), "--out", str(tmp_path / "out")])
        assert rc == EXIT_NUMERIC
        assert "non-finite probability map value" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.facm").exists()

    @pytest.mark.parametrize("L", [10, 30])
    @pytest.mark.parametrize("args", [["train", "--init", "3d"], ["train", "--init", "mean"],
                                      ["eval"]], ids=["train-3d", "train-mean", "eval"])
    def test_map_file_with_the_wrong_landmark_count(self, workdir, map_faces, tmp_path,
                                                    capsys, args, L):
        _, cfg, out = workdir
        maps = damaged_maps(map_faces, tmp_path / "maps", with_landmarks(L))
        if args[0] == "eval":
            args = args + ["--model", str(out / "model.facm")]
        rc = run(args + ["--config", str(cfg), "--dataset", str(map_faces / "annotations.jsonl"),
                         "--maps-dir", str(maps), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert f"holds {L} landmark maps, the schema has 24" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.facm").exists()


class Probe:
    """Command lines over the workdir's faces and model, with edited copies
    of either written under tmp."""

    def __init__(self, workdir, tmp):
        _, self.cfg, out = workdir
        self.ann, self.model, self.tmp = out / "annotations.jsonl", out / "model.facm", tmp

    def faces(self, edit=None, keep=None, name="faces.jsonl") -> str:
        """The faces file, cut to its first keep records and passed through
        edit(records)."""
        recs = [json.loads(line) for line in self.ann.read_text().splitlines()][:keep]
        if edit is not None:
            edit(recs)
        path = self.tmp / name
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        return str(path)

    def bad_model(self, edit) -> str:
        """A copy of the model rewritten by edit(header, arrays)."""
        path = self.tmp / "model.facm"
        path.write_bytes(self.model.read_bytes())
        rewrite_model(path, edit)
        return str(path)

    def command(self, name, *args) -> list:
        return [name, "--config", str(self.cfg), "--out", str(self.tmp / "out"), *args]

    def eval(self, *args, faces=None, model=None) -> list:
        return self.command("eval", "--dataset", faces or str(self.ann),
                            "--model", model or str(self.model), *args)

    def train(self, faces) -> list:
        return self.command("train", "--dataset", faces)


EYES = ("leye_out", "leye_in", "reye_in", "reye_out")


def bare_face(recs):
    recs[3]["landmarks"] = []


def coincident_eyes(recs):
    # both pupils and both outer corners on one pixel: a normalizer of 0
    lms = recs[3]["landmarks"]
    lms[:] = [lm for lm in lms if lm["name"] not in EYES]
    lms += [{"name": name, "x": 80.0, "y": 60.0} for name in EYES]


def never_annotated(recs):
    for rec in recs:
        rec["landmarks"] = [lm for lm in rec["landmarks"] if lm["name"] != "leye_in"]


def set_header(**values):
    return lambda header, arrays: header.update(values)


# (command line from a Probe, exit code, text on stderr): inputs that used
# to end in a traceback or pass unchecked; a new probe is one more row
PROBES = [
    pytest.param(lambda p: p.eval(faces=p.faces(bare_face)), EXIT_DATA,
                 "face 3 has no annotated landmark", id="eval-face-without-landmarks"),
    pytest.param(lambda p: p.eval("--normalization", "pupils", faces=p.faces(coincident_eyes)),
                 EXIT_DATA, "face 3: pupils normalizer 0 is not a finite number > 0",
                 id="eval-pupils-normalizer-0"),
    pytest.param(lambda p: p.eval("--normalization", "corners", faces=p.faces(coincident_eyes)),
                 EXIT_DATA, "face 3: corners normalizer 0 is not a finite number > 0",
                 id="eval-corners-normalizer-0"),
    pytest.param(lambda p: p.eval(faces=p.faces(keep=0)), EXIT_DATA, "no faces to score",
                 id="eval-no-faces"),
    pytest.param(lambda p: p.eval(faces=p.faces(lambda r: r[0].update(L=24.9))), EXIT_DATA,
                 "line 1: bad L or bbox: L must be an integer, not 24.9", id="eval-L-24.9"),
    pytest.param(lambda p: p.command("cross", "--no-pooled", p.faces(bare_face), str(p.ann)),
                 EXIT_DATA, "face 3 has no annotated landmark", id="cross-face-without-landmarks"),
    *[pytest.param(lambda p, v=v: p.eval("--epsilon", v), EXIT_USAGE,
                   f"argument --epsilon: must be a finite number > 0, not '{v}'",
                   id=f"eval-epsilon-{v}") for v in ("0", "-1", "nan", "inf")],
    pytest.param(lambda p: p.command("ablate", "--dataset", str(p.ann), "--epsilon", "-1"),
                 EXIT_USAGE, "argument --epsilon: must be a finite number > 0, not '-1'",
                 id="ablate-epsilon--1"),
    pytest.param(lambda p: p.train(p.faces(keep=1)), EXIT_DATA,
                 "need at least 2 samples to split, the dataset has 1", id="train-one-face"),
    # the default val_fraction, 0.1, of 4 faces
    pytest.param(lambda p: p.train(p.faces(keep=4)), EXIT_DATA, "empty validation set",
                 id="train-empty-validation-split"),
    pytest.param(lambda p: p.train(p.faces(never_annotated)), EXIT_DATA,
                 "landmarks never annotated: [5]", id="train-landmark-never-annotated"),
    pytest.param(lambda p: p.eval(model=p.bad_model(set_header(init_mode="bogus"))), EXIT_DATA,
                 "init_mode must be one of ['3d', 'mean'], not 'bogus'", id="model-init-mode"),
    pytest.param(lambda p: p.eval(model=p.bad_model(set_header(feature_mode="bogus"))),
                 EXIT_DATA, "feature_mode must be one of ['heatmap', 'gray'], not 'bogus'",
                 id="model-feature-mode"),
    pytest.param(lambda p: p.eval(model=p.bad_model(without_model3d)), EXIT_DATA,
                 "init_mode is '3d' but the model stores no 3D model", id="model-3d-without-3d"),
]


class TestProbes:
    @pytest.mark.parametrize("argv, code, message", PROBES)
    def test_exit_code_without_traceback(self, workdir, tmp_path, capsys, argv, code, message):
        try:
            rc = run(argv(Probe(workdir, tmp_path)))
        except Exception:
            # what the facealign entry point prints for an uncaught exception
            traceback.print_exc()
            rc = 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert rc == code
        assert message in err
        assert not (tmp_path / "out" / "model.facm").exists()
