import hashlib
import json
import struct
from dataclasses import asdict
from importlib import resources

import numpy as np
import pytest

from facealign.cascade import (
    FOREST_FIELDS,
    TrainConfig,
    make_initializer,
    predict,
    train_cascade,
)
from facealign.cli import EXIT_DATA, EXIT_OK, run
from facealign.errors import FormatError
from facealign.heatmaps import SynthConfig
from facealign.modelio import MODEL_MAGIC, load_model, save_model
from facealign.pose import mean_shape_init
from facealign.shapes import save_dataset, split_train_val
from facealign.synthetic import SyntheticMapSource


def quick_config(**kw):
    base = dict(T=2, K1=4, K2=4, depth=2, candidates_per_node=15,
                shrinkage=0.4, Z=6, seed=5)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def trained(tiny_corpus, pattern, model3d):
    maps = SyntheticMapSource(SynthConfig(coordinate_noise_sigma=0.5), 5)
    train, val = split_train_val(tiny_corpus, 0.2, 5)
    cfg = quick_config()
    mean = mean_shape_init(train)
    init_fn = make_initializer("3d", mean, model3d, cfg)
    model = train_cascade(train, val, maps, init_fn, cfg, pattern,
                          init_mode="3d", mean_shape=mean, model3d=model3d)
    return model, maps, val


class TestRoundTrip:
    def test_predictions_bitwise_equal(self, trained, tmp_path):
        model, maps, val = trained
        path = tmp_path / "rt.facm"
        save_model(model, path)
        loaded = load_model(path)
        for s in val.samples:
            m = maps.maps_for(s)
            a = predict(model, m, s.bbox)
            b = predict(loaded, m, s.bbox)
            np.testing.assert_array_equal(a.shape.coords, b.shape.coords)
            np.testing.assert_array_equal(a.shape.visibility, b.shape.visibility)

    def test_repeated_save_is_byte_identical(self, trained, tmp_path):
        model, _, _ = trained
        p1, p2 = tmp_path / "a.facm", tmp_path / "b.facm"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_structure_preserved(self, trained, tmp_path):
        model, _, _ = trained
        p = tmp_path / "m.facm"
        save_model(model, p)
        loaded = load_model(p)
        assert len(loaded.stages) == len(model.stages)
        assert loaded.init_mode == model.init_mode
        assert loaded.schema.names == model.schema.names
        assert loaded.config.T == model.config.T
        assert loaded.training_log == model.training_log
        for sa, sb in zip(model.stages, loaded.stages):
            assert sa.scale == sb.scale
            for pa, pb in zip(sa.parts, sb.parts):
                np.testing.assert_array_equal(pa.landmarks, pb.landmarks)
                for f in FOREST_FIELDS:
                    a, b = getattr(pa, f), getattr(pb, f)
                    assert a.dtype == b.dtype
                    np.testing.assert_array_equal(a, b)

    def test_header_config_and_schema(self, trained, tmp_path):
        # the header stores the TrainConfig fields and the schema file's form
        model, _, _ = trained
        p = tmp_path / "m.facm"
        save_model(model, p)
        header = read_header(p)
        assert header["config"] == json.loads(json.dumps(asdict(model.config)))
        schema_file = resources.files("facealign.data").joinpath("face24_schema.json")
        assert header["schema"] == json.loads(schema_file.read_text(encoding="utf-8"))
        model.schema.save(tmp_path / "schema.json")
        assert header["schema"] == json.loads((tmp_path / "schema.json").read_text())


class TestCorruption:
    def save(self, trained, tmp_path):
        p = tmp_path / "m.facm"
        save_model(trained[0], p)
        return p

    def test_checksum_detects_bit_flip(self, trained, tmp_path):
        p = self.save(trained, tmp_path)
        data = bytearray(p.read_bytes())
        data[len(data) // 2] ^= 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_model(p)

    def test_truncation(self, trained, tmp_path):
        p = self.save(trained, tmp_path)
        p.write_bytes(p.read_bytes()[:40])
        with pytest.raises(FormatError):
            load_model(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.facm"
        p.write_bytes(b"")
        with pytest.raises(FormatError):
            load_model(p)


def read_header(path) -> dict:
    raw = path.read_bytes()
    off = len(MODEL_MAGIC)
    (hlen,) = struct.unpack("<q", raw[off:off + 8])
    return json.loads(raw[off + 8:off + 8 + hlen])


def rewrite_model(path, edit):
    """Rewrite a model file through edit(header, arrays), which may change
    the header and replace arrays; the payload and checksum are rebuilt."""
    raw = path.read_bytes()[:-32]
    off = len(MODEL_MAGIC)
    (hlen,) = struct.unpack("<q", raw[off:off + 8])
    header = json.loads(raw[off + 8:off + 8 + hlen])
    arrays, pos = {}, off + 8 + hlen
    for e in header["arrays"]:
        dt = np.dtype(e["dtype"])
        size = dt.itemsize * int(np.prod(e["shape"]))
        arrays[e["name"]] = np.frombuffer(raw[pos:pos + size], dt).reshape(e["shape"])
        pos += size
    edit(header, arrays)
    header["arrays"] = [{"name": k, "dtype": a.dtype.str, "shape": list(a.shape)}
                        for k, a in arrays.items()]
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = (MODEL_MAGIC + struct.pack("<q", len(hb)) + hb
            + b"".join(np.ascontiguousarray(a).tobytes() for a in arrays.values()))
    path.write_bytes(body + hashlib.sha256(body).digest())


def with_header_version(path, version):
    """Rewrite a model file's header version, with a valid checksum."""
    rewrite_model(path, lambda header, arrays: header.update(version=version))


def drop_last_tree(header, arrays):
    # the second part of the fine stage keeps one tree fewer than the others
    arrays["s1/p1/roots"] = arrays["s1/p1/roots"][:-1]


def share_a_landmark(header, arrays):
    lm = arrays["s1/p1/landmarks"].copy()
    lm[0] = arrays["s1/p0/landmarks"][0]
    arrays["s1/p1/landmarks"] = lm


# stage layouts apply_stage cannot fuse into one traversal
BAD_STAGES = pytest.mark.parametrize("edit, message", [
    (drop_last_tree, "same tree count"),
    (share_a_landmark, "share a landmark"),
])


class TestVersion:
    def test_version_1_rejected(self, trained, tmp_path):
        p = tmp_path / "v1.facm"
        save_model(trained[0], p)
        with_header_version(p, 1)
        with pytest.raises(FormatError, match="version 1"):
            load_model(p)

    def test_predict_cli_exits_2_on_version_1(self, trained, tiny_corpus, tmp_path, capsys):
        ann = tmp_path / "faces.jsonl"
        save_dataset(tiny_corpus, ann)
        p = tmp_path / "m.facm"
        save_model(trained[0], p)
        args = ["predict", "--model", str(p), "--dataset", str(ann),
                "--out", str(tmp_path / "out")]
        assert run(args) == EXIT_OK
        with_header_version(p, 1)
        assert run(args) == EXIT_DATA
        assert "unsupported model version 1" in capsys.readouterr().err


# a header config that TrainConfig refuses: an unknown key, a bad value
BAD_CONFIGS = pytest.mark.parametrize("edit, message", [
    (lambda header, arrays: header["config"].update(size=3), "unexpected keyword argument 'size'"),
    (lambda header, arrays: header["config"].update(T=0), "T must be an integer >= 1"),
], ids=["unknown-key", "bad-value"])


class TestHeaderConfig:
    @BAD_CONFIGS
    def test_rejected(self, trained, tmp_path, edit, message):
        p = tmp_path / "bad.facm"
        save_model(trained[0], p)
        rewrite_model(p, edit)
        with pytest.raises(FormatError, match=message):
            load_model(p)

    @BAD_CONFIGS
    def test_predict_cli_exits_2(self, trained, tiny_corpus, tmp_path, capsys, edit, message):
        ann = tmp_path / "faces.jsonl"
        save_dataset(tiny_corpus, ann)
        p = tmp_path / "bad.facm"
        save_model(trained[0], p)
        rewrite_model(p, edit)
        assert run(["predict", "--model", str(p), "--dataset", str(ann),
                    "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert message in capsys.readouterr().err


def without_model3d(header, arrays):
    header["has_model3d"] = False
    for name in [n for n in arrays if n.startswith("model3d/")]:
        del arrays[name]


class TestHeaderModes:
    @pytest.mark.parametrize("edit, message", [
        (lambda header, arrays: header.update(init_mode="bogus"), "init_mode must be one of"),
        (lambda header, arrays: header.update(feature_mode="bogus"),
         "feature_mode must be one of"),
        (lambda header, arrays: header.pop("init_mode"), "init_mode must be one of"),
        (without_model3d, "stores no 3D model"),
    ], ids=["init-mode", "feature-mode", "no-init-mode", "3d-without-3d-model"])
    def test_rejected(self, trained, tmp_path, edit, message):
        p = tmp_path / "bad.facm"
        save_model(trained[0], p)
        rewrite_model(p, edit)
        with pytest.raises(FormatError, match=message):
            load_model(p)


class TestStageLayout:
    @BAD_STAGES
    def test_rejected(self, trained, tmp_path, edit, message):
        p = tmp_path / "bad.facm"
        save_model(trained[0], p)
        assert [len(st.parts) for st in trained[0].stages] == [1, 10]
        rewrite_model(p, edit)
        with pytest.raises(FormatError, match=message):
            load_model(p)

    @BAD_STAGES
    def test_predict_cli_exits_2(self, trained, tiny_corpus, tmp_path, capsys, edit, message):
        ann = tmp_path / "faces.jsonl"
        save_dataset(tiny_corpus, ann)
        p = tmp_path / "bad.facm"
        save_model(trained[0], p)
        rewrite_model(p, edit)
        assert run(["predict", "--model", str(p), "--dataset", str(ann),
                    "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert message in capsys.readouterr().err
