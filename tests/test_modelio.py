import hashlib
import json
import struct

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


def with_header_version(path, version):
    """Rewrite a model file's header version, with a valid checksum."""
    raw = path.read_bytes()[:-32]
    off = len(MODEL_MAGIC)
    (hlen,) = struct.unpack("<q", raw[off:off + 8])
    header = json.loads(raw[off + 8:off + 8 + hlen])
    header["version"] = version
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = MODEL_MAGIC + struct.pack("<q", len(hb)) + hb + raw[off + 8 + hlen:]
    path.write_bytes(body + hashlib.sha256(body).digest())


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
