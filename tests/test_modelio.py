import hashlib
import json
import re
import struct
import traceback
import warnings
from dataclasses import asdict, replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facealign.cascade import (
    FOREST_FIELDS,
    TrainConfig,
    make_initializer,
    predict,
    train_cascade,
)
from facealign.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, run
from facealign.errors import FormatError
from facealign.heatmaps import SynthConfig
from facealign.modelio import MODEL_MAGIC, STORED, load_model, save_model
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
    (lambda header, arrays: header["config"].update(coarse_to_fine="x"),
     "coarse_to_fine must be true or false, not 'x'"),
], ids=["unknown-key", "bad-value", "bad-coarse-to-fine"])


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


# one wrongly typed value per header key that load_model reads through its
# one checked lookup
WRONG_TYPES = {"version": "2", "has_model3d": 1, "stages": {}, "schema": [],
               "pattern_diameter": True, "training_log": {}}


def write_body(path, header_bytes):
    """A model file whose header is the given bytes, with a valid checksum."""
    body = MODEL_MAGIC + struct.pack("<q", len(header_bytes)) + header_bytes
    path.write_bytes(body + hashlib.sha256(body).digest())


class TestHeaderKeys:
    @pytest.mark.parametrize("key", sorted(WRONG_TYPES))
    def test_missing_key(self, trained, tmp_path, key):
        p = tmp_path / "bad.facm"
        save_model(trained[0], p)
        rewrite_model(p, lambda header, arrays: header.pop(key))
        with pytest.raises(FormatError, match=f"model header has no {key}"):
            load_model(p)

    @pytest.mark.parametrize("key", sorted(WRONG_TYPES))
    def test_wrongly_typed_key(self, trained, tmp_path, key):
        p = tmp_path / "bad.facm"
        save_model(trained[0], p)
        rewrite_model(p, lambda header, arrays: header.update({key: WRONG_TYPES[key]}))
        with pytest.raises(FormatError, match=f"model header {key} must be "):
            load_model(p)

    @pytest.mark.parametrize("edit, message", [
        (lambda header, arrays: header["stages"][1].pop("parts"), "stage 1 has no parts"),
        (lambda header, arrays: header["stages"][0].update(scale="1"),
         "stage 0 scale must be a finite number > 0"),
        (lambda header, arrays: header["stages"].append(3), "stage 2 must be an object"),
        (lambda header, arrays: arrays.pop("pattern/rings"), "no array pattern/rings"),
    ], ids=["stage-parts", "stage-scale", "stage-entry", "array"])
    def test_stage_entries_and_arrays(self, trained, tmp_path, edit, message):
        p = tmp_path / "bad.facm"
        save_model(trained[0], p)
        rewrite_model(p, edit)
        with pytest.raises(FormatError, match=message):
            load_model(p)

    @pytest.mark.parametrize("header, message", [
        (b"\xff{", "model header: "), (b"{1: 2}", "model header: "),
        (b"[2]", "must be an object"),
        (b'{"version": 2, "arrays": [{"name": "x"}]}', "model header arrays: KeyError"),
    ], ids=["not-utf8", "not-json", "not-an-object", "array-entry"])
    def test_unreadable_header(self, tmp_path, header, message):
        p = tmp_path / "bad.facm"
        write_body(p, header)
        with pytest.raises(FormatError, match=message):
            load_model(p)

    def test_predict_cli_exits_2_without_training_log(self, trained, tiny_corpus, tmp_path,
                                                      capsys):
        ann = tmp_path / "faces.jsonl"
        save_dataset(tiny_corpus, ann)
        p = tmp_path / "bad.facm"
        save_model(trained[0], p)
        rewrite_model(p, lambda header, arrays: header.pop("training_log"))
        assert run(["predict", "--model", str(p), "--dataset", str(ann),
                    "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert "model header has no training_log" in capsys.readouterr().err


def nan_first(name):
    """A model edit that sets the first value of array name to NaN."""
    def edit(header, arrays):
        a = arrays[name].copy()
        a.reshape(-1)[0] = np.nan
        arrays[name] = a
    return edit


def set_array_to(name, value):
    """A model edit that fills array name with value."""
    return lambda header, arrays: arrays.update({name: np.full_like(arrays[name], value)})


def set_stage(si, **values):
    return lambda header, arrays: header["stages"][si].update(values)


def cut_mean_shape(header, arrays):
    arrays.update({k: v[:20] for k, v in arrays.items() if k.startswith("mean_shape/")})


def without_trees(si):
    """A model edit that stores every part of stage si with no trees."""
    def edit(header, arrays):
        for name in [k for k in arrays if k.startswith(f"s{si}/") and k.endswith("/roots")]:
            arrays[name] = np.zeros(0, dtype=np.int64)
    return edit


class TestStoredValues:
    # one value per field prediction reads that used to load and make eval
    # report nme: nan, or end in an IndexError
    @pytest.mark.parametrize("edit, message", [
        (nan_first("s0/p0/node_tau"), "stage 0: node_tau and leaf_residual must be finite"),
        (nan_first("s1/p3/leaf_residual"), "stage 1: node_tau and leaf_residual must be finite"),
        (nan_first("s1/p0/leaf_visibility"), r"stage 1: .* leaf_visibility in \[0, 1\]"),
        (set_array_to("s0/p0/leaf_visibility", 1.5), r"stage 0: .* leaf_visibility in \[0, 1\]"),
        (set_stage(0, shrinkage=float("nan")), "stage 0 shrinkage must be a finite number"),
        (set_stage(1, scale=float("nan")), "stage 1 scale must be a finite number > 0"),
        (set_stage(1, scale=0.0), "stage 1 scale must be a finite number > 0"),
        (cut_mean_shape, "the stored mean shape must have the schema's 24 landmarks"),
        (nan_first("mean_shape/coords"), "the stored mean shape must have the schema's 24"),
        (without_trees(0), "stage 0: each part of a stage needs one or more trees"),
        (without_trees(1), "stage 1: each part of a stage needs one or more trees"),
    ], ids=["nan-threshold", "nan-residual", "nan-visibility", "visibility-above-1",
            "nan-shrinkage", "nan-scale", "zero-scale", "mean-shape-20-rows",
            "nan-mean-shape", "no-trees-coarse", "no-trees-fine"])
    def test_rejected(self, trained, tmp_path, edit, message):
        p = tmp_path / "bad.facm"
        save_model(trained[0], p)
        rewrite_model(p, edit)
        with pytest.raises(FormatError, match=message):
            load_model(p)


def set_array(name, change):
    """A model edit that replaces array name by change(array)."""
    return lambda header, arrays: arrays.update({name: change(arrays[name])})


def strings(a):
    return np.full(a.shape, "x")


class TestStoredArrays:
    @pytest.mark.parametrize("init_mode", ["3d", "mean"])
    def test_every_saved_array_has_its_table_entry(self, trained, tmp_path, init_mode):
        model = trained[0]
        if init_mode == "mean":
            model = replace(model, init_mode="mean", model3d=None)
        p = tmp_path / "m.facm"
        save_model(model, p)
        keys = set()
        for e in read_header(p)["arrays"]:
            part = re.fullmatch(r"s\d+/p\d+/(\w+)", e["name"])
            key = part[1] if part else e["name"]
            assert STORED[key] == (e["dtype"], len(e["shape"])), e["name"]
            keys.add(key)
        assert keys == set(STORED) - ({"model3d/points", "model3d/normals", "model3d/distinct"}
                                      if init_mode == "mean" else set())

    # arrays of a dtype or rank save_model never writes: each used to load,
    # cast, reshaped or unchecked, or to end in a ValueError traceback
    @pytest.mark.parametrize("name, change, stored", [
        ("mean_shape/coords", strings, "2-D <U1"),
        ("mean_shape/visibility", strings, "1-D <U1"),
        ("pattern/offsets", strings, "2-D <U1"),
        ("pattern/offsets", lambda a: a.astype(str), "2-D <U"),
        ("pattern/offsets", lambda a: a.astype(complex), "2-D complex128"),
        ("pattern/offsets", lambda a: a[None], "3-D float64"),
        ("mean_shape/annotated", lambda a: a.astype(float), "1-D float64"),
        ("pattern/rings", lambda a: a.astype(float), "1-D float64"),
        ("model3d/points", lambda a: a.astype(np.float32), "2-D float32"),
        ("model3d/distinct", lambda a: a.astype(bool), "1-D bool"),
        ("s0/p0/node_tau", lambda a: a.astype(np.int64), "1-D int64"),
        ("s1/p0/landmarks", strings, "1-D <U1"),
        ("s1/p2/leaf_visibility", lambda a: a.astype(">f8"), "2-D >f8"),
    ], ids=["string-mean-coords", "string-mean-visibility", "string-offsets",
            "numeric-string-offsets", "complex-offsets", "3d-offsets", "float-annotated",
            "float-rings", "float32-points", "bool-distinct", "integer-thresholds",
            "string-landmarks", "big-endian-visibility"])
    def test_rejected(self, trained, tmp_path, name, change, stored):
        p = tmp_path / "bad.facm"
        save_model(trained[0], p)
        rewrite_model(p, set_array(name, change))
        with pytest.raises(FormatError, match=f"stored {name} is a {stored}"):
            load_model(p)


# one mutation of a valid model file: ("array", STORED key, which array of
# that key, new dtype or rank), ("flip", array, byte, xor mask) with the
# checksum recomputed, or ("header", value path, new value or DROP)
DROP = "<drop>"
RETYPE = {
    "string": strings,
    "numeric-string": lambda a: a.astype(str),
    "complex": lambda a: a.astype(np.complex128),
    "float": lambda a: a.astype(np.float64),
    "int": lambda a: a.astype(np.int64),
    "bool": lambda a: a.astype(bool),
    "add-axis": lambda a: a[..., None],
    "flatten": lambda a: a.reshape(-1),
}
PICK = st.integers(0, 2 ** 16)
EDITS = st.one_of(
    st.tuples(st.just("array"), st.sampled_from(sorted(STORED)), PICK,
              st.sampled_from(sorted(RETYPE))),
    st.tuples(st.just("flip"), PICK, PICK, st.integers(1, 255)),
    st.tuples(st.just("header"), PICK, st.sampled_from(
        [DROP, float("nan"), "x", [], [1.0], None, {}, True, -1, 1.5])),
)


def header_paths(node, path=()):
    """The path of every value below node, a JSON object or list."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from header_paths(value, path + (key,))


def mutate(edit):
    """A model edit, for rewrite_model, that applies one EDITS mutation; a
    key the model does not store leaves it as it is."""
    kind, *args = edit

    def apply(header, arrays):
        if kind == "array":
            key, pick, change = args
            names = [n for n in arrays if n == key or n.endswith("/" + key)]
            if names:
                name = names[pick % len(names)]
                arrays[name] = RETYPE[change](arrays[name])
        elif kind == "flip":
            pick, byte, mask = args
            name = sorted(arrays)[pick % len(arrays)]
            a = arrays[name].copy()
            if a.nbytes:
                a.reshape(-1).view(np.uint8)[byte % a.nbytes] ^= mask
            arrays[name] = a
        else:
            pick, value = args
            paths = list(header_paths({k: v for k, v in header.items() if k != "arrays"}))
            *parent, last = paths[pick % len(paths)]
            node = header
            for key in parent:
                node = node[key]
            if value == DROP:
                del node[last]
            else:
                node[last] = value
    return apply


@pytest.fixture(scope="module")
def fuzz_inputs(trained, tiny_corpus, tmp_path_factory):
    """A directory with a valid 3d and mean model and two faces to run them on."""
    d = tmp_path_factory.mktemp("fuzz")
    save_model(trained[0], d / "3d.facm")
    save_model(replace(trained[0], init_mode="mean", model3d=None), d / "mean.facm")
    save_dataset(replace(tiny_corpus, samples=tiny_corpus.samples[:2]), d / "faces.jsonl")
    return d


class TestFuzzedModelFile:
    @given(model=st.sampled_from(["3d", "mean"]), command=st.sampled_from(["predict", "eval"]),
           edit=EDITS)
    @example(model="mean", command="predict", edit=("array", "mean_shape/coords", 0, "string"))
    @settings(max_examples=100, deadline=None)
    def test_exits_0_2_or_3(self, fuzz_inputs, model, command, edit):
        # one mutation of a valid model through the CLI: refused with exit
        # 2 (or 3) or run with exit 0, never a traceback
        bad = fuzz_inputs / "bad.facm"
        bad.write_bytes((fuzz_inputs / f"{model}.facm").read_bytes())
        rewrite_model(bad, mutate(edit))
        try:
            rc = run([command, "--model", str(bad), "--dataset", str(fuzz_inputs / "faces.jsonl"),
                      "--out", str(fuzz_inputs / "out")])
        except Exception:
            pytest.fail(f"{edit}: {traceback.format_exc()}")
        assert rc in (EXIT_OK, EXIT_DATA, EXIT_NUMERIC)

    @pytest.mark.parametrize("edit", [
        mutate(("flip", 231, 231, 231)),
        set_array("mean_shape/coords", lambda a: np.where(a == a[2, 0], -1.3e120, a)),
        set_array("mean_shape/coords", lambda a: a * 1e300),
    ], ids=["flipped-byte", "one-absurd-x", "every-coordinate-1e300"])
    def test_absurd_mean_shape_is_refused(self, fuzz_inputs, edit):
        # a finite but absurd stored mean shape (the flipped byte stores x =
        # -1.27e120) puts pattern points off the int64 pixel range: predict
        # refuses the face, where a cast to pixels once warned and ran on
        bad = fuzz_inputs / "bad.facm"
        bad.write_bytes((fuzz_inputs / "mean.facm").read_bytes())
        rewrite_model(bad, edit)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(["predict", "--model", str(bad), "--dataset",
                      str(fuzz_inputs / "faces.jsonl"), "--out", str(fuzz_inputs / "out")])
        assert rc in (EXIT_DATA, EXIT_NUMERIC)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
