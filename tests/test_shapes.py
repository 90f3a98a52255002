import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facealign.errors import DataError, NumericError, ParseError, SchemaError
from facealign.shapes import (
    AugmentConfig,
    Dataset,
    LandmarkSchema,
    Sample,
    Shape,
    augment,
    load_dataset,
    save_dataset,
    split_train_val,
)
from oracles import save_dataset_per_landmark


def small_schema():
    # 5 landmarks, 2 parts, one mirrored pair (0<->1)
    return LandmarkSchema(
        names=["a", "b", "c", "d", "e"],
        parts=[0, 0, 1, 1, 1],
        distinct=[True] * 5,
        mirror=[1, 0, 2, 4, 3],
    )


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


NAMES = ["a", "b", "c", "d", "e"]


def full_record(name="img0", L=5):
    return {
        "image": name,
        "bbox": [0.0, 0.0, 100.0, 100.0],
        "L": L,
        "landmarks": [
            {"name": NAMES[i], "x": 10.0 * i, "y": 5.0 * i, "v": 1.0}
            for i in range(min(L, 5))
        ],
    }


class TestSchema:
    def test_round_trip(self, tmp_path):
        s = small_schema()
        p = tmp_path / "schema.json"
        s.save(p)
        s2 = LandmarkSchema.load(p)
        assert s2.names == s.names
        assert np.array_equal(s2.parts, s.parts)
        assert np.array_equal(s2.mirror, s.mirror)
        assert np.array_equal(s2.distinct, s.distinct)

    def test_mirror_must_be_involution(self):
        with pytest.raises(SchemaError):
            LandmarkSchema(["a", "b"], [0, 0], [True, True], [1, 1])

    def test_parts_must_be_contiguous(self):
        with pytest.raises(SchemaError):
            LandmarkSchema(["a", "b"], [0, 2], [True, True], [0, 1])

    def test_bundled_schema_consistent(self, schema, model3d):
        assert schema.landmark_count == model3d.landmark_count == 24
        assert schema.part_count == 10
        # every part non-empty, union covers all landmarks
        total = sum(len(schema.part_indices(p)) for p in range(schema.part_count))
        assert total == 24


DELETE = object()
# one field of a record: a top-level key, a bbox entry, a landmark entry or
# one key of a landmark entry
RECORD_FIELDS = ([("image",), ("bbox",), ("L",), ("landmarks",), ("landmarks", 2)]
                 + [("bbox", i) for i in range(4)]
                 + [("landmarks", 2, k) for k in ("name", "x", "y", "v")])
BAD_VALUES = st.one_of(
    st.sampled_from([DELETE, float("nan"), float("inf"), float("-inf"), None, True, "x", "",
                     "12", [], {}, [1.0], 10 ** 400, -1.0, 2.0, 0.0]),
    st.floats(), st.integers(), st.text(max_size=4),
    st.lists(st.floats(allow_nan=False), max_size=5),
)


def corrupted(rec, path, value):
    """rec with the field at path set to value, or deleted for DELETE."""
    *head, last = path
    node = rec
    for key in head:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return rec


class TestDatasetIO:
    def test_two_full_records(self, tmp_path):
        p = tmp_path / "ann.jsonl"
        write_jsonl(p, [full_record("img0"), full_record("img1")])
        ds = load_dataset(p, small_schema())
        assert len(ds) == 2
        for s in ds.samples:
            assert s.ground_truth.annotated.all()
            assert np.allclose(s.ground_truth.coords[:, 0], [0, 10, 20, 30, 40])

    def test_missing_landmark_gets_placeholder(self, tmp_path):
        rec = full_record()
        del rec["landmarks"][3]
        p = tmp_path / "ann.jsonl"
        write_jsonl(p, [rec])
        ds = load_dataset(p, small_schema())
        gt = ds.samples[0].ground_truth
        assert gt.annotated[3] == 0
        assert tuple(gt.coords[3]) == (0.0, 0.0)
        assert gt.annotated.sum() == 4

    def test_landmark_count_mismatch(self, tmp_path):
        p = tmp_path / "ann.jsonl"
        write_jsonl(p, [full_record(L=4)])
        with pytest.raises(SchemaError):
            load_dataset(p, small_schema())

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "ann.jsonl"
        with open(p, "w") as fh:
            fh.write(json.dumps(full_record()) + "\n")
            fh.write("{not json\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(p, small_schema())
        assert exc.value.line == 2

    @pytest.mark.parametrize("path, value, error", [
        (("bbox", 2), "x", ParseError),
        (("L",), "x", ParseError),
        (("landmarks",), 5, ParseError),
        (("landmarks", 1, "x"), float("nan"), ParseError),
        (("landmarks", 1, "y"), float("inf"), ParseError),
        (("landmarks", 1, "v"), float("nan"), ParseError),
        (("landmarks", 1, "v"), "x", ParseError),
        (("bbox", 2), float("nan"), SchemaError),
        (("bbox", 0), float("-inf"), SchemaError),
        # an L that int() would truncate to the schema's 5
        (("L",), 5.5, ParseError),
        (("L",), 5.000001, ParseError),
    ])
    def test_bad_field_is_refused(self, tmp_path, path, value, error):
        p = tmp_path / "ann.jsonl"
        write_jsonl(p, [corrupted(full_record(), path, value)])
        with pytest.raises(error):
            load_dataset(p, small_schema())

    @pytest.mark.parametrize("L", [5, 5.0, "5"])
    def test_integral_L_loads(self, tmp_path, L):
        p = tmp_path / "ann.jsonl"
        write_jsonl(p, [full_record(L=5) | {"L": L}])
        assert load_dataset(p, small_schema()).samples[0].ground_truth.annotated.all()

    @settings(max_examples=200, deadline=None)
    @given(path=st.sampled_from(RECORD_FIELDS), value=BAD_VALUES)
    def test_one_corrupt_field_loads_or_is_a_data_error(self, tmp_path_factory, path, value):
        p = tmp_path_factory.getbasetemp() / "corrupt.jsonl"
        write_jsonl(p, [full_record("img0"), corrupted(full_record("img1"), path, value)])
        try:
            ds = load_dataset(p, small_schema())
        except DataError:
            return
        for s in ds.samples:
            gt = s.ground_truth
            assert np.isfinite(gt.coords).all() and np.isfinite(s.bbox).all()
            assert ((gt.visibility >= 0) & (gt.visibility <= 1)).all()

    def test_save_load_round_trip(self, tmp_path, tiny_corpus):
        p = tmp_path / "rt.jsonl"
        save_dataset(tiny_corpus, p)
        ds = load_dataset(p, tiny_corpus.schema)
        assert len(ds) == len(tiny_corpus)
        # every float is written in its shortest round-trip form, so it reads back exactly
        for a, b in zip(tiny_corpus.samples, ds.samples):
            assert a.image_ref == b.image_ref
            np.testing.assert_array_equal(a.ground_truth.coords, b.ground_truth.coords)
            np.testing.assert_array_equal(
                a.ground_truth.visibility, b.ground_truth.visibility
            )
            np.testing.assert_array_equal(a.ground_truth.annotated, b.ground_truth.annotated)
            assert a.bbox == b.bbox


# names and images with quotes, backslashes, format characters, control
# characters and non-ASCII
TEXT = st.text(alphabet=st.sampled_from('ab"\\%/\n\x00\u00e9\u2603\U0001F600'), max_size=6)
# a finite float, -0.0, the smallest subnormal and 1e300 among them
COORD = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1 / 3]) | st.floats(
    allow_nan=False, allow_infinity=False)
VISIBILITY = st.sampled_from([-0.0, 0.0, 5e-324, 1.0]) | st.floats(0.0, 1.0)
# a bbox entry as an int, a float or an np.float64
BOX_ORIGIN = st.integers(-10 ** 6, 10 ** 6) | COORD | COORD.map(np.float64)
BOX_SIZE = (st.integers(1, 10 ** 6) | st.floats(5e-324, 1e300)
            | st.floats(5e-324, 1e300).map(np.float64))


@st.composite
def datasets(draw):
    """A dataset over a schema of 1-5 drawn names: 0-4 faces, each landmark
    annotated or not; an unannotated landmark's coordinates may be NaN."""
    L = draw(st.integers(1, 5))
    schema = LandmarkSchema(draw(st.lists(TEXT, min_size=L, max_size=L)), [0] * L,
                            [True] * L, list(range(L)))
    samples = []
    for _ in range(draw(st.integers(0, 4))):
        coords = np.array(draw(st.lists(COORD, min_size=2 * L, max_size=2 * L))).reshape(L, 2)
        annotated = np.array(draw(st.lists(st.booleans(), min_size=L, max_size=L)), np.uint8)
        if draw(st.booleans()):
            coords[annotated == 0] = np.nan
        shape = Shape(coords, draw(st.lists(VISIBILITY, min_size=L, max_size=L)), annotated)
        bbox = (draw(BOX_ORIGIN), draw(BOX_ORIGIN), draw(BOX_SIZE), draw(BOX_SIZE))
        samples.append(Sample(draw(TEXT), shape, bbox))
    return Dataset(samples, schema)


class TestSaveDataset:
    @settings(max_examples=150, deadline=None)
    @given(ds=datasets())
    def test_bytes_equal_the_per_landmark_writer(self, tmp_path_factory, ds):
        out = tmp_path_factory.getbasetemp()
        save_dataset(ds, out / "templates.jsonl")
        save_dataset_per_landmark(ds, out / "scalars.jsonl")
        assert (out / "templates.jsonl").read_bytes() == (out / "scalars.jsonl").read_bytes()

    def test_record_bytes(self, tmp_path):
        # one record in full: sorted keys, json's text of every value
        gt = Shape([[1.5, -0.0], [np.nan, 0.0], [5e-324, 1e300]], [1.0, 1.0, 0.25], [1, 0, 1])
        ds = Dataset([Sample('a"\\\u00e9', gt, (1, np.float64(0.1), 2.0, 3))],
                     LandmarkSchema(["p%r", "q", "\u2603"], [0, 0, 0], [True] * 3, [0, 1, 2]))
        save_dataset(ds, tmp_path / "one.jsonl")
        assert (tmp_path / "one.jsonl").read_text() == (
            '{"L": 3, "bbox": [1, 0.1, 2.0, 3], "image": "a\\"\\\\\\u00e9", "landmarks": ['
            '{"name": "p%r", "v": 1.0, "w": 1, "x": 1.5, "y": -0.0}, '
            '{"name": "\\u2603", "v": 0.25, "w": 1, "x": 5e-324, "y": 1e+300}]}\n')

    @pytest.mark.parametrize("field, value", [("x", np.nan), ("y", np.inf), ("x", -np.inf),
                                              ("v", np.nan)])
    def test_non_finite_landmark_is_refused_before_writing(self, tmp_path, tiny_corpus,
                                                           field, value):
        ds = Dataset([Sample(s.image_ref, s.ground_truth.copy(), s.bbox)
                      for s in tiny_corpus.samples[:3]], tiny_corpus.schema)
        gt = ds.samples[1].ground_truth
        if field == "v":
            gt.visibility[4] = value
        else:
            gt.coords[4, "xy".index(field)] = value
        path = tmp_path / "faces.jsonl"
        with pytest.raises(NumericError, match=f"image '{ds.samples[1].image_ref}' has a "
                                               "landmark with a non-finite x, y or v"):
            save_dataset(ds, path)
        assert not path.exists()
        # the same value on an unannotated landmark is not written, so not refused
        gt.annotated[4] = 0
        save_dataset(ds, path)
        assert load_dataset(path, ds.schema).samples[1].ground_truth.annotated[4] == 0


class TestShape:
    def test_rejects_bad_visibility(self):
        with pytest.raises(SchemaError):
            Shape(np.zeros((2, 2)), [0.5, 1.5], [1, 1])

    def test_rejects_nan_visibility(self):
        with pytest.raises(SchemaError):
            Shape(np.zeros((2, 2)), [0.5, np.nan], [1, 1])

    def test_rejects_non_binary_annotated(self):
        with pytest.raises(SchemaError):
            Shape(np.zeros((2, 2)), [1.0, 1.0], [1, 2])


class TestSample:
    @pytest.mark.parametrize("i", range(4))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_bbox(self, i, value):
        bbox = [0.0, 0.0, 10.0, 10.0]
        bbox[i] = value
        gt = Shape(np.zeros((2, 2)), [1.0, 1.0], [1, 1])
        with pytest.raises(SchemaError, match="finite"):
            Sample("img", gt, tuple(bbox))


class TestSplit:
    def test_same_seed_same_partition(self, tiny_corpus):
        a = split_train_val(tiny_corpus, 0.2, 7)
        b = split_train_val(tiny_corpus, 0.2, 7)
        assert [s.image_ref for s in a[0].samples] == [s.image_ref for s in b[0].samples]
        assert [s.image_ref for s in a[1].samples] == [s.image_ref for s in b[1].samples]

    def test_different_seeds_differ(self, tiny_corpus):
        a = split_train_val(tiny_corpus, 0.2, 1)
        b = split_train_val(tiny_corpus, 0.2, 2)
        assert [s.image_ref for s in a[1].samples] != [s.image_ref for s in b[1].samples]

    def test_too_few_samples_is_a_data_error(self, tiny_corpus):
        with pytest.raises(DataError, match="need at least 2 samples to split, the dataset has 1"):
            split_train_val(tiny_corpus.subset([0]), 0.2, 0)

    def test_sizes(self, tiny_corpus):
        tr, va = split_train_val(tiny_corpus, 0.2, 0)
        assert len(va) == 6 and len(tr) == 24

    def test_disjoint_and_complete(self, tiny_corpus):
        tr, va = split_train_val(tiny_corpus, 0.3, 5)
        refs = sorted(s.image_ref for s in tr.samples) + sorted(
            s.image_ref for s in va.samples
        )
        assert sorted(refs) == sorted(s.image_ref for s in tiny_corpus.samples)


class TestAugment:
    def test_zero_noise_target_n_is_identity(self, tiny_corpus):
        out = augment(tiny_corpus, len(tiny_corpus), AugmentConfig(), 0)
        assert len(out) == len(tiny_corpus)
        for a, b in zip(out.samples, tiny_corpus.samples):
            assert a is b  # originals verbatim

    def test_growth_and_metadata(self, tiny_corpus, model3d):
        n = len(tiny_corpus)
        out = augment(tiny_corpus, n + 10, AugmentConfig.paper_defaults(), 0, model3d)
        assert len(out) == n + 10
        extra = out.samples[n:]
        for j, s in enumerate(extra):
            src = tiny_corpus.samples[j % n]
            # image, box and ground-truth coordinates are the source's
            assert s.image_ref == src.image_ref and s.bbox == src.bbox
            np.testing.assert_array_equal(s.ground_truth.coords, src.ground_truth.coords)

    def test_occlusion_zeroes_visibility(self, tiny_corpus):
        n = len(tiny_corpus)
        for frac in (0.25, 0.5):
            cfg = AugmentConfig(occlusion_prob=1.0, occlusion_frac=frac)
            hit = 0
            for j, s in enumerate(augment(tiny_corpus, n + 30, cfg, 0).samples[n:]):
                vis = tiny_corpus.samples[j % n].ground_truth.visibility
                fell = (vis > 0) & (s.ground_truth.visibility == 0)
                # every other landmark keeps the source's visibility
                np.testing.assert_array_equal(s.ground_truth.visibility[~fell], vis[~fell])
                if fell.any():
                    # the hidden landmarks fit under one occluder
                    c = s.ground_truth.coords[fell]
                    _, _, w, h = s.bbox
                    assert np.all(c.max(axis=0) - c.min(axis=0) <= frac * min(w, h))
                    hit += 1
            assert hit
        cfg = AugmentConfig(yaw_noise=10.0, occlusion_frac=0.5)
        for j, s in enumerate(augment(tiny_corpus, n + 30, cfg, 0).samples[n:]):
            np.testing.assert_array_equal(
                s.ground_truth.visibility,
                tiny_corpus.samples[j % n].ground_truth.visibility)

    def test_deterministic(self, tiny_corpus, model3d):
        cfg = AugmentConfig.paper_defaults()
        a = augment(tiny_corpus, 45, cfg, 3, model3d)
        b = augment(tiny_corpus, 45, cfg, 3, model3d)
        for x, y in zip(a.samples[30:], b.samples[30:]):
            np.testing.assert_array_equal(x.initial.coords, y.initial.coords)
            np.testing.assert_array_equal(x.initial.visibility, y.initial.visibility)
            np.testing.assert_array_equal(
                x.ground_truth.visibility, y.ground_truth.visibility
            )
