import json

import numpy as np
import pytest

from facealign.errors import ParseError, SchemaError
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

    def test_save_load_round_trip(self, tmp_path, tiny_corpus):
        p = tmp_path / "rt.jsonl"
        save_dataset(tiny_corpus, p)
        ds = load_dataset(p, tiny_corpus.schema)
        for a, b in zip(tiny_corpus.samples, ds.samples):
            assert a.image_ref == b.image_ref
            np.testing.assert_allclose(a.ground_truth.coords, b.ground_truth.coords)
            np.testing.assert_allclose(
                a.ground_truth.visibility, b.ground_truth.visibility
            )
            assert a.bbox == pytest.approx(b.bbox)


class TestShape:
    def test_rejects_bad_visibility(self):
        with pytest.raises(SchemaError):
            Shape(np.zeros((2, 2)), [0.5, 1.5], [1, 1])

    def test_rejects_non_binary_annotated(self):
        with pytest.raises(SchemaError):
            Shape(np.zeros((2, 2)), [1.0, 1.0], [1, 2])


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
