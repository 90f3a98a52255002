import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facealign.errors import SchemaError
from facealign.metrics import (
    auc_fr,
    ced_curve,
    cross_matrix,
    evaluate,
    nme,
    nme_percent,
    normalizer,
    occlusion_pr,
    per_landmark_nme,
    restrict_to_landmarks,
)
from facealign.shapes import Dataset, LandmarkSchema, Sample, Shape


def shape(coords, vis=None, ann=None):
    coords = np.asarray(coords, dtype=np.float64)
    L = len(coords)
    vis = np.ones(L) if vis is None else vis
    ann = np.ones(L, dtype=np.uint8) if ann is None else ann
    return Shape(coords, vis, ann)


class TestNME:
    def test_perfect_is_zero(self):
        gt = shape([[10, 10], [20, 20]])
        assert nme(gt, gt, 100.0) == 0.0

    def test_single_offset(self):
        # L=1, offset 5 px, d=100 -> 5.0 percent
        pred = shape([[15.0, 10.0]])
        gt = shape([[10.0, 10.0]])
        assert nme(pred, gt, 100.0) == 5.0

    def test_mask_excludes_unannotated(self):
        pred = shape([[14.0, 10.0], [1000.0, 0.0]])
        gt = shape([[10.0, 10.0], [0.0, 0.0]], ann=[1, 0])
        assert nme(pred, gt, 100.0) == 4.0

    def test_requires_positive_normalizer(self):
        gt = shape([[0, 0]])
        with pytest.raises(ValueError):
            nme(gt, gt, 0.0)

    def test_requires_annotations(self):
        gt = shape([[0, 0]], ann=[0])
        with pytest.raises(ValueError):
            nme(gt, gt, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), L=st.integers(1, 30))
    def test_batch_rows_are_nme_of_each_face(self, seed, n, L):
        r = np.random.default_rng(seed)
        coords = r.uniform(0, 160, size=(n, L, 2))
        gt = r.uniform(0, 160, size=(n, L, 2))
        ann = (r.random((n, L)) < 0.8).astype(np.uint8)
        ann[:, 0] = 1
        d = r.uniform(20, 200, size=n)
        got = nme_percent(coords, gt, ann, d)
        want = [nme(shape(coords[i]), shape(gt[i], ann=ann[i]), d[i]) for i in range(n)]
        assert got.tolist() == want

    def test_face_without_annotations_reads_zero(self):
        got = nme_percent(np.ones((2, 3, 2)), np.zeros((2, 3, 2)),
                          np.array([[0, 0, 0], [1, 1, 1]]), 100.0)
        assert got[0] == 0.0 and got[1] == pytest.approx(100.0 * np.sqrt(2) / 100.0)


def eyes_schema():
    return LandmarkSchema(
        names=["le", "re", "n"],
        parts=[0, 0, 1],
        distinct=[True] * 3,
        mirror=[1, 0, 2],
        eyes={"left": [0], "right": [1], "left_outer": 0, "right_outer": 1},
    )


class TestNormalizer:
    def test_corner_3_4_5(self):
        gt = shape([[0.0, 0.0], [30.0, 40.0], [5.0, 5.0]])
        d = normalizer(gt, (0, 0, 50, 50), "corners", eyes_schema())
        assert d == 50.0

    def test_square_bbox_height(self):
        gt = shape([[0, 0]])
        assert normalizer(gt, (5, 5, 33.0, 33.0), "height") == pytest.approx(33.0)

    def test_height_is_geometric_mean(self):
        gt = shape([[0, 0]])
        assert normalizer(gt, (0, 0, 4.0, 9.0), "height") == pytest.approx(6.0)

    def test_pupils_matches_direct_computation(self):
        s = LandmarkSchema(
            names=["a", "b", "c", "d", "e"],
            parts=[0, 0, 1, 1, 2],
            distinct=[True] * 5,
            mirror=[1, 0, 3, 2, 4],
            eyes={"left": [0, 1], "right": [2, 3], "left_outer": 0, "right_outer": 3},
        )
        r = np.random.default_rng(8)
        for _ in range(20):
            gt = shape(r.uniform(0, 100, size=(5, 2)))
            d = normalizer(gt, (0, 0, 100, 100), "pupils", s)
            left = gt.coords[[0, 1]].mean(axis=0)
            right = gt.coords[[2, 3]].mean(axis=0)
            assert d == pytest.approx(np.linalg.norm(left - right))

    def test_missing_eye_metadata(self):
        gt = shape([[0, 0], [1, 1], [2, 2]])
        plain = LandmarkSchema(["a", "b", "c"], [0, 0, 1], [True] * 3, [1, 0, 2])
        with pytest.raises(SchemaError):
            normalizer(gt, (0, 0, 10, 10), "pupils", plain)
        with pytest.raises(SchemaError):
            normalizer(gt, (0, 0, 10, 10), "corners", None)


class TestAucFr:
    def test_all_zero_errors(self):
        auc, fr = auc_fr([0.0, 0.0, 0.0], 8.0)
        assert auc == 1.0 and fr == 0.0

    def test_all_failures(self):
        auc, fr = auc_fr([9.0, 10.0, 99.0], 8.0)
        assert auc == 0.0 and fr == 100.0

    def test_half_mass_step(self):
        auc, fr = auc_fr([0.0, 16.0], 8.0)
        assert auc == 0.5 and fr == 50.0

    def test_exact_on_boundary(self):
        # error exactly epsilon is not a failure (strict >)
        _, fr = auc_fr([8.0], 8.0)
        assert fr == 0.0

    def test_matches_numeric_integration(self):
        r = np.random.default_rng(9)
        errs = r.uniform(0, 12, size=50)
        eps = 8.0
        auc, _ = auc_fr(errs, eps)
        # independent oracle: integrate the empirical CED on a fine grid
        grid = np.linspace(0, eps, 200001)
        ced = (errs[None, :] <= grid[:, None]).mean(axis=1)
        ref = np.trapezoid(ced, grid) / eps
        assert auc == pytest.approx(ref, abs=1e-4)

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant(self, seed):
        r = np.random.default_rng(seed)
        errs = r.uniform(0, 10, size=20)
        a = auc_fr(errs, 5.0)
        b = auc_fr(r.permutation(errs), 5.0)
        assert a[0] == pytest.approx(b[0], abs=1e-12)
        assert a[1] == b[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            auc_fr([1.0], 0.0)
        with pytest.raises(ValueError):
            auc_fr([], 1.0)


class TestCed:
    def test_monotone_and_ends_at_one(self):
        pts = ced_curve([3.0, 1.0, 2.0, 2.0])
        cs = [c for _, c in pts]
        assert cs == sorted(cs)
        assert cs[-1] == 1.0
        es = [e for e, _ in pts]
        assert es == sorted(es)


class TestOcclusionPR:
    def test_perfect(self):
        gt = [np.array([1.0, 0.0, 1.0, 0.0])]
        prec, rec = occlusion_pr(gt, gt)
        assert prec == 100.0 and rec == 100.0

    def test_everything_predicted_occluded(self):
        pred = [np.zeros(4)]
        gt = [np.array([1.0, 0.0, 1.0, 1.0])]  # base rate 25%
        prec, rec = occlusion_pr(pred, gt)
        assert prec == pytest.approx(25.0)
        assert rec == 100.0

    def test_nothing_predicted_occluded(self):
        pred = [np.ones(4)]
        gt = [np.array([1.0, 0.0, 1.0, 1.0])]
        prec, rec = occlusion_pr(pred, gt)
        assert prec is None
        assert rec == 0.0

    def test_no_occlusions_in_gt(self):
        pred = [np.zeros(2)]
        gt = [np.ones(2)]
        prec, rec = occlusion_pr(pred, gt)
        assert rec is None

    def test_threshold_is_one_half(self):
        # a predicted visibility below 0.5 is occluded; the threshold is
        # fixed, not a parameter
        pred = [np.array([0.5, np.nextafter(0.5, 0.0), 0.0, 1.0])]
        gt = [np.array([1.0, 0.0, 0.0, 1.0])]
        assert occlusion_pr(pred, gt) == (100.0, 100.0)
        with pytest.raises(TypeError):
            occlusion_pr(pred, gt, threshold=0.4)


class TestPerLandmark:
    def test_basic(self):
        pred = [shape([[3.0, 0.0], [0.0, 4.0]])]
        gt = [shape([[0.0, 0.0], [0.0, 0.0]])]
        out = per_landmark_nme(pred, gt, [10.0])
        np.testing.assert_allclose(out, [30.0, 40.0])

    def test_unannotated_is_nan(self):
        pred = [shape([[3.0, 0.0], [0.0, 4.0]])]
        gt = [shape([[0.0, 0.0], [0.0, 0.0]], ann=[1, 0])]
        out = per_landmark_nme(pred, gt, [10.0])
        assert np.isnan(out[1])


class TestEvaluate:
    def test_report_fields_and_determinism(self):
        r = np.random.default_rng(11)
        gts = [shape(r.uniform(0, 100, size=(3, 2)), vis=r.integers(0, 2, 3).astype(float))
               for _ in range(6)]
        preds = [shape(g.coords + r.normal(0, 2, size=(3, 2)), vis=r.uniform(0, 1, 3))
                 for g in gts]
        bboxes = [(0, 0, 100, 100)] * 6
        a = evaluate(preds, gts, bboxes, epsilon=8.0)
        b = evaluate(preds, gts, bboxes, epsilon=8.0)
        assert a.to_text() == b.to_text()
        assert a.nme == pytest.approx(np.mean(a.per_image_nme))
        assert 0.0 <= a.auc <= 1.0
        assert 0.0 <= a.fr <= 100.0
        # occlusion is scored from the visibility of the given Shapes
        assert (a.occlusion_precision, a.occlusion_recall) == occlusion_pr(
            [p.visibility for p in preds], [g.visibility for g in gts])
        assert a.occlusion_precision is not None and a.occlusion_recall is not None


class TestCrossMatrix:
    def make_sets(self, schema, tiny_corpus):
        half = len(tiny_corpus) // 2
        return tiny_corpus.subset(range(half)), tiny_corpus.subset(
            range(half, len(tiny_corpus))
        )

    def shifted(self, testsets, offset=0.0):
        """One model's predictions: each ground truth moved by offset."""
        return [[Shape(s.ground_truth.coords + offset, s.ground_truth.visibility,
                       s.ground_truth.annotated) for s in ds.samples] for ds in testsets]

    def test_identical_testsets_identical_columns(self, schema, tiny_corpus):
        a, _ = self.make_sets(schema, tiny_corpus)
        m = cross_matrix(
            [self.shifted([a, a], 1.0), self.shifted([a, a], 2.0)],
            [a, a],
            schema.distinct_indices,
        )
        np.testing.assert_allclose(m[:, 0], m[:, 1])

    def test_perfect_predictor_diagonal_zero(self, schema, tiny_corpus):
        a, b = self.make_sets(schema, tiny_corpus)
        m = cross_matrix([self.shifted([a, b])], [a, b], schema.distinct_indices)
        np.testing.assert_allclose(m, 0.0, atol=1e-12)

    def test_entries_match_independent_recompute(self, schema, tiny_corpus):
        a, b = self.make_sets(schema, tiny_corpus)
        preds = self.shifted([a, b], 3.0)
        m = cross_matrix([preds], [a, b], schema.distinct_indices)
        for j, ds in enumerate((a, b)):
            errs = []
            for s, p in zip(ds.samples, preds[j]):
                pred = restrict_to_landmarks(p, schema.distinct_indices)
                gt = restrict_to_landmarks(s.ground_truth, schema.distinct_indices)
                d = normalizer(s.ground_truth, s.bbox, "height")
                errs.append(nme(pred, gt, d))
            assert m[0, j] == pytest.approx(np.mean(errs))

    def test_needs_24_distinct(self, tiny_corpus):
        with pytest.raises(SchemaError):
            cross_matrix([self.shifted([tiny_corpus])], [tiny_corpus], np.arange(10))
