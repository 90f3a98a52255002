"""Acceptance suite: one test (or class) per release criterion.

Each criterion finishes with a single pass/fail assertion on the stated
threshold; the slow end-to-end training run is shared by the criteria that
inspect it.
"""

import time

import numpy as np
import pytest

from facealign.cascade import (
    CascadeModel,
    TrainConfig,
    fit_node,
    make_initializer,
    predict,
    stop_stage,
    train_cascade,
)
from facealign.errors import InitError
from facealign.features import SplitParams
from facealign.heatmaps import ProbabilityMaps, SynthConfig, synthesize_from_shape
from facealign.metrics import auc_fr, nme, normalizer, occlusion_pr
from facealign.modelio import load_model, save_model
from facealign.pose import (
    RigidPose,
    euler_to_rotation,
    fit_pose,
    mean_shape_init,
    project_points,
    robust_init,
    rotation_angle,
)
from facealign.shapes import LandmarkSchema, Shape, split_train_val
from facealign.synthetic import (
    CorpusConfig,
    SyntheticMapSource,
    attach_pose_initials,
    generate_corpus,
)

FACE = 160


# --------------------------------------------------------------------------
# criterion 1: split-oracle equivalence


def test_criterion_1_split_oracle_equivalence():
    start = time.time()
    r = np.random.default_rng(20240101)
    for _ in range(100):
        n = int(r.integers(2, 33))
        C = int(r.integers(1, 17))
        L = int(r.integers(1, 11))
        residuals = r.normal(size=(n, 2 * L))
        cands = [
            SplitParams(tau=float(r.uniform(-1, 1)), p1=0, p2=1,
                        landmark=int(r.integers(L)))
            for _ in range(C)
        ]
        F = r.normal(size=(C, n))
        best, cost, _ = fit_node(residuals, cands, F)
        # exhaustive brute force with the documented cost and tie rule
        # (strict improvement, so ties keep the lowest candidate index)
        ref_best, ref_cost = -1, np.inf
        for c in range(C):
            mask = F[c] > cands[c].tau
            tot = 0.0
            for side in (residuals[mask], residuals[~mask]):
                if len(side):
                    tot += float(((side - side.mean(axis=0)) ** 2).sum())
            if tot < ref_cost:
                ref_best, ref_cost = c, tot
        assert best == ref_best and cost == ref_cost
    assert time.time() - start < 10.0


# --------------------------------------------------------------------------
# criterion 2: pose recovery


def test_criterion_2_pose_recovery(model3d):
    start = time.time()
    ok = 0
    trials = 1000
    center = (FACE / 2.0, FACE / 2.0)
    for seed in range(trials):
        r = np.random.default_rng(seed)
        R = euler_to_rotation(
            np.radians(r.uniform(-60, 60)),
            np.radians(r.uniform(-45, 45)),
            np.radians(r.uniform(-45, 45)),
        )
        t = np.array([r.uniform(-15, 15), r.uniform(-15, 15), r.uniform(250, 700)])
        pose = RigidPose(R, t, float(FACE))
        coords, _ = project_points(model3d, pose, center)
        rec = fit_pose(coords, model3d.points, float(FACE), center)
        rot_ok = rotation_angle(rec.rotation, R) < np.radians(1.0)
        depth_ok = abs(rec.translation[2] - t[2]) / t[2] < 0.01
        ok += rot_ok and depth_ok
    assert ok >= 0.99 * trials
    assert time.time() - start < 30.0


# --------------------------------------------------------------------------
# criterion 3: consensus initialization under outliers


def outlier_maps(model3d, seed):
    """Maps for a random pose where 6 of 24 peaks (25%) are uniform outliers."""
    r = np.random.default_rng(seed)
    R = euler_to_rotation(
        np.radians(r.uniform(-40, 40)),
        np.radians(r.uniform(-25, 25)),
        np.radians(r.uniform(-25, 25)),
    )
    t = np.array([r.uniform(-8, 8), r.uniform(-8, 8), r.uniform(350, 600)])
    pose = RigidPose(R, t, float(FACE))
    coords, _ = project_points(model3d, pose)
    peaks = coords.copy()
    outliers = r.choice(24, size=6, replace=False)
    peaks[outliers] = r.uniform(0, FACE - 1, size=(6, 2))
    L = len(coords)
    maps = synthesize_from_shape(
        peaks, np.ones(L), np.ones(L, np.uint8), SynthConfig(),
        np.random.default_rng(seed + 1), (FACE, FACE),
    )
    return maps, coords


def test_criterion_3_robust_init_with_outliers(model3d):
    start = time.time()
    good = 0
    trials = 200
    for seed in range(trials):
        maps, truth = outlier_maps(model3d, seed)
        res = robust_init(maps, model3d, Z=25, seed=seed)
        err = np.linalg.norm(res.shape.coords - truth, axis=1).mean()
        good += err < 0.05 * FACE
    assert good >= 0.95 * trials

    # best score is non-decreasing in Z on shared seed streams; a Z where
    # every hypothesis failed to fit has no score, which any later
    # successful fit dominates
    def score_at(maps, z, seed):
        try:
            return robust_init(maps, model3d, Z=z, seed=seed).score
        except InitError:
            return float("-inf")

    for seed in range(20):
        maps, _ = outlier_maps(model3d, 10_000 + seed)
        scores = [score_at(maps, z, seed) for z in (1, 5, 12, 25)]
        assert scores[-1] > float("-inf")
        assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))
    assert time.time() - start < 60.0


# --------------------------------------------------------------------------
# criteria 4-6: shared end-to-end run (2000 train / 500 test faces)

E2E_SYNTH = SynthConfig(coordinate_noise_sigma=1.0, outlier_rate=0.10)
E2E_TRAIN = TrainConfig(T=8, K1=20, K2=20, depth=4, candidates_per_node=100,
                        shrinkage=0.25, subsample=0.6, Z=12, seed=42)


@pytest.fixture(scope="session")
def e2e_run(model3d, schema, pattern):
    start = time.time()
    corpus_kw = dict(deform_magnitude=5.0)
    train_ds = generate_corpus(model3d, schema,
                               CorpusConfig(count=2000, seed=42, **corpus_kw))
    test_ds = generate_corpus(model3d, schema,
                              CorpusConfig(count=500, seed=999, **corpus_kw))
    src = SyntheticMapSource(E2E_SYNTH, 42)
    attach_pose_initials(train_ds, model3d, src, Z=E2E_TRAIN.Z, seed=42)
    tr, va = split_train_val(train_ds, 0.1, 42)
    mean = mean_shape_init(tr)
    init_fn = make_initializer("3d", mean, model3d, E2E_TRAIN)
    model = train_cascade(tr, va, src, init_fn, E2E_TRAIN, pattern,
                          init_mode="3d", mean_shape=mean, model3d=model3d)
    final_nme, init_nme = [], []
    for s in test_ds.samples:
        maps = src.maps_for(s)
        p = predict(model, maps, s.bbox)
        d = normalizer(s.ground_truth, s.bbox, "height")
        final_nme.append(nme(p.shape, s.ground_truth, d))
        init_nme.append(nme(p.init_shape, s.ground_truth, d))
    elapsed = time.time() - start
    return model, float(np.mean(init_nme)), float(np.mean(final_nme)), elapsed


def test_criterion_4_end_to_end_nme_reduction(e2e_run):
    _, init_nme, final_nme, elapsed = e2e_run
    assert final_nme <= 0.5 * init_nme
    assert elapsed < 600.0


def test_criterion_5_monotone_training_curve(e2e_run):
    model, *_ = e2e_run
    curve = [e["train_nme"] for e in model.training_log]
    assert len(curve) >= 3
    for a, b in zip(curve, curve[1:]):
        assert b <= a + 1e-9


class TestCriterion6EarlyStopping:
    def test_documented_plateau_sequence(self):
        # injected validation improvements 10%, 5%, 0.5% -> halt at stage 3
        vals = [100.0, 90.0, 85.5, 85.0725, 80.0, 70.0]
        assert stop_stage(vals, 0.01, T=20) == 3

    def test_stage_count_never_exceeds_T(self, e2e_run):
        model, *_ = e2e_run
        assert len(model.stages) <= 20
        vals = [100.0 / 2 ** i for i in range(40)]
        assert stop_stage(vals, 0.01, T=20) == 20

    def test_training_halts_on_first_subthreshold_stage(self, tiny_corpus,
                                                        model3d, pattern):
        # a huge delta makes every stage sub-threshold: exactly one stage
        # (coarse-to-fine off so no grace stage applies)
        src = SyntheticMapSource(SynthConfig(), 3)
        tr, va = split_train_val(tiny_corpus, 0.2, 3)
        cfg = TrainConfig(T=10, K1=3, K2=3, depth=2, candidates_per_node=10,
                          early_stop_delta=0.999, coarse_to_fine=False, seed=3)
        mean = mean_shape_init(tr)
        init_fn = make_initializer("mean", mean, None, cfg)
        model = train_cascade(tr, va, src, init_fn, cfg, pattern,
                              init_mode="mean", mean_shape=mean)
        assert len(model.stages) == 1
        last = model.training_log[-1]
        assert "early stop" in last["note"]
        assert last["improvement"] < cfg.early_stop_delta


# --------------------------------------------------------------------------
# criterion 7: missing-annotation safety


def test_criterion_7_missing_annotations(model3d, schema, pattern):
    ds = generate_corpus(model3d, schema, CorpusConfig(count=60, seed=21))
    r = np.random.default_rng(77)
    never = [5, 17]  # landmarks with no annotation anywhere
    for s in ds.samples:
        drop = r.random(24) < 0.30
        drop[never] = True
        s.ground_truth.annotated[drop] = 0
    src = SyntheticMapSource(SynthConfig(coordinate_noise_sigma=0.5), 21)
    attach_pose_initials(ds, model3d, src, Z=8, seed=21)
    tr, va = split_train_val(ds, 0.15, 21)
    cfg = TrainConfig(T=4, K1=8, K2=8, depth=3, candidates_per_node=30,
                      shrinkage=0.3, Z=8, seed=21)
    dummy_mean = Shape(np.full((24, 2), 0.5), np.ones(24), np.ones(24, np.uint8))
    init_fn = make_initializer("3d", dummy_mean, model3d, cfg)
    model = train_cascade(tr, va, src, init_fn, cfg, pattern,
                          init_mode="3d", mean_shape=dummy_mean, model3d=model3d)
    assert len(model.stages) >= 1  # training completed
    for s in va.samples:
        p = predict(model, src.maps_for(s), s.bbox)
        for l in never:
            # bit-exact: the cascade never moves a never-annotated landmark
            assert np.array_equal(p.shape.coords[l], p.init_shape.coords[l])
        moved = [l for l in range(24) if l not in never]
        assert not np.array_equal(p.shape.coords[moved], p.init_shape.coords[moved])


# --------------------------------------------------------------------------
# criterion 8: coarse-to-fine advantage on excluded deformation combinations


def _train_and_test_nme(train_ds, test_ds, src, cfg, pattern, model3d):
    tr, va = split_train_val(train_ds, 0.15, cfg.seed)
    mean = mean_shape_init(tr)
    init_fn = make_initializer("3d", mean, model3d, cfg)
    model = train_cascade(tr, va, src, init_fn, cfg, pattern,
                          init_mode="3d", mean_shape=mean, model3d=model3d)
    errs = []
    for s in test_ds.samples:
        p = predict(model, src.maps_for(s), s.bbox)
        d = normalizer(s.ground_truth, s.bbox, "height")
        errs.append(nme(p.shape, s.ground_truth, d))
    return float(np.mean(errs))


def test_criterion_8_coarse_to_fine_beats_monolithic(model3d, schema, pattern):
    P = schema.part_count
    train_patterns = [[1] * P, [-1] * P]          # sign combos seen in training
    test_patterns = [[1, -1] * (P // 2), [-1, 1] * (P // 2)]  # excluded combos
    wins = 0
    for seed in range(10):
        train_ds = generate_corpus(
            model3d, schema,
            CorpusConfig(count=200, seed=seed, deform_magnitude=6.0,
                         sign_patterns=train_patterns),
        )
        test_ds = generate_corpus(
            model3d, schema,
            CorpusConfig(count=80, seed=seed + 1000, deform_magnitude=6.0,
                         sign_patterns=test_patterns),
        )
        src = SyntheticMapSource(SynthConfig(coordinate_noise_sigma=0.8), seed)
        attach_pose_initials(train_ds, model3d, src, Z=8, seed=seed)
        # equal tree budget: 20 global trees vs 2 trees x 10 parts per stage
        common = dict(T=5, depth=3, candidates_per_node=60, shrinkage=0.3,
                      Z=8, seed=seed, early_stop_delta=-10.0)
        cf_cfg = TrainConfig(K1=20, K2=2, coarse_to_fine=True, **common)
        mono_cfg = TrainConfig(K1=20, K2=20, coarse_to_fine=False, **common)
        cf = _train_and_test_nme(train_ds, test_ds, src, cf_cfg, pattern, model3d)
        mono = _train_and_test_nme(train_ds, test_ds, src, mono_cfg, pattern, model3d)
        wins += cf < mono
    assert wins >= 8


# --------------------------------------------------------------------------
# criterion 9: metric exactness on the documented examples


def _shape(coords, ann=None):
    coords = np.asarray(coords, dtype=np.float64)
    L = len(coords)
    ann = np.ones(L, np.uint8) if ann is None else np.asarray(ann, np.uint8)
    return Shape(coords, np.ones(L), ann)


def test_criterion_9_metric_exactness():
    # normalized mean error
    gt = _shape([[10.0, 10.0]])
    assert nme(gt, gt, 100.0) == 0.0
    assert nme(_shape([[15.0, 10.0]]), gt, 100.0) == 5.0
    assert nme(
        _shape([[14.0, 10.0], [1000.0, 0.0]]),
        _shape([[10.0, 10.0], [0.0, 0.0]], ann=[1, 0]),
        100.0,
    ) == 4.0
    # normalizers
    s = LandmarkSchema(
        names=["le", "re"], parts=[0, 0], distinct=[True] * 2, mirror=[1, 0],
        eyes={"left": [0], "right": [1], "left_outer": 0, "right_outer": 1},
    )
    corners = _shape([[0.0, 0.0], [30.0, 40.0]])
    assert normalizer(corners, (0, 0, 9, 9), "corners", s) == 50.0
    assert normalizer(corners, (0, 0, 33.0, 33.0), "height") == pytest.approx(33.0)
    assert normalizer(corners, (0, 0, 9, 9), "pupils", s) == 50.0
    # AUC / failure rate
    assert auc_fr([0.0, 0.0], 8.0) == (1.0, 0.0)
    assert auc_fr([9.0, 10.0], 8.0) == (0.0, 100.0)
    assert auc_fr([0.0, 16.0], 8.0) == (0.5, 50.0)
    # occlusion precision / recall
    gt_vis = [np.array([1.0, 0.0, 1.0, 1.0])]
    assert occlusion_pr(gt_vis, gt_vis) == (100.0, 100.0)
    prec, rec = occlusion_pr([np.zeros(4)], gt_vis)
    assert prec == pytest.approx(25.0) and rec == 100.0
    prec, rec = occlusion_pr([np.ones(4)], gt_vis)
    assert prec is None and rec == 0.0


# --------------------------------------------------------------------------
# criterion 10: cross-dataset bias pattern


def test_criterion_10_cross_dataset_bias(model3d, schema, pattern):
    # two corpora with different deformation statistics
    specs = [
        dict(deform_seed=101, deform_style="independent", deform_magnitude=6.0),
        dict(deform_seed=202, deform_style="coupled", deform_magnitude=8.0),
    ]
    corpora = [
        generate_corpus(model3d, schema, CorpusConfig(count=220, seed=i, **sp))
        for i, sp in enumerate(specs)
    ]
    tests = [
        generate_corpus(model3d, schema,
                        CorpusConfig(count=80, seed=50 + i, **sp))
        for i, sp in enumerate(specs)
    ]
    src = SyntheticMapSource(SynthConfig(coordinate_noise_sigma=0.8), 5)

    def train_on(samples_list, seed):
        from facealign.shapes import Dataset

        ds = Dataset([s for d in samples_list for s in d.samples], schema)
        attach_pose_initials(ds, model3d, src, Z=8, seed=seed)
        tr, va = split_train_val(ds, 0.15, seed)
        cfg = TrainConfig(T=5, K1=16, K2=2, depth=3, candidates_per_node=60,
                          shrinkage=0.3, Z=8, seed=seed)
        mean = mean_shape_init(tr)
        init_fn = make_initializer("3d", mean, model3d, cfg)
        return train_cascade(tr, va, src, init_fn, cfg, pattern,
                             init_mode="3d", mean_shape=mean, model3d=model3d)

    models = [train_on([corpora[0]], 0), train_on([corpora[1]], 1),
              train_on(corpora, 2)]  # per-set models plus the pooled model
    matrix = np.zeros((3, 2))
    for i, m in enumerate(models):
        for j, ds in enumerate(tests):
            errs = []
            for s in ds.samples:
                p = predict(m, src.maps_for(s), s.bbox)
                d = normalizer(s.ground_truth, s.bbox, "height")
                errs.append(nme(p.shape, s.ground_truth, d))
            matrix[i, j] = np.mean(errs)
    # each single-source model does best on its own test set
    assert matrix[0, 0] <= matrix[0, 1]
    assert matrix[1, 1] <= matrix[1, 0]
    # the pooled model improves every cross-test entry
    assert matrix[2, 1] < matrix[0, 1]
    assert matrix[2, 0] < matrix[1, 0]


# --------------------------------------------------------------------------
# criterion 11: determinism and serialization


def _train_small(seed, tiny_corpus, model3d, pattern):
    src = SyntheticMapSource(SynthConfig(coordinate_noise_sigma=0.5), seed)
    tr, va = split_train_val(tiny_corpus, 0.2, seed)
    cfg = TrainConfig(T=3, K1=5, K2=5, depth=3, candidates_per_node=20,
                      shrinkage=0.3, Z=6, seed=seed)
    mean = mean_shape_init(tr)
    init_fn = make_initializer("3d", mean, model3d, cfg)
    model = train_cascade(tr, va, src, init_fn, cfg, pattern,
                          init_mode="3d", mean_shape=mean, model3d=model3d)
    return model, src, va


def test_criterion_11_determinism_and_serialization(tiny_corpus, model3d,
                                                    pattern, tmp_path):
    m1, src, va = _train_small(9, tiny_corpus, model3d, pattern)
    m2, _, _ = _train_small(9, tiny_corpus, model3d, pattern)
    p1, p2 = tmp_path / "a.facm", tmp_path / "b.facm"
    save_model(m1, p1)
    save_model(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()  # byte-identical training
    loaded = load_model(p1)
    for s in va.samples:
        maps = src.maps_for(s)
        a = predict(m1, maps, s.bbox)
        b = predict(loaded, maps, s.bbox)
        assert np.array_equal(a.shape.coords, b.shape.coords)
        assert np.array_equal(a.shape.visibility, b.shape.visibility)


# --------------------------------------------------------------------------
# criterion 12: inference latency budget


def _synthetic_big_model(pattern, L=68, stages=20, trees=50, depth=4):
    """A 68-landmark monolithic cascade with random complete trees."""
    from facealign.cascade import PartModel, PartsStage, Tree
    from facealign.features import stage_scale

    r = np.random.default_rng(0)
    M = len(pattern)
    n_nodes = 2 ** depth - 1
    n_leaves = 2 ** depth

    def random_tree():
        left = np.zeros(n_nodes, dtype=np.int64)
        right = np.zeros(n_nodes, dtype=np.int64)
        leaf = 0
        for i in range(n_nodes):
            l, rr = 2 * i + 1, 2 * i + 2
            if l < n_nodes:
                left[i], right[i] = l, rr
            else:
                left[i], right[i] = ~leaf, ~(leaf + 1)
                leaf += 2
        p1 = r.integers(0, M, n_nodes)
        p2 = (p1 + 1 + r.integers(0, M - 1, n_nodes)) % M
        return Tree(
            node_landmark=r.integers(0, L, n_nodes), node_p1=p1, node_p2=p2,
            node_tau=r.uniform(-0.1, 0.1, n_nodes), node_left=left,
            node_right=right,
            leaf_residual=r.normal(0, 0.5, size=(n_leaves, L * 2)),
            leaf_visibility=r.uniform(size=(n_leaves, L)),
        )

    schema = LandmarkSchema(
        names=[f"p{i}" for i in range(L)], parts=[0] * L,
        distinct=[True] * L, mirror=list(range(L)),
    )
    mean = Shape(r.uniform(0.2, 0.8, size=(L, 2)), np.ones(L), np.ones(L, np.uint8))
    stages_list = [
        PartsStage(
            parts=[PartModel(np.arange(L), [random_tree() for _ in range(trees)])],
            shrinkage=0.1,
            scale=stage_scale(t, stages),
        )
        for t in range(stages)
    ]
    return CascadeModel(
        stages=stages_list, init_mode="mean", feature_mode="heatmap",
        schema=schema, mean_shape=mean, pattern=pattern, config=TrainConfig(),
    )


def test_criterion_12_inference_budget(pattern):
    model = _synthetic_big_model(pattern)
    r = np.random.default_rng(1)
    maps = ProbabilityMaps(r.uniform(size=(68, FACE, FACE)))
    bbox = (10.0, 10.0, 140.0, 140.0)
    predict(model, maps, bbox)  # warm-up
    n = 25
    start = time.perf_counter()
    for _ in range(n):
        predict(model, maps, bbox)
    per_face_ms = (time.perf_counter() - start) / n * 1000.0
    assert per_face_ms <= 20.0
