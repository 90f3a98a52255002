import copy
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facealign import pose
from facealign.errors import FitError, InitError, SchemaError
from facealign.heatmaps import (
    BlobMaps,
    ProbabilityMaps,
    SynthConfig,
    synthesize_from_shape,
)
from facealign.pose import (
    INIT_CHUNK,
    MAX_ITER,
    STEP_TOL,
    Model3D,
    RigidPose,
    anchor_shape,
    bbox_center,
    consensus_inits,
    default_center,
    euler_to_rotation,
    fit_pose,
    fit_poses,
    hypothesis_subsets,
    mean_shape_init,
    perturb_pose,
    project_points,
    project_poses,
    robust_init,
    robust_inits,
    rotation_angle,
    score_shape,
    score_shapes,
)
from facealign.shapes import Sample
from oracles import exp_so3_lockstep, fit_poses_lockstep, map_values, score_shapes_per_landmark

angles = st.floats(-np.pi, np.pi, allow_nan=False)


def simple_model():
    pts = np.array(
        [
            [0.0, 0.0, 0.0],
            [30.0, 0.0, 5.0],
            [-30.0, 0.0, 5.0],
            [0.0, 40.0, -10.0],
            [0.0, -40.0, 10.0],
        ]
    )
    normals = np.tile([0.0, 0.0, -1.0], (5, 1))
    return Model3D(pts, normals, np.ones(5, dtype=bool))


class TestRotations:
    @given(angles, angles, angles)
    @settings(max_examples=50, deadline=None)
    def test_euler_gives_proper_rotation(self, y, p, r):
        R = euler_to_rotation(y, p, r)
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0)

    def test_rotation_angle_zero_for_equal(self):
        R = euler_to_rotation(0.3, -0.2, 0.1)
        assert rotation_angle(R, R) == pytest.approx(0.0, abs=1e-7)

    def test_rotation_angle_known_value(self):
        assert rotation_angle(np.eye(3), euler_to_rotation(0.5, 0, 0)) == pytest.approx(0.5)


class TestProjection:
    def test_origin_point_hits_center(self):
        m = simple_model()
        pose = RigidPose(np.eye(3), [0.0, 0.0, 400.0], 160.0)
        coords, vis = project_points(m, pose, center=(80.0, 80.0))
        np.testing.assert_allclose(coords[0], [80.0, 80.0])
        assert vis.all()

    def test_doubling_depth_halves_offsets(self):
        m = simple_model()
        c = (80.0, 80.0)
        near, _ = project_points(m, RigidPose(np.eye(3), [0, 0, 300.0], 160.0), c)
        far, _ = project_points(m, RigidPose(np.eye(3), [0, 0, 600.0], 160.0), c)
        np.testing.assert_allclose(far - c, (near - np.asarray(c)) / 2.0, atol=1e-9)

    def test_hand_projection_oracle(self):
        m = simple_model()
        R = euler_to_rotation(0.4, -0.1, 0.2)
        t = np.array([3.0, -5.0, 500.0])
        pose = RigidPose(R, t, 160.0)
        coords, _ = project_points(m, pose, center=(80.0, 80.0))
        for i in range(5):
            cam = R @ m.points[i] + t
            u = 80.0 + 160.0 / t[2] * cam[0]
            v = 80.0 + 160.0 / t[2] * cam[1]
            np.testing.assert_allclose(coords[i], [u, v], atol=1e-9)

    def test_averted_side_invisible_at_90_yaw(self, model3d):
        pose = RigidPose(euler_to_rotation(np.pi / 2, 0, 0), [0, 0, 400.0], 160.0)
        _, vis = project_points(model3d, pose)
        names = model3d.names
        lear = [i for i, n in enumerate(names) if n.startswith("lear")]
        rear = [i for i, n in enumerate(names) if n.startswith("rear")]
        # one ear faces the camera, the other is averted
        assert vis[lear].sum() == 0 or vis[rear].sum() == 0
        assert vis[lear].sum() + vis[rear].sum() == 2


class TestScoreShape:
    def test_uniform_maps(self):
        maps = ProbabilityMaps(np.full((4, 10, 10), 0.25))
        coords = np.full((4, 2), 5.0)
        assert score_shape(maps, coords) == pytest.approx(1.0)

    def test_all_out_of_bounds(self):
        maps = ProbabilityMaps(np.ones((4, 10, 10)))
        coords = np.full((4, 2), -50.0)
        assert score_shape(maps, coords) == 0.0

    def test_deltas(self):
        g = np.zeros((3, 8, 8))
        coords = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        for l, (x, y) in enumerate(coords):
            g[l, int(y), int(x)] = 1.0
        assert score_shape(ProbabilityMaps(g), coords) == pytest.approx(3.0)


class TestFitPose:
    def test_identity_recovery(self):
        m = simple_model()
        d = 450.0
        pose = RigidPose(np.eye(3), [0, 0, d], 160.0)
        coords, _ = project_points(m, pose, center=(80.0, 80.0))
        rec = fit_pose(coords, m.points, 160.0, (80.0, 80.0))
        assert rotation_angle(rec.rotation, np.eye(3)) < 1e-3
        assert abs(rec.translation[2] - d) / d < 1e-3

    def test_random_pose_recovery(self):
        m = simple_model()
        ok = 0
        for seed in range(50):
            r = np.random.default_rng(seed)
            R = euler_to_rotation(
                r.uniform(-1.0, 1.0), r.uniform(-0.7, 0.7), r.uniform(-0.7, 0.7)
            )
            t = np.array([r.uniform(-20, 20), r.uniform(-20, 20), r.uniform(300, 700)])
            coords, _ = project_points(m, RigidPose(R, t, 160.0), (80.0, 80.0))
            rec = fit_pose(coords, m.points, 160.0, (80.0, 80.0))
            if rotation_angle(rec.rotation, R) < np.radians(1.0):
                ok += 1
        assert ok == 50

    def test_too_few_points(self):
        m = simple_model()
        with pytest.raises(FitError):
            fit_pose(np.zeros((3, 2)), m.points[:3])

    def test_coplanar_rejected(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        with pytest.raises(FitError):
            fit_pose(np.zeros((4, 2)), pts)


# --------------------------------------------------------------------------
# reference: the per-hypothesis solver and consensus loop that fit_poses and
# robust_init replaced, kept here as the oracle they are checked against


def _ref_skew(v):
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])


def _ref_exp_so3(w):
    theta = np.linalg.norm(w)
    K = _ref_skew(w)
    if theta < 1e-12:
        return np.eye(3) + K
    return (np.eye(3) + (math.sin(theta) / theta) * K
            + ((1 - math.cos(theta)) / theta**2) * (K @ K))


def _ref_orthonormalize(I, J):
    U, _, Vt = np.linalg.svd(np.stack([I, J, np.cross(I, J)]))
    D = np.diag([1.0, 1.0, np.sign(np.linalg.det(U @ Vt))])
    return U @ D @ Vt


def ref_fit_pose(coords2d, points3d, focal=160.0, center=None, steps=None):
    """One hypothesis: lstsq scaled-orthographic start, then Gauss-Newton
    with a Jacobian filled one correspondence at a time. Appends each step
    to ``steps`` when given."""
    if center is None:
        center = default_center()
    uv = np.asarray(coords2d, dtype=np.float64).reshape(-1, 2)
    X = np.asarray(points3d, dtype=np.float64).reshape(-1, 3)
    n = X.shape[0]
    if n < 4 or uv.shape[0] != n:
        raise FitError("need at least 4 correspondences")
    Xc = X - X.mean(axis=0)
    if np.linalg.matrix_rank(Xc, tol=1e-9 * max(1.0, np.abs(Xc).max())) < 3:
        raise FitError("degenerate (coplanar) 3D configuration")
    rel = uv - uv.mean(axis=0)
    I, *_ = np.linalg.lstsq(Xc, rel[:, 0], rcond=None)
    J, *_ = np.linalg.lstsq(Xc, rel[:, 1], rcond=None)
    ni, nj = np.linalg.norm(I), np.linalg.norm(J)
    if ni <= 0 or nj <= 0:
        raise FitError("degenerate orthographic estimate")
    s = math.sqrt(ni * nj)
    R = _ref_orthonormalize(I / ni, J / nj)
    c = np.asarray(center, dtype=np.float64)
    proj = X @ R.T
    txy = (uv - c - s * proj[:, :2]).mean(axis=0)
    for _ in range(MAX_ITER):
        proj = X @ R.T
        r = (c + s * proj[:, :2] + txy - uv).ravel()
        if not np.all(np.isfinite(r)):
            raise FitError("pose iteration diverged")
        Jac = np.zeros((2 * n, 6))
        for i in range(n):
            dRX = -R @ _ref_skew(X[i])
            Jac[2 * i, 0:3] = s * dRX[0]
            Jac[2 * i + 1, 0:3] = s * dRX[1]
            Jac[2 * i, 3] = 1.0
            Jac[2 * i + 1, 4] = 1.0
            Jac[2 * i, 5] = proj[i, 0]
            Jac[2 * i + 1, 5] = proj[i, 1]
        step = np.linalg.lstsq(Jac, -r, rcond=None)[0]
        if steps is not None:
            steps.append(step)
        if not np.all(np.isfinite(step)):
            raise FitError("pose iteration diverged")
        R = R @ _ref_exp_so3(step[0:3])
        txy = txy + step[3:5]
        s = s + step[5]
        if s <= 0:
            raise FitError("negative projection scale")
        if np.linalg.norm(step) < STEP_TOL:
            break
    return RigidPose(R, [txy[0] / s, txy[1] / s, focal / s], focal)


def ref_robust_init(maps, model, Z, subset_size, seed, center):
    """The consensus loop: (winning index, score, coords, visibility, pose)."""
    peaks = maps.peaks()
    focal = float(maps.face_size[0])
    best = None
    for z in range(Z):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x9A, z]))
        ids = rng.choice(model.distinct_indices, size=subset_size, replace=False)
        try:
            pose = ref_fit_pose(peaks[ids], model.points[ids], focal, center)
        except FitError:
            continue
        cam = model.points @ pose.rotation.T + pose.translation
        coords = np.asarray(center) + pose.scale * cam[:, :2]
        vis = ((model.normals @ pose.rotation.T)[:, 2] <= 0.0).astype(np.float64)
        score = 0.0
        for l in range(maps.landmark_count):
            score += float(map_values(maps.maps[l], coords[l: l + 1])[0])
        if best is None or score > best[1]:
            best = (z, score, coords, vis, pose)
    if best is None:
        raise InitError("all pose hypotheses failed to fit")
    return best


CENTER = (80.0, 80.0)
# failures decided before any Gauss-Newton step, which rounding cannot flip
START_FAILURES = ("degenerate (coplanar) 3D configuration", "degenerate orthographic estimate")


def _ref_outcome(uv, X):
    """(failure message or None, R, t, Gauss-Newton steps taken)."""
    steps = []
    try:
        pose = ref_fit_pose(uv, X, 160.0, CENTER, steps)
    except FitError as exc:
        return str(exc), None, None, len(steps)
    return None, pose.rotation, pose.translation, len(steps)


def _same_pose(a, b, tol):
    """Same failure, or R within tol and t within tol relative."""
    if a[0] is not None or b[0] is not None:
        return a[0] == b[0]
    return (np.abs(a[1] - b[1]).max() <= tol
            and np.all(np.abs(a[2] - b[2]) <= tol * np.maximum(1.0, np.abs(a[2]))))


def _reference_is_settled(uv, X, ref):
    """Whether the reference's own outcome, step count included, survives
    nudging the peaks by 1e-12 to 1e-9 px.

    Gauss-Newton wanders chaotically on about 1 in 2000 hypotheses with
    heavy outliers, taking steps of tens of radians until its scale turns
    negative or it happens to converge somewhere. There a rounding
    difference, such as the batched solver's other summation order, grows
    to a different outcome, so only settled hypotheses are compared."""
    nudge = np.where(np.arange(uv.size).reshape(uv.shape) % 2, 1.0, -1.0)
    for eps in (1e-12, 1e-11, 1e-10, 1e-9):
        nudged = _ref_outcome(uv + eps * nudge, X)
        if nudged[3] != ref[3] or not _same_pose(ref, nudged, 1e-7):
            return False
    return True


HYPOTHESIS_KINDS = ("pose", "outliers", "coplanar", "collinear", "duplicate")


hypothesis_batches = st.tuples(
    st.integers(4, 8),
    st.lists(st.sampled_from(HYPOTHESIS_KINDS), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
)


def make_batch(model, n, kinds, seed):
    """(B, n, 2) peaks and (B, n, 3) points, one hypothesis per kind: random
    poses of random model subsets, some with outlier peaks, some degenerate."""
    r = np.random.default_rng(seed)
    pts = model.points
    uv, X = [], []
    for kind in kinds:
        R = euler_to_rotation(*np.radians(r.uniform([-60, -45, -45], [60, 45, 45])))
        t = np.array([*r.uniform(-15, 15, 2), r.uniform(250, 700)])
        if kind == "coplanar":
            x = np.column_stack([r.uniform(-40, 40, (n, 2)), np.full(n, 5.0)])
        elif kind == "collinear":
            x = r.uniform(-1, 1, (n, 1)) * r.normal(size=3) + r.normal(size=3)
        else:
            x = pts[r.choice(len(pts), n, replace=kind == "duplicate")]
        p = np.rint(CENTER + 160.0 / t[2] * (x @ R.T + t)[:, :2] + r.normal(0, 1, (n, 2)))
        if kind == "outliers":
            k = int(r.integers(1, n))
            p[r.choice(n, k, replace=False)] = np.rint(r.uniform(0, 159, (k, 2)))
        uv.append(p)
        X.append(x)
    return np.array(uv), np.array(X)


class TestFitPosesOracle:
    @given(hypothesis_batches)
    @settings(max_examples=60, deadline=None)
    def test_matches_per_hypothesis_loop(self, model3d, batch):
        uv, X = make_batch(model3d, *batch)
        fits = fit_poses(uv, X, 160.0, CENTER)
        assert fits.ok.tolist() == [m is None for m in fits.reason]
        for b in range(len(uv)):
            ref = _ref_outcome(uv[b], X[b])
            new = (fits.reason[b], fits.rotation[b], fits.translation[b])
            if ref[0] in START_FAILURES or new[0] in START_FAILURES:
                assert new[0] == ref[0]
            elif _reference_is_settled(uv[b], X[b], ref):
                assert _same_pose(ref, new, 1e-9), (ref, new)

    @given(hypothesis_batches)
    @settings(max_examples=20, deadline=None)
    def test_batch_of_one_equals_batch_entry(self, model3d, batch):
        uv, X = make_batch(model3d, *batch)
        fits = fit_poses(uv, X, 160.0, CENTER)
        for b in range(len(uv)):
            try:
                pose = fit_pose(uv[b], X[b], 160.0, CENTER)
            except FitError as exc:
                assert str(exc) == fits.reason[b]
                continue
            assert fits.ok[b]
            np.testing.assert_allclose(pose.rotation, fits.rotation[b], rtol=0, atol=1e-9)
            np.testing.assert_allclose(pose.translation, fits.translation[b], rtol=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FitError, match="at least 4"):
            fit_poses(np.zeros((2, 5, 2)), np.zeros((2, 4, 3)))

    @given(hypothesis_batches)
    @settings(max_examples=30, deadline=None)
    def test_per_hypothesis_centre_and_focal(self, model3d, batch):
        # the many-face solve: every hypothesis its own focal and centre,
        # bitwise what it gets in a call of its own
        uv, X = make_batch(model3d, *batch)
        r = np.random.default_rng(batch[2])
        focal = r.uniform(96.0, 200.0, len(uv))
        center = CENTER + r.uniform(-10, 10, (len(uv), 2))
        fits = fit_poses(uv, X, focal, center)
        for b in range(len(uv)):
            one = fit_poses(uv[b:b + 1], X[b:b + 1], float(focal[b]), tuple(center[b]))
            assert one.reason[0] == fits.reason[b]
            if fits.ok[b]:
                assert np.array_equal(one.rotation[0], fits.rotation[b])
                assert np.array_equal(one.translation[0], fits.translation[b])


class TestRobustInitOracle:
    @given(seed=st.integers(0, 2**31 - 1), outliers=st.integers(0, 10),
           Z=st.integers(1, 25), subset_size=st.integers(4, 8))
    @settings(max_examples=40, deadline=None)
    def test_matches_consensus_loop(self, model3d, seed, outliers, Z, subset_size):
        r = np.random.default_rng(seed)
        R = euler_to_rotation(*np.radians(r.uniform([-50, -35, -35], [50, 35, 35])))
        t = np.array([*r.uniform(-8, 8, 2), r.uniform(300, 650)])
        coords, _ = project_points(model3d, RigidPose(R, t, 160.0), CENTER)
        peaks = coords.copy()
        peaks[r.choice(24, outliers, replace=False)] = r.uniform(0, 159, (outliers, 2))
        maps = synthesize_from_shape(peaks, np.ones(24), np.ones(24, np.uint8),
                                     SynthConfig(coordinate_noise_sigma=1.0), r, (160, 160))
        try:
            z, score, ref_coords, ref_vis, ref_pose = ref_robust_init(
                maps, model3d, Z, subset_size, seed, CENTER)
        except InitError:
            with pytest.raises(InitError):
                robust_init(maps, model3d, Z=Z, subset_size=subset_size,
                            seed=seed, center=CENTER)
            return
        res = robust_init(maps, model3d, Z=Z, subset_size=subset_size,
                          seed=seed, center=CENTER)
        assert res.score == score
        ids = np.stack([
            np.random.default_rng(np.random.SeedSequence([seed, 0x9A, k]))
            .choice(model3d.distinct_indices, size=subset_size, replace=False)
            for k in range(Z)
        ])
        fits = fit_poses(maps.peaks()[ids], model3d.points[ids], 160.0, CENTER)
        winners = [k for k in range(Z) if fits.ok[k]
                   and np.array_equal(fits.rotation[k], res.pose.rotation)]
        assert winners == [z]
        np.testing.assert_allclose(res.shape.coords, ref_coords, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(res.shape.visibility, ref_vis)
        np.testing.assert_allclose(res.pose.rotation, ref_pose.rotation, rtol=0, atol=1e-9)
        np.testing.assert_allclose(res.pose.translation, ref_pose.translation, rtol=1e-9)


    def test_ties_go_to_lowest_index(self, model3d):
        # noise-free frontal peaks: 12 of 25 subsets project onto the same
        # rounded pixels, so their scores tie exactly
        maps, _, _ = noiseless_maps_for_pose(model3d, np.eye(3), [0.0, 0.0, 400.0])
        ids = np.stack([
            np.random.default_rng(np.random.SeedSequence([0, 0x9A, k]))
            .choice(model3d.distinct_indices, size=6, replace=False)
            for k in range(25)
        ])
        fits = fit_poses(maps.peaks()[ids], model3d.points[ids], 160.0, CENTER)
        ok = np.flatnonzero(fits.ok)
        scores = score_shapes(maps, project_poses(model3d, fits.rotation[ok],
                                                  fits.translation[ok], 160.0, CENTER)[0])
        tied = ok[scores == scores.max()]
        assert len(tied) > 1
        res = robust_init(maps, model3d, Z=25, seed=0, center=CENTER)
        assert np.array_equal(res.pose.rotation, fits.rotation[tied[0]])
        assert ref_robust_init(maps, model3d, 25, 6, 0, CENTER)[0] == tied[0]


MAP_SIZES = ((160, 160), (120, 150), (96, 112))
FACE_KINDS = ("clean", "outliers", "all_fail")


def make_faces(model, kinds, seed):
    """One face per kind: BlobMaps of a random pose of the model in a map of
    random size, plus a bbox whose centre is off the map centre. Outlier
    faces move up to 11 peaks anywhere on the map; all-fail faces have only
    flat maps (NaN centres), whose peaks all sit at the origin."""
    r = np.random.default_rng(seed)
    L = model.landmark_count
    maps, bboxes = [], []
    for kind in kinds:
        H, W = MAP_SIZES[r.integers(len(MAP_SIZES))]
        c = np.array([W / 2.0, H / 2.0]) + r.uniform(-6, 6, 2)
        R = euler_to_rotation(*np.radians(r.uniform([-50, -35, -35], [50, 35, 35])))
        t = np.array([*r.uniform(-8, 8, 2), r.uniform(300, 650) * H / 160.0])
        centres = project_poses(model, R[None], t[None], float(H), c)[0][0]
        centres += r.normal(0, 1, centres.shape)
        if kind == "outliers":
            k = int(r.integers(1, 12))
            centres[r.choice(L, k, replace=False)] = r.uniform(0, [W - 1, H - 1], (k, 2))
        elif kind == "all_fail":
            centres[:] = np.nan
        maps.append(BlobMaps(centres, 3.0, 0.0, (H, W)))
        w, h = r.uniform(40, 90, 2)
        bboxes.append((c[0] - w / 2.0, c[1] - h / 2.0, w, h))
    return maps, bboxes


def assert_same_init(got, maps, model, Z, subset_size, seed, center):
    """got is bitwise the per-face robust_init, or None where it fails."""
    try:
        want = robust_init(maps, model, Z=Z, subset_size=subset_size, seed=seed,
                           center=center)
    except InitError:
        assert got is None
        return
    assert got is not None
    assert np.array_equal(got.shape.coords, want.shape.coords)
    assert np.array_equal(got.shape.visibility, want.shape.visibility)
    assert got.score == want.score
    assert np.array_equal(got.pose.rotation, want.pose.rotation)
    assert np.array_equal(got.pose.translation, want.pose.translation)
    assert got.pose.focal == want.pose.focal


face_sets = st.tuples(
    st.lists(st.sampled_from(FACE_KINDS), min_size=1, max_size=9),
    st.integers(0, 2**32 - 1),
)


class TestRobustInits:
    @given(faces=face_sets, Z=st.integers(1, 8), subset_size=st.integers(4, 7),
           own_centres=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_equals_per_face_robust_init(self, model3d, faces, Z, subset_size, own_centres):
        maps, bboxes = make_faces(model3d, *faces)
        centers = [bbox_center(b) for b in bboxes] if own_centres else None
        got = robust_inits(maps, model3d, Z, subset_size, faces[1] % 1000, centers)
        assert len(got) == len(maps)
        for f, m in enumerate(maps):
            assert_same_init(got[f], m, model3d, Z, subset_size, faces[1] % 1000,
                             centers[f] if own_centres else None)

    @given(kinds=st.lists(st.sampled_from(FACE_KINDS), min_size=0, max_size=11),
           seed=st.integers(0, 2**32 - 1), Z=st.integers(1, 6),
           chunk=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_chunks_equal_per_face_robust_init(self, model3d, kinds, seed, Z, chunk):
        maps, bboxes = make_faces(model3d, kinds, seed)
        samples = [Sample(f"face{i}", None, b) for i, b in enumerate(bboxes)]
        by_ref = {s.image_ref: m for s, m in zip(samples, maps)}
        requested, batches = [], []
        real_robust_inits = pose.robust_inits

        def maps_for(sample):
            requested.append(sample)
            return by_ref[sample.image_ref]

        def counting_robust_inits(maps_list, *args):
            batches.append((len(requested), len(maps_list)))
            return real_robust_inits(maps_list, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pose, "INIT_CHUNK", chunk)
            mp.setattr(pose, "robust_inits", counting_robust_inits)
            got = consensus_inits(samples, maps_for, model3d, Z, 5, seed)
        assert requested == samples
        # one fit per chunk, never more than a chunk of maps held
        assert len(batches) == -(-len(samples) // chunk)
        for k, (seen, fitted) in enumerate(batches):
            assert seen == min((k + 1) * chunk, len(samples))
            assert fitted <= chunk
        for res, m, b in zip(got, maps, bboxes):
            assert_same_init(res, m, model3d, Z, 5, seed, bbox_center(b))

    def test_full_chunks_and_a_partial_one(self, model3d):
        kinds = ["clean", "outliers", "all_fail"] * 23
        maps, bboxes = make_faces(model3d, kinds, 11)
        assert len(kinds) % INIT_CHUNK
        samples = [Sample(f"face{i}", None, b) for i, b in enumerate(bboxes)]
        by_ref = {s.image_ref: m for s, m in zip(samples, maps)}
        got = consensus_inits(samples, lambda s: by_ref[s.image_ref], model3d, 3, 6, 2)
        assert sum(g is None for g in got) >= 23
        for res, m, b in zip(got, maps, bboxes):
            assert_same_init(res, m, model3d, 3, 6, 2, bbox_center(b))

    def test_holds_one_chunk_of_maps(self, model3d):
        maps, bboxes = make_faces(model3d, ["clean"] * (2 * INIT_CHUNK + 3), 5)
        samples = [Sample(f"face{i}", None, b) for i, b in enumerate(bboxes)]
        blobs = {s.image_ref: (m.centres, m.size) for s, m in zip(samples, maps)}
        del maps
        live, most = weakref.WeakSet(), []

        def maps_for(sample):
            centres, size = blobs[sample.image_ref]
            m = BlobMaps(centres, 3.0, 0.0, size)
            live.add(m)
            most.append(len(live))
            return m

        consensus_inits(samples, maps_for, model3d, 3, 6, 0)
        assert max(most) == INIT_CHUNK

    def test_no_faces(self, model3d):
        assert robust_inits([], model3d, 5) == []
        assert consensus_inits([], None, model3d, 5, 6, 0) == []


large_batches = st.tuples(
    st.integers(4, 8),
    st.lists(st.sampled_from(HYPOTHESIS_KINDS), min_size=1, max_size=40),
    st.integers(0, 2**32 - 1),
)


def counted_fit_poses(monkeypatch, *args):
    """fit_poses(*args) and the number of hypotheses each Gauss-Newton
    iteration steps, counted at its one _exp_so3 call per iteration."""
    steps, exp_so3 = [], pose._exp_so3

    def counting(w):
        steps.append(len(w))
        return exp_so3(w)

    monkeypatch.setattr(pose, "_exp_so3", counting)
    return fit_poses(*args), steps


# peaks scaled about the image origin, which becomes the hypothesis'
# centre: at 1e153 the iteration diverges, at 1e160 the orthographic
# start's row norms overflow, at 1e-100 the normal equations are singular
# and at 1e-200 the orthographic start is degenerate
PEAK_SCALES = (1e153, 1e160, 1e-100, 1e-200)


class TestLockstepOracle:
    """fit_poses against the lockstep loop it replaced, bit for bit."""

    @given(large_batches, st.booleans(),
           st.lists(st.sampled_from((None, None, None) + PEAK_SCALES), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal(self, model3d, batch, own_focal_and_centre, peak_scales):
        uv, X = make_batch(model3d, *batch)
        B = len(uv)
        focal, center = 160.0, CENTER
        if own_focal_and_centre or any(peak_scales):
            r = np.random.default_rng(batch[2])
            focal = r.uniform(96.0, 200.0, B) if own_focal_and_centre else np.full(B, 160.0)
            center = np.array(CENTER) + (r.uniform(-10, 10, (B, 2)) if own_focal_and_centre
                                         else np.zeros((B, 2)))
            for b, f in enumerate(peak_scales[:B]):
                if f is not None:
                    uv[b], center[b] = (uv[b] - center[b]) * f, 0.0
        want_steps = []
        with np.errstate(all="ignore"):
            want = fit_poses_lockstep(uv, X, focal, center, want_steps)
            with pytest.MonkeyPatch.context() as mp:
                got, steps = counted_fit_poses(mp, uv, X, focal, center)
        assert np.array_equal(got.rotation, want.rotation)
        assert np.array_equal(got.translation, want.translation)
        assert np.array_equal(got.ok, want.ok)
        assert got.reason.tolist() == want.reason.tolist()
        assert steps == want_steps

    @given(st.lists(st.tuples(st.sampled_from([0.0, 1e-300, 1e-13, 1e-12, 1e-6, 1.0, 4.0]),
                              st.integers(0, 2**32 - 1)), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_exp_so3_bitwise_equal(self, rows):
        # rotation vectors of given lengths, small-angle ones among them
        w = np.array([length * np.random.default_rng(seed).normal(size=3) for length, seed in rows])
        assert pose._exp_so3(w).tobytes() == exp_so3_lockstep(w).tobytes()
        # the loop passes a column slice of its (k, 6) step
        step = np.column_stack([w, w])
        assert pose._exp_so3(step[:, 0:3]).tobytes() == exp_so3_lockstep(w).tobytes()

    def test_subset_basis_is_cached_read_only(self, model3d):
        uv, X = make_batch(model3d, 6, ["pose"] * 5, 3)
        pose._subset_basis.cache_clear()
        first = fit_poses(uv, X, 160.0, CENTER)
        basis = pose._subset_basis(X.shape, X.tobytes())
        assert pose._subset_basis.cache_info().hits == 1
        assert all(not v.flags.writeable for v in basis)
        with pytest.raises(ValueError):
            basis[1][0, 0, 0] = 0.0
        again = fit_poses(uv, X, 160.0, CENTER)
        assert pose._subset_basis.cache_info().hits == 2
        assert np.array_equal(again.rotation, first.rotation)
        # one model point moved by one ulp is another key
        X[2, 3, 1] = np.nextafter(X[2, 3, 1], np.inf)
        fit_poses(uv, X, 160.0, CENTER)
        info = pose._subset_basis.cache_info()
        assert (info.hits, info.misses) == (2, 2)

    @given(kinds=st.lists(st.sampled_from(FACE_KINDS), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1), Z=st.integers(1, 25))
    @settings(max_examples=20, deadline=None)
    def test_robust_inits_bitwise_equal(self, model3d, kinds, seed, Z):
        # faces with outlier peaks, through the lockstep loop and the
        # per-landmark score sum, then through the package's own
        maps, bboxes = make_faces(model3d, ["outliers"] + kinds, seed)
        centers = [bbox_center(b) for b in bboxes]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pose, "fit_poses", fit_poses_lockstep)
            mp.setattr(pose, "score_shapes", score_shapes_per_landmark)
            want = robust_inits(maps, model3d, Z, 6, seed % 1000, centers)
        got = robust_inits(maps, model3d, Z, 6, seed % 1000, centers)
        assert len(got) == len(want) == len(maps)
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if g is not None:
                assert g.score == w.score
                assert np.array_equal(g.shape.coords, w.shape.coords)
                assert np.array_equal(g.shape.visibility, w.shape.visibility)
                assert np.array_equal(g.pose.rotation, w.pose.rotation)
                assert np.array_equal(g.pose.translation, w.pose.translation)


class TestOverflowingPeaks:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e155, 1e160, 1e307])
    def test_fail_the_hypothesis_not_the_batch(self, model3d, scale):
        uv, X = make_batch(model3d, 6, ["pose", "outliers", "pose", "pose"], 7)
        want = fit_poses(uv, X, 160.0, CENTER)
        big = uv.copy()
        big[[1, 3]] = (uv[[1, 3]] - CENTER) * scale + CENTER
        got = fit_poses(big, X, 160.0, CENTER)
        assert got.reason[[1, 3]].tolist() == ["degenerate orthographic estimate"] * 2
        assert not got.ok[[1, 3]].any()
        for b in (0, 2):
            assert got.reason[b] == want.reason[b]
            assert np.array_equal(got.rotation[b], want.rotation[b])
            assert np.array_equal(got.translation[b], want.translation[b])
        with pytest.raises(FitError, match="degenerate orthographic estimate"):
            fit_pose(big[1], X[1], 160.0, CENTER)


class TestHypothesisSubsets:
    @staticmethod
    def per_face_draw(seed, Z, subset_size, distinct):
        return np.stack([
            np.random.default_rng(np.random.SeedSequence([seed, 0x9A, z]))
            .choice(distinct, size=subset_size, replace=False)
            for z in range(Z)
        ])

    @given(seed=st.integers(0, 2**32 - 1), Z=st.integers(1, 25),
           subset_size=st.integers(4, 8), drop=st.integers(0, 23))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_per_face_draw(self, model3d, seed, Z, subset_size, drop):
        distinct = np.delete(model3d.distinct_indices, drop)
        want = self.per_face_draw(seed, Z, subset_size, distinct)
        for _ in range(2):  # drawn, then memoised
            got = hypothesis_subsets(seed, Z, subset_size, distinct)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable

    def test_every_key_part_matters(self, model3d):
        distinct = model3d.distinct_indices
        base = hypothesis_subsets(3, 25, 6, distinct)
        for other in (hypothesis_subsets(4, 25, 6, distinct),
                      hypothesis_subsets(3, 24, 6, distinct),
                      hypothesis_subsets(3, 25, 7, distinct),
                      hypothesis_subsets(3, 25, 6, distinct[1:])):
            assert not np.array_equal(base, other)


class TestScoreShapes:
    @given(seed=st.integers(0, 2**31 - 1), B=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_equals_per_landmark_sum(self, seed, B):
        r = np.random.default_rng(seed)
        maps = ProbabilityMaps(r.uniform(size=(7, 12, 9)).astype(r.choice([np.float32, np.float64])))
        coords = r.uniform(-3, 14, (B, 7, 2))
        got = score_shapes(maps, coords)
        for b in range(B):
            want = 0.0
            for l in range(7):
                want += float(map_values(maps.maps[l], coords[b, l: l + 1])[0])
            assert got[b] == want
            assert score_shape(maps, coords[b]) == want
        assert got.tobytes() == score_shapes_per_landmark(maps, coords).tobytes()

    def test_negative_zero_values_sum_to_zero(self):
        # a running sum from 0.0 never ends at -0.0
        maps = ProbabilityMaps(np.full((5, 8, 8), -0.0))
        got = score_shapes(maps, np.full((3, 5, 2), 2.0))
        assert got.tobytes() == np.zeros(3).tobytes()


def noiseless_maps_for_pose(model, R, t, size=160):
    pose = RigidPose(R, t, float(size))
    coords, vis = project_points(model, pose, center=(size / 2.0, size / 2.0))
    rng = np.random.default_rng(0)
    maps = synthesize_from_shape(
        coords, np.ones(len(coords)), np.ones(len(coords), np.uint8),
        SynthConfig(), rng, (size, size),
    )
    return maps, coords, pose


class TestRobustInit:
    def test_noiseless_recovery_and_score(self, model3d):
        R = euler_to_rotation(0.3, 0.1, -0.2)
        maps, coords, pose = noiseless_maps_for_pose(model3d, R, [2.0, -3.0, 400.0])
        res = robust_init(maps, model3d, Z=25, seed=0)
        err = np.linalg.norm(res.shape.coords - coords, axis=1).mean()
        assert err < 0.01 * 160
        # the winning score is exactly the summed map reads at its projection
        assert res.score == pytest.approx(score_shape(maps, res.shape.coords))

    def test_best_score_monotone_in_Z(self, model3d):
        R = euler_to_rotation(-0.4, 0.2, 0.1)
        maps, _, _ = noiseless_maps_for_pose(model3d, R, [0.0, 0.0, 350.0])
        s1 = robust_init(maps, model3d, Z=1, seed=9).score
        s25 = robust_init(maps, model3d, Z=25, seed=9).score
        assert s25 >= s1

    def test_deterministic(self, model3d):
        R = euler_to_rotation(0.2, -0.1, 0.0)
        maps, _, _ = noiseless_maps_for_pose(model3d, R, [1.0, 1.0, 500.0])
        a = robust_init(maps, model3d, Z=10, seed=4)
        b = robust_init(maps, model3d, Z=10, seed=4)
        np.testing.assert_array_equal(a.shape.coords, b.shape.coords)
        assert a.score == b.score

    def test_subset_size_validation(self, model3d):
        maps = ProbabilityMaps(np.ones((24, 8, 8)))
        with pytest.raises(ValueError):
            robust_init(maps, model3d, subset_size=3)


class TestPerturb:
    def test_zero_perturbation_is_identity(self):
        pose = RigidPose(euler_to_rotation(0.1, 0.2, 0.3), [0, 0, 400.0], 160.0)
        out = perturb_pose(pose, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(out.rotation, pose.rotation)

    def test_perturbation_angle(self):
        pose = RigidPose(np.eye(3), [0, 0, 400.0], 160.0)
        out = perturb_pose(pose, 0.2, 0.0, 0.0)
        assert rotation_angle(out.rotation, pose.rotation) == pytest.approx(0.2)


class TestMeanShape:
    def test_single_sample(self, tiny_corpus):
        ds = tiny_corpus.subset([0])
        mean = mean_shape_init(ds)
        s = ds.samples[0]
        x, y, w, h = s.bbox
        np.testing.assert_allclose(
            mean.coords, (s.ground_truth.coords - (x, y)) / (w, h)
        )

    def test_symmetric_pair_centers(self, schema):
        from facealign.shapes import Dataset, Sample, Shape

        L = schema.landmark_count
        base = np.tile([[0.3, 0.4]], (L, 1)) * 100
        off = np.tile([[10.0, 6.0]], (L, 1))
        mk = lambda c: Sample(
            image_ref="x",
            ground_truth=Shape(c, np.ones(L), np.ones(L, np.uint8)),
            bbox=(0, 0, 100, 100),
        )
        ds = Dataset([mk(base + off), mk(base - off)], schema)
        mean = mean_shape_init(ds)
        np.testing.assert_allclose(mean.coords, base / 100.0)

    def test_matches_direct_loop(self, tiny_corpus):
        mean = mean_shape_init(tiny_corpus)
        L = tiny_corpus.schema.landmark_count
        acc = np.zeros((L, 2))
        for s in tiny_corpus.samples:
            x, y, w, h = s.bbox
            acc += (s.ground_truth.coords - (x, y)) / (w, h)
        np.testing.assert_allclose(mean.coords, acc / len(tiny_corpus))

    def test_never_annotated_errors(self, tiny_corpus):
        # deep copy: subset shares sample objects with the session fixture
        ds = copy.deepcopy(tiny_corpus.subset([0, 1]))
        for s in ds.samples:
            s.ground_truth.annotated[5] = 0
        with pytest.raises(SchemaError, match=r"never annotated: \[5\]"):
            mean_shape_init(ds)

    def test_anchor_round_trip(self, tiny_corpus):
        mean = mean_shape_init(tiny_corpus)
        anchored = anchor_shape(mean, (20.0, 30.0, 50.0, 60.0))
        back = (anchored.coords - (20.0, 30.0)) / (50.0, 60.0)
        np.testing.assert_allclose(back, mean.coords)


class TestModelIO:
    def test_round_trip(self, tmp_path, model3d):
        p = tmp_path / "m.txt"
        model3d.save(p)
        m = Model3D.load(p)
        np.testing.assert_allclose(m.points, model3d.points, atol=1e-6)
        np.testing.assert_allclose(m.normals, model3d.normals, atol=1e-6)
        assert m.names == model3d.names

    def test_needs_four_distinct(self):
        with pytest.raises(SchemaError):
            Model3D(np.zeros((5, 3)), np.zeros((5, 3)), [True, True, True, False, False])

    @pytest.mark.parametrize("where", ["points", "normals"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, model3d, where, value):
        arrays = {"points": model3d.points.copy(), "normals": model3d.normals.copy()}
        arrays[where][3, 1] = value
        with pytest.raises(SchemaError, match="finite"):
            Model3D(arrays["points"], arrays["normals"], model3d.distinct)

    @pytest.mark.parametrize("field, value, message", [
        (2, "nan", "finite"),
        (5, "1e400", "finite"),
        (1, "x", "line 5: could not convert string to float: 'x'"),
        (7, "1.0", "line 5: invalid literal for int"),
    ])
    def test_bad_model_file(self, tmp_path, model3d, field, value, message):
        p = tmp_path / "m.txt"
        model3d.save(p)
        lines = p.read_text().splitlines()
        tok = lines[4].split()
        tok[field] = value
        lines[4] = " ".join(tok)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=message):
            Model3D.load(p)


class TestNonFinitePose:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rotation_check_fails(self, value):
        R = np.eye(3)
        R[1, 2] = value
        assert not pose._rotations_ok(np.stack([np.eye(3), R, np.full((3, 3), value)]))[1:].any()
        assert pose._rotations_ok(np.eye(3)[None])[0]
        with pytest.raises(FitError, match="orthonormality"):
            RigidPose(R, [0.0, 0.0, 400.0], 160.0)

    @pytest.mark.parametrize("depth", [np.nan, np.inf, 0.0, -1.0])
    def test_depth_must_be_finite_and_positive(self, depth):
        with pytest.raises(FitError, match="positive depth"):
            RigidPose(np.eye(3), [0.0, 0.0, depth], 160.0)

    @pytest.mark.parametrize("i", [0, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_translation_must_be_finite(self, i, value):
        t = [0.0, 0.0, 400.0]
        t[i] = value
        with pytest.raises(FitError, match="finite"):
            RigidPose(np.eye(3), t, 160.0)

    @pytest.mark.parametrize("focal", [np.nan, np.inf, 0.0, -160.0])
    def test_focal_must_be_finite_and_positive(self, focal):
        with pytest.raises(FitError, match="focal must be finite and positive"):
            RigidPose(np.eye(3), [0.0, 0.0, 400.0], focal)
