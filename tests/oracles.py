"""Reference implementations the tests compare the package against."""

import numpy as np

from facealign.cascade import leaf_ids
from facealign.errors import FitError, FormatError, NumericError
from facealign.pose import MAX_ITER, ORTHONORMAL_TOL, STEP_TOL, PoseFits, default_center


def map_values(grid: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Read one (H, W) grid at (x, y) coordinates rounded to the nearest
    pixel, one point at a time; points off the grid read 0."""
    coords = np.asarray(coords, dtype=np.float64)
    H, W = grid.shape
    out = [float(grid[y, x]) if 0 <= x < W and 0 <= y < H else 0.0
           for x, y in np.rint(coords).astype(np.int64).reshape(-1, 2)]
    return np.array(out).reshape(coords.shape[:-1])


def apply_stage_per_part(stage, V, coords, vis=None) -> None:
    """apply_stage one part at a time: a traversal of each part's own
    forest and a stacked sum over each part's columns."""
    n = coords.shape[0]
    for pm in stage.parts:
        p = pm.landmarks
        leaf = leaf_ids(pm, V[:, p, :])
        steps = stage.shrinkage * pm.leaf_residual[leaf.T]  # (K, n, 2 * part_size)
        start = coords[:, p, :].reshape(1, n, -1)
        coords[:, p, :] = np.concatenate([start, steps]).sum(axis=0).reshape(n, len(p), 2)
        if vis is not None:
            K = pm.n_trees
            keep = 1.0 - 1.0 / K
            weights = (1.0 / K) * keep ** np.arange(K - 1, -1, -1)
            vis[:, p] = keep ** K * vis[:, p] + weights @ pm.leaf_visibility[leaf]


def per_landmark_nme_loop(preds, gts, ds) -> np.ndarray:
    """metrics.evaluate's per-landmark NME as the face-by-face loop it
    replaced: the mean over the faces annotating each landmark of its
    percent distance / d, NaN where no face annotates it."""
    L = gts[0].landmark_count
    acc = np.zeros(L)
    cnt = np.zeros(L)
    for pred, gt, d in zip(preds, gts, ds):
        dist = np.linalg.norm(pred.coords - gt.coords, axis=1)
        mask = gt.annotated.astype(bool)
        acc[mask] += 100.0 * dist[mask] / d
        cnt[mask] += 1
    return np.where(cnt > 0, acc / np.maximum(cnt, 1), np.nan)


def map_value_error(maps):
    """The exception class a map raster's values call for: NumericError for
    any non-finite value, else FormatError for any negative one, else None."""
    if not np.all(np.isfinite(maps)):
        return NumericError
    if np.any(maps < 0):
        return FormatError
    return None


# --------------------------------------------------------------------------
# the lockstep pose solver and per-landmark score sum that fit_poses and
# score_shapes replaced; they must agree bitwise

EYE3, EYE6 = np.eye(3), np.eye(6)
NEXT, PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def rotations_ok_lockstep(R):
    """pose._rotations_ok as it was: orthonormal within tolerance and det
    not negative, written so that NaN passed."""
    err = np.abs(R @ R.transpose(0, 2, 1) - EYE3).max(axis=(1, 2))
    return ~(err > ORTHONORMAL_TOL) & ~(np.linalg.det(R) < 0)


def exp_so3_lockstep(w):
    """Rodrigues' formula for (B, 3) rotation vectors -> (B, 3, 3)."""
    K = np.zeros((len(w), 3, 3))
    K[:, 0, 1], K[:, 0, 2], K[:, 1, 2] = -w[:, 2], w[:, 1], -w[:, 0]
    K[:, 1, 0], K[:, 2, 0], K[:, 2, 1] = w[:, 2], -w[:, 1], w[:, 0]
    # np.linalg.norm(w, axis=1) without its checks: the same sum and sqrt
    theta = np.sqrt(np.add.reduce(w * w, axis=1))
    small = theta < 1e-12
    th = np.where(small, 1.0, theta)
    a = np.where(small, 1.0, np.sin(th) / th)[:, None, None]
    b = np.where(small, 0.0, (1 - np.cos(th)) / th**2)[:, None, None]
    return EYE3 + a * K + b * (K @ K)


def fit_poses_lockstep(coords2d, points3d, focal, center, steps=None):
    """pose.fit_poses as the lockstep loop that gathered the active
    hypotheses' state from, and scattered it back to, the full arrays on
    every iteration. Appends the number of hypotheses each iteration steps
    to ``steps`` when given."""
    if center is None:
        center = default_center()
    uv = np.asarray(coords2d, dtype=np.float64)
    X = np.asarray(points3d, dtype=np.float64)
    if X.ndim != 3 or X.shape[2] != 3 or X.shape[1] < 4 or uv.shape != X.shape[:2] + (2,):
        raise FitError("need at least 4 correspondences")
    B, n = X.shape[:2]
    c = np.full((B, 2), center, dtype=np.float64)
    focal = np.full(B, focal, dtype=np.float64)
    reason = np.full(B, None, dtype=object)
    R = np.tile(EYE3, (B, 1, 1))
    s = np.ones(B)
    txy = np.zeros((B, 2))  # scaled in-plane offset: uv = c + s * (R X)_xy + txy

    # start: least squares of the centred peaks on the centred 3D points,
    # through one SVD per subset that also gives the rank test
    Xc = X - X.mean(axis=1, keepdims=True)
    U, S, Vt = np.linalg.svd(Xc, full_matrices=False)
    tol = 1e-9 * np.maximum(1.0, np.abs(Xc).max(axis=(1, 2)))
    full_rank = (S > tol[:, None]).sum(axis=1) == 3
    if not full_rank.all():
        reason[~full_rank] = "degenerate (coplanar) 3D configuration"
    a = np.flatnonzero(full_rank)
    rel = uv[a] - uv[a].mean(axis=1, keepdims=True)
    IJ = Vt[a].transpose(0, 2, 1) @ ((U[a].transpose(0, 2, 1) @ rel) / S[a, :, None])
    ni = np.linalg.norm(IJ[..., 0], axis=1)
    nj = np.linalg.norm(IJ[..., 1], axis=1)
    # a row norm that is 0 or not finite fails the start, as in fit_poses
    bad = ~(np.isfinite(ni) & (ni > 0) & np.isfinite(nj) & (nj > 0))
    if bad.any():
        reason[a[bad]] = "degenerate orthographic estimate"
    a, IJ, ni, nj = a[~bad], IJ[~bad], ni[~bad], nj[~bad]
    s[a] = np.sqrt(ni * nj)
    # orthonormalise the rows [I, J, I x J] by SVD, flipping the last
    # singular direction where that is needed for det +1
    I, J = IJ[..., 0] / ni[:, None], IJ[..., 1] / nj[:, None]
    Uo, _, Vto = np.linalg.svd(np.stack([I, J, np.cross(I, J)], axis=1))
    Uo[:, :, 2] *= np.sign(np.linalg.det(Uo @ Vto))[:, None]
    R[a] = Uo @ Vto
    proj = X[a] @ R[a].transpose(0, 2, 1)
    txy[a] = (uv[a] - c[a, None] - s[a, None, None] * proj[..., :2]).mean(axis=1)

    for _ in range(MAX_ITER):
        if not len(a):
            break
        Xa, Ra, sa = X[a], R[a], s[a]
        proj = Xa @ Ra.transpose(0, 2, 1)
        r = (c[a, None] + sa[:, None, None] * proj[..., :2] + txy[a, None, :]
             - uv[a]).reshape(-1, 2 * n)
        bad = ~np.isfinite(r).all(axis=1)
        if bad.any():
            reason[a[bad]] = "pose iteration diverged"
            a, Xa, Ra, sa, proj, r = (v[~bad] for v in (a, Xa, Ra, sa, proj, r))
        # parameters: rotation increment (3), txy (2), scale (1); row k of
        # d(R X)/dw = -R skew(X) is X x R[k], for the image rows k = 0, 1,
        # written out with permuted components (np.cross costs more here)
        Xl, Rk = Xa[:, :, None, :], Ra[:, None, :2, :]
        Jac = np.empty((len(a), n, 2, 6))
        Jac[..., 0:3] = ((Xl[..., NEXT] * Rk[..., PREV] - Xl[..., PREV] * Rk[..., NEXT])
                         * sa[:, None, None, None])
        Jac[..., 3:5] = EYE3[:2, :2]
        Jac[..., 5] = proj[..., :2]
        Jac = Jac.reshape(-1, 2 * n, 6)
        Jt = Jac.transpose(0, 2, 1)
        A = Jt @ Jac
        singular = ~(np.linalg.det(A) != 0)
        if singular.any():
            A[singular] = EYE6
        step = np.linalg.solve(A, -(Jt @ r[..., None]))[..., 0]
        bad = singular | ~np.isfinite(step).all(axis=1)
        if bad.any():
            reason[a[bad]] = "pose iteration diverged"
            reason[a[singular]] = "pose solve failed: singular normal equations"
            a, Ra, step = a[~bad], Ra[~bad], step[~bad]
        if steps is not None:
            steps.append(len(a))
        R[a] = Ra @ exp_so3_lockstep(step[:, 0:3])
        txy[a] += step[:, 3:5]
        s[a] += step[:, 5]
        bad = s[a] <= 0
        if bad.any():
            reason[a[bad]] = "negative projection scale"
        a = a[~bad & ~(np.sqrt(np.add.reduce(step * step, axis=1)) < STEP_TOL)]

    ok = np.array([m is None for m in reason], dtype=bool)
    t = np.zeros((B, 3))
    t[ok] = np.column_stack([txy[ok] / s[ok, None], focal[ok] / s[ok]])
    for bad, msg in ((~rotations_ok_lockstep(R), "rotation matrix fails orthonormality tolerance"),
                     (~(t[:, 2] > 0), "translation must have positive depth")):
        reason[ok & bad] = msg
        ok &= ~bad
    return PoseFits(R, t, ok, reason)


def score_shapes_per_landmark(maps, coords):
    """pose.score_shapes with a running sum over landmarks, one at a time."""
    c = np.rint(np.asarray(coords, dtype=np.float64)).astype(np.int64)
    L = maps.landmark_count
    vals = maps.read(np.arange(L), c[..., 0], c[..., 1])
    total = np.zeros(len(vals))
    for l in range(L):
        total += vals[:, l]
    return total
