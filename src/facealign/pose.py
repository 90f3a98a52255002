"""Rigid 3D face-model fitting to probability-map peaks.

The projection model is weak perspective: every model point shares the
depth of the translation, so an image point is
``center + (focal / t_z) * ((R X + t)_x, (R X + t)_y)``.

fit_poses solves B independent sets of 2D-3D correspondences in lockstep:
a batched linear scaled-orthographic estimate, then Gauss-Newton steps with
a closed-form Jacobian, each a batched 6x6 normal-equation solve. Every
hypothesis keeps its own convergence and failure state, and its own focal
length and image centre, so one that fails or converges drops out while
the others carry on. The loop holds the active hypotheses in compact
arrays, compacted only when one leaves, and the start's per-subset SVD is
cached by the subset points; the numpy calls per iteration are what cost,
not their arithmetic. fit_pose is a batch of one.

robust_inits runs the consensus search for F faces at once: the Z
hypothesis subsets are drawn once, and one fit_poses call solves all F*Z
hypotheses. Each face then projects its surviving poses and scores them
with one (Z, L) read of its own maps (score_shapes), summed over landmarks
in order. No value depends on which other faces share the call, so a face
gets bitwise the result it gets alone; robust_init is a batch of one.
consensus_inits feeds samples to robust_inits INIT_CHUNK faces at a time,
so a file-backed split never holds more than a chunk of rasters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError, FitError, InitError, SchemaError, is_finite
from .heatmaps import FACE_SIZE
from .shapes import Shape

ORTHONORMAL_TOL = 1e-6
MAX_ITER = 100
STEP_TOL = 1e-6
# faces whose maps consensus_inits holds at once; a 24x160x160 float32
# raster read from a .fapm file is 2.5 MB
INIT_CHUNK = 32
_EYE3 = np.eye(3)
_EYE6 = np.eye(6)
_EYE3.flags.writeable = _EYE6.flags.writeable = False
# component k of a x b is a[_NEXT[k]] b[_PREV[k]] - a[_PREV[k]] b[_NEXT[k]],
# the difference of the two rows of a[_NEXT_PREV] * b[_NEXT_PREV[::-1]],
# the products np.cross takes in the same order, at less call overhead
_NEXT_PREV = np.array([[1, 2, 0], [2, 0, 1]])  # rows _NEXT, _PREV


@dataclass
class Model3D:
    """Rigid landmark model: 3D points, outward normals and distinct flags."""

    points: np.ndarray    # (L, 3) model units
    normals: np.ndarray   # (L, 3) unit outward normals (-z faces the camera)
    distinct: np.ndarray  # (L,) bool: usable for pose correspondences
    names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.normals = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)
        self.distinct = np.asarray(self.distinct, dtype=bool).reshape(-1)
        L = self.points.shape[0]
        if not (self.normals.shape[0] == len(self.distinct) == L):
            raise SchemaError("model arrays must share L")
        if not (np.isfinite(self.points).all() and np.isfinite(self.normals).all()):
            raise SchemaError("model points and normals must be finite")
        if int(self.distinct.sum()) < 4:
            raise SchemaError("need at least 4 distinct landmarks")

    @property
    def landmark_count(self) -> int:
        return self.points.shape[0]

    @property
    def distinct_indices(self) -> np.ndarray:
        return np.flatnonzero(self.distinct)

    @classmethod
    def load(cls, path) -> "Model3D":
        names, pts, nrm, dst = [], [], [], []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                tok = line.split()
                if len(tok) != 8:
                    raise SchemaError(f"{path} line {lineno}: model line needs 8 fields, "
                                      f"got {len(tok)}")
                try:
                    point, normal = [float(v) for v in tok[1:4]], [float(v) for v in tok[4:7]]
                    flag = int(tok[7]) != 0
                except ValueError as exc:
                    raise SchemaError(f"{path} line {lineno}: {exc}") from None
                names.append(tok[0])
                pts.append(point)
                nrm.append(normal)
                dst.append(flag)
        return cls(np.array(pts), np.array(nrm), np.array(dst), names)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# name x y z nx ny nz distinct\n")
            for i in range(self.landmark_count):
                name = self.names[i] if self.names else f"p{i}"
                p, n = self.points[i], self.normals[i]
                fh.write(
                    f"{name} {p[0]:.6f} {p[1]:.6f} {p[2]:.6f} "
                    f"{n[0]:.6f} {n[1]:.6f} {n[2]:.6f} {int(self.distinct[i])}\n"
                )


def _rotations_ok(R: np.ndarray) -> np.ndarray:
    """(B, 3, 3) -> (B,) bool: orthonormal within tolerance, det not
    negative; False for a non-finite rotation."""
    err = np.abs(R @ R.transpose(0, 2, 1) - _EYE3).max(axis=(1, 2))
    return (err <= ORTHONORMAL_TOL) & (np.linalg.det(R) >= 0)


def _check_rotation(R: np.ndarray) -> None:
    if not _rotations_ok(R[None])[0]:
        raise FitError("rotation matrix fails orthonormality tolerance")


@dataclass
class RigidPose:
    rotation: np.ndarray     # (3, 3) orthonormal, det +1
    translation: np.ndarray  # (3,) camera frame, z > 0
    focal: float

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        _check_rotation(self.rotation)
        if not (all(map(is_finite, self.translation)) and self.translation[2] > 0):
            raise FitError("translation must be finite, with positive depth")
        if not (is_finite(self.focal) and self.focal > 0):
            raise FitError("focal must be finite and positive")

    @property
    def scale(self) -> float:
        return self.focal / self.translation[2]


@dataclass
class InitResult:
    shape: Shape
    pose: RigidPose
    score: float


def euler_to_rotation(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Radians; applied as R = Rz(roll) @ Rx(pitch) @ Ry(yaw)."""
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    Rx = np.array([[1, 0, 0], [0, cp, -sp], [0, sp, cp]])
    Rz = np.array([[cr, -sr, 0], [sr, cr, 0], [0, 0, 1]])
    return Rz @ Rx @ Ry


def rotation_angle(Ra: np.ndarray, Rb: np.ndarray) -> float:
    """Geodesic distance between two rotations, radians."""
    c = (np.trace(Ra.T @ Rb) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, c)))


def perturb_pose(pose: RigidPose, yaw: float, pitch: float, roll: float) -> RigidPose:
    """Compose angle noise (radians) onto the pose's rotation."""
    R = euler_to_rotation(yaw, pitch, roll) @ pose.rotation
    return RigidPose(R, pose.translation.copy(), pose.focal)


def default_center(size=(FACE_SIZE, FACE_SIZE)) -> tuple[float, float]:
    return size[1] / 2.0, size[0] / 2.0


def bbox_center(bbox) -> tuple[float, float]:
    x, y, w, h = bbox
    return x + w / 2.0, y + h / 2.0


def project_points(model: Model3D, pose: RigidPose,
                   center: tuple[float, float] | None = None):
    """Weak-perspective projection plus pose-driven visibility.

    A landmark is visible when its rotated outward normal still faces the
    camera (non-positive z in the camera frame).
    """
    _check_rotation(pose.rotation)
    coords, vis = project_poses(model, pose.rotation[None], pose.translation[None],
                                pose.focal, center)
    return coords[0], vis[0]


def project_poses(model: Model3D, rotations: np.ndarray, translations: np.ndarray,
                  focal: float, center: tuple[float, float] | None = None):
    """project_points for B poses at once: (B, L, 2) coords, (B, L) visibility."""
    if center is None:
        center = default_center()
    Rt = rotations.transpose(0, 2, 1)
    cam = model.points @ Rt + translations[:, None, :]
    s = focal / translations[:, 2]
    coords = np.asarray(center, dtype=np.float64) + s[:, None, None] * cam[..., :2]
    visibility = ((model.normals @ Rt)[..., 2] <= 0.0).astype(np.float64)
    return coords, visibility


def score_shape(maps, coords: np.ndarray) -> float:
    """Sum of per-landmark map values at the rounded coordinates."""
    return float(score_shapes(maps, np.asarray(coords)[None])[0])


def score_shapes(maps, coords: np.ndarray) -> np.ndarray:
    """score_shape for B shapes at once: (B, L, 2) coords -> (B,) scores.

    One maps.read call reads every (shape, landmark) value; each score is
    then summed over landmarks in order, so it does not depend on the batch.
    """
    c = np.rint(np.asarray(coords, dtype=np.float64)).astype(np.int64)
    vals = maps.read(np.arange(maps.landmark_count), c[..., 0], c[..., 1])
    # a running sum from 0.0: cumsum adds in the same order, and + 0.0 is
    # the start's only effect, turning a sum of -0.0 values into 0.0
    return np.cumsum(vals, axis=1)[:, -1] + 0.0


class PoseFits(NamedTuple):
    """fit_poses' per-hypothesis result; rotation and translation are only
    meaningful where ok is set."""

    rotation: np.ndarray     # (B, 3, 3)
    translation: np.ndarray  # (B, 3), camera frame
    ok: np.ndarray           # (B,) bool
    reason: np.ndarray       # (B,) object: failure message, None where ok


# skew(w), row-major, as positions in [w0, w1, w2, -w0, -w1, -w2, 0]
_SKEW = np.array([6, 5, 1, 2, 6, 3, 4, 0, 6])


def _exp_so3(w: np.ndarray) -> np.ndarray:
    """Rodrigues' formula for (B, 3) rotation vectors -> (B, 3, 3)."""
    K = np.concatenate([w, -w, np.zeros((len(w), 1))], axis=1).take(_SKEW, axis=1)
    K = K.reshape(-1, 3, 3)
    # np.linalg.norm(w, axis=1), as in fit_poses' start
    theta = np.sqrt(np.add.reduce(w * w, axis=1))
    # the small-angle limits only where some angle is small
    any_small = theta.min(initial=np.inf) < 1e-12
    if any_small:
        small = theta < 1e-12
        theta = np.where(small, 1.0, theta)
    a = np.sin(theta) / theta
    b = (1 - np.cos(theta)) / theta**2
    if any_small:
        a[small], b[small] = 1.0, 0.0
    return _EYE3 + a[:, None, None] * K + b[:, None, None] * (K @ K)


def fit_pose(coords2d: np.ndarray, points3d: np.ndarray,
             focal: float = float(FACE_SIZE),
             center: tuple[float, float] | None = None) -> RigidPose:
    """Weak-perspective pose from known 2D-3D correspondences: fit_poses on
    a batch of one, raising FitError with the failure reason."""
    fits = fit_poses(np.reshape(coords2d, (1, -1, 2)), np.reshape(points3d, (1, -1, 3)),
                     focal, center)
    if not fits.ok[0]:
        raise FitError(fits.reason[0])
    return RigidPose(fits.rotation[0], fits.translation[0], focal)


def fit_poses(coords2d: np.ndarray, points3d: np.ndarray,
              focal: float = float(FACE_SIZE),
              center: tuple[float, float] | None = None) -> PoseFits:
    """Weak-perspective poses for B independent sets of n 2D-3D
    correspondences, (B, n, 2) and (B, n, 3), solved in lockstep. focal
    and center are shared scalars and an (x, y) pair, or one per
    hypothesis, (B,) and (B, 2).

    Each hypothesis starts from a linear scaled-orthographic estimate and is
    refined by Gauss-Newton on the reprojection residual until its
    parameter step drops below 1e-6 or after 100 iterations. A hypothesis
    fails, and stops iterating, on a rank-deficient 3D subset, a degenerate
    orthographic estimate (a row norm that is 0 or not finite, as when the
    peaks' spread overflows), a non-finite residual or step, a singular solve,
    a non-positive scale, or a final rotation or depth that RigidPose
    would reject; the others carry on.
    """
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
    # per hypothesis: rotation (row-major) then [tx, ty, s], the scaled
    # in-plane offset and the scale, uv = c + s * (R X)_xy + txy
    RT = np.tile(np.r_[_EYE3.ravel(), 0.0, 0.0, 1.0], (B, 1))

    # start: least squares of the centred peaks on the centred 3D points,
    # through one SVD per subset that also gives the rank test
    full_rank, U, S, Vt = _subset_basis(X.shape, X.tobytes())
    if not full_rank.all():
        reason[~full_rank] = "degenerate (coplanar) 3D configuration"
    a = np.flatnonzero(full_rank)
    rel = uv[a] - uv[a].mean(axis=1, keepdims=True)
    IJ = Vt.transpose(0, 2, 1) @ ((U.transpose(0, 2, 1) @ rel) / S)
    # np.linalg.norm(v, axis=1) without its checks: the same sum and sqrt
    ni, nj = (np.sqrt(np.add.reduce(v * v, axis=1)) for v in (IJ[..., 0], IJ[..., 1]))
    bad = ~(np.isfinite(ni) & (ni > 0) & np.isfinite(nj) & (nj > 0))
    if bad.any():
        reason[a[bad]] = "degenerate orthographic estimate"
    a, IJ, ni, nj = a[~bad], IJ[~bad], ni[~bad], nj[~bad]
    # orthonormalise the rows [I, J, I x J] by SVD, flipping the last
    # singular direction where that is needed for det +1
    I, J = IJ[..., 0] / ni[:, None], IJ[..., 1] / nj[:, None]
    IxJ = I[:, _NEXT_PREV] * J[:, _NEXT_PREV[::-1]]
    Uo, _, Vto = np.linalg.svd(np.stack([I, J, IxJ[:, 0] - IxJ[:, 1]], axis=1))
    Uo[:, :, 2] *= np.sign(np.linalg.det(Uo @ Vto))[:, None]

    # The active hypotheses' state, compacted only when some leave, in two
    # blocks: Q holds what the iterations do not change (points X, the
    # point factors X12 of the Jacobian, centre C and peaks UV), D what they
    # do (rotation and [tx, ty, s]). A hypothesis' D row is written back to
    # RT when it leaves.
    # Row j of d(R X)/dw = -R skew(X) is X x R[j]. X12 and D[:, rcols] hold
    # the factors of both of its products, laid out (product, point, image
    # row j, component), so one multiply and one subtract give the rotation
    # columns of every Jacobian row.
    xcols = 3 * np.arange(n)[:, None, None] + _NEXT_PREV[:, None, None]
    rcols = 3 * np.arange(2)[:, None] + _NEXT_PREV[::-1, None, None]
    xcols, rcols = (np.broadcast_to(v, (2, n, 2, 3)).ravel() for v in (xcols, rcols))
    Ra, s = Uo @ Vto, np.sqrt(ni * nj)
    proj = X[a] @ Ra.transpose(0, 2, 1)
    txy = (uv[a] - c[a, None] - s[:, None, None] * proj[..., :2]).mean(axis=1)
    Xf = X[a].reshape(-1, 3 * n)
    Q = np.concatenate([Xf, Xf[:, xcols], np.tile(c[a], n), uv[a].reshape(-1, 2 * n)], axis=1)
    D = np.concatenate([Ra.reshape(-1, 9), txy, s[:, None]], axis=1)
    idx, Jac = a, None

    def state():
        """Views of the blocks: Xa, X12, C, UV, Ra, and P = [tx, ty, s]."""
        return (Q[:, :3 * n].reshape(-1, n, 3), Q[:, 3 * n:15 * n],
                Q[:, 15 * n:17 * n].reshape(-1, n, 2), Q[:, 17 * n:].reshape(-1, n, 2),
                D[:, :9].reshape(-1, 3, 3), D[:, 9:])

    def leave(keep, *extra):
        """Write back the D rows where keep is False; idx, Q, D, then each
        of extra, compacted to where keep is True."""
        drop, kept = (~keep).nonzero()[0], keep.nonzero()[0]
        RT[idx[drop]] = D.take(drop, axis=0)
        return tuple(v.take(kept, axis=0) for v in (idx, Q, D) + extra)

    Xa, X12, C, UV, Ra, P = state()
    for _ in range(MAX_ITER):
        if not len(idx):
            break
        proj = Xa @ Ra.transpose(0, 2, 1)
        r = (C + P[:, 2, None, None] * proj[..., :2] + P[:, None, :2] - UV).reshape(-1, 2 * n)
        if not np.isfinite(r).all():
            finite = np.isfinite(r).all(axis=1)
            reason[idx[~finite]] = "pose iteration diverged"
            idx, Q, D, proj, r = leave(finite, proj, r)
            Xa, X12, C, UV, Ra, P = state()
        # parameters: rotation increment (3), txy (2), scale (1). One
        # buffer per active set; A = Jt @ J on the buffer and its own
        # transpose takes numpy's syrk path.
        if Jac is None or len(Jac) != len(idx):
            Jac = np.empty((len(idx), n, 2, 6))
            Jac[..., 3:5] = _EYE3[:2, :2]
            J = Jac.reshape(-1, 2 * n, 6)
            Jt = J.transpose(0, 2, 1)
        XR = X12 * D.take(rcols, axis=1)
        cross = XR[:, :6 * n] - XR[:, 6 * n:]
        cross *= P[:, 2, None]
        Jac[..., 0:3] = cross.reshape(-1, n, 2, 3)
        Jac[..., 5] = proj[..., :2]
        A = Jt @ J
        regular = np.linalg.det(A) != 0
        any_singular = not regular.all()
        if any_singular:
            A[~regular] = _EYE6
        step = np.linalg.solve(A, -(Jt @ r[..., None]))[..., 0]
        if any_singular or not np.isfinite(step).all():
            finite = np.isfinite(step).all(axis=1)
            reason[idx[~finite]] = "pose iteration diverged"
            reason[idx[~regular]] = "pose solve failed: singular normal equations"
            idx, Q, D, step = leave(finite & regular, step)
            Xa, X12, C, UV, Ra, P = state()
        D[:, :9] = (Ra @ _exp_so3(step[:, 0:3])).reshape(-1, 9)
        P += step[:, 3:6]
        negative = P[:, 2] <= 0
        done = negative | (np.sqrt(np.add.reduce(step * step, axis=1)) < STEP_TOL)
        if done.any():
            reason[idx[negative]] = "negative projection scale"
            idx, Q, D = leave(~done)
            Xa, X12, C, UV, Ra, P = state()
    RT[idx] = D
    R = np.ascontiguousarray(RT[:, :9]).reshape(B, 3, 3)

    ok = np.array([m is None for m in reason], dtype=bool)
    t = np.zeros((B, 3))
    t[ok] = np.column_stack([RT[ok, 9:11] / RT[ok, 11, None], focal[ok] / RT[ok, 11]])
    for bad, msg in ((~_rotations_ok(R), "rotation matrix fails orthonormality tolerance"),
                     (~((t[:, 2] > 0) & (t[:, 2] < np.inf)),
                      "translation must have positive depth")):
        reason[ok & bad] = msg
        ok &= ~bad
    return PoseFits(R, t, ok, reason)


def hypothesis_subsets(seed: int, Z: int, subset_size: int, distinct) -> np.ndarray:
    """The (Z, subset_size) landmark subsets robust_init fits, row z drawn
    from SeedSequence([seed, 0x9A, z]). They depend on nothing but the
    arguments, so they are drawn once per key and shared read-only."""
    return _hypothesis_subsets(int(seed), int(Z), int(subset_size),
                               tuple(np.asarray(distinct).tolist()))


@functools.lru_cache(maxsize=64)
def _hypothesis_subsets(seed: int, Z: int, subset_size: int, distinct: tuple) -> np.ndarray:
    distinct = np.array(distinct, dtype=np.int64)
    ids = np.stack([
        np.random.default_rng(np.random.SeedSequence([seed, 0x9A, z]))
        .choice(distinct, size=subset_size, replace=False)
        for z in range(Z)
    ])
    ids.flags.writeable = False
    return ids


@functools.lru_cache(maxsize=16)
def _subset_basis(shape: tuple, points: bytes):
    """fit_poses' start for one batch of 3D subsets, (B, n, 3) float64
    bytes: the (B,) full-rank mask, and U (k, n, 3), S (k, 3, 1) and Vt
    (k, 3, 3) of the centred points' SVD for the k full-rank subsets.
    Serving passes the same subsets on every call, so they are factorised
    once per key and shared read-only."""
    X = np.frombuffer(points).reshape(shape)
    Xc = X - X.mean(axis=1, keepdims=True)
    U, S, Vt = np.linalg.svd(Xc, full_matrices=False)
    tol = 1e-9 * np.maximum(1.0, np.abs(Xc).max(axis=(1, 2)))
    full_rank = (S > tol[:, None]).sum(axis=1) == 3
    a = np.flatnonzero(full_rank)
    out = (full_rank, U[a], S[a, :, None], Vt[a])
    for v in out:
        v.flags.writeable = False
    return out


def robust_init(maps, model: Model3D, Z: int = 25, subset_size: int = 6,
                seed: int = 0, center: tuple[float, float] | None = None) -> InitResult:
    """Consensus pose search over random distinct-landmark subsets.

    Each of the Z hypotheses fits a pose to the map peaks of a random
    subset, with the map height as focal length and center (the map centre
    by default) as image centre; every pose is scored by the summed map
    probability of its projection, and the best one wins (lowest hypothesis
    index on ties). robust_inits on a batch of one, raising InitError when
    every hypothesis fails.
    """
    res = robust_inits([maps], model, Z, subset_size, seed,
                       None if center is None else [center])[0]
    if res is None:
        raise InitError("all pose hypotheses failed to fit")
    return res


def robust_inits(maps_list, model: Model3D, Z: int = 25, subset_size: int = 6,
                 seed: int = 0, centers=None) -> list[InitResult | None]:
    """robust_init for F faces, with one fit_poses call over all F*Z
    hypotheses: one InitResult per face, or None where every hypothesis
    failed. centers holds one (x, y) image centre per face, or is None for
    each map's centre.
    """
    if Z < 1:
        raise ValueError("Z must be >= 1")
    distinct = model.distinct_indices
    if subset_size < 4 or subset_size > len(distinct):
        raise ValueError("subset_size must lie in [4, |distinct|]")
    F = len(maps_list)
    if not F:
        return []
    sizes = [m.face_size for m in maps_list]
    focals = np.array([float(H) for H, _ in sizes])
    if centers is None:
        centers = [(W / 2.0, H / 2.0) for H, W in sizes]
    centers = np.asarray(centers, dtype=np.float64).reshape(F, 2)
    ids = hypothesis_subsets(seed, Z, subset_size, distinct)
    fits = fit_poses(np.concatenate([m.peaks()[ids] for m in maps_list]),
                     np.concatenate([model.points[ids]] * F),
                     focal=np.repeat(focals, Z), center=np.repeat(centers, Z, axis=0))
    ok = fits.ok.reshape(F, Z)
    rotations = fits.rotation.reshape(F, Z, 3, 3)
    translations = fits.translation.reshape(F, Z, 3)
    out = []
    for f, maps in enumerate(maps_list):
        good = np.flatnonzero(ok[f])
        if not len(good):
            out.append(None)
            continue
        focal = float(focals[f])
        coords, vis = project_poses(model, rotations[f, good], translations[f, good],
                                    focal, centers[f])
        scores = score_shapes(maps, coords)
        w = int(np.argmax(scores))
        pose = RigidPose(rotations[f, good[w]], translations[f, good[w]], focal)
        shape = Shape(coords[w], vis[w], np.ones(vis.shape[1], dtype=np.uint8))
        out.append(InitResult(shape=shape, pose=pose, score=float(scores[w])))
    return out


def consensus_inits(samples, maps_for, model: Model3D, Z: int, subset_size: int,
                    seed: int) -> list[InitResult | None]:
    """robust_inits over samples, each centred on its bbox, requesting the
    maps of at most INIT_CHUNK faces at a time.
    """
    out = []
    for lo in range(0, len(samples), INIT_CHUNK):
        chunk = samples[lo:lo + INIT_CHUNK]
        maps = [maps_for(s) for s in chunk]
        out += robust_inits(maps, model, Z, subset_size, seed,
                            [bbox_center(s.bbox) for s in chunk])
        # drop this chunk's maps before the next chunk's are requested
        del maps
    return out


def mean_shape_init(train) -> Shape:
    """Per-landmark mean of annotated ground-truth shapes in bbox units.

    Coordinates are normalized to the unit bbox; anchor_shape maps them
    onto a concrete face box.
    """
    if len(train) == 0:
        raise DataError("empty training set")
    L = train.schema.landmark_count
    acc = np.zeros((L, 2))
    cnt = np.zeros(L)
    for s in train.samples:
        x, y, w, h = s.bbox
        gt = s.ground_truth
        norm = (gt.coords - (x, y)) / (w, h)
        mask = gt.annotated.astype(bool)
        acc[mask] += norm[mask]
        cnt[mask] += 1
    if np.any(cnt == 0):
        missing = np.flatnonzero(cnt == 0)
        raise SchemaError(f"landmarks never annotated: {missing.tolist()}")
    mean = acc / cnt[:, None]
    return Shape(mean, np.ones(L), np.ones(L, dtype=np.uint8))


def anchor_shape(mean: Shape, bbox) -> Shape:
    """Place a bbox-normalized mean shape into a concrete bounding box."""
    x, y, w, h = bbox
    coords = mean.coords * (w, h) + (x, y)
    return Shape(coords, mean.visibility.copy(), mean.annotated.copy())
