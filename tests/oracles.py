"""Reference implementations the tests compare the package against."""

import json
import os
import struct

import numpy as np

from facealign.cascade import (SHORTLIST_TOL, Prediction, Tree, _branch_cost, apply_stage,
                               best_split, feature_maps)
from facealign.errors import FitError, FormatError, InitError, NumericError
from facealign.features import draw_candidates, extract_pattern_values
from facealign.heatmaps import FACE_SIZE, MAP_MAGIC, MAP_VERSION, ProbabilityMaps, sample_blobs
from facealign.pose import (MAX_ITER, ORTHONORMAL_TOL, STEP_TOL, PoseFits, RigidPose,
                            anchor_shape, bbox_center, default_center, euler_to_rotation,
                            robust_init)
from facealign.shapes import Dataset, Sample, Shape
from facealign.synthetic import part_deform_modes


def map_values(grid: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Read one (H, W) grid at (x, y) coordinates rounded to the nearest
    pixel, one point at a time; points off the grid read 0."""
    coords = np.asarray(coords, dtype=np.float64)
    H, W = grid.shape
    out = [float(grid[y, x]) if 0 <= x < W and 0 <= y < H else 0.0
           for x, y in np.rint(coords).astype(np.int64).reshape(-1, 2)]
    return np.array(out).reshape(coords.shape[:-1])


def extract_stage_features_per_face(dataset, coords, maps_provider, pattern, scale,
                                    feature_mode):
    """cascade.extract_stage_features one face at a time: each face's maps
    requested and read on their own."""
    return np.stack([
        extract_pattern_values(feature_maps(maps_provider.maps_for(s), feature_mode),
                               coords[i], pattern, scale)
        for i, s in enumerate(dataset.samples)])


def predict_per_face(model, maps, bbox, seed=None) -> Prediction:
    """cascade.predict as it was before it became a batch of one: its own
    robust_init call, falling back to the anchored mean shape on InitError,
    and its own stage loop over the one face's reads."""
    if maps.landmark_count != model.schema.landmark_count:
        raise FormatError(f"maps hold {maps.landmark_count} landmarks, "
                          f"the model's schema has {model.schema.landmark_count}")
    used_fallback = False
    if seed is None:
        seed = model.config.seed
    if model.init_mode == "3d":
        try:
            init = robust_init(maps, model.model3d, Z=model.config.Z,
                               subset_size=model.config.subset_size, seed=seed,
                               center=bbox_center(bbox)).shape
        except InitError:
            init = anchor_shape(model.mean_shape, bbox)
            used_fallback = True
    else:
        init = anchor_shape(model.mean_shape, bbox)
    coords = init.coords[None].copy()
    vis = init.visibility[None].copy()
    maps = feature_maps(maps, model.feature_mode)
    for stage in model.stages:
        V = extract_pattern_values(maps, coords[0], model.pattern, stage.scale)
        apply_stage(stage, V[None], coords, vis)
    np.clip(vis, 0.0, 1.0, out=vis)
    shape = Shape(coords[0], vis[0], np.ones(vis.shape[1], dtype=np.uint8))
    return Prediction(shape=shape, init_shape=init, used_fallback=used_fallback)


def leaf_ids_active_set(part, V) -> np.ndarray:
    """cascade.leaf_ids as the active-set loop it replaced: each round
    moves only the (face, tree) pairs still at a node, until none is."""
    lm = part.node_landmark
    go_left = V[:, lm, part.node_p1] - V[:, lm, part.node_p2] > part.node_tau
    cur = np.repeat(part.roots[None], V.shape[0], axis=0)
    flat = cur.reshape(-1)
    active = np.flatnonzero(flat >= 0)
    while len(active):
        c = flat[active]
        child = np.where(go_left[active // part.n_trees, c],
                         part.node_left[c], part.node_right[c])
        flat[active] = child
        active = active[child >= 0]
    return ~cur


def best_split_every_shortlisted(residuals, features, tau):
    """cascade.best_split as it was before it skipped repeated partitions:
    every shortlisted candidate gets its mean-centred cost."""
    masks = features > tau[:, None]
    n_left = masks.sum(axis=1)
    n_right = len(residuals) - n_left
    s_left = masks.astype(np.float64) @ residuals
    s_right = residuals.sum(axis=0) - s_left
    total = float(np.vdot(residuals, residuals))
    gain = (np.where(n_left > 0, (s_left * s_left).sum(axis=1) / np.maximum(n_left, 1), 0.0)
            + np.where(n_right > 0, (s_right * s_right).sum(axis=1) / np.maximum(n_right, 1), 0.0))
    score = total - gain
    best_idx, best_cost, branches = -1, np.inf, None
    for c in np.flatnonzero(score <= score.min() + SHORTLIST_TOL * total):
        m = masks[c]
        left, right = _branch_cost(residuals[m]), _branch_cost(residuals[~m])
        if left + right < best_cost:
            best_idx, best_cost, branches = int(c), left + right, (left, right)
    return best_idx, best_cost, masks[best_idx], *branches


def apply_stage_per_part(stage, V, coords, vis=None) -> None:
    """apply_stage one part at a time: an active-set traversal of each
    part's own forest and a stacked sum over each part's columns."""
    n = coords.shape[0]
    for pm in stage.parts:
        p = pm.landmarks
        leaf = leaf_ids_active_set(pm, V[:, p, :])
        steps = stage.shrinkage * pm.leaf_residual[leaf.T]  # (K, n, 2 * part_size)
        start = coords[:, p, :].reshape(1, n, -1)
        coords[:, p, :] = np.concatenate([start, steps]).sum(axis=0).reshape(n, len(p), 2)
        if vis is not None:
            K = pm.n_trees
            keep = 1.0 - 1.0 / K
            weights = (1.0 / K) * keep ** np.arange(K - 1, -1, -1)
            vis[:, p] = keep ** K * vis[:, p] + weights @ pm.leaf_visibility[leaf]


def fit_tree_per_node(residuals, ann_mask, gt_vis, V, part_global, cfg, rng,
                      pattern_size, cols) -> Tree:
    """cascade.fit_tree as it was before its block draw: every drawing node
    makes its own draw_candidates call and recomputes its rows' branch
    cost; the tree and the generator's final state must agree bitwise."""
    P, M = len(part_global), pattern_size
    N = V.shape[1]
    nodes, leaf_residual, leaf_visibility = [], [], []
    # depth first, left before right: (rows, depth, parent node, child slot)
    stack = [(np.arange(len(residuals)), 0, None, None)]
    while stack:
        idx, depth, parent, slot = stack.pop()
        split = None
        if depth < cfg.depth and len(idx) >= 2:
            lm, p1, p2, tau = draw_candidates(cfg.candidates_per_node, P, M, cfg.tau_range, rng)
            # flat indices into the (part_size*M, N) table: row * N + face
            col = cols[idx]
            F = (np.take(V, ((lm * M + p1) * N)[:, None] + col)
                 - np.take(V, ((lm * M + p2) * N)[:, None] + col))
            res = residuals[idx]
            best, cost, mask = best_split(res, F, tau)[:3]
            if cost < _branch_cost(res):
                # lm, p1, p2, tau, left, right; each child fills its slot
                split = [lm[best], p1[best], p2[best], tau[best], None, None]
        if split is None:
            num = residuals[idx].sum(axis=0)
            den = ann_mask[idx].sum(axis=0)
            leaf_residual.append(np.where(den > 0, num / np.maximum(den, 1), 0.0))
            leaf_visibility.append(gt_vis[idx].mean(axis=0))
            child = ~(len(leaf_residual) - 1)
        else:
            child = len(nodes)
            nodes.append(split)
            stack.append((idx[~mask], depth + 1, split, 5))
            stack.append((idx[mask], depth + 1, split, 4))
        if parent is not None:
            parent[slot] = child
    lm, p1, p2, tau, left, right = zip(*nodes) if nodes else [()] * 6
    return Tree(
        node_landmark=np.array(lm, dtype=np.int64),
        node_p1=np.array(p1, dtype=np.int64),
        node_p2=np.array(p2, dtype=np.int64),
        node_tau=np.array(tau, dtype=np.float64),
        node_left=np.array(left, dtype=np.int64),
        node_right=np.array(right, dtype=np.int64),
        leaf_residual=np.asarray(leaf_residual, dtype=np.float64),
        leaf_visibility=np.asarray(leaf_visibility, dtype=np.float64),
    )


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


def fit_poses_lockstep(coords2d, points3d, focal, center, steps=None, max_iter=MAX_ITER):
    """pose.fit_poses as the lockstep loop that gathered the active
    hypotheses' state from, and scattered it back to, the full arrays on
    every iteration, for at most ``max_iter`` iterations. Appends the
    number of hypotheses each iteration steps to ``steps`` when given."""
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

    for _ in range(max_iter):
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


def blob_raster_full_grid(blobs) -> np.ndarray:
    """BlobMaps.maps as it was before rasters were rendered over boxes:
    every drawn blob evaluated over the whole float64 grid and max-ed into
    a grid filled with the floor."""
    H, W = blobs.size
    out = np.full((blobs.landmark_count, H, W), blobs.floor, dtype=np.float64)
    ys = np.arange(H, dtype=np.float64)[:, None]
    xs = np.arange(W, dtype=np.float64)[None, :]
    with np.errstate(all="ignore"):
        for l in np.flatnonzero(~np.isnan(blobs.centres[:, 0])):
            cx, cy = blobs.centres[l]
            blob = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * blobs.sigma**2))
            np.maximum(out[l], blob, out=out[l])
    return out


def write_maps_copying(maps, path) -> None:
    """write_maps as it was before it wrote float32 rasters as they are:
    a float32 copy of the raster, then a bytes copy of that."""
    L, H, W = maps.maps.shape
    data = maps.maps.astype("<f4").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(MAP_MAGIC)
        fh.write(struct.pack("<iiii", MAP_VERSION, L, H, W))
        fh.write(data)


def write_corpus_maps_full_grid(dataset, synth_cfg, directory, seed) -> None:
    """The map files write_corpus wrote before rendering in float32: each
    face's full-grid float64 raster, validated, through write_maps_copying."""
    os.makedirs(directory, exist_ok=True)
    for s in dataset.samples:
        maps = ProbabilityMaps(blob_raster_full_grid(sample_blobs(s, synth_cfg, seed)))
        write_maps_copying(maps, os.path.join(directory, f"{s.image_ref}.fapm"))


def generate_corpus_per_face(model, schema, cfg):
    """synthetic.generate_corpus as it was before the corpus was projected
    at once: each face drawn, deformed part by part, projected and boxed on
    its own."""
    modes = part_deform_modes(model, schema, cfg.deform_seed)
    center = np.array([FACE_SIZE / 2.0, FACE_SIZE / 2.0])
    focal = float(FACE_SIZE)
    samples = []
    for i in range(cfg.count):
        rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0xFACE, i]))
        yaw, pitch, roll = np.radians(rng.uniform(
            [-cfg.yaw_range, -cfg.pitch_range, -cfg.roll_range],
            [cfg.yaw_range, cfg.pitch_range, cfg.roll_range],
        ))
        R = euler_to_rotation(yaw, pitch, roll)
        s = float(rng.uniform(*cfg.scale_range))
        shift = rng.uniform(-cfg.shift_range, cfg.shift_range, size=2)
        P = schema.part_count
        if cfg.deform_style == "coupled":
            coeff = np.full(P, float(rng.normal()))
        else:
            coeff = rng.normal(size=P)
        if cfg.sign_patterns:
            pattern = np.asarray(cfg.sign_patterns[rng.integers(len(cfg.sign_patterns))],
                                 dtype=np.float64)
            coeff = np.abs(coeff) * pattern
        pts = model.points.copy()
        for p in range(P):
            idx = schema.part_indices(p)
            pts[idx] += cfg.deform_magnitude * coeff[p] * modes[p]
        cam = pts @ R.T
        coords = center + shift + s * cam[:, :2]
        vis = ((model.normals @ R.T)[:, 2] <= 0.0).astype(np.float64)
        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        span = hi - lo
        bbox = (
            float(lo[0] - 0.05 * span[0]),
            float(lo[1] - 0.05 * span[1]),
            float(1.1 * span[0]),
            float(1.1 * span[1]),
        )
        gt = Shape(coords, vis, np.ones(len(coords), dtype=np.uint8))
        pose = RigidPose(R, np.array([shift[0] / s, shift[1] / s, focal / s]), focal)
        samples.append(Sample(image_ref=f"{cfg.tag}_{i:06d}", ground_truth=gt, bbox=bbox,
                              pose=pose))
    return Dataset(samples, schema)


def corpus_samples_checked(tag, coords, vis, annotated, bboxes, R, translations, focal):
    """synthetic._corpus_samples as generate_corpus built its faces before
    the corpus was checked at once: each face through the checked
    constructors, which raise the first refused face's error."""
    return [Sample(image_ref=f"{tag}_{i:06d}",
                   ground_truth=Shape(coords[i], vis[i], annotated[i]),
                   bbox=tuple(bboxes[i].tolist()),
                   pose=RigidPose(R[i], translations[i], focal))
            for i in range(len(bboxes))]


def save_dataset_per_landmark(dataset, path) -> None:
    """shapes.save_dataset as it was before records were built from rows:
    each annotated landmark's numpy scalars read one at a time."""
    names = dataset.schema.names
    with open(path, "w", encoding="utf-8") as fh:
        for s in dataset.samples:
            gt = s.ground_truth
            lms = []
            for i in range(gt.landmark_count):
                if gt.annotated[i]:
                    lms.append({"name": names[i], "x": gt.coords[i, 0], "y": gt.coords[i, 1],
                                "v": gt.visibility[i], "w": 1})
            rec = {"image": s.image_ref, "bbox": list(s.bbox), "L": gt.landmark_count,
                   "landmarks": lms}
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")
