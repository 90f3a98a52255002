"""Gradient-boosted ensemble of regression trees over shape-indexed
heatmap features, with parts-grouped coarse-to-fine stages, validation
early stopping, and visibility estimation stored on the leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, FormatError, InitError, is_finite, is_int, is_real, real_range
from .features import (
    DEFAULT_TAU_RANGE,
    STAGE_SCALE_FLOOR,
    FreakPattern,
    SplitParams,
    draw_candidates,
    extract_pattern_values,
    gen_candidates,  # noqa: F401  (part of this module's interface, next to fit_node)
    stage_scale,
)
from .heatmaps import GrayMaps
from .metrics import GroundTruth
from .pose import Model3D, anchor_shape, bbox_center, consensus_inits, robust_init
from .shapes import Dataset, LandmarkSchema, Shape


@dataclass
class TrainConfig:
    T: int = 20                    # max stages
    K1: int = 50                   # trees per coarse stage
    K2: int = 50                   # trees per part in fine stages
    depth: int = 4
    candidates_per_node: int = 200
    shrinkage: float = 0.1         # nu
    subsample: float = 0.5         # eta, fraction of samples per tree
    early_stop_delta: float = 0.01  # relative validation improvement
    seed: int = 0
    Z: int = 25                    # consensus hypotheses for 3d init
    subset_size: int = 6
    tau_range: tuple[float, float] = DEFAULT_TAU_RANGE
    scale_floor: float = STAGE_SCALE_FLOOR
    coarse_to_fine: bool = True

    def __post_init__(self):
        for name, low in (("T", 1), ("K1", 1), ("K2", 1), ("depth", 0),
                          ("candidates_per_node", 1), ("Z", 1), ("subset_size", 4),
                          ("seed", 0)):
            v = getattr(self, name)
            if not is_int(v) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}, not {v!r}")
        self.tau_range = real_range("tau_range", self.tau_range)
        for name in ("shrinkage", "subsample"):
            v = getattr(self, name)
            if not (is_real(v) and 0.0 < v <= 1.0):
                raise ValueError(f"{name} must be a number in (0, 1], not {v!r}")
        if not (is_real(self.scale_floor) and 0.0 < self.scale_floor <= 1.0):
            raise ValueError(f"scale_floor must be a number in (0, 1], not {self.scale_floor!r}")
        if not is_finite(self.early_stop_delta):
            raise ValueError(f"early_stop_delta must be a finite number, "
                             f"not {self.early_stop_delta!r}")


@dataclass
class Tree:
    """One fitted regression tree over one part's landmarks, as
    ``fit_tree`` returns it; ``PartModel`` packs a part's trees.

    Child entries >= 0 index another internal node; negative entries
    encode leaf id ``~child``.  A tree may be a single leaf (no nodes).
    """

    node_landmark: np.ndarray   # (n_nodes,) local landmark row in the part
    node_p1: np.ndarray
    node_p2: np.ndarray
    node_tau: np.ndarray
    node_left: np.ndarray
    node_right: np.ndarray
    leaf_residual: np.ndarray   # (n_leaves, part_size*2)
    leaf_visibility: np.ndarray  # (n_leaves, part_size)

    @property
    def n_nodes(self) -> int:
        return len(self.node_tau)

    @property
    def roots(self) -> np.ndarray:
        """The root in PartModel's encoding: node 0, or ~0 for a lone leaf."""
        return np.array([0 if self.n_nodes else ~0], dtype=np.int64)


FOREST_FIELDS = (
    "roots", "node_landmark", "node_p1", "node_p2", "node_tau", "node_left",
    "node_right", "leaf_residual", "leaf_visibility",
)


class PartModel:
    """One part's trees packed into one flat forest.

    Node and leaf rows of all trees are concatenated in tree order.  Child
    entries >= 0 index another node of the part; negative entries encode
    leaf row ``~child``.  ``roots`` holds each tree's root in the same
    encoding, so a single-leaf tree's root is ``~leaf``.
    """

    def __init__(self, landmarks, trees: list[Tree]):
        self.landmarks = np.asarray(landmarks, dtype=np.int64)
        moved = _relocated(trees)
        for f in FOREST_FIELDS:
            setattr(self, f, moved[f] if f in moved
                    else np.concatenate([getattr(t, f) for t in trees]))

    @classmethod
    def from_arrays(cls, landmarks, arrays: dict) -> "PartModel":
        """A part from its packed arrays, keyed by ``FOREST_FIELDS``."""
        pm = cls.__new__(cls)
        pm.landmarks = np.asarray(landmarks, dtype=np.int64)
        for f in FOREST_FIELDS:
            setattr(pm, f, arrays[f])
        return pm

    @property
    def n_trees(self) -> int:
        return len(self.roots)


def _relocated(forests) -> dict:
    """The roots and children of trees or packed forests, concatenated in
    order, each forest's moved by its node and leaf offsets."""
    node_off = np.cumsum([0] + [len(f.node_tau) for f in forests])
    leaf_off = np.cumsum([0] + [len(f.leaf_residual) for f in forests])
    return {name: np.concatenate([np.where(c >= 0, c + node_off[k], c - leaf_off[k])
                                  for k, c in enumerate(getattr(f, name) for f in forests)])
            for name in ("roots", "node_left", "node_right")}


def leaf_ids(part: PartModel, V: np.ndarray) -> np.ndarray:
    """V: (n, part_size, M) cached pattern reads -> (n, K) leaf rows, one
    per face and tree of the part. A stage forest reads V: (n, L, M), its
    node landmarks being global ids."""
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


@dataclass
class PartsStage:
    """K trees for each of disjoint parts. Construction packs the parts
    into one forest over global landmark ids, so ``apply_stage`` traverses
    a stage once; ``forest.landmarks`` lists the covered landmarks part
    after part, and its leaf rows are each part's padded to the widest.
    ValueError for no parts, parts with different tree counts, a shared
    landmark or leaf rows of the wrong width.
    """

    parts: list[PartModel]
    shrinkage: float
    scale: float  # pattern scale used for this stage's features

    def __post_init__(self):
        parts = self.parts
        if not parts or len({pm.n_trees for pm in parts}) > 1:
            raise ValueError("a stage needs one or more parts with the same tree count")
        sizes = [len(pm.landmarks) for pm in parts]
        if any(pm.leaf_residual.shape[1:] != (2 * m,) or pm.leaf_visibility.shape[1:] != (m,)
               for pm, m in zip(parts, sizes)):
            raise ValueError("leaf rows must have one entry per part landmark coordinate")
        covered = np.concatenate([pm.landmarks for pm in parts])
        if len(np.unique(covered)) < len(covered):
            raise ValueError("parts of a stage must not share a landmark")
        self.leaf_start = np.cumsum([0] + [len(pm.leaf_residual) for pm in parts])
        residual = np.zeros((self.leaf_start[-1], 2 * max(sizes)))
        for pm, lo in zip(parts, self.leaf_start):
            residual[lo:lo + len(pm.leaf_residual), :pm.leaf_residual.shape[1]] = pm.leaf_residual
        self.forest = PartModel.from_arrays(covered, {
            **_relocated(parts),
            "node_landmark": np.concatenate([pm.landmarks[pm.node_landmark] for pm in parts]),
            **{f: np.concatenate([getattr(pm, f) for pm in parts])
               for f in ("node_p1", "node_p2", "node_tau")},
            "leaf_residual": residual,
            "leaf_visibility": None,
        })
        K = parts[0].n_trees
        # per covered coordinate column: the forest tree of each of its
        # part's K trees, (K, columns), and its position in the part's rows
        part_of = np.repeat(np.arange(len(parts)), 2 * np.array(sizes))
        self.col_tree = part_of * K + np.arange(K)[:, None]
        self.col_pos = np.concatenate([np.arange(2 * m) for m in sizes])


# the values of a model's init_mode and feature_mode
MODES = {"init_mode": ("3d", "mean"), "feature_mode": ("heatmap", "gray")}


@dataclass
class CascadeModel:
    stages: list[PartsStage]
    init_mode: str                 # "3d" (needs model3d) | "mean"
    feature_mode: str              # "heatmap" | "gray"
    schema: LandmarkSchema
    mean_shape: Shape
    pattern: FreakPattern
    config: TrainConfig
    model3d: Model3D | None = None
    training_log: list[dict] = field(default_factory=list)


@dataclass
class Prediction:
    shape: Shape
    init_shape: Shape
    used_fallback: bool = False


def _branch_cost(sub: np.ndarray) -> float:
    if len(sub) == 0:
        return 0.0
    mu = sub.mean(axis=0)
    return float(((sub - mu) ** 2).sum())


# Relative width of best_split's shortlist.  The sufficient-statistics cost
# of a candidate differs from its mean-centred cost by a few n·eps·Σ‖r‖²,
# far inside this, so the candidate with the lowest mean-centred cost is
# always on the shortlist.
SHORTLIST_TOL = 1e-9


def best_split(residuals: np.ndarray, features: np.ndarray, tau: np.ndarray):
    """Pick the split minimizing the summed squared deviation from the two
    branch means; ties go to the lowest candidate index.

    residuals: (n, d); features: (C, n) feature value of each candidate on
    each sample; tau: (C,) thresholds, a sample goes left where its feature
    exceeds tau.  Every candidate is scored at once from per-side sums,
    ``Σ‖r‖² − ‖S_L‖²/n_L − ‖S_R‖²/n_R`` (an empty side adds 0); only the
    candidates within SHORTLIST_TOL·Σ‖r‖² of the lowest score get the
    mean-centred cost ``_branch_cost(left) + _branch_cost(right)``, in
    index order, so the winner and its cost are those of scoring every
    candidate that way.  Returns (best_index, cost, left_mask).
    """
    masks = features > tau[:, None]
    n_left = masks.sum(axis=1)
    n_right = len(residuals) - n_left
    s_left = masks.astype(np.float64) @ residuals
    s_right = residuals.sum(axis=0) - s_left
    total = float(np.vdot(residuals, residuals))
    gain = (np.where(n_left > 0, (s_left * s_left).sum(axis=1) / np.maximum(n_left, 1), 0.0)
            + np.where(n_right > 0, (s_right * s_right).sum(axis=1) / np.maximum(n_right, 1), 0.0))
    score = total - gain
    best_idx, best_cost = -1, np.inf
    for c in np.flatnonzero(score <= score.min() + SHORTLIST_TOL * total):
        m = masks[c]
        cost = _branch_cost(residuals[m]) + _branch_cost(residuals[~m])
        if cost < best_cost:
            best_idx, best_cost = int(c), cost
    return best_idx, best_cost, masks[best_idx]


def fit_node(residuals: np.ndarray, candidates: list[SplitParams],
             features: np.ndarray):
    """``best_split`` with the thresholds of SplitParams candidates.

    residuals: (n, d) masked residual rows; features: (C, n) feature value
    of each candidate on each sample.  Returns (best_index, cost,
    left_mask).
    """
    if residuals.shape[0] < 2:
        raise ValueError("need at least 2 samples to split")
    if len(candidates) == 0:
        raise ValueError("need at least 1 candidate")
    return best_split(residuals, features, np.array([c.tau for c in candidates]))


def fit_tree(residuals, ann_mask, gt_vis, V, part_global, cfg: TrainConfig,
             rng: np.random.Generator, pattern_size: int, cols) -> Tree:
    """Greedily fit one regression tree on the given sample rows.

    residuals/ann_mask: (n, d) with d = part_size*2; gt_vis: (n, part_size).
    V: the part's pattern reads of all N faces of the stage as one
    (part_size·M, N) table, as ``train_parts`` builds it once per part;
    row i is face ``cols[i]``.  Each node draws its candidates from
    ``rng`` and splits on ``best_split``, or becomes a leaf when no
    candidate lowers the cost; nodes are numbered in preorder and leaves
    in the order they are made.
    """
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
            best, cost, mask = best_split(res, F, tau)
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


def train_parts(gt_coords, ann, gt_vis, coords, V, parts, K, nu, eta,
                cfg: TrainConfig, rng: np.random.Generator,
                scale: float) -> PartsStage:
    """One boosting stage: K trees per part, eta-subsampled, nu-shrunk.

    coords are updated in place for all samples after every tree; features
    V stay fixed for the whole stage.
    """
    N = coords.shape[0]
    m = min(N, max(2, int(round(eta * N))))
    parts = [np.asarray(p, dtype=np.int64) for p in parts]
    # each part's reads as (part_size*M, N): a node's candidate features
    # then gather along rows
    VTp = [np.ascontiguousarray(V[:, p, :].reshape(N, -1).T) for p in parts]
    W2p = [np.repeat(ann[:, p], 2, axis=1).astype(np.float64) for p in parts]
    trees = [[] for _ in parts]
    for _k in range(K):
        for p, VT, W2, part_trees in zip(parts, VTp, W2p, trees):
            residual = ((gt_coords[:, p, :] - coords[:, p, :]).reshape(N, -1) * W2)
            sub = np.sort(rng.choice(N, size=m, replace=False))
            tree = fit_tree(
                residual[sub], W2[sub], gt_vis[np.ix_(sub, p)], VT,
                p, cfg, rng, V.shape[2], cols=sub,
            )
            leaf = leaf_ids(PartModel(p, [tree]), VT.T.reshape(N, len(p), -1))[:, 0]
            coords[:, p, :] += nu * tree.leaf_residual[leaf].reshape(N, len(p), 2)
            part_trees.append(tree)
    return PartsStage(parts=[PartModel(p, t) for p, t in zip(parts, trees)],
                      shrinkage=nu, scale=scale)


def apply_stage(stage: PartsStage, V, coords, vis=None) -> None:
    """Run a trained stage over a batch of faces, updating it in place.

    V: (n, L, M) pattern reads; coords: (n, L, 2); vis: (n, L) or None.
    One traversal of the stage forest gives every tree's leaf, and one
    gather the (K, n, columns) shrunk steps. Each column adds its part's K
    steps one tree after the other, the order training added them in.
    Visibility gets, part by part, the closed form of the per-tree blend
    ``vis <- (1 - 1/K) vis + leafvis/K``, a convex combination, so it
    stays in [0, 1] up to rounding; ``predict`` clips its result.
    """
    n = coords.shape[0]
    forest, cov = stage.forest, stage.forest.landmarks
    leaf = leaf_ids(forest, V)  # (n, parts * K) forest leaf rows
    rows = leaf[:, stage.col_tree].transpose(1, 0, 2)  # (K, n, columns)
    steps = stage.shrinkage * forest.leaf_residual[rows, stage.col_pos]
    start = coords[:, cov, :].reshape(1, n, -1)
    # summing over the leading axis adds one row after the other, the
    # same additions as training's per-tree +=, so coords match bit for bit
    coords[:, cov, :] = np.concatenate([start, steps]).sum(axis=0).reshape(n, -1, 2)
    if vis is not None:
        K = stage.col_tree.shape[0]
        keep = 1.0 - 1.0 / K
        weights = (1.0 / K) * keep ** np.arange(K - 1, -1, -1)
        for q, pm in enumerate(stage.parts):
            p = pm.landmarks
            local = leaf[:, q * K:(q + 1) * K] - stage.leaf_start[q]
            vis[:, p] = keep ** K * vis[:, p] + weights @ pm.leaf_visibility[local]


def feature_maps(maps, feature_mode: str):
    """What the features of a model read: the landmark maps themselves,
    or in the grayscale ablation their max over all maps."""
    return GrayMaps(maps) if feature_mode == "gray" else maps


def extract_stage_features(dataset: Dataset, coords, maps_provider,
                           pattern: FreakPattern, scale: float,
                           feature_mode: str) -> np.ndarray:
    n, L = coords.shape[0], coords.shape[1]
    V = np.zeros((n, L, len(pattern)))
    for i, s in enumerate(dataset.samples):
        maps = feature_maps(maps_provider.maps_for(s), feature_mode)
        V[i] = extract_pattern_values(maps, coords[i], pattern, scale)
    return V


def make_initializer(init_mode: str, mean_shape: Shape,
                     model3d: Model3D | None, cfg: TrainConfig):
    """Returns init_fn(samples, maps_provider) -> (n, L, 2) initial coords.

    A sample that already carries an initial shape (attach_pose_initials,
    augmentation) keeps it. In 3d mode the others get the consensus
    initializer, a chunk of faces at a time (pose.consensus_inits), and
    the anchored mean shape where every hypothesis fails; in mean mode
    they get the anchored mean shape. Errors from maps_for propagate.
    """

    def init_fn(samples, maps_provider):
        shapes = [s.initial for s in samples]
        if init_mode == "3d":
            todo = [i for i, sh in enumerate(shapes) if sh is None]
            results = consensus_inits([samples[i] for i in todo], maps_provider.maps_for,
                                      model3d, cfg.Z, cfg.subset_size, cfg.seed)
            for i, res in zip(todo, results):
                if res is not None:
                    shapes[i] = res.shape
        return np.stack([(sh if sh is not None else anchor_shape(mean_shape, s.bbox)).coords
                         for sh, s in zip(shapes, samples)])

    return init_fn


def fine_parts(schema: LandmarkSchema) -> list[np.ndarray]:
    return [schema.part_indices(p) for p in range(schema.part_count)]


def relative_improvement(prev_nme: float, cur_nme: float) -> float:
    """Fractional validation improvement used by the stopping rule."""
    return (prev_nme - cur_nme) / prev_nme if prev_nme > 0 else 0.0


def stops_at(val_nmes, t: int, delta: float, switched_at: int | None = None) -> bool:
    """The stopping rule: training halts after stage t when its relative
    improvement, val_nmes[t - 1] to val_nmes[t], falls below delta, unless
    t is the stage on which the coarse-to-fine switch fired, so the fine
    phase always gets a stage.  val_nmes[0] is the initialization error.
    """
    return t != switched_at and relative_improvement(val_nmes[t - 1], val_nmes[t]) < delta


def stop_stage(val_nmes, delta: float, T: int, switched_at: int | None = None) -> int:
    """Stage count the stopping rule yields for a validation NME sequence:
    the first stage at which it halts, and never more than T stages."""
    for t in range(1, min(len(val_nmes) - 1, T) + 1):
        if stops_at(val_nmes, t, delta, switched_at):
            return t
    return min(len(val_nmes) - 1, T)


def train_cascade(train: Dataset, val: Dataset, maps_provider, init_fn,
                  config: TrainConfig, pattern: FreakPattern,
                  feature_mode: str = "heatmap",
                  init_mode: str = "3d",
                  mean_shape: Shape | None = None,
                  model3d: Model3D | None = None) -> CascadeModel:
    """Stage-wise training with validation early stopping and the
    coarse-to-fine switch once training error drops below validation error.
    """
    if len(train) == 0:
        raise DataError("empty training set")
    if len(val) == 0:
        raise DataError("empty validation set")
    schema = train.schema
    L = schema.landmark_count
    tr, va = (GroundTruth([s.ground_truth for s in ds.samples], [s.bbox for s in ds.samples])
              for ds in (train, val))
    tr_coords = init_fn(train.samples, maps_provider)
    va_coords = init_fn(val.samples, maps_provider)

    all_landmarks = [np.arange(L)]
    parts_p10 = fine_parts(schema)
    rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), 0xE87]))

    stages: list[PartsStage] = []
    log: list[dict] = []
    val_nmes = [float(va.nme(va_coords).mean())]
    log.append({"stage": 0, "train_nme": float(tr.nme(tr_coords).mean()), "val_nme": val_nmes[0],
                "parts": 0, "note": "initialization"})
    switched_at = None
    for t in range(1, config.T + 1):
        fine = switched_at is not None
        scale = stage_scale(t - 1, config.T, floor=config.scale_floor)
        parts = parts_p10 if fine else all_landmarks
        K = config.K2 if fine else config.K1
        V_tr = extract_stage_features(train, tr_coords, maps_provider, pattern,
                                      scale, feature_mode)
        stage = train_parts(
            tr.coords, tr.annotated, tr.visibility, tr_coords, V_tr, parts,
            K, config.shrinkage, config.subsample, config, rng, scale,
        )
        stages.append(stage)
        V_va = extract_stage_features(val, va_coords, maps_provider, pattern,
                                      scale, feature_mode)
        apply_stage(stage, V_va, va_coords)
        train_nme = float(tr.nme(tr_coords).mean())
        val_nmes.append(float(va.nme(va_coords).mean()))
        log.append({"stage": t, "train_nme": train_nme, "val_nme": val_nmes[t],
                    "parts": len(parts),
                    "improvement": relative_improvement(val_nmes[t - 1], val_nmes[t])})
        if config.coarse_to_fine and not fine and train_nme < val_nmes[t]:
            switched_at = t
            log[-1]["note"] = "coarse-to-fine triggered"
        if stops_at(val_nmes, t, config.early_stop_delta, switched_at):
            log[-1]["note"] = log[-1].get("note", "") + " early stop"
            break

    return CascadeModel(
        stages=stages,
        init_mode=init_mode,
        feature_mode=feature_mode,
        schema=schema,
        mean_shape=mean_shape,
        pattern=pattern,
        config=config,
        model3d=model3d,
        training_log=log,
    )


def predict(model: CascadeModel, maps, bbox,
            seed: int | None = None) -> Prediction:
    """Run the full cascade on one face; deterministic for fixed inputs.

    Maps whose landmark count differs from the model's schema raise
    FormatError.
    """
    if maps.landmark_count != model.schema.landmark_count:
        raise FormatError(f"maps hold {maps.landmark_count} landmarks, "
                          f"the model's schema has {model.schema.landmark_count}")
    used_fallback = False
    if seed is None:
        seed = model.config.seed
    if model.init_mode == "3d":
        try:
            res = robust_init(
                maps, model.model3d, Z=model.config.Z,
                subset_size=model.config.subset_size, seed=seed,
                center=bbox_center(bbox),
            )
            init = res.shape
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
