"""Evaluation metrics: normalized mean error under three normalizations,
CED curves with exact area/failure-rate, occlusion precision/recall, and
the cross-dataset error matrix over a shared distinct-landmark subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .shapes import Shape


@dataclass
class EvalReport:
    per_image_nme: list[float]
    nme: float
    auc: float
    fr: float
    per_landmark_nme: list[float]
    normalization: str
    epsilon: float
    occlusion_precision: float | None = None
    occlusion_recall: float | None = None

    def to_text(self) -> str:
        lines = [
            f"images: {len(self.per_image_nme)}",
            f"normalization: {self.normalization}",
            f"nme: {self.nme:.6f}",
            f"auc_{self.epsilon:g}: {self.auc:.6f}",
            f"fr_{self.epsilon:g}: {self.fr:.6f}",
        ]
        if self.occlusion_precision is not None:
            lines.append(f"occlusion_precision: {self.occlusion_precision:.6f}")
        if self.occlusion_recall is not None:
            lines.append(f"occlusion_recall: {self.occlusion_recall:.6f}")
        lines.append("per_landmark_nme: "
                     + " ".join(f"{v:.6f}" for v in self.per_landmark_nme))
        return "\n".join(lines) + "\n"


def nme_percent(coords, gt_coords, annotated, d) -> np.ndarray:
    """Per-face percent mean landmark distance over annotated landmarks,
    / d. coords, gt_coords: (n, L, 2); annotated: (n, L); d: (n,) or one
    normalizer for all. A face with no annotated landmark reads 0."""
    dist = np.linalg.norm(coords - gt_coords, axis=2)
    w = annotated.astype(np.float64)
    return 100.0 * ((dist * w).sum(axis=1) / np.maximum(w.sum(axis=1), 1)) / d


def nme(pred, gt, d: float) -> float:
    """nme_percent of one face."""
    if d <= 0:
        raise ValueError("normalizer must be positive")
    if not gt.annotated.any():
        raise ValueError("no annotated landmarks")
    return float(nme_percent(pred.coords[None], gt.coords[None], gt.annotated[None], d)[0])


def normalizer(gt, bbox, mode: str, schema=None) -> float:
    """Face-scale normalizer: pupils, corners or bbox height."""
    if mode == "height":
        _, _, w, h = bbox
        return math.sqrt(w * h)
    if schema is None or schema.eyes is None:
        raise SchemaError(f"{mode} normalization requires eye metadata in the schema")
    eyes = schema.eyes
    if mode == "pupils":
        li = np.asarray(eyes["left"], dtype=np.int64)
        ri = np.asarray(eyes["right"], dtype=np.int64)
        if not (gt.annotated[li].all() and gt.annotated[ri].all()):
            raise SchemaError("eye landmarks not annotated")
        lc = gt.coords[li].mean(axis=0)
        rc = gt.coords[ri].mean(axis=0)
        return float(np.linalg.norm(lc - rc))
    if mode == "corners":
        lo, ro = int(eyes["left_outer"]), int(eyes["right_outer"])
        if not (gt.annotated[lo] and gt.annotated[ro]):
            raise SchemaError("outer eye corners not annotated")
        return float(np.linalg.norm(gt.coords[lo] - gt.coords[ro]))
    raise ValueError(f"unknown normalization mode {mode!r}")


def ced_curve(per_image_nme) -> list[tuple[float, float]]:
    """(e, CED(e)) breakpoints of the empirical step function."""
    errs = np.sort(np.asarray(per_image_nme, dtype=np.float64))
    n = len(errs)
    return [(float(e), float((i + 1) / n)) for i, e in enumerate(errs)]


def auc_fr(per_image_nme, epsilon: float) -> tuple[float, float]:
    """Exact area under the empirical CED on [0, epsilon], and the failure
    rate (percent of images with error above epsilon)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    errs = np.asarray(per_image_nme, dtype=np.float64)
    if len(errs) == 0:
        raise ValueError("empty error list")
    n = len(errs)
    clipped = np.minimum(errs, epsilon)
    # integral of CED over [0, eps] equals sum of (eps - min(e, eps)) / n
    auc = float((epsilon - clipped).sum() / (n * epsilon))
    fr = float(100.0 * np.count_nonzero(errs > epsilon) / n)
    return auc, fr


def occlusion_pr(pred_vis, gt_vis):
    """Precision/recall (percent) of occlusion detection.

    Occluded means visibility below 0.5 (predictions) or 0 (ground
    truth).  Zero-denominator cases return None rather than 0.
    """
    pv = np.concatenate([np.asarray(p, dtype=np.float64).ravel() for p in pred_vis]) \
        if isinstance(pred_vis, (list, tuple)) else np.asarray(pred_vis, dtype=np.float64).ravel()
    gv = np.concatenate([np.asarray(g, dtype=np.float64).ravel() for g in gt_vis]) \
        if isinstance(gt_vis, (list, tuple)) else np.asarray(gt_vis, dtype=np.float64).ravel()
    pred_occ = pv < 0.5
    gt_occ = gv < 0.5
    tp = np.count_nonzero(pred_occ & gt_occ)
    precision = 100.0 * tp / pred_occ.sum() if pred_occ.any() else None
    recall = 100.0 * tp / gt_occ.sum() if gt_occ.any() else None
    return precision, recall


def per_landmark_nme(preds, gts, ds) -> np.ndarray:
    """Mean per-landmark normalized error (percent) over annotated entries."""
    L = gts[0].landmark_count
    acc = np.zeros(L)
    cnt = np.zeros(L)
    for pred, gt, d in zip(preds, gts, ds):
        dist = np.linalg.norm(pred.coords - gt.coords, axis=1)
        mask = gt.annotated.astype(bool)
        acc[mask] += 100.0 * dist[mask] / d
        cnt[mask] += 1
    return np.where(cnt > 0, acc / np.maximum(cnt, 1), np.nan)


def evaluate(preds, gts, bboxes, normalization="height", epsilon=8.0,
             schema=None) -> EvalReport:
    """Full metric suite for one prediction set of Shapes; occlusion
    precision and recall come from the visibility of preds and gts."""
    ds = [normalizer(gt, bbox, normalization, schema) for gt, bbox in zip(gts, bboxes)]
    per_image = [nme(p, g, d) for p, g, d in zip(preds, gts, ds)]
    auc, fr = auc_fr(per_image, epsilon)
    prec, rec = occlusion_pr([p.visibility for p in preds], [g.visibility for g in gts])
    return EvalReport(
        per_image_nme=per_image,
        nme=float(np.mean(per_image)),
        auc=auc,
        fr=fr,
        per_landmark_nme=per_landmark_nme(preds, gts, ds).tolist(),
        normalization=normalization,
        epsilon=epsilon,
        occlusion_precision=prec,
        occlusion_recall=rec,
    )


def restrict_to_landmarks(shape, indices):
    idx = np.asarray(indices, dtype=np.int64)
    return Shape(shape.coords[idx], shape.visibility[idx], shape.annotated[idx])


def cross_matrix(preds, testsets, distinct_indices) -> np.ndarray:
    """NME (height) of each model on each test set over the shared distinct
    subset.  preds[i][j][k]: model i's predicted Shape for sample k of
    test set j.
    """
    idx = np.asarray(distinct_indices, dtype=np.int64)
    if len(idx) < 24:
        raise SchemaError("shared distinct subset must have at least 24 landmarks")
    out = np.zeros((len(preds), len(testsets)))
    for i, model_preds in enumerate(preds):
        for j, ds in enumerate(testsets):
            errs = []
            for s, pred in zip(ds.samples, model_preds[j], strict=True):
                gt_r = restrict_to_landmarks(s.ground_truth, idx)
                pr_r = restrict_to_landmarks(pred, idx)
                d = normalizer(s.ground_truth, s.bbox, "height")
                errs.append(nme(pr_r, gt_r, d))
            out[i, j] = float(np.mean(errs))
    return out
