"""Evaluation metrics: normalized mean error under three normalizations,
CED curves with exact area/failure-rate, occlusion precision/recall, and
the cross-dataset error matrix over a shared distinct-landmark subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, is_finite


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
    if not (is_finite(d) and d > 0):
        raise ValueError(f"normalizer must be a finite number > 0, not {d!r}")
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


class GroundTruth:
    """A face set's ground truth, stacked: coords (n, L, 2), annotated and
    visibility (n, L), and one ``normalizer`` d (n,) per face. SchemaError
    for no faces, and naming a face whose d fails or is not finite and > 0."""

    def __init__(self, gts, bboxes, normalization="height", schema=None):
        if not len(gts):
            raise SchemaError("no faces to score")
        self.coords = np.stack([g.coords for g in gts])
        self.annotated = np.stack([g.annotated for g in gts])
        self.visibility = np.stack([g.visibility for g in gts])
        self.d = np.empty(len(gts))
        for i, (gt, bbox) in enumerate(zip(gts, bboxes, strict=True)):
            try:
                self.d[i] = normalizer(gt, bbox, normalization, schema)
            except SchemaError as exc:
                raise SchemaError(f"face {i}: {exc}") from None
        bad = np.flatnonzero(~(np.isfinite(self.d) & (self.d > 0)))
        if len(bad):
            raise SchemaError(f"face {bad[0]}: {normalization} normalizer "
                              f"{self.d[bad[0]]:g} is not a finite number > 0")

    def nme(self, coords, landmarks=slice(None)) -> np.ndarray:
        """Per-face nme_percent of coords (n, L, 2) over the landmark columns."""
        if len(coords) != len(self.d):
            raise ValueError(f"{len(coords)} predicted faces for {len(self.d)} ground truths")
        return nme_percent(coords[:, landmarks], self.coords[:, landmarks],
                           self.annotated[:, landmarks], self.d)

    def check_annotated(self, landmarks=slice(None)) -> None:
        """SchemaError naming the first face that annotates none of the
        given landmark columns, whose NME would read 0."""
        bare = np.flatnonzero(~self.annotated[:, landmarks].any(axis=1))
        if len(bare):
            raise SchemaError(f"face {bare[0]} has no annotated landmark to score")


def ced_curve(per_image_nme) -> list[tuple[float, float]]:
    """(e, CED(e)) breakpoints of the empirical step function."""
    errs = np.sort(np.asarray(per_image_nme, dtype=np.float64))
    n = len(errs)
    return [(float(e), float((i + 1) / n)) for i, e in enumerate(errs)]


def auc_fr(per_image_nme, epsilon: float) -> tuple[float, float]:
    """Exact area under the empirical CED on [0, epsilon], and the failure
    rate (percent of images with error above epsilon)."""
    if not (is_finite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be a finite number > 0, not {epsilon!r}")
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
    pred_occ = np.asarray(pred_vis, dtype=np.float64).ravel() < 0.5
    gt_occ = np.asarray(gt_vis, dtype=np.float64).ravel() < 0.5
    tp = np.count_nonzero(pred_occ & gt_occ)
    precision = 100.0 * tp / pred_occ.sum() if pred_occ.any() else None
    recall = 100.0 * tp / gt_occ.sum() if gt_occ.any() else None
    return precision, recall


def evaluate(preds, gts, bboxes, normalization="height", epsilon=8.0,
             schema=None) -> EvalReport:
    """Full metric suite for preds, Shapes, against the GroundTruth of gts;
    occlusion precision and recall come from the visibility of both.
    SchemaError naming a face with no annotated landmark."""
    truth = GroundTruth(gts, bboxes, normalization, schema)
    truth.check_annotated()
    coords = np.stack([p.coords for p in preds])
    per_image = truth.nme(coords)
    auc, fr = auc_fr(per_image, epsilon)
    # per landmark: the mean of 100 * distance / d over the faces annotating it
    err = 100.0 * np.linalg.norm(coords - truth.coords, axis=2) / truth.d[:, None]
    count = truth.annotated.sum(axis=0)
    per_landmark = np.where(truth.annotated, err, 0.0).sum(axis=0) / np.where(count, count, np.nan)
    prec, rec = occlusion_pr(np.stack([p.visibility for p in preds]), truth.visibility)
    return EvalReport(
        per_image_nme=per_image.tolist(),
        nme=float(np.mean(per_image)),
        auc=auc,
        fr=fr,
        per_landmark_nme=per_landmark.tolist(),
        normalization=normalization,
        epsilon=epsilon,
        occlusion_precision=prec,
        occlusion_recall=rec,
    )


def cross_matrix(preds, testsets, distinct_indices) -> np.ndarray:
    """NME (height) of each model on each test set over the shared distinct
    subset.  preds[i][j][k]: model i's predicted Shape for sample k of
    test set j.
    """
    idx = np.asarray(distinct_indices, dtype=np.int64)
    if len(idx) < 24:
        raise SchemaError("shared distinct subset must have at least 24 landmarks")
    truths = [GroundTruth([s.ground_truth for s in ds.samples], [s.bbox for s in ds.samples])
              for ds in testsets]
    for truth in truths:
        truth.check_annotated(idx)
    out = np.zeros((len(preds), len(testsets)))
    for i, model_preds in enumerate(preds):
        for j, truth in enumerate(truths):
            coords = np.stack([p.coords for p in model_preds[j]])
            out[i, j] = float(np.mean(truth.nme(coords, idx)))
    return out
