"""Dataset representation, annotation I/O, splitting and augmentation.

A face annotation is a Shape: per-landmark image coordinates plus a
visibility value in [0,1] and a binary annotated flag.  Landmarks that are
missing from a record get the placeholder coordinate (0,0) with
annotated=0; consumers must gate on the annotated mask, never on the
placeholder value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (HALF_WIDTH, UNIT, DataError, ParseError, SchemaError, check, is_finite,
                     open_text, require, setting)


def _entries(value, kinds: str, count: int | None = None, below: int | None = None) -> bool:
    """value is a flat sequence of numpy dtype kinds (count of them, each in
    [0, below), when given)."""
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged nesting
        return False
    return (a.ndim == 1 and a.dtype.kind in kinds and count in (None, len(a))
            and (below is None or bool(((a >= 0) & (a < below)).all())))


def _eyes_ok(eyes, L: int) -> bool:
    """eyes holds what the pupils and corners normalizers index: non-empty
    lists left and right and single indices left_outer and right_outer,
    all landmark indices below L."""
    return (isinstance(eyes, dict)
            and all(k in eyes for k in ("left", "right", "left_outer", "right_outer"))
            and _entries(eyes["left"], "iu", below=L) and _entries(eyes["right"], "iu", below=L)
            and _entries([eyes["left_outer"], eyes["right_outer"]], "iu", 2, below=L))


@dataclass
class LandmarkSchema:
    """Named landmark list with part assignments and mirror pairing."""

    names: list[str]
    parts: np.ndarray          # (L,) int part id per landmark
    distinct: np.ndarray       # (L,) bool
    mirror: np.ndarray         # (L,) int index of the left<->right partner (self allowed)
    eyes: dict | None = None   # optional: left/right eye index lists + outer corners

    def __post_init__(self):
        require("schema names", self.names, (
            lambda v: isinstance(v, list) and v and all(isinstance(n, str) for n in v),
            "a non-empty list of strings"), SchemaError)
        L = len(self.names)
        self.parts = np.asarray(require("schema parts", self.parts, (
            lambda v: _entries(v, "iu", L), f"a list of {L} integers"), SchemaError), np.int64)
        self.distinct = np.asarray(require("schema distinct", self.distinct, (
            lambda v: _entries(v, "b", L), f"a list of {L} booleans"), SchemaError))
        self.mirror = np.asarray(require("schema mirror", self.mirror, (
            lambda v: _entries(v, "iu", L, below=L), f"a list of {L} landmark indices"),
            SchemaError), np.int64)
        require("schema eyes", self.eyes, (
            lambda v: v is None or _eyes_ok(v, L),
            "null or an object with landmark index lists left and right and landmark "
            "indices left_outer and right_outer"), SchemaError)
        if self.parts.min() < 0:
            raise SchemaError("negative part id")
        # part assignment must cover every id up to the max exactly once per landmark
        if set(np.unique(self.parts)) != set(range(self.parts.max() + 1)):
            raise SchemaError("part ids must be contiguous from 0")
        if not np.array_equal(self.mirror[self.mirror], np.arange(L)):
            raise SchemaError("mirror pairing must be an involution")

    @property
    def landmark_count(self) -> int:
        return len(self.names)

    @property
    def part_count(self) -> int:
        return int(self.parts.max()) + 1

    def part_indices(self, part: int) -> np.ndarray:
        return np.flatnonzero(self.parts == part)

    @property
    def distinct_indices(self) -> np.ndarray:
        return np.flatnonzero(self.distinct)

    def to_dict(self) -> dict:
        """The JSON form of a schema file, also stored in model headers."""
        raw = {
            "names": self.names,
            "parts": self.parts.tolist(),
            "distinct": self.distinct.tolist(),
            "mirror": self.mirror.tolist(),
        }
        if self.eyes is not None:
            raw["eyes"] = self.eyes
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "LandmarkSchema":
        if not isinstance(raw, dict):
            raise SchemaError(f"a schema is a JSON object, not {type(raw).__name__}")
        missing = [k for k in ("names", "parts", "distinct", "mirror") if k not in raw]
        if missing:
            raise SchemaError(f"schema lacks keys {missing}")
        return cls(names=raw["names"], parts=raw["parts"], distinct=raw["distinct"],
                   mirror=raw["mirror"], eyes=raw.get("eyes"))

    @classmethod
    def load(cls, path) -> "LandmarkSchema":
        with open_text(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"schema {path}: {exc}") from None
        return cls.from_dict(raw)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")


@dataclass
class Shape:
    """Landmark coordinates with visibility and annotated masks."""

    coords: np.ndarray      # (L, 2) float64, pixels
    visibility: np.ndarray  # (L,) float64 in [0,1]
    annotated: np.ndarray   # (L,) uint8 in {0,1}

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64).reshape(-1, 2)
        self.visibility = np.asarray(self.visibility, dtype=np.float64).reshape(-1)
        self.annotated = np.asarray(self.annotated, dtype=np.uint8).reshape(-1)
        L = self.coords.shape[0]
        if not (len(self.visibility) == len(self.annotated) == L):
            raise SchemaError("shape fields must share L")
        if not ((self.visibility >= 0) & (self.visibility <= 1)).all():
            raise SchemaError("visibility out of [0,1]")
        if np.any((self.annotated != 0) & (self.annotated != 1)):
            raise SchemaError("annotated flags must be binary")

    @property
    def landmark_count(self) -> int:
        return self.coords.shape[0]

    def copy(self) -> "Shape":
        return Shape(self.coords.copy(), self.visibility.copy(), self.annotated.copy())


@dataclass
class Sample:
    image_ref: str
    ground_truth: Shape
    bbox: tuple[float, float, float, float]  # x, y, w, h
    initial: Shape | None = None
    pose: object | None = None               # RigidPose estimated for this sample, if any

    def __post_init__(self):
        x, y, w, h = self.bbox
        if not (all(map(is_finite, self.bbox)) and w > 0 and h > 0):
            raise SchemaError("bbox must be finite, with positive width and height")
        if self.initial is not None and self.initial.landmark_count != self.landmark_count:
            raise SchemaError("initial shape L differs from ground truth")

    @property
    def landmark_count(self) -> int:
        return self.ground_truth.landmark_count


@dataclass
class Dataset:
    samples: list[Sample]
    schema: LandmarkSchema

    def __post_init__(self):
        L = self.schema.landmark_count
        for s in self.samples:
            if s.landmark_count != L:
                raise SchemaError("sample L differs from schema")

    def __len__(self) -> int:
        return len(self.samples)

    def subset(self, indices) -> "Dataset":
        return Dataset([self.samples[i] for i in indices], self.schema)


def _shape_from_record(rec, index: dict, line_no):
    """One record's Shape; index maps each schema name to its landmark."""
    L = len(index)
    coords = np.zeros((L, 2))
    vis = np.ones(L)
    ann = np.zeros(L, dtype=np.uint8)
    lms = rec.get("landmarks", [])
    if not isinstance(lms, list):
        raise ParseError("landmarks must be a list", line=line_no)
    if len(lms) > L:
        raise SchemaError(f"record has {len(lms)} landmarks, schema has {L}")
    for lm in lms:
        try:
            name = lm["name"]
            x, y, v = float(lm["x"]), float(lm["y"]), float(lm.get("v", 1.0))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad landmark entry: {exc}", line=line_no)
        # float() has made each a float, so math.isfinite is is_finite
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(v)):
            raise ParseError(f"landmark {name!r} has a non-finite x, y or v", line=line_no)
        if not isinstance(name, str) or name not in index:
            raise SchemaError(f"unknown landmark name {name!r}")
        i = index[name]
        if ann[i]:
            raise ParseError(f"landmark {name!r} is listed twice", line=line_no)
        coords[i] = (x, y)
        ann[i] = 1
        vis[i] = v
    return Shape(coords, np.where(ann == 1, vis, 1.0), ann)


def load_dataset(path, schema: LandmarkSchema) -> Dataset:
    """Read newline-delimited annotation records (one JSON object per face)."""
    samples = []
    index = {n: i for i, n in enumerate(schema.names)}
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(str(exc), line=line_no)
            if not isinstance(rec, dict) or "image" not in rec or "bbox" not in rec:
                raise ParseError("record missing image/bbox", line=line_no)
            # the image names the face's map file and seeds its synthetic maps
            if not (isinstance(rec["image"], str) and rec["image"]):
                raise ParseError(f"image must be a non-empty string, not {rec['image']!r}",
                                 line=line_no)
            try:
                count = int(rec.get("L", schema.landmark_count))
                if count != float(rec.get("L", count)):
                    raise ValueError(f"L must be an integer, not {rec['L']!r}")
                bbox = tuple(float(v) for v in rec["bbox"])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParseError(f"bad L or bbox: {exc}", line=line_no) from None
            if len(bbox) != 4:
                raise ParseError("bbox must have 4 entries", line=line_no)
            if count != schema.landmark_count:
                raise SchemaError(
                    f"record L={rec['L']} does not match schema L={schema.landmark_count}"
                )
            gt = _shape_from_record(rec, index, line_no)
            samples.append(Sample(image_ref=rec["image"], ground_truth=gt, bbox=bbox))
    return Dataset(samples, schema)


def save_dataset(dataset: Dataset, path) -> None:
    """Write one JSON record per face, listing its annotated landmarks."""
    names = dataset.schema.names
    with open(path, "w", encoding="utf-8") as fh:
        for s in dataset.samples:
            gt = s.ground_truth
            xy, vis = gt.coords.tolist(), gt.visibility.tolist()
            lms = [{"name": names[i], "x": xy[i][0], "y": xy[i][1], "v": vis[i], "w": 1}
                   for i in np.flatnonzero(gt.annotated).tolist()]
            rec = {
                "image": s.image_ref,
                "bbox": list(s.bbox),
                "L": gt.landmark_count,
                "landmarks": lms,
            }
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


def split_train_val(dataset: Dataset, val_fraction: float, seed: int):
    """Deterministic shuffled split into (train, val); val gets floor(N*f)."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie in (0,1)")
    n = len(dataset)
    if n < 2:
        raise DataError(f"need at least 2 samples to split, the dataset has {n}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x51]))
    perm = rng.permutation(n)
    n_val = int(math.floor(n * val_fraction))
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]
    return dataset.subset(train_idx), dataset.subset(val_idx)


@dataclass
class AugmentConfig:
    """Bounds for pose-noise and occlusion augmentation.

    Angle noise (degrees) perturbs the estimated rigid pose to generate new
    initial shapes; with probability occlusion_prob a square occluder of
    side occlusion_frac * min(w, h) inside the bbox hides the ground-truth
    landmarks it covers.
    """

    yaw_noise: float = setting(0.0, HALF_WIDTH)
    pitch_noise: float = setting(0.0, HALF_WIDTH)
    roll_noise: float = setting(0.0, HALF_WIDTH)
    occlusion_prob: float = setting(0.0, UNIT)
    occlusion_frac: float = setting(0.25, UNIT)      # occluder side as fraction of bbox size

    __post_init__ = check

    @classmethod
    def paper_defaults(cls) -> "AugmentConfig":
        return cls(
            yaw_noise=15.0,
            pitch_noise=15.0,
            roll_noise=15.0,
            occlusion_prob=0.3,
        )


def _perturbed_initial(sample, cfg, model3d, rng):
    from .pose import bbox_center, perturb_pose, project_points  # local import avoids a cycle

    if sample.pose is None or model3d is None:
        return None if sample.initial is None else sample.initial.copy()
    angles = rng.uniform(
        [-cfg.yaw_noise, -cfg.pitch_noise, -cfg.roll_noise],
        [cfg.yaw_noise, cfg.pitch_noise, cfg.roll_noise],
    )
    pose = perturb_pose(sample.pose, *np.radians(angles))
    coords, vis = project_points(model3d, pose, center=bbox_center(sample.bbox))
    return Shape(coords, vis, np.ones(len(vis), dtype=np.uint8))


def _occlude(shape: Shape, bbox, cfg, rng) -> None:
    """With probability occlusion_prob, zero the visibility of the landmarks
    under a square occluder drawn uniformly inside bbox."""
    if rng.random() >= cfg.occlusion_prob:
        return
    x, y, w, h = bbox
    side = cfg.occlusion_frac * min(w, h)
    ox = rng.uniform(x, x + w - side)
    oy = rng.uniform(y, y + h - side)
    c = shape.coords
    inside = (c[:, 0] >= ox) & (c[:, 0] <= ox + side) & (c[:, 1] >= oy) & (c[:, 1] <= oy + side)
    shape.visibility[inside] = 0.0


def augment(dataset: Dataset, target_count: int, noise_cfg: AugmentConfig,
            seed: int, model3d=None) -> Dataset:
    """Grow the training set to >= target_count samples.

    The originals are kept verbatim.  Each extra sample reuses a source
    sample's image, maps and ground-truth coordinates; only the initial
    shape (pose-noise re-projection through model3d) and the ground-truth
    visibility under a synthetic occluder differ.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot augment an empty dataset")
    if target_count < n:
        raise ValueError("target_count must be >= dataset size")
    out = list(dataset.samples)
    for j in range(target_count - n):
        src = dataset.samples[j % n]
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xA0, j]))
        gt = src.ground_truth.copy()
        _occlude(gt, src.bbox, noise_cfg, rng)
        aug = Sample(
            image_ref=src.image_ref,
            ground_truth=gt,
            bbox=src.bbox,
            initial=_perturbed_initial(src, noise_cfg, model3d, rng),
            pose=src.pose,
        )
        out.append(aug)
    return Dataset(out, dataset.schema)
