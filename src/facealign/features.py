"""Shape-indexed split features: pixel-pair differences on probability
maps, sampled from a concentric retina-style pattern anchored at the
current landmark estimate.  The pattern shrinks linearly over the cascade
stages so late stages probe closer to the landmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import FormatError
from .heatmaps import map_values

STAGE_SCALE_FLOOR = 0.2
DEFAULT_TAU_RANGE = (-0.3, 0.3)
GRAY_TAU_RANGE = (-32.0, 32.0)


@dataclass
class FreakPattern:
    """Sampling offsets arranged in concentric rings around the origin."""

    offsets: np.ndarray  # (M, 2) pixel offsets
    rings: np.ndarray    # (M,) ring id (0 = outermost)
    base_diameter: float

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.float64).reshape(-1, 2)
        self.rings = np.asarray(self.rings, dtype=np.int64).reshape(-1)
        if len(self.offsets) == 0:
            raise FormatError("pattern has no offsets")
        if len(self.rings) != len(self.offsets):
            raise FormatError("ring ids must match offsets")
        radius = np.linalg.norm(self.offsets, axis=1).max()
        if radius > self.base_diameter / 2.0 + 1e-6:
            raise FormatError("offset outside base diameter")

    def __len__(self) -> int:
        return len(self.offsets)

    @classmethod
    def load(cls, path) -> "FreakPattern":
        diameter = None
        rings, offs = [], []
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                tok = line.split()
                if tok[0] == "diameter":
                    diameter = float(tok[1])
                    continue
                if len(tok) != 3:
                    raise FormatError(f"pattern line needs 3 fields: {line!r}")
                rings.append(int(tok[0]))
                offs.append([float(tok[1]), float(tok[2])])
        if diameter is None:
            raise FormatError("pattern file missing diameter line")
        return cls(np.array(offs), np.array(rings), diameter)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# ring dx dy\n")
            fh.write(f"diameter {self.base_diameter:.1f}\n")
            for r, (dx, dy) in zip(self.rings, self.offsets):
                fh.write(f"{r} {dx:.6f} {dy:.6f}\n")


def default_pattern() -> FreakPattern:
    return FreakPattern.load(
        resources.files("facealign.data").joinpath("retina_pattern.txt")
    )


@dataclass(frozen=True)
class SplitParams:
    """One tree-node test: feature(landmark, p1, p2) > tau."""

    tau: float
    p1: int
    p2: int
    landmark: int

    def __post_init__(self):
        if self.p1 == self.p2:
            raise ValueError("p1 and p2 must differ")


def stage_scale(stage_index: int, total_stages: int,
                floor: float = STAGE_SCALE_FLOOR) -> float:
    """Linear shrink of the pattern diameter: 1.0 at stage 0 down to floor."""
    if not 0 <= stage_index < total_stages:
        raise ValueError("stage_index out of range")
    if total_stages == 1:
        return 1.0
    return 1.0 - (1.0 - floor) * stage_index / (total_stages - 1)


def feature_value(maps, shape, theta: SplitParams, pattern: FreakPattern,
                  scale: float = 1.0) -> float:
    """Difference of two map reads around the landmark's current estimate."""
    if not 0.0 < scale <= 1.0:
        raise ValueError("stage scale must lie in (0,1]")
    anchor = shape.coords[theta.landmark]
    pts = np.rint(anchor + scale * pattern.offsets[[theta.p1, theta.p2]]).astype(np.int64)
    v = maps.read(theta.landmark, pts[:, 0], pts[:, 1])
    return float(v[0] - v[1])


def gen_candidates(count: int, part_landmarks, pattern: FreakPattern,
                   tau_range=DEFAULT_TAU_RANGE, seed=0,
                   rng: np.random.Generator | None = None) -> list[SplitParams]:
    """Random split candidates: uniform landmark, distinct offset pair,
    uniform threshold.  Deterministic under seed (or an explicit rng)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    part_landmarks = np.asarray(part_landmarks, dtype=np.int64)
    if len(part_landmarks) == 0:
        raise ValueError("part_landmarks must be non-empty")
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xFE]))
    M = len(pattern)
    out = []
    for _ in range(count):
        l = int(rng.choice(part_landmarks))
        p1 = int(rng.integers(M))
        p2 = int(rng.integers(M - 1))
        if p2 >= p1:
            p2 += 1
        tau = float(rng.uniform(*tau_range))
        out.append(SplitParams(tau=tau, p1=p1, p2=p2, landmark=l))
    return out


def extract_pattern_values(maps, coords: np.ndarray, pattern: FreakPattern,
                           scale: float, landmarks=None) -> np.ndarray:
    """All pattern-point map reads for one face: (len(landmarks), M) array.

    Row i holds map l_i sampled at coords[l_i] + scale*offsets.  These
    cached reads are what candidate features are differenced from.
    """
    if landmarks is None:
        landmarks = np.arange(coords.shape[0])
    landmarks = np.asarray(landmarks, dtype=np.int64)
    pts = coords[landmarks, None, :] + scale * pattern.offsets[None, :, :]
    c = np.rint(pts).astype(np.int64)
    return maps.read(landmarks[:, None], c[..., 0], c[..., 1])


def extract_pattern_values_gray(image: np.ndarray, coords: np.ndarray,
                                pattern: FreakPattern, scale: float,
                                landmarks=None) -> np.ndarray:
    """Grayscale ablation: identical layout, single intensity grid for all
    landmarks."""
    if landmarks is None:
        landmarks = np.arange(coords.shape[0])
    landmarks = np.asarray(landmarks, dtype=np.int64)
    pts = coords[landmarks, None, :] + scale * pattern.offsets[None, :, :]
    return map_values(image, pts)
