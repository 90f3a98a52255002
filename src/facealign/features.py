"""Shape-indexed split features: pixel-pair differences on probability
maps, sampled from a concentric retina-style pattern anchored at the
current landmark estimate.  The pattern shrinks linearly over the cascade
stages so late stages probe closer to the landmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import POSITIVE, FormatError, NumericError, open_text, require

STAGE_SCALE_FLOOR = 0.2
DEFAULT_TAU_RANGE = (-0.3, 0.3)


@dataclass
class FreakPattern:
    """Sampling offsets arranged in concentric rings around the origin."""

    offsets: np.ndarray  # (M, 2) pixel offsets
    rings: np.ndarray    # (M,) ring id (0 = outermost)
    base_diameter: float

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.float64).reshape(-1, 2)
        try:
            self.rings = np.asarray(self.rings, dtype=np.int64).reshape(-1)
        except OverflowError:
            raise FormatError("ring ids must be 64-bit integers") from None
        if len(self.offsets) < 2:
            # a split test differences two distinct offsets
            raise FormatError(f"pattern needs at least 2 offsets, not {len(self.offsets)}")
        if len(self.rings) != len(self.offsets):
            raise FormatError("ring ids must match offsets")
        require("pattern diameter", self.base_diameter, POSITIVE, FormatError)
        if not np.isfinite(self.offsets).all():
            raise FormatError("pattern offsets must be finite")
        radius = np.linalg.norm(self.offsets, axis=1).max()
        if radius > self.base_diameter / 2.0 + 1e-6:
            raise FormatError("offset outside base diameter")

    def __len__(self) -> int:
        return len(self.offsets)

    @classmethod
    def load(cls, path) -> "FreakPattern":
        diameter = None
        rings, offs = [], []
        with open_text(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                tok = line.split()
                fields = 2 if tok[0] == "diameter" else 3
                if len(tok) != fields:
                    raise FormatError(f"pattern line needs {fields} fields: {line!r}")
                try:
                    if fields == 2:
                        diameter = float(tok[1])
                    else:
                        rings.append(int(tok[0]))
                        offs.append([float(tok[1]), float(tok[2])])
                except ValueError:
                    raise FormatError(f"pattern line holds a non-number: {line!r}") from None
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


def draw_candidates(count: int, part_size: int, pattern_size: int,
                    tau_range, rng: np.random.Generator):
    """``count`` random split candidates as arrays ``(lm, p1, p2, tau)``:
    a uniform part-local landmark row, a distinct offset pair and a
    uniform threshold, drawn one candidate after the other in that order.

    The values and the generator's final state are those of the scalar
    ``integers``/``uniform`` loop (``_draw_loop``); a PCG64 generator
    draws them in one ``random_raw`` block instead (``_draw_raw``).
    """
    lo, hi = tau_range
    if (type(rng.bit_generator) is np.random.PCG64 and count >= 1 and part_size >= 1
            and 2 <= pattern_size < _U32 and part_size < _U32
            and math.isfinite(float(hi) - float(lo))):
        out = _draw_raw(count, part_size, pattern_size, float(lo), float(hi),
                        rng.bit_generator)
        if out is not None:
            return out
    return _draw_loop(count, part_size, pattern_size, tau_range, rng)


_U32 = 1 << 32
_LOW32 = np.uint64(0xFFFFFFFF)


def _draw_raw(count: int, part_size: int, pattern_size: int, lo: float, hi: float,
              bit_generator: np.random.PCG64):
    """draw_candidates decoded from raw PCG64 words, or None, with the
    state restored, when the loop would have rejected and redrawn a number.

    numpy's scalar ``integers(n)`` takes nothing for n = 1 and otherwise
    one ``next_uint32``: the low half of a fresh 64-bit word, whose high
    half is buffered for the next one (``has_uint32``/``uinteger``). It
    maps u to ``(u * n) >> 32``, and redraws when the low 32 bits of
    ``u * n`` fall below ``(2**32 - n) % n``. ``uniform(lo, hi)`` takes one
    whole word w, leaves the buffer alone and returns
    ``lo + (hi - lo) * ((w >> 11) * 2**-53)``.
    """
    # the draws that take a 32-bit number, in the loop's order per candidate
    sizes = [n for n in (part_size, pattern_size, pattern_size - 1) if n > 1]
    k = len(sizes)
    start = bit_generator.state
    buffered = start["has_uint32"]
    n32 = k * count
    # the 32-bit draws take the buffered half, then fresh words two halves
    # at a time; each candidate's uniform takes the word after its 32-bit draws
    words32 = (n32 - buffered + 1) // 2
    j = np.arange(words32)
    c = np.arange(1, count + 1)
    raw = bit_generator.random_raw(words32 + count)
    w32 = raw[j + (buffered + 2 * j) // k]
    w64 = raw[(c * k - buffered + 1) // 2 + c - 1]
    halves = np.empty(buffered + 2 * words32, dtype=np.uint64)
    halves[:buffered] = start["uinteger"]
    halves[buffered::2] = w32 & _LOW32
    halves[buffered + 1::2] = w32 >> np.uint64(32)
    m = halves[:n32].reshape(count, k) * np.array(sizes, dtype=np.uint64)
    threshold = np.array([(_U32 - n) % n for n in sizes], dtype=np.uint64)
    if np.any((m & _LOW32) < threshold):
        bit_generator.state = start
        return None
    end = bit_generator.state
    end["has_uint32"] = (n32 - buffered) % 2
    if words32:
        end["uinteger"] = int(w32[-1] >> np.uint64(32))
    bit_generator.state = end
    cols = iter((m >> np.uint64(32)).astype(np.int64).T)
    zero = np.zeros(count, dtype=np.int64)
    lm = next(cols) if part_size > 1 else zero
    p1 = next(cols)
    b = next(cols) if pattern_size > 2 else zero
    unit = (w64 >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
    return lm, p1, b + (b >= p1), lo + (hi - lo) * unit


def _draw_loop(count: int, part_size: int, pattern_size: int, tau_range,
               rng: np.random.Generator):
    """draw_candidates one scalar draw at a time, for any bit generator."""
    lm = np.empty(count, dtype=np.int64)
    p1 = np.empty(count, dtype=np.int64)
    p2 = np.empty(count, dtype=np.int64)
    tau = np.empty(count)
    integers, uniform = rng.integers, rng.uniform
    lo, hi = tau_range
    for c in range(count):
        lm[c] = integers(part_size)
        a = p1[c] = integers(pattern_size)
        b = integers(pattern_size - 1)
        p2[c] = b + 1 if b >= a else b
        tau[c] = uniform(lo, hi)
    return lm, p1, p2, tau


def gen_candidates(count: int, part_landmarks, pattern: FreakPattern,
                   tau_range=DEFAULT_TAU_RANGE, seed=0,
                   rng: np.random.Generator | None = None) -> list[SplitParams]:
    """``draw_candidates`` as SplitParams over the global landmark ids of
    ``part_landmarks``.  Deterministic under seed (or an explicit rng)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    part_landmarks = np.asarray(part_landmarks, dtype=np.int64)
    if len(part_landmarks) == 0:
        raise ValueError("part_landmarks must be non-empty")
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xFE]))
    lm, p1, p2, tau = draw_candidates(count, len(part_landmarks), len(pattern),
                                      tau_range, rng)
    return [SplitParams(tau=float(t), p1=int(a), p2=int(b), landmark=int(part_landmarks[l]))
            for l, a, b, t in zip(lm, p1, p2, tau)]


def extract_pattern_values(maps, coords: np.ndarray, pattern: FreakPattern,
                           scale: float) -> np.ndarray:
    """All pattern-point map reads for one face, (L, 2) coords -> (L, M),
    or for a stack of F faces' maps (heatmaps.stack_maps), (F, L, 2) ->
    (F, L, M).

    Row l holds map l sampled at coords[l] + scale*offsets.  These
    cached reads are what candidate features are differenced from.
    NumericError when the rounded points' squares sum to 2**63 squared or
    more, as they do when a point is not finite or does not fit an int64
    pixel.
    """
    pts = coords[..., None, :] + scale * pattern.offsets
    c = np.rint(pts)
    # one call bounds every |c| by the root of the sum; NaN fails the test
    if not np.vdot(c, c) < 2.0**126:
        raise NumericError("landmark coordinates put a pattern point off the int64 pixel range")
    c = c.astype(np.int64)
    return maps.read(np.arange(coords.shape[-2])[:, None], c[..., 0], c[..., 1])
