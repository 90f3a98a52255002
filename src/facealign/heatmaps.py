"""Per-landmark probability maps: smoothing, peaks, file I/O and a
synthetic generator that stands in for an external landmark detector.

Everything downstream reads a map object in two ways only: its
per-landmark peaks (``peaks()``) and its values at integer pixels
(``read(landmarks, x, y)``). Maps from files are rasters
(ProbabilityMaps) and both queries gather from the raster. Synthetic maps
(BlobMaps) keep only their blob centres and are evaluated at the pixels
read; they build a raster only when one is asked for, in the dtype asked
(float32 for a map file), evaluating each blob only in the box where it
shows in that dtype. A synthetic map
source (synthetic.SyntheticMapSource) draws a face's centres once and
keeps them read-only, handing out a fresh BlobMaps per request, so a
raster lives no longer than the request that built it. GrayMaps wraps
either kind as the grayscale ablation's single image, the max over all
maps, read at the same points.

stack_maps turns the maps of F faces into one map object with a leading
face axis: peaks() is (F, L, 2), and read's arguments broadcast to a
shape whose leading axis holds one entry per face. BlobMaps that share
sigma, floor and size stack their (F, L, 2) centres; any other maps
(rasters, GrayMaps) stay a list (MapStack) that is read face by face, so
no raster is copied. Either evaluates each value with the per-face
formula, so a stacked read is bitwise the per-face reads.

Map values are unnormalized likelihoods; synthetic blobs have peak 1.
Out-of-bounds reads return 0 everywhere in this package. ``smooth``
imports scipy.ndimage when it is called, so importing the package does
not.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import NON_NEGATIVE, UNIT, FormatError, NumericError, check, is_finite, setting

MAP_MAGIC = b"FAPM"
MAP_VERSION = 1

FACE_SIZE = 160  # face crops are resized so the face region is 160x160

# per float dtype, its bits as an unsigned integer and the bits of +inf: a
# value whose bits are below them is +0.0 or positive finite
_INF_BITS = {np.dtype("<f4"): ("<u4", 0x7F800000), np.dtype("<f8"): ("<u8", 0x7FF0000000000000)}


@dataclass
class ProbabilityMaps:
    """L stacked HxW likelihood grids, indexed [landmark][row, col]."""

    maps: np.ndarray  # (L, H, W) float32/float64, finite, >= 0

    def __post_init__(self):
        self.maps = np.asarray(self.maps)
        if self.maps.ndim != 3:
            raise FormatError("maps must be a (L, H, W) array")
        # one integer pass accepts a raster of +0.0 and positive finite
        # values; -0.0, bad values and other dtypes take min and max
        bits, inf = _INF_BITS.get(self.maps.dtype, (None, 0))
        if bits and self.maps.size and self.maps.view(bits).max() < inf:
            return
        # min and max are NaN where any value is, and infinite where any is
        lo, hi = (self.maps.min(), self.maps.max()) if self.maps.size else (0, 0)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise NumericError("non-finite probability map value")
        if lo < 0:
            raise FormatError("negative probability map value")

    @property
    def landmark_count(self) -> int:
        return self.maps.shape[0]

    @property
    def face_size(self) -> tuple[int, int]:
        return self.maps.shape[1], self.maps.shape[2]

    def peaks(self) -> np.ndarray:
        """Per-landmark argmax as (x, y) pairs; ties go to the row-major-first cell."""
        L, H, W = self.maps.shape
        idx = np.argmax(self.maps.reshape(L, -1), axis=1)
        return np.stack([idx % W, idx // W], axis=1).astype(np.float64)

    def read(self, landmarks, x, y) -> np.ndarray:
        """Values of maps[landmarks] at integer pixels (x, y), broadcast
        together; pixels off the map read 0."""
        return _gather(self.maps, landmarks, x, y)


def _gather(grids: np.ndarray, landmarks, x, y) -> np.ndarray:
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    H, W = grids.shape[1:]
    # as unsigned integers, negative pixels lie past every map edge
    ok = (x.view(np.uint64) < W) & (y.view(np.uint64) < H)
    idx = np.where(ok, y * W + x, 0) + np.asarray(landmarks) * (H * W)
    # one flat gather for every read; out-of-bounds reads become 0
    return (grids.reshape(-1).take(idx) * ok).astype(np.float64, copy=False)


class BlobMaps:
    """Synthetic maps held as one unit-peak Gaussian blob per landmark,
    max-ed with a constant floor and evaluated only at the pixels read.

    centres are one face's (L, 2) or, from stack_maps, F faces' (F, L, 2).
    A NaN centre marks a flat floor map. Reads are bitwise equal to reads
    from the raster that ``maps`` builds, because both evaluate the blob
    in _blob's order.
    """

    def __init__(self, centres: np.ndarray, sigma: float, floor: float,
                 size: tuple[int, int]):
        centres = np.asarray(centres, dtype=np.float64)
        self.centres = centres if centres.ndim == 3 else centres.reshape(-1, 2)
        self.sigma = sigma
        self.floor = floor
        self.size = size
        self._raster = None

    @property
    def landmark_count(self) -> int:
        return self.centres.shape[-2]

    @property
    def face_size(self) -> tuple[int, int]:
        return self.size

    def read(self, landmarks, x, y) -> np.ndarray:
        """Values at integer pixels (x, y) of the landmarks' maps, broadcast
        together, with a leading face axis when stacked; pixels off the
        map read 0."""
        x, y = np.asarray(x), np.asarray(y)
        if self.centres.ndim == 3:
            nd = max(np.ndim(landmarks), x.ndim, y.ndim)
            faces = np.arange(len(self.centres)).reshape((-1,) + (1,) * (nd - 1))
            return self._values(self.centres[faces, landmarks], x, y)
        return self._values(self.centres[landmarks], x, y)

    def _values(self, c, x, y) -> np.ndarray:
        """The maps of centres c at pixels (x, y), broadcast together."""
        H, W = self.size
        v = np.exp(-((x - c[..., 0]) ** 2 + (y - c[..., 1]) ** 2) / (2.0 * self.sigma**2))
        # fmax keeps the floor where a NaN centre makes the blob NaN
        v = np.fmax(self.floor, v)
        return np.where((x >= 0) & (x < W) & (y >= 0) & (y < H), v, 0.0)

    def peaks(self) -> np.ndarray:
        """Per-landmark argmax as (x, y) pairs, shaped like centres, as the
        raster's peaks().

        The blob peaks at the in-bounds pixel nearest its centre, so only a
        4x4 window around floor(centre), clipped to the map, is evaluated.
        Ties go to the row-major-first pixel; a map whose best value is the
        floor peaks at (0, 0).
        """
        H, W = self.size
        flat = self.centres.reshape(-1, 2)
        # a NaN (flat) centre reads its window at the origin
        corner = np.floor(np.nan_to_num(flat)).astype(np.int64) - 1
        k = np.arange(16)
        x = np.minimum(np.clip(corner[:, :1], 0, max(W - 4, 0)) + k % 4, W - 1)
        y = np.minimum(np.clip(corner[:, 1:], 0, max(H - 4, 0)) + k // 4, H - 1)
        v = self._values(flat[:, None], x, y)
        rows, best = np.arange(len(flat)), np.argmax(v, axis=1)
        out = np.stack([x[rows, best], y[rows, best]], axis=1).astype(np.float64)
        out[~(v[rows, best] > self.floor)] = 0.0
        return out.reshape(self.centres.shape)

    def raster(self, dtype) -> np.ndarray:
        """One face's (L, H, W) raster in dtype, bitwise the full-grid float64
        raster cast to dtype. A drawn blob is evaluated only in the box where
        it can exceed max(floor, half dtype's smallest subnormal); outside it
        pixels round to max(floor, 0.0), and a flat map is floor. A non-finite
        centre coordinate, or 2 sigma**2 of 0 or inf, takes the whole grid.
        Values past dtype's range become inf, which ProbabilityMaps refuses."""
        H, W = self.size
        with np.errstate(all="ignore"):
            c, two_var = self.centres, 2.0 * self.sigma**2
            out = np.full((self.landmark_count, H, W), np.maximum(self.floor, 0.0), dtype)
            flat = np.isnan(c[:, 0])
            out[flat] = self.floor
            # the box's half side: where the blob is 1e-9 (relative) below
            # that bound, which exp's rounding error never crosses
            t = max(self.floor, float(np.finfo(dtype).smallest_subnormal) / 2)
            r = np.sqrt(max(two_var * (1e-9 - np.log(t)), 0.0))
            lo, hi = np.clip([np.ceil(c - r), np.floor(c + r) + 1.0], 0, (W, H)).astype(np.int64)
            whole = ~np.isfinite(c).all(axis=1) | (not 0.0 < two_var < np.inf)
            lo[whole], hi[whole] = 0, (W, H)
            for l in np.flatnonzero(~flat):
                (x0, y0), (x1, y1) = lo[l], hi[l]
                np.maximum(self.floor, _blob(x0, x1, y0, y1, *c[l], self.sigma),
                           out=out[l, y0:y1, x0:x1])
        return out

    @property
    def maps(self) -> np.ndarray:
        """One face's (L, H, W) float64 raster, raster(np.float64), built on
        first use. Its box spans the whole map unless floor > 0."""
        if self._raster is None:
            self._raster = self.raster(np.float64)
        return self._raster


class MapStack:
    """The maps of F faces, any kind and each held as it is, read as one
    map object with a leading face axis; ``faces`` picks, per entry of
    that axis, which of ``maps`` it reads (all of them in order by
    default). A read gathers from each face's maps in turn."""

    def __init__(self, maps: list, faces=None):
        self.members = maps
        self.faces = np.arange(len(maps)) if faces is None else np.asarray(faces)

    @property
    def landmark_count(self) -> int:
        return self.members[0].landmark_count

    def peaks(self) -> np.ndarray:
        return np.stack([m.peaks() for m in self.members])[self.faces]

    def read(self, landmarks, x, y) -> np.ndarray:
        """Values at integer pixels (x, y) of the landmarks' maps, broadcast
        together to a shape whose leading axis has one entry per face."""
        landmarks, x, y = np.broadcast_arrays(landmarks, x, y)
        out = np.empty(x.shape)
        for f, m in enumerate(self.members):
            at = self.faces == f
            if at.any():
                out[at] = m.read(landmarks[at], x[at], y[at])
        return out


def stack_maps(maps_list: list, faces=None):
    """One map object over the maps of F faces, with a leading face axis:
    entry i reads maps_list[faces[i]], or maps_list[i] when faces is None.
    BlobMaps that share sigma, floor and size stack their centres; other
    maps become a MapStack. A lone face's maps, with faces None, are
    returned as they are, without a face axis.

    FormatError when the faces' landmark counts differ.
    """
    if len({m.landmark_count for m in maps_list}) > 1:
        raise FormatError("the maps read together must share a landmark count")
    if faces is None and len(maps_list) == 1:
        return maps_list[0]
    first = maps_list[0]
    if all(type(m) is BlobMaps
           and (m.sigma, m.floor, m.size) == (first.sigma, first.floor, first.size)
           for m in maps_list):
        centres = np.stack([m.centres for m in maps_list])
        return BlobMaps(centres if faces is None else centres[faces],
                        first.sigma, first.floor, first.size)
    return MapStack(maps_list, faces)


class GrayMaps:
    """The grayscale ablation's one image: at each pixel, the max over all
    landmark maps of ``landmark_maps`` (BlobMaps or ProbabilityMaps),
    evaluated only at the pixels read.

    Every landmark reads the same image, as the pixel-difference features
    of Kazemi & Sullivan (CVPR 2014) do. A max is exact, so reads are
    bitwise a gather from ``landmark_maps.maps.max(axis=0)``. Faces'
    GrayMaps stack as a MapStack: a read of every face's landmark maps at
    once holds L values per point read, megabytes for a chunk of faces.
    """

    def __init__(self, landmark_maps):
        self.landmark_maps = landmark_maps

    @property
    def landmark_count(self) -> int:
        return self.landmark_maps.landmark_count

    def read(self, landmarks, x, y) -> np.ndarray:
        """Max over all maps at integer pixels (x, y), whichever landmarks
        ask; pixels off the map read 0."""
        x, y = np.asarray(x), np.asarray(y)
        every = np.arange(self.landmark_maps.landmark_count)
        every = every.reshape((-1,) + (1,) * max(x.ndim, y.ndim))
        return self.landmark_maps.read(every, x, y).max(axis=0)


# a blob's exponent divides by 2 sigma**2, which must not overflow
SIGMA = (lambda v: is_finite(v) and v > 0 and 2.0 * float(v) * float(v) < float("inf"),
         "a finite number > 0 whose 2 sigma**2 is finite")


@dataclass
class SynthConfig:
    """Controls for the synthetic probability-map generator."""

    peak_sigma: float = setting(3.0, SIGMA)
    coordinate_noise_sigma: float = setting(0.0, NON_NEGATIVE)
    outlier_rate: float = setting(0.0, UNIT)
    occluded_dropout: float = setting(0.0, UNIT)
    floor: float = setting(0.0, NON_NEGATIVE)

    __post_init__ = check


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def smooth(maps: ProbabilityMaps, sigma: float) -> ProbabilityMaps:
    """Convolve each grid with a normalized 2D Gaussian (truncated at 3*sigma,
    reflective borders)."""
    # scipy.ndimage takes about 0.3 s and 25 MB to import, and no pipeline path smooths
    from scipy.ndimage import correlate1d

    if sigma <= 0:
        raise ValueError("sigma must be positive")
    k = _gaussian_kernel(sigma)
    data = maps.maps.astype(np.float64, copy=False)
    out = correlate1d(data, k, axis=1, mode="reflect")
    out = correlate1d(out, k, axis=2, mode="reflect")
    return ProbabilityMaps(out)


def _blob(x0, x1, y0, y1, cx, cy, sigma):
    """The unit-peak blob at pixels [x0, x1) x [y0, y1), (y1 - y0, x1 - x0)."""
    ys = np.arange(y0, y1, dtype=np.float64)[:, None]
    xs = np.arange(x0, x1, dtype=np.float64)[None, :]
    return np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma**2))


def synth_rng(seed: int, sample_key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), 0x11A9, int(sample_key)]))


def draw_blobs(coords: np.ndarray, visibility: np.ndarray,
               annotated: np.ndarray, cfg: SynthConfig,
               rng: np.random.Generator,
               size: tuple[int, int] = (FACE_SIZE, FACE_SIZE)) -> BlobMaps:
    """Unit-peak Gaussian blobs around ground-truth landmark positions.

    Per landmark: the peak is jittered by coordinate noise, relocated
    uniformly with probability outlier_rate, and (for occluded landmarks)
    flattened to the floor with probability occluded_dropout.  Unannotated
    landmarks get flat floor maps.
    """
    H, W = size
    L = len(coords)
    centres = np.full((L, 2), np.nan)
    for l in range(L):
        # consume the random stream identically regardless of branch taken,
        # so a landmark's maps do not depend on its neighbours' flags; u is
        # the outlier test, the outlier's position and the dropout test
        noise = rng.standard_normal(2) * cfg.coordinate_noise_sigma
        u = rng.random(4)
        if not annotated[l]:
            continue
        if visibility[l] < 0.5 and u[3] < cfg.occluded_dropout:
            continue
        if u[0] < cfg.outlier_rate:
            centres[l] = u[1] * (W - 1), u[2] * (H - 1)
        else:
            centres[l] = coords[l, 0] + noise[0], coords[l, 1] + noise[1]
    return BlobMaps(centres, cfg.peak_sigma, cfg.floor, size)


def synthesize_from_shape(coords: np.ndarray, visibility: np.ndarray,
                          annotated: np.ndarray, cfg: SynthConfig,
                          rng: np.random.Generator,
                          size: tuple[int, int] = (FACE_SIZE, FACE_SIZE)) -> ProbabilityMaps:
    """The raster of draw_blobs."""
    return ProbabilityMaps(draw_blobs(coords, visibility, annotated, cfg, rng, size).maps)


def sample_blobs(sample, cfg: SynthConfig, seed: int,
                 size: tuple[int, int] = (FACE_SIZE, FACE_SIZE)) -> BlobMaps:
    """Deterministic synthetic blob maps for one sample under (seed, sample)."""
    gt = sample.ground_truth
    rng = synth_rng(seed, zlib.crc32(sample.image_ref.encode("utf-8")))
    return draw_blobs(gt.coords, gt.visibility, gt.annotated, cfg, rng, size)


def synthesize(sample, cfg: SynthConfig, seed: int,
               size: tuple[int, int] = (FACE_SIZE, FACE_SIZE)) -> ProbabilityMaps:
    """The raster of sample_blobs."""
    return ProbabilityMaps(sample_blobs(sample, cfg, seed, size).maps)


def write_maps(maps: ProbabilityMaps, path) -> None:
    """Write maps as a .fapm file: a header, then little-endian float32 in C
    order. A little-endian float32 C-contiguous raster is written as it
    is, with no copy; any other is cast once. A value past float32's
    range raises NumericError naming path before the file is opened."""
    L, H, W = maps.maps.shape
    try:
        with np.errstate(over="raise"):
            data = np.ascontiguousarray(maps.maps, dtype="<f4")
    except FloatingPointError:
        raise NumericError(f"{path}: probability map value past the float32 range") from None
    with open(path, "wb") as fh:
        fh.write(MAP_MAGIC + struct.pack("<iiii", MAP_VERSION, L, H, W))
        fh.write(data)


def read_maps(path) -> ProbabilityMaps:
    """The maps of a .fapm file, every error naming path. The header and
    the file's size are checked first; the payload is then mapped
    read-only and validated in place, with no copy.

    The raster is a read-only view of the mapping, which lives as long as
    the raster or any view of it and keeps one duplicated file descriptor
    open. The mapping follows the file: a held raster sees a rewrite in
    place unvalidated, and truncating the file while its raster is held
    kills the process with SIGBUS at the next read of a lost page. A file
    replaced by a rename leaves held rasters as they were."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(MAP_MAGIC) + 16)
            if len(head) < len(MAP_MAGIC) + 16:
                raise FormatError("truncated map file header")
            if head[: len(MAP_MAGIC)] != MAP_MAGIC:
                raise FormatError("bad map file magic")
            version, L, H, W = struct.unpack("<iiii", head[len(MAP_MAGIC):])
            if version != MAP_VERSION:
                raise FormatError(f"unsupported map file version {version}")
            if L <= 0 or H <= 0 or W <= 0:
                raise FormatError("bad map file dimensions")
            expected = L * H * W * 4
            # the size check comes before the mapping a bad header would size
            size = os.fstat(fh.fileno()).st_size - len(head)
            if size != expected:
                raise FormatError(f"map payload has {size} bytes, header implies {expected}")
            try:
                data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError) as exc:
                raise FormatError(f"cannot map the payload: {exc}") from None
        maps = np.frombuffer(data, "<f4", L * H * W, len(head)).reshape(L, H, W)
        return ProbabilityMaps(maps)
    except (FormatError, NumericError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
