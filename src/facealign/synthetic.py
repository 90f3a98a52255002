"""Reproducible synthetic face corpora: random rigid poses plus low-rank
per-part deformations of the 3D model, with probability maps generated on
demand.  This stands in for real images plus an external landmark
detector.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import (HALF_WIDTH, NON_NEGATIVE, STRING, FormatError, NumericError, SchemaError,
                     at_least, check, is_finite, one_of, real_range, setting)
# synthesize stays importable here: facebench/tracing.py wraps it by this name
from .heatmaps import (
    FACE_SIZE,
    BlobMaps,
    ProbabilityMaps,
    SynthConfig,
    read_maps,
    sample_blobs,
    synthesize,
    write_maps,
)
# robust_init stays importable here: facebench/tracing.py wraps it by this name
from .pose import (Model3D, RigidPose, _rotations_ok, consensus_inits, euler_to_rotation,
                   robust_init)
from .shapes import Dataset, LandmarkSchema, Sample, Shape, save_dataset


@dataclass
class CorpusConfig:
    count: int = setting(100, at_least(1))
    seed: int = setting(0, at_least(0))
    tag: str = setting("synth", STRING)
    yaw_range: float = setting(40.0, HALF_WIDTH)       # degrees
    pitch_range: float = setting(25.0, HALF_WIDTH)
    roll_range: float = setting(25.0, HALF_WIDTH)
    scale_range: tuple[float, float] = (1.0, 1.3)
    shift_range: float = setting(6.0, HALF_WIDTH)      # pixels
    deform_magnitude: float = setting(4.0, NON_NEGATIVE)  # model units
    deform_seed: int = setting(12345, at_least(0))
    deform_style: str = setting("independent", one_of(("independent", "coupled")))
    # restrict per-part signs; None, the default, leaves them free
    sign_patterns: list[list[int]] | None = setting(None, (
        lambda p: p is None or isinstance(p, list) and all(
            isinstance(row, list) and row and all(map(is_finite, row)) for row in p),
        "a list of non-empty lists of finite numbers"))

    def __post_init__(self):
        check(self)
        self.scale_range = real_range("scale_range", self.scale_range, low=0.0)


def part_deform_modes(model: Model3D, schema: LandmarkSchema,
                      deform_seed: int) -> list[np.ndarray]:
    """One fixed random 3D displacement direction per landmark, grouped by
    part; shared by every face drawn from the same deform_seed."""
    rng = np.random.default_rng(np.random.SeedSequence([int(deform_seed), 0xD3F]))
    modes = []
    for p in range(schema.part_count):
        idx = schema.part_indices(p)
        m = rng.normal(size=(len(idx), 3))
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        modes.append(m)
    return modes


def _face_rng(cfg: CorpusConfig, i: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0xFACE, i]))


def _deform_coefficients(cfg: CorpusConfig, schema, rng) -> np.ndarray:
    P = schema.part_count
    if cfg.deform_style == "coupled":
        c = np.full(P, float(rng.normal()))
    else:
        c = rng.normal(size=P)
    if cfg.sign_patterns:
        pattern = np.asarray(cfg.sign_patterns[rng.integers(len(cfg.sign_patterns))],
                             dtype=np.float64)
        c = np.abs(c) * pattern
    return c


def generate_corpus(model: Model3D, schema: LandmarkSchema,
                    cfg: CorpusConfig) -> Dataset:
    """Deterministic dataset of projected deformed faces (no map files).

    Each face, in turn, draws from its own generator (_face_rng) its yaw,
    pitch and roll, scale, 2D shift and one deformation coefficient per
    part, in that order, and turns its angles into a rotation. Everything
    after that is computed once for the whole corpus: every landmark moved
    along its part's mode by deform_magnitude times its part's coefficient,
    the projection, visibility, bbox and pose translation. Each value is
    bitwise the one a face computed on its own gets. The corpus is checked
    once against the Shape, RigidPose and Sample rules (_corpus_samples);
    a face that breaks one raises the error its constructor raises.
    """
    for pattern in cfg.sign_patterns or ():
        if len(pattern) != schema.part_count:
            raise SchemaError(f"sign pattern {pattern} has {len(pattern)} entries, "
                              f"the schema has {schema.part_count} parts")
    mode = np.empty((schema.landmark_count, 3))
    for p, m in enumerate(part_deform_modes(model, schema, cfg.deform_seed)):
        mode[schema.part_indices(p)] = m
    n = cfg.count
    R, s = np.empty((n, 3, 3)), np.empty(n)
    shift, coeff = np.empty((n, 2)), np.empty((n, schema.part_count))
    for i in range(n):
        rng = _face_rng(cfg, i)
        yaw, pitch, roll = np.radians(rng.uniform(
            [-cfg.yaw_range, -cfg.pitch_range, -cfg.roll_range],
            [cfg.yaw_range, cfg.pitch_range, cfg.roll_range],
        ))
        R[i] = euler_to_rotation(yaw, pitch, roll)
        s[i] = rng.uniform(*cfg.scale_range)
        shift[i] = rng.uniform(-cfg.shift_range, cfg.shift_range, size=2)
        coeff[i] = _deform_coefficients(cfg, schema, rng)
    Rt = R.transpose(0, 2, 1)
    pts = model.points + (cfg.deform_magnitude * coeff[:, schema.parts])[..., None] * mode
    center = np.array([FACE_SIZE / 2.0, FACE_SIZE / 2.0])
    coords = (center + shift)[:, None] + s[:, None, None] * (pts @ Rt)[..., :2]
    vis = ((model.normals @ Rt)[..., 2] <= 0.0).astype(np.float64)
    lo = coords.min(axis=1)
    span = coords.max(axis=1) - lo
    bboxes = np.column_stack([lo - 0.05 * span, 1.1 * span])
    focal = float(FACE_SIZE)
    translations = np.column_stack([shift / s[:, None], focal / s])
    annotated = np.ones(vis.shape, dtype=np.uint8)
    samples = _corpus_samples(cfg.tag, coords, vis, annotated, bboxes, R, translations, focal)
    return Dataset(samples, schema)


def _unchecked(cls):
    """cls's constructor without its __post_init__: the instance holds its
    fields as given, unchecked and unconverted."""
    def build(**fields):
        obj = object.__new__(cls)
        obj.__dict__.update(fields)
        return obj
    return build


def _corpus_samples(tag: str, coords, vis, annotated, bboxes, R, translations,
                    focal: float) -> list[Sample]:
    """Face i of the stacked (n, ...) arrays as the Sample f"{tag}_{i:06d}".

    The arrays are checked once against every rule of the Shape, RigidPose
    and Sample constructors: finite orthonormal rotations, finite
    translations with positive depth, a finite positive focal length,
    visibility in [0, 1], binary annotated flags, one landmark count, and
    finite bboxes with positive width and height. The faces are then built
    without those checks. The first face that breaks a rule, if any, is
    built with the checked constructors, which raise its error.
    """
    boxes = bboxes.tolist()

    def face(i, shape, pose, sample):
        return sample(image_ref=f"{tag}_{i:06d}",
                      ground_truth=shape(coords=coords[i], visibility=vis[i],
                                         annotated=annotated[i]),
                      bbox=tuple(boxes[i]), initial=None,
                      pose=pose(rotation=R[i], translation=translations[i], focal=focal))

    ok = (_rotations_ok(R) & np.isfinite(translations).all(axis=1) & (translations[:, 2] > 0)
          & ((vis >= 0) & (vis <= 1)).all(axis=1)
          & ((annotated == 0) | (annotated == 1)).all(axis=1)
          & np.isfinite(bboxes).all(axis=1) & (bboxes[:, 2] > 0) & (bboxes[:, 3] > 0)
          & (is_finite(focal) and focal > 0)
          & (coords.shape == (*vis.shape, 2) and annotated.shape == vis.shape))
    bad = np.flatnonzero(~ok)
    if len(bad):
        face(int(bad[0]), Shape, RigidPose, Sample)
    shape, pose, sample = _unchecked(Shape), _unchecked(RigidPose), _unchecked(Sample)
    return [face(i, shape, pose, sample) for i in range(len(boxes))]


# faces whose blob centres a SyntheticMapSource keeps: about 1.5 KB each,
# so at most about 6 MB
CENTRE_STORE_LIMIT = 4096


class SyntheticMapSource:
    """On-demand synthetic probability maps, deterministic per sample.

    A face's blob centres are drawn from its ground truth, seeded by its
    image_ref, on its first request. The source keeps them, read-only,
    for its first CENTRE_STORE_LIMIT distinct faces, under everything the
    draw reads: the image_ref and the ground-truth coordinates, visibility
    and annotated flags. Faces past the limit are drawn on every request.
    Each request returns a fresh BlobMaps over the centres, evaluated only
    where it is read, so no raster outlives a request. An augmented
    sample's occluded landmarks lose their maps through the
    occluded-dropout channel, since its visibility differs from its
    source's.
    """

    def __init__(self, cfg: SynthConfig, seed: int,
                 size: tuple[int, int] = (FACE_SIZE, FACE_SIZE)):
        self.cfg = cfg
        self.seed = int(seed)
        self.size = size
        self._centres: dict[tuple, np.ndarray] = {}

    def maps_for(self, sample) -> BlobMaps:
        gt = sample.ground_truth
        key = (sample.image_ref, gt.coords.tobytes(), gt.visibility.tobytes(),
               gt.annotated.tobytes())
        centres = self._centres.get(key)
        if centres is None:
            centres = sample_blobs(sample, self.cfg, self.seed, self.size).centres
            centres.flags.writeable = False
            if len(self._centres) < CENTRE_STORE_LIMIT:
                self._centres[key] = centres
        return BlobMaps(centres, self.cfg.peak_sigma, self.cfg.floor, self.size)


class FileMapSource:
    """Maps stored one file per image under a directory, read as they are.

    With a schema, a file whose landmark count differs from the schema's
    raises FormatError.
    """

    def __init__(self, directory, schema: LandmarkSchema | None = None):
        self.directory = directory
        self.schema = schema

    def path_for(self, sample) -> str:
        return os.path.join(self.directory, f"{sample.image_ref}.fapm")

    def maps_for(self, sample) -> ProbabilityMaps:
        path = self.path_for(sample)
        maps = read_maps(path)
        if self.schema is not None and maps.landmark_count != self.schema.landmark_count:
            raise FormatError(f"{path} holds {maps.landmark_count} landmark maps, "
                              f"the schema has {self.schema.landmark_count}")
        return maps


def write_corpus(dataset: Dataset, synth_cfg: SynthConfig, out_dir,
                 corpus_cfg: CorpusConfig, write_map_files: bool = True) -> None:
    """Materialize a corpus: annotations, optional map files, manifest.
    Map files are synthesized with the corpus seed, rendered in float32
    and validated once; a face whose maps no reader would accept raises
    NumericError naming its file, which is then not written."""
    os.makedirs(out_dir, exist_ok=True)
    save_dataset(dataset, os.path.join(out_dir, "annotations.jsonl"))
    if write_map_files:
        files = FileMapSource(os.path.join(out_dir, "maps"))
        os.makedirs(files.directory, exist_ok=True)
        for s in dataset.samples:
            path = files.path_for(s)
            blobs = sample_blobs(s, synth_cfg, corpus_cfg.seed)
            try:
                maps = ProbabilityMaps(blobs.raster(np.float32))
            except NumericError as exc:
                raise NumericError(f"{path}: {exc}") from None
            write_maps(maps, path)
    manifest = {
        "count": len(dataset),
        "landmarks": dataset.schema.landmark_count,
        "synth": {
            "peak_sigma": synth_cfg.peak_sigma,
            "coordinate_noise_sigma": synth_cfg.coordinate_noise_sigma,
            "outlier_rate": synth_cfg.outlier_rate,
            "occluded_dropout": synth_cfg.occluded_dropout,
            "floor": synth_cfg.floor,
        },
        "seed": corpus_cfg.seed,
        "maps_written": write_map_files,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def attach_pose_initials(dataset: Dataset, model: Model3D, map_source,
                         Z: int = 25, subset_size: int = 6, seed: int = 0) -> int:
    """Run the consensus initializer on every sample without an initial,
    storing shape + pose; faces are fitted a chunk at a time
    (pose.consensus_inits). Errors from map_source propagate.

    Returns the number of samples on which every hypothesis failed (left
    for the mean-shape fallback downstream).
    """
    todo = [s for s in dataset.samples if s.initial is None]
    results = consensus_inits(todo, map_source.maps_for, model, Z, subset_size, seed)
    for s, res in zip(todo, results):
        if res is not None:
            s.initial, s.pose = res.shape, res.pose
    return sum(res is None for res in results)
