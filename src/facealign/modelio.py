"""Deterministic binary container for trained cascade models.

Layout: magic, little-endian header length, JSON header (describes config,
schema, and every array's name/dtype/shape in payload order), raw array
payload, and a trailing sha256 over everything before it.  Each part of
each stage stores its landmarks and its packed forest (``FOREST_FIELDS``).
Identical models serialize to identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict

import numpy as np

from .cascade import FOREST_FIELDS, MODES, CascadeModel, PartModel, PartsStage, TrainConfig
from .errors import FINITE, INTEGER, NUMBER, POSITIVE, FormatError, is_a, one_of, require
from .features import FreakPattern
from .pose import Model3D
from .shapes import LandmarkSchema, Shape

MODEL_MAGIC = b"FACM"
MODEL_VERSION = 2


# the dtype and rank of every array save_model writes, which load_model
# requires; a part's arrays are keyed by field name
F8, I8, U1 = "<f8", "<i8", "|u1"
STORED = {
    "mean_shape/coords": (F8, 2), "mean_shape/visibility": (F8, 1),
    "mean_shape/annotated": (U1, 1), "pattern/offsets": (F8, 2), "pattern/rings": (I8, 1),
    "model3d/points": (F8, 2), "model3d/normals": (F8, 2), "model3d/distinct": (U1, 1),
    **{f: (I8, 1) for f in ("landmarks",) + FOREST_FIELDS},
    "node_tau": (F8, 1), "leaf_residual": (F8, 2), "leaf_visibility": (F8, 2),
}


def save_model(model: CascadeModel, path) -> None:
    arrays = {
        "mean_shape/coords": model.mean_shape.coords,
        "mean_shape/visibility": model.mean_shape.visibility,
        "mean_shape/annotated": model.mean_shape.annotated,
        "pattern/offsets": model.pattern.offsets,
        "pattern/rings": model.pattern.rings,
    }
    if model.model3d is not None:
        arrays["model3d/points"] = model.model3d.points
        arrays["model3d/normals"] = model.model3d.normals
        arrays["model3d/distinct"] = model.model3d.distinct.astype(np.uint8)
    stage_meta = []
    for si, stage in enumerate(model.stages):
        for pi, pm in enumerate(stage.parts):
            for f in ("landmarks",) + FOREST_FIELDS:
                arrays[f"s{si}/p{pi}/{f}"] = getattr(pm, f)
        stage_meta.append({
            "shrinkage": stage.shrinkage,
            "scale": stage.scale,
            "parts": len(stage.parts),
        })
    arrays = {name: np.ascontiguousarray(a, a.dtype.newbyteorder("<"))
              for name, a in arrays.items()}
    header = {
        "version": MODEL_VERSION,
        "init_mode": model.init_mode,
        "feature_mode": model.feature_mode,
        "config": asdict(model.config),
        "schema": model.schema.to_dict(),
        "pattern_diameter": model.pattern.base_diameter,
        "has_model3d": model.model3d is not None,
        "model3d_names": model.model3d.names if model.model3d is not None else [],
        "stages": stage_meta,
        "training_log": model.training_log,
        "arrays": [{"name": name, "dtype": a.dtype.str, "shape": list(a.shape)}
                   for name, a in arrays.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    body = (
        MODEL_MAGIC
        + struct.pack("<q", len(header_bytes))
        + header_bytes
        + b"".join(a.tobytes() for a in arrays.values())
    )
    digest = hashlib.sha256(body).digest()
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(digest)


# the header's list and object values; INTEGER and NUMBER refuse a bool
LIST, OBJECT = is_a(list, "a list"), is_a(dict, "an object")


def _field(record: dict, key: str, rule, where: str = "model header"):
    """record[key], or FormatError when the key is missing or its value
    fails rule."""
    if key not in record:
        raise FormatError(f"{where} has no {key}")
    return require(f"{where} {key}", record[key], rule, FormatError)


def load_model(path) -> CascadeModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MODEL_MAGIC) + 8 + 32:
        raise FormatError("truncated model file")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise FormatError("model checksum mismatch")
    if body[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise FormatError("bad model magic")
    (hlen,) = struct.unpack("<q", body[len(MODEL_MAGIC): len(MODEL_MAGIC) + 8])
    off = len(MODEL_MAGIC) + 8
    try:
        header = json.loads(body[off: off + hlen].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError among them
        raise FormatError(f"model header: {exc}") from None
    require("model header", header, OBJECT, FormatError)
    version = _field(header, "version", INTEGER)
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model version {version}")
    off += hlen
    arrays = {}
    try:
        for entry in _field(header, "arrays", LIST):
            dt = np.dtype(entry["dtype"])
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            nbytes = dt.itemsize * count
            arrays[entry["name"]] = np.frombuffer(
                body[off: off + nbytes], dtype=dt
            ).reshape(shape).copy()
            off += nbytes
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"model header arrays: {exc!r}") from None
    if off != len(body):
        raise FormatError("model payload length mismatch")

    def array(name, field=None):
        """Stored array name; FormatError unless it has the dtype and rank
        that STORED gives field, by default name."""
        if name not in arrays:
            raise FormatError(f"model payload has no array {name}")
        a = arrays[name]
        if (a.dtype.str, a.ndim) != STORED[field or name]:
            raise FormatError(f"stored {name} is a {a.ndim}-D {a.dtype} array")
        return a

    for name, allowed in MODES.items():
        require(f"model header {name}", header.get(name), one_of(allowed), FormatError)
    has_model3d = _field(header, "has_model3d", is_a(bool, "a boolean"))
    if header["init_mode"] == "3d" and not has_model3d:
        raise FormatError("model header init_mode is '3d' but the model stores no 3D model")
    schema = LandmarkSchema.from_dict(_field(header, "schema", OBJECT))
    try:
        config = TrainConfig(**_field(header, "config", OBJECT))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"model header config: {exc}") from None
    mean_shape = Shape(
        array("mean_shape/coords"), array("mean_shape/visibility"),
        array("mean_shape/annotated"),
    )
    if mean_shape.landmark_count != schema.landmark_count \
            or not np.isfinite(mean_shape.coords).all():
        raise FormatError(f"the stored mean shape must have the schema's "
                          f"{schema.landmark_count} landmarks, with finite coordinates")
    pattern = FreakPattern(
        array("pattern/offsets"), array("pattern/rings"),
        _field(header, "pattern_diameter", NUMBER),
    )
    model3d = None
    if has_model3d:
        model3d = Model3D(
            array("model3d/points"), array("model3d/normals"),
            array("model3d/distinct"),
            header.get("model3d_names", []),
        )
        if model3d.landmark_count != schema.landmark_count:
            raise FormatError(f"the stored 3D model has {model3d.landmark_count} landmarks, "
                              f"the schema has {schema.landmark_count}")
    stages = []
    for si, sm in enumerate(_field(header, "stages", LIST)):
        where = f"model header stage {si}"
        require(where, sm, OBJECT, FormatError)
        parts = [
            PartModel.from_arrays(
                array(f"s{si}/p{pi}/landmarks", "landmarks"),
                {f: array(f"s{si}/p{pi}/{f}", f) for f in FOREST_FIELDS},
            )
            for pi in range(_field(sm, "parts", INTEGER, where))
        ]
        shrinkage = _field(sm, "shrinkage", FINITE, where)
        scale = _field(sm, "scale", POSITIVE, where)
        try:
            stage = PartsStage(parts=parts, shrinkage=shrinkage, scale=scale)
        except (ValueError, IndexError) as exc:
            raise FormatError(f"stage {si}: {exc}") from None
        forest = stage.forest
        offset = max(forest.node_p1.max(initial=0), forest.node_p2.max(initial=0))
        if forest.landmarks.max(initial=0) >= schema.landmark_count or offset >= len(pattern):
            raise FormatError(f"stage {si}: landmarks must be below the schema's "
                              f"{schema.landmark_count} and pattern offsets below {len(pattern)}")
        stages.append(stage)
    return CascadeModel(
        stages=stages,
        init_mode=header["init_mode"],
        feature_mode=header["feature_mode"],
        schema=schema,
        mean_shape=mean_shape,
        pattern=pattern,
        config=config,
        model3d=model3d,
        training_log=_field(header, "training_log", LIST),
    )
