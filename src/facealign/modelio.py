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
from .errors import FormatError
from .features import FreakPattern
from .pose import Model3D
from .shapes import LandmarkSchema, Shape

MODEL_MAGIC = b"FACM"
MODEL_VERSION = 2


class _ArrayPack:
    def __init__(self):
        self.entries = []
        self.blobs = []

    def add(self, name: str, arr: np.ndarray):
        arr = np.ascontiguousarray(arr)
        dt = arr.dtype.newbyteorder("<")
        data = arr.astype(dt, copy=False).tobytes(order="C")
        self.entries.append({"name": name, "dtype": dt.str, "shape": list(arr.shape)})
        self.blobs.append(data)

    def payload(self) -> bytes:
        return b"".join(self.blobs)


def save_model(model: CascadeModel, path) -> None:
    pack = _ArrayPack()
    pack.add("mean_shape/coords", model.mean_shape.coords)
    pack.add("mean_shape/visibility", model.mean_shape.visibility)
    pack.add("mean_shape/annotated", model.mean_shape.annotated)
    pack.add("pattern/offsets", model.pattern.offsets)
    pack.add("pattern/rings", model.pattern.rings)
    if model.model3d is not None:
        pack.add("model3d/points", model.model3d.points)
        pack.add("model3d/normals", model.model3d.normals)
        pack.add("model3d/distinct", model.model3d.distinct.astype(np.uint8))
    stage_meta = []
    for si, stage in enumerate(model.stages):
        for pi, pm in enumerate(stage.parts):
            pack.add(f"s{si}/p{pi}/landmarks", pm.landmarks)
            for f in FOREST_FIELDS:
                pack.add(f"s{si}/p{pi}/{f}", getattr(pm, f))
        stage_meta.append({
            "shrinkage": stage.shrinkage,
            "scale": stage.scale,
            "parts": len(stage.parts),
        })
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
        "arrays": pack.entries,
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    body = (
        MODEL_MAGIC
        + struct.pack("<q", len(header_bytes))
        + header_bytes
        + pack.payload()
    )
    digest = hashlib.sha256(body).digest()
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(digest)


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
    header = json.loads(body[off: off + hlen].decode("utf-8"))
    if header["version"] != MODEL_VERSION:
        raise FormatError(f"unsupported model version {header['version']}")
    off += hlen
    arrays = {}
    for entry in header["arrays"]:
        dt = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = dt.itemsize * count
        arrays[entry["name"]] = np.frombuffer(
            body[off: off + nbytes], dtype=dt
        ).reshape(shape).copy()
        off += nbytes
    if off != len(body):
        raise FormatError("model payload length mismatch")

    for name, allowed in MODES.items():
        if header.get(name) not in allowed:
            raise FormatError(f"model header {name} must be one of {list(allowed)}, "
                              f"not {header.get(name)!r}")
    if header["init_mode"] == "3d" and not header["has_model3d"]:
        raise FormatError("model header init_mode is '3d' but the model stores no 3D model")
    schema = LandmarkSchema.from_dict(header["schema"])
    try:
        config = TrainConfig(**header["config"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"model header config: {exc}") from None
    mean_shape = Shape(
        arrays["mean_shape/coords"], arrays["mean_shape/visibility"],
        arrays["mean_shape/annotated"],
    )
    pattern = FreakPattern(
        arrays["pattern/offsets"], arrays["pattern/rings"],
        header["pattern_diameter"],
    )
    model3d = None
    if header["has_model3d"]:
        model3d = Model3D(
            arrays["model3d/points"], arrays["model3d/normals"],
            arrays["model3d/distinct"].astype(bool),
            header.get("model3d_names", []),
        )
    stages = []
    for si, sm in enumerate(header["stages"]):
        parts = [
            PartModel.from_arrays(
                arrays[f"s{si}/p{pi}/landmarks"],
                {f: arrays[f"s{si}/p{pi}/{f}"] for f in FOREST_FIELDS},
            )
            for pi in range(sm["parts"])
        ]
        try:
            stages.append(PartsStage(parts=parts, shrinkage=sm["shrinkage"],
                                     scale=sm["scale"]))
        except (ValueError, IndexError) as exc:
            raise FormatError(f"stage {si}: {exc}") from None
    return CascadeModel(
        stages=stages,
        init_mode=header["init_mode"],
        feature_mode=header["feature_mode"],
        schema=schema,
        mean_shape=mean_shape,
        pattern=pattern,
        config=config,
        model3d=model3d,
        training_log=header["training_log"],
    )
