"""Train one serving model in a process of its own, for the benchmark's
serving set-up, so the serving process's peak RSS is serving's own.

    python3 facebench/train_child.py --config RUNCONFIG_JSON \
        --check CHECK_JSON --out DIR

Writes DIR/model.facm; DIR/train.json with train_model's time, raw and
at the reference speed of benchlib; and DIR/check.npz with the in-memory
model's predictions on the check faces, which the serving process
compares with the reloaded model's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--check", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    sys.path.insert(0, SRC)

    import statistics

    import numpy as np

    import benchlib
    from facealign import default_model3d
    from facealign.cascade import predict
    from facealign.modelio import save_model
    from facealign.pipeline import RunConfig, train_model
    from facealign.synthetic import CorpusConfig, SyntheticMapSource, generate_corpus

    cfg = RunConfig(**json.loads(args.config), output_dir=args.out)
    schema, model3d = cfg.load_schema(), default_model3d()
    dataset = generate_corpus(model3d, schema, cfg.corpus_config())
    with benchlib.RefSampler() as sampler:
        model, raw, refs = sampler.timed(train_model, cfg, dataset)
    os.makedirs(args.out, exist_ok=True)
    save_model(model, os.path.join(args.out, "model.facm"))
    with open(os.path.join(args.out, "train.json"), "w", encoding="utf-8") as fh:
        json.dump({"raw_s": raw, "train_s": benchlib.normalise(raw, statistics.median(refs))}, fh)

    check = json.loads(args.check)
    faces = generate_corpus(model3d, schema, CorpusConfig(**check["corpus"]))
    source = SyntheticMapSource(cfg.synth_config(), check["map_seed"])
    preds = [predict(model, source.maps_for(s), s.bbox) for s in faces.samples]
    np.savez(os.path.join(args.out, "check.npz"),
             coords=np.stack([p.shape.coords for p in preds]),
             visibility=np.stack([p.shape.visibility for p in preds]))


if __name__ == "__main__":
    main()
