"""Command-line harness.

Subcommands: synth, train, predict, eval, cross, ablate.  Settings come
from a flat JSON config file; command-line flags override file values,
which override built-in defaults.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DataError, NumericError, is_finite
from .pipeline import (
    RunConfig,
    run_ablate,
    run_cross,
    run_eval,
    run_predict,
    run_synth,
    run_train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


# flags that several subcommands share; each subcommand registers the ones
# its run_* function reads, so a flag it would ignore is a usage error
COMMON_FLAGS = {
    "--config": dict(default=None, help="flat JSON config file"),
    "--seed": dict(type=int, default=None),
    "--dataset": dict(default=None, help="annotations JSONL path"),
    "--out": dict(dest="output_dir", default=None, help="output directory"),
    "--init": dict(dest="init_mode", choices=["mean", "3d"], default=None),
    "--features": dict(dest="feature_mode", choices=["gray", "heatmap"], default=None),
    "--coarse-to-fine": dict(choices=["on", "off"], default=None),
    "--maps-dir": dict(default=None,
                       help="read maps from files here instead of synthesizing"),
}
# predict and eval take init, features and coarse-to-fine from the model
# file, and ablate from its rows
NO_MODE_FLAGS = ("--config", "--seed", "--out", "--dataset", "--maps-dir")


def _epsilon(text: str) -> float:
    """An --epsilon value: a finite number > 0, else a usage error."""
    value = float(text)
    if not (is_finite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, not {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser, *flags) -> None:
    for flag in flags:
        p.add_argument(flag, **COMMON_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="facealign",
        description="Landmark alignment on probability maps: robust rigid "
                    "initialization plus a coarse-to-fine tree ensemble.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    _add_common(p, "--config", "--seed", "--out")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--no-maps", action="store_true",
                   help="write annotations only, synthesize maps on demand")

    p = sub.add_parser("train", help="train a cascade model")
    _add_common(p, *COMMON_FLAGS)

    p = sub.add_parser("predict", help="run a trained model over a dataset")
    _add_common(p, *NO_MODE_FLAGS)
    p.add_argument("--model", required=True)

    p = sub.add_parser("eval", help="predict and report metrics")
    _add_common(p, *NO_MODE_FLAGS)
    p.add_argument("--model", required=True)
    p.add_argument("--epsilon", type=_epsilon, default=8.0)
    p.add_argument("--normalization", default="height",
                   choices=["height", "pupils", "corners"])

    p = sub.add_parser("cross", help="train/test matrix across datasets")
    # its datasets are positional
    _add_common(p, *(f for f in COMMON_FLAGS if f != "--dataset"))
    p.add_argument("datasets", nargs="+", help="annotation files, one per set")
    p.add_argument("--no-pooled", action="store_true",
                   help="skip the pooled all-sets model")

    p = sub.add_parser("ablate",
                       help="sweep init/feature/coarse-to-fine configurations")
    _add_common(p, *NO_MODE_FLAGS)
    p.add_argument("--epsilon", type=_epsilon, default=4.0)
    return ap


def _config_from_args(args) -> RunConfig:
    overrides = {k: getattr(args, k, None) for k in
                 ("seed", "dataset", "output_dir", "init_mode", "feature_mode", "maps_dir")}
    if getattr(args, "coarse_to_fine", None) is not None:
        overrides["coarse_to_fine"] = args.coarse_to_fine == "on"
    cfg = RunConfig.from_file(args.config, overrides)
    if getattr(args, "count", None) is not None:
        # merge rather than clobber corpus settings from the file
        cfg.corpus = {**cfg.corpus, "count": args.count}
    return cfg


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors and 0 for --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    try:
        cfg = _config_from_args(args)
        if args.command == "synth":
            ds = run_synth(cfg, write_map_files=not args.no_maps)
            print(f"wrote {len(ds)} samples to {cfg.output_dir}")
        elif args.command == "train":
            path = run_train(cfg)
            print(f"model saved to {path}")
        elif args.command == "predict":
            path = run_predict(cfg, args.model)
            print(f"predictions written to {path}")
        elif args.command == "eval":
            report, path = run_eval(cfg, args.model,
                                    normalization=args.normalization,
                                    epsilon=args.epsilon)
            sys.stdout.write(report.to_text())
            print(f"report written to {path}")
        elif args.command == "cross":
            _, path = run_cross(cfg, args.datasets,
                                include_pooled=not args.no_pooled)
            print(f"cross matrix written to {path}")
        elif args.command == "ablate":
            rows, path = run_ablate(cfg, epsilon=args.epsilon)
            for name, nme_v, auc_v, fr_v in rows:
                print(f"{name}: nme={nme_v:.4f} auc={auc_v:.4f} fr={fr_v:.4f}")
            print(f"ablation written to {path}")
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
