"""Command-line interface.

Every subcommand reads one flat-text config file (all keys optional) plus
`--set key=value` overrides and a `--seed` shortcut, runs one stage function
of `pipeline` on its input files, writes machine-readable files, and prints a
short human summary. Exit code 0 on success; failures print a stage-tagged
message on stderr and exit nonzero.

Importing this module sets OPENBLAS_NUM_THREADS=1, unless it is set, before
numpy loads: fpsynth pins every BLAS product to one thread (see `nets`), so a
worker OpenBLAS started would only spin (about 0.1 s of CPU per process).
"""

from __future__ import annotations

import argparse
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import resolve_config
from .dataset import load_dataset, merge_datasets, save_dataset
from .diffusion import load_checkpoint, save_checkpoint, save_loss_trace
from .errors import FpsynthError, StageError
from .initializer import load_split, save_split
from .localizer import save_report
from .pipeline import (
    augment,
    build_data,
    compute_split,
    generate,
    localize,
    run_experiment,
    save_sweep,
    sweep_ratio,
    train_generator,
    train_pool,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-c", "--config", default=None, help="flat key=value config file")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    p.add_argument("--seed", type=int, default=None, help="override the config seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpsynth",
        description="Synthetic RSS fingerprint generation and localization benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-env", help="emit a synthetic dataset from the configured world")
    _add_common(p)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--test", action="store_true", help="emit the held-out test draw instead")

    p = sub.add_parser("split", help="emit a seen/unseen location split")
    _add_common(p)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--data", default=None, help="dataset file (default: from config source)")

    p = sub.add_parser("augment", help="emit the heuristically augmented seen dataset")
    _add_common(p)
    p.add_argument("--split", required=True, dest="split_file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--data", default=None)

    p = sub.add_parser("train-diffusion", help="train the generator; emit checkpoint + loss trace")
    _add_common(p)
    p.add_argument("--data", required=True, help="augmented seen dataset file")
    p.add_argument("--split", required=True, dest="split_file")
    p.add_argument("-o", "--output", required=True, help="checkpoint path")
    p.add_argument("--trace", required=True, help="loss trace CSV path")

    p = sub.add_parser("generate", help="sample the unseen-location dataset from a checkpoint")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--split", required=True, dest="split_file")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("evaluate", help="fit the localizer on dataset file(s), emit a report")
    _add_common(p)
    p.add_argument(
        "--train",
        dest="train_files",
        action="append",
        required=True,
        help="training dataset file (repeatable; merged in order)",
    )
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("pipeline", help="run the full experiment from config")
    _add_common(p)
    p.add_argument("-o", "--output", required=True, help="localization report path")

    p = sub.add_parser("sweep", help="run the experiment across unseen fractions")
    _add_common(p)
    p.add_argument("--fractions", required=True, help="comma-separated unseen fractions")
    p.add_argument("-o", "--output", required=True)

    return parser


def _cmd_synth_env(args, cfg) -> None:
    train_pool, test_set = build_data(cfg)
    ds = test_set if args.test else train_pool
    save_dataset(ds, args.output)
    print(f"wrote {len(ds)} samples at {len(ds.locations)} locations to {args.output}")


def _cmd_split(args, cfg) -> None:
    pool = train_pool(cfg, args.data)
    split = compute_split(cfg, pool.locations)
    save_split(split, args.output)
    print(
        f"split {len(pool.locations)} locations into {len(split.seen)} seen / "
        f"{len(split.unseen)} unseen ({cfg.split_strategy}) -> {args.output}"
    )


def _cmd_augment(args, cfg) -> None:
    split = load_split(args.split_file)
    aug = augment(cfg, train_pool(cfg, args.data), split)
    save_dataset(aug, args.output)
    print(f"augmented {len(split.seen)} seen locations to {len(aug)} samples -> {args.output}")


def _cmd_train_diffusion(args, cfg) -> None:
    data = load_dataset(args.data, cfg.norm)
    result = train_generator(cfg, data, load_split(args.split_file))
    save_checkpoint(result.network, result.schedule, args.output)
    save_loss_trace(result.trace, args.trace)
    print(
        f"trained denoiser on {len(data)} samples for {len(result.trace)} steps "
        f"(final loss {result.trace[-1][1]:.6f}, sigma_w {result.sigma_w:.3f}) -> {args.output}"
    )


def _cmd_generate(args, cfg) -> None:
    net, schedule = load_checkpoint(args.model)
    split = load_split(args.split_file)
    ds = generate(cfg, net, schedule, split)
    save_dataset(ds, args.output)
    print(f"generated {len(ds)} samples at {len(split.unseen)} unseen locations -> {args.output}")


def _cmd_evaluate(args, cfg) -> None:
    parts = [load_dataset(f, cfg.norm) for f in args.train_files]
    fingerprint_map = merge_datasets(*parts) if len(parts) > 1 else parts[0]
    del parts  # the merged map holds its own copy; free the parts before fitting
    test_set = build_data(cfg)[1]
    report = localize(cfg, fingerprint_map, test_set)
    save_report(report, args.output)
    print(
        f"evaluated {len(test_set)} test samples: mean {report.mean_error_m:.3f} m, "
        f"median {report.median_error_m:.3f} m -> {args.output}"
    )


def _cmd_pipeline(args, cfg) -> None:
    result = run_experiment(cfg)
    save_report(result.report, args.output)
    print(
        f"{cfg.augmenter} augmenter, {result.n_seen} seen / {result.n_unseen} unseen: "
        f"mean {result.report.mean_error_m:.3f} m, median {result.report.median_error_m:.3f} m, "
        f"overhead {result.collection_overhead_min:.1f} min -> {args.output}"
    )


def _cmd_sweep(args, cfg) -> None:
    try:
        fractions = [float(f) for f in args.fractions.split(",") if f.strip()]
    except ValueError as e:
        raise FpsynthError(f"bad --fractions value: {e}") from e
    results = sweep_ratio(cfg, fractions)
    save_sweep(results, args.output)
    for r in results:
        print(
            f"fraction {r.config.unseen_fraction:.2f}: overhead "
            f"{r.collection_overhead_min:.1f} min, mean error {r.report.mean_error_m:.3f} m"
        )
    print(f"wrote {len(results)} rows -> {args.output}")


_COMMANDS = {
    "synth-env": _cmd_synth_env,
    "split": _cmd_split,
    "augment": _cmd_augment,
    "train-diffusion": _cmd_train_diffusion,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "pipeline": _cmd_pipeline,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.config, args.overrides, args.seed)
        _COMMANDS[args.command](args, cfg)
    except StageError as e:
        print(f"error {e}", file=sys.stderr)
        return 2
    except (FpsynthError, OSError) as e:  # OSError: a missing or unwritable file
        print(f"error [{args.command}] {e}", file=sys.stderr)
        return 2
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
