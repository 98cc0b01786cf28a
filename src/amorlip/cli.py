"""Command-line surface: gen-data, train, eval, verify.

Exit codes: 0 success, 1 usage/config error, 2 verification failure or
training divergence, 3 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .data import generate_synthetic, load_dataset, save_dataset, split_eval
from .errors import (
    AmorlipError,
    ConfigError,
    ContractError,
    DegenerateInputError,
    DomainError,
    FormatError,
    TrainingDivergence,
)
from .evaluation import evaluate_model
from .trainer import (
    MetricsWriter,
    TrainConfig,
    checkpoint_save,
    load_eval_model,
    run_training,
)
from .verify import MAX_FEATURES, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the package's usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="amorlip", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="write a synthetic paired dataset (APDS1)")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--classes", type=int, default=32)
    p.add_argument("--dim-a", type=int, default=64)
    p.add_argument("--dim-b", type=int, default=48)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("train", help="train on an APDS1 dataset")
    p.add_argument("--data", required=True, help="APDS1 dataset path")
    p.add_argument("--method", choices=["amorlip", "clip"])
    p.add_argument("--objective", choices=["l2log", "fdiv"])
    p.add_argument("--generator", choices=["kl", "kl_affine", "js"])
    p.add_argument("--config", help="flat JSON config file (flags override it)")
    p.add_argument("--metrics", help="JSONL metrics output path")
    p.add_argument("--checkpoint", help="AMCK1 checkpoint output path")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the held-out split")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report", required=True, help="JSON report output path")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["gradcheck", "spectral", "schedules", "equivalence"])
    p.add_argument(
        "--features",
        type=int,
        default=200_000,
        help=f"feature count for the spectral suite, at most {MAX_FEATURES}",
    )
    return parser


def _cmd_gen_data(args) -> int:
    ds = generate_synthetic(
        n=args.n,
        num_classes=args.classes,
        dim_a=args.dim_a,
        dim_b=args.dim_b,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    try:
        save_dataset(ds, args.out)
    except OSError as exc:
        print(f"amorlip: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(
        json.dumps(
            {"n": ds.n, "classes": ds.num_classes, "dims": [ds.dim_a, ds.dim_b], "path": args.out}
        )
    )
    return EXIT_OK


def _cmd_train(args) -> int:
    if args.config is not None:
        try:
            cfg = TrainConfig.from_file(args.config)
        except OSError as exc:
            print(f"amorlip: cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        cfg = TrainConfig()
    overrides = {
        k: v
        for k, v in (
            ("method", args.method),
            ("objective", args.objective),
            ("generator", args.generator),
            ("seed", args.seed),
        )
        if v is not None
    }
    cfg = dataclasses.replace(cfg, **overrides)
    cfg.validate()
    if cfg.method == "clip" and (args.objective is not None or args.generator is not None):
        print("warning: --method clip ignores amortization flags", file=sys.stderr)

    try:
        ds = load_dataset(args.data)
    except OSError as exc:
        print(f"amorlip: cannot read dataset: {exc}", file=sys.stderr)
        return EXIT_IO

    metrics = MetricsWriter(args.metrics)
    try:
        state = run_training(cfg, ds, metrics)
    except TrainingDivergence as exc:
        print(f"amorlip: training diverged: {exc}", file=sys.stderr)
        print(json.dumps(exc.snapshot), file=sys.stderr)
        return EXIT_VERIFY
    finally:
        metrics.close()
    if args.checkpoint is not None:
        try:
            checkpoint_save(state, args.checkpoint)
        except OSError as exc:
            print(f"amorlip: cannot write checkpoint: {exc}", file=sys.stderr)
            return EXIT_IO
    summary = {
        "method": cfg.method,
        "epochs": state.epoch,
        "steps": state.global_step,
        "gather_count": state.gather_count,
        "tau": state.temperature.tau,
    }
    print(json.dumps(summary))
    return EXIT_OK


def _cmd_eval(args) -> int:
    try:
        ds = load_dataset(args.data)
        model = load_eval_model(args.checkpoint)
    except OSError as exc:
        print(f"amorlip: cannot read inputs: {exc}", file=sys.stderr)
        return EXIT_IO
    _, eval_ds = split_eval(ds, model.eval_fraction, model.seed)
    report = evaluate_model(model, eval_ds)
    payload = json.dumps(report.to_json_dict(), indent=2)
    try:
        with open(args.report, "w") as fh:
            fh.write(payload + "\n")
    except OSError as exc:
        print(f"amorlip: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    print(payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    kwargs = {}
    if args.suite == "spectral":
        kwargs["m_features"] = args.features
    checks = run_suite(args.suite, **kwargs)
    for check in checks:
        # strict JSON has no Infinity or NaN: a non-finite figure is written
        # as the string "inf", "-inf" or "nan"
        fields = {
            k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in check.items()
        }
        print(json.dumps(fields, allow_nan=False))
    return EXIT_OK if all(c["status"] == "pass" for c in checks) else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse help/errors
        return int(exc.code or 0)
    handlers = {
        "gen-data": _cmd_gen_data,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except FormatError as exc:
        print(f"amorlip: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ContractError, DomainError, DegenerateInputError) as exc:
        print(f"amorlip: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDivergence as exc:
        print(f"amorlip: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except AmorlipError as exc:
        print(f"amorlip: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"amorlip: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
