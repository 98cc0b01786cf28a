"""Command-line surface: gen-data, train, eval, verify.

Exit codes: 0 success, 1 usage/config error, 2 verification failure or
training divergence, 3 I/O or file-format error, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys

from .data import (
    check_writable,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_eval,
    write_atomic,
)
from .errors import AmorlipError, ConfigError, FormatError, TrainingDivergence
from .evaluation import evaluate_model
from .trainer import (
    METHODS,
    OBJECTIVES,
    TRAIN_GENERATORS,
    MetricsWriter,
    TrainConfig,
    checkpoint_save,
    load_eval_model,
    run_training,
)
from .verify import MAX_FEATURES, SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, the status a shell gives a Ctrl-C


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
    p.set_defaults(run=_cmd_gen_data)
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--classes", type=int, default=32)
    p.add_argument("--dim-a", type=int, default=64)
    p.add_argument("--dim-b", type=int, default=48)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("train", help="train on an APDS1 dataset")
    p.set_defaults(run=_cmd_train)
    p.add_argument("--data", required=True, help="APDS1 dataset path")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--objective", choices=OBJECTIVES)
    p.add_argument("--generator", choices=TRAIN_GENERATORS)
    p.add_argument("--config", help="flat JSON config file (flags override it)")
    p.add_argument("--metrics", help="JSONL metrics output path")
    p.add_argument("--checkpoint", help="AMCK1 checkpoint output path")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the held-out split")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report", required=True, help="JSON report output path")

    p = sub.add_parser("verify", help="run a verification suite")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("suite", choices=SUITES)
    p.add_argument(
        "--features",
        type=int,
        help=f"feature count for the spectral suite (default 200000), at most {MAX_FEATURES}",
    )
    return parser


@contextlib.contextmanager
def _io(what: str):
    """Re-raise an OSError with the operation that failed named first."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"cannot {what}: {exc}") from exc


def _cmd_gen_data(args) -> int:
    ds = generate_synthetic(
        n=args.n,
        num_classes=args.classes,
        dim_a=args.dim_a,
        dim_b=args.dim_b,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    with _io(f"write {args.out}"):
        save_dataset(ds, args.out)
    print(
        json.dumps(
            {"n": ds.n, "classes": ds.num_classes, "dims": [ds.dim_a, ds.dim_b], "path": args.out}
        )
    )
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = TrainConfig()
    if args.config is not None:
        with _io("read config"):
            cfg = TrainConfig.from_file(args.config)
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
    if cfg.method == "clip" and (args.objective is not None or args.generator is not None):
        print("warning: --method clip ignores amortization flags", file=sys.stderr)

    with _io("read dataset"):
        ds = load_dataset(args.data)
    if args.checkpoint is not None:
        # fail before the first step, not after the last
        with _io("write checkpoint"):
            check_writable(args.checkpoint)
    with _io("write metrics"):
        metrics = MetricsWriter(args.metrics)
    try:
        state = run_training(cfg, ds, metrics)
    finally:
        metrics.close()
    if args.checkpoint is not None:
        with _io("write checkpoint"):
            checkpoint_save(state, args.checkpoint)
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
    with _io("read inputs"):
        ds = load_dataset(args.data)
        model = load_eval_model(args.checkpoint)
    _, eval_ds = split_eval(ds, model.config.eval_fraction, model.config.seed)
    report = evaluate_model(model, eval_ds)
    payload = json.dumps(report.to_json_dict(), indent=2)
    with _io("write report"):
        write_atomic(args.report, (payload + "\n").encode())
    print(payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    kwargs = {}
    if args.features is not None:
        if args.suite != "spectral":
            raise ConfigError("--features applies to the spectral suite only")
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
    """Run one command; the only place a failure becomes an exit code."""
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse help and usage errors
        return int(exc.code or 0)
    except TrainingDivergence as exc:
        print(f"amorlip: training diverged: {exc}", file=sys.stderr)
        print(json.dumps(exc.snapshot), file=sys.stderr)
        return EXIT_VERIFY
    except (FormatError, OSError) as exc:
        print(f"amorlip: {exc}", file=sys.stderr)
        return EXIT_IO
    except AmorlipError as exc:
        print(f"amorlip: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a config whose networks do not fit in memory
        print(f"amorlip: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("amorlip: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
