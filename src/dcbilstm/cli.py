"""Command-line front end.

Subcommands: train, eval, count-params, gradcheck, prepare-data, sweep.

Exit codes: 0 on success, 1 when a verification step fails (a gradient
check reports FAIL, an accuracy floor is missed, training diverges) or
stdout is closed before the output is written (a reader such as `head`
exits early), 2 for usage and configuration problems (argparse errors share
this code).

Run settings come from an optional flat config file of `key = value` lines
(# starts a comment; an unknown key, or one set twice, is rejected)
overridden by command-line flags; the effective configuration is echoed
into the run log.
"""

import argparse
import codecs
import dataclasses
import os
import sys

from . import data as D
from .errors import CheckpointError, ConfigError, ParseError, TrainingDiverged
from .gradcheck import check_model
from .model import (ARCH_DENSE, ARCH_STACKED, ModelConfig, count_params, format_param_count,
                    load_checkpoint, parse_setting, run_depth)
from .train import TrainConfig, check_labels, evaluate, model_config, train

# the settings each row sets, in row order; the paper's tables use 300-dim vectors
_SWEEP_ROW_KEYS = ("dl", "dh", "th")
SWEEP_TABLES = {
    "t3": [(0, 10, 300), (5, 40, 100), (10, 20, 100), (15, 13, 100), (20, 10, 100)],
    "t4": [(0, 10, 100), (5, 10, 100), (10, 10, 100), (15, 10, 100), (20, 10, 100)],
    "t5": [(10, 0, 100), (10, 5, 100), (10, 10, 100), (10, 15, 100), (10, 20, 100)],
}

# the type each setting parses to, read from TrainConfig's annotations
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def _coerce(key, value, line_no=None):
    """Text -> the annotated type of `key`, by ``parse_setting``'s rules."""
    try:
        return parse_setting(_FIELD_TYPES[key], value)
    except ValueError as exc:
        raise ParseError(f"bad value for {key}: {exc}", line_no)


def parse_config_file(path):
    """Flat `key = value` file -> dict of typed TrainConfig overrides; a key
    may be set once."""
    values = {}

    def read_setting(line, line_no):
        line = line.split("#", 1)[0].strip()
        if line:
            key, sep, value = line.partition("=")
            if not sep:
                raise ParseError("expected 'key = value'", line_no)
            key, value = key.strip(), value.strip()
            if key not in _FIELD_TYPES:
                raise ParseError(f"unknown config key {key!r}", line_no)
            if key in values:
                raise ParseError(f"config key {key!r} is set twice", line_no)
            values[key] = _coerce(key, value, line_no)
        return ()

    D.read_lines(path, read_setting)
    return values


def build_train_config(config_path=None, overrides=None):
    """Defaults, then file values, then flag overrides."""
    values = {}
    if config_path:
        values.update(parse_config_file(config_path))
    values.update(overrides or {})
    return TrainConfig(**values)


def _add_train_flags(p, skip=()):
    # a flag left out sets no attribute, so `--max-norm-s none` can override a file
    for f in dataclasses.fields(TrainConfig):
        if f.name in skip:
            continue
        flag = "--" + f.name.replace("_", "-")
        if f.type is bool:
            p.add_argument(flag, default=argparse.SUPPRESS, action=argparse.BooleanOptionalAction)
        else:
            p.add_argument(flag, default=argparse.SUPPRESS, type=lambda v, k=f.name: _coerce(k, v))


def _collect_overrides(args):
    return {k: v for k, v in vars(args).items() if k in _FIELD_TYPES}


def _build_parser():
    top = argparse.ArgumentParser(prog="dcbilstm")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("--config", default=None, help="flat key = value settings file")
    _add_train_flags(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--data-format", default="tsv", choices=D.DATA_FORMATS)
    p.add_argument("--binary", action="store_true")
    p.add_argument("--batch-size", type=int, default=200)
    p.add_argument("--expect-min", type=float, default=None,
                   help="exit 1 unless accuracy reaches this floor")

    p = sub.add_parser("count-params", help="recurrent-layer parameter count")
    p.add_argument("--dl", type=int, required=True)
    p.add_argument("--dh", type=int, required=True)
    p.add_argument("--th", type=int, required=True)
    p.add_argument("--m", type=int, default=300)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--arch", default=ARCH_DENSE, choices=[ARCH_DENSE, ARCH_STACKED])
    p.add_argument("--dl", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one analytic gradient to prove the check bites")

    p = sub.add_parser("prepare-data", help="convert per-class line files to label\\ttext tsv")
    p.add_argument("--out", required=True)
    p.add_argument("--raw", action="append", default=[], metavar="PATH:LABEL",
                   help="one-sentence-per-line file with a shared label (repeatable)")
    p.add_argument("--encoding", default="utf-8")

    p = sub.add_parser("sweep", help="run or preview a depth/width table")
    p.add_argument("--table", required=True, choices=sorted(SWEEP_TABLES))
    p.add_argument("--dry-run", action="store_true", help="print rows and counts only")
    p.add_argument("--config", default=None)
    _add_train_flags(p, skip=_SWEEP_ROW_KEYS)
    return top


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_train(args):
    cfg = build_train_config(args.config, _collect_overrides(args))
    report = train(cfg)
    if report.fold_accs is not None:
        for i, acc in enumerate(report.fold_accs):
            print(f"fold{i} accuracy {acc:.4f}")
        print(f"mean accuracy {report.mean_acc:.4f}")
    else:
        line = f"train accuracy {report.final_train_acc:.4f}"
        if report.best_dev_acc is not None:
            line += f", dev accuracy {report.best_dev_acc:.4f}"
        if report.test_acc is not None:
            line += f", test accuracy {report.test_acc:.4f}"
        print(line)
    print(f"checkpoint {report.checkpoint_path}")
    print(f"log {report.log_path}")
    return 0


def _cmd_eval(args):
    if args.expect_min is not None and not 0.0 <= args.expect_min <= 1.0:
        raise ConfigError(f"--expect-min must be in [0, 1], got {args.expect_min}")
    model, meta = load_checkpoint(args.checkpoint)
    examples = D.load_dataset(args.data, args.data_format, binary=args.binary)
    if args.binary and model.config.num_classes != 2:
        raise ConfigError(f"{args.checkpoint}: --binary needs a two-class model, "
                          f"not one of {model.config.num_classes} classes")
    check_labels(args.data, examples, model.config.num_classes)
    indexed = D.vectorize(examples, meta["vocab"], drop_unknown=True)
    acc = evaluate(model, meta["emb_matrix"], indexed, args.batch_size)
    print(f"accuracy {acc:.4f}")
    if args.expect_min is not None and acc < args.expect_min:
        print(f"accuracy {acc:.4f} below required {args.expect_min:.4f}", file=sys.stderr)
        return 1
    return 0


def _cmd_count_params(args):
    cfg = ModelConfig(m=args.m, dl=run_depth(args.dl, args.dh), dh=args.dh, th=args.th,
                      num_classes=2)
    n = count_params(cfg.validate())
    print(f"{n} ({format_param_count(n)})")
    return 0


def _cmd_gradcheck(args):
    report = check_model(arch=args.arch, dl=args.dl, seed=args.seed,
                         inject_fault=args.inject_fault)
    print(report.format())
    return 0 if report.passed else 1


def _cmd_prepare_data(args):
    if not args.raw:
        raise ConfigError("prepare-data needs at least one --raw PATH:LABEL")
    try:
        codecs.lookup(args.encoding)
    except LookupError:
        raise ConfigError(f"--encoding: unknown encoding {args.encoding!r}")
    # every spec is checked before any input is read
    specs = []
    for spec_arg in args.raw:
        path, sep, label = spec_arg.rpartition(":")
        label = D.parse_count(label)
        if not sep or label is None:
            raise ConfigError(f"--raw wants PATH:LABEL with a non-negative integer "
                              f"label, got {spec_arg!r}")
        specs.append((path, label))
    examples = []
    for path, label in specs:
        examples.extend(D.load_label_lines(path, label, encoding=args.encoding))
    with open(args.out, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(f"{ex.label}\t{' '.join(ex.tokens)}\n")
    print(f"wrote {len(examples)} examples to {args.out}")
    return 0


def _cmd_sweep(args):
    rows, overrides = SWEEP_TABLES[args.table], _collect_overrides(args)
    cfgs = []
    for dl, dh, th in rows:
        row = dict(zip(_SWEEP_ROW_KEYS, (run_depth(dl, dh), dh, th)))
        cfg = build_train_config(args.config, {**overrides, **row}).validate()
        cfg.out_dir = f"{cfg.out_dir}/{args.table}_dl{dl}_dh{dh}_th{th}"
        cfgs.append(cfg)
    if args.dry_run:
        # every row trains at one m: the embeddings file's, or embedding_dim
        path = cfg.embeddings_path
        m = D.load_embeddings(path, keep=set()).dim if path else cfg.embedding_dim
        print(f"table {args.table} (m={m})")
        for (dl, dh, th), cfg in zip(rows, cfgs):
            n = count_params(model_config(cfg, m, 2))
            print(f"  dl={dl:<3d} dh={dh:<3d} th={th:<4d} params {n} ({format_param_count(n)})")
        return 0
    for (dl, dh, th), cfg in zip(rows, cfgs):
        report = train(cfg)
        acc = report.mean_acc if report.mean_acc is not None else (
            report.test_acc if report.test_acc is not None else report.best_dev_acc)
        print(f"  dl={dl:<3d} dh={dh:<3d} th={th:<4d} accuracy "
              f"{'n/a' if acc is None else f'{acc:.4f}'}")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "eval": _cmd_eval,
        "count-params": _cmd_count_params,
        "gradcheck": _cmd_gradcheck,
        "prepare-data": _cmd_prepare_data,
        "sweep": _cmd_sweep,
    }
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return status
    except BrokenPipeError:
        # the reader has gone, so nothing more is shown; the flush at exit
        # writes to devnull instead of raising again
        sys.stdout = open(os.devnull, "w")
        return 1
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ParseError, CheckpointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
