"""Command-line harness: train, eval, bench, and verify.

Exit codes are a stable contract for CI: 0 success, 1 invariant or numeric
failure (including a non-SPD training system), 2 configuration or IO error.
All artifacts land under the configured output directory.
"""

from __future__ import annotations

import argparse
import sys

from . import bench as bench_mod
from . import verify as verify_mod
from .config import (ConfigError, RunConfig, load_datasets, load_run_config,
                     missing_data_paths)
from .data import DataFormatError, TransformSpec, fit_apply_transforms, load_delimited, load_idx
from .linalg import NonFiniteError, NotSPDError
from .snapshot import SnapshotFormatError, load_snapshot, save_snapshot
from .training import check_labels, check_split_labels, evaluate, run_training

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2


def _print_architecture(cfg: RunConfig) -> None:
    widths = cfg.widths
    core = widths[:-1] + [1]
    d = widths[-1]
    params_per_replica = sum((2 * n_in + 1) * n_out for n_in, n_out in zip(core, core[1:]))
    print(f"architecture: {'-'.join(map(str, widths))}")
    print(f"replicas: {d}, packages per replica: {len(core) - 1}")
    for i, (n_in, n_out) in enumerate(zip(core, core[1:]), start=1):
        print(f"  package {i}: {n_in} -> {n_out}, constellation points {2 * n_in + 1}")
    print(f"trainable parameters: {params_per_replica * d:,}")
    print(f"alpha={cfg.alpha} batch_rows={cfg.batch_rows} epochs={cfg.epochs} "
          f"precision={cfg.precision} init={cfg.init} task={cfg.task}")


def cmd_train(args) -> int:
    try:
        cfg = load_run_config(args.config, check_paths=not args.dry_run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.dry_run:
        _print_architecture(cfg)
        for key, p in missing_data_paths(cfg):
            print(f"note: [data] {key} not staged yet: {p}")
        return EXIT_OK

    try:
        train, test, fitted_spec = load_datasets(cfg)
        for split, data in (("train", train), ("test", test)):
            if data.n_features != cfg.widths[0]:
                raise DataFormatError(f"{split} data has {data.n_features} features, "
                                      f"the model's input width is {cfg.widths[0]}")
        check_labels(cfg.train_config(), train, test)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = cfg.dir
    csv_path = out_dir / "metrics.csv"
    preprocessing = None if fitted_spec is None else fitted_spec.to_dict()

    def on_epoch(record, live_model):
        print(f"epoch {record.epoch}: train={record.train_metric:.4f} "
              f"test={record.test_metric:.4f} residual={record.residual:.4e} "
              f"({record.seconds:.1f}s)", flush=True)
        if cfg.snapshot_every and record.epoch and record.epoch % cfg.snapshot_every == 0:
            save_snapshot(out_dir / f"model-epoch{record.epoch}.phc1", live_model,
                          preprocessing=preprocessing)

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg.write_ini(out_dir / "effective.ini")
        model, _ = run_training(cfg.train_config(), train, test, csv_path=csv_path,
                                on_epoch=on_epoch)
        save_snapshot(out_dir / "model.phc1", model, preprocessing=preprocessing)
    except NotSPDError as exc:
        print(f"training system not positive definite (raise alpha): {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except NonFiniteError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {csv_path} and {out_dir / 'model.phc1'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        model, preprocessing = load_snapshot(args.snapshot)
    except (SnapshotFormatError, OSError) as exc:
        print(f"snapshot error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.labels:
            data = load_idx(args.dataset, args.labels)
        else:
            data = load_delimited(args.dataset, label_column=args.label_column,
                                  delimiter=args.delimiter)
        if data.n_features != model.widths[0]:
            raise DataFormatError(f"{args.dataset}: {data.n_features} features, "
                                  f"the model expects {model.widths[0]}")
        # one output is scored as task binary-auc and several as classify, as in training
        task = "binary-auc" if model.d == 1 else "classify"
        check_split_labels(data.labels, task, model.d, args.dataset)
        if preprocessing is not None:
            data, _ = fit_apply_transforms(data, TransformSpec.from_dict(preprocessing))
        metric = evaluate(model, data, task,
                          lambda i: f"{args.dataset}: data row {i + 1} (blank lines not counted)")
    except (DataFormatError, NonFiniteError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{'roc_auc' if task == 'binary-auc' else 'accuracy'}: {metric:.4f}")
    return EXIT_OK


def _arguments_in_range(*checks) -> bool:
    """Whether every (flag, value, least) check holds; the first that fails is told on stderr."""
    for flag, value, least in checks:
        if value < least:
            print(f"argument error: {flag} must be at least {least}, got {value}", file=sys.stderr)
            return False
    return True


def cmd_bench(args) -> int:
    sweep = (16, 32, 64, 128, 256, 512, 1024, 2048)
    if not _arguments_in_range(("--max-n", args.max_n, sweep[0]), ("--repeats", args.repeats, 1),
                               ("--batch-rows", min(args.batch_rows), 1), ("--seed", args.seed, 0)):
        return EXIT_CONFIG
    widths = [n for n in sweep if n <= args.max_n]
    try:
        rows = bench_mod.run_bench(widths=widths, batch_rows=tuple(args.batch_rows),
                                   repeats=args.repeats, seed=args.seed)
    except AssertionError as exc:
        print(f"agreement failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if args.out:
        try:
            bench_mod.write_csv(rows, args.out)
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"wrote {args.out}")
    for row in rows:
        print(f"{row.op:20s} n={row.n:5d} r={row.r:4d} fast={row.fast_seconds:.2e}s "
              f"naive={row.naive_seconds:.2e}s err={row.max_rel_err:.1e}")
    for op, n in bench_mod.crossover_widths(rows).items():
        where = str(n) if n is not None else "none in range"
        print(f"crossover width for {op}: {where}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if not _arguments_in_range(("--seed", args.seed, 0)):
        return EXIT_CONFIG
    results = verify_mod.run_all(seed=args.seed, report=print)
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polycascade",
                                     description="Polyharmonic cascade training harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a run config file")
    p_train.add_argument("config", help="path to an INI run config")
    p_train.add_argument("--dry-run", action="store_true",
                         help="validate the config and print the resolved architecture")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a snapshot on a dataset")
    p_eval.add_argument("snapshot")
    p_eval.add_argument("dataset", help="IDX images file (with --labels) or delimited text")
    p_eval.add_argument("--labels", help="IDX labels file")
    p_eval.add_argument("--label-column", type=int, default=0)
    p_eval.add_argument("--delimiter", default=",")
    p_eval.set_defaults(fn=cmd_eval)

    p_bench = sub.add_parser("bench", help="time package operations against the oracle")
    p_bench.add_argument("--max-n", type=int, default=2048)
    p_bench.add_argument("--batch-rows", type=int, nargs="+", default=[64, 256])
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="CSV output path")
    p_bench.set_defaults(fn=cmd_bench)

    p_verify = sub.add_parser("verify", help="run the invariant battery")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
