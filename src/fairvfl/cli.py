"""Command-line experiment runner.

Exit codes: 0 success, 1 audit/validation failure, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ExperimentConfig, PRESET_NAMES, preset, read_config_object
from .errors import ConfigError, FairVflError, NumericError
from .runner import SWEEP_AXES, cmd_attack, cmd_audit, cmd_sweep, cmd_train

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=PRESET_NAMES, help="named base configuration")
    p.add_argument("--config", type=Path, help="JSON config file (overrides the preset)")
    p.add_argument("--seed", type=int, help="global seed override")
    p.add_argument("--out", type=Path, default=Path("runs/latest"), help="output directory")


def _resolve_config(args) -> ExperimentConfig:
    if args.preset is None and args.config is None:
        raise FairVflError("provide --preset and/or --config")
    obj = preset(args.preset).to_dict() if args.preset is not None else {}
    if args.config is not None:
        # shallow merge: top-level keys in the file replace the preset's
        obj.update(read_config_object(args.config))
    cfg = ExperimentConfig.from_dict(obj)
    if args.seed is not None:
        cfg = cfg.with_overrides(seed=args.seed)
    cfg.validate()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairvfl",
                                     description="Fair vertical federated learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run federated training")
    _add_common(p_train)

    p_attack = sub.add_parser("attack", help="probe a frozen checkpoint")
    _add_common(p_attack)
    p_attack.add_argument("--checkpoint", type=Path, required=True)

    p_audit = sub.add_parser("audit", help="audit a transcript file")
    _add_common(p_audit)
    p_audit.add_argument("--transcript", type=Path, required=True)

    p_sweep = sub.add_parser("sweep", help="train+attack across one axis")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", required=True,
                         help=f"one of {SWEEP_AXES} or lambda:<feature>")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated non-negative values")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "train":
            result = cmd_train(cfg, args.out)
            m = result.metrics
            print(f"train: accuracy={m.task_accuracy:.4f} f1={m.task_f1:.4f} "
                  f"rounds={m.comm.get('rounds')} out={result.out_dir}")
            return EXIT_OK
        if args.command == "attack":
            report = cmd_attack(cfg, args.checkpoint, out_dir=args.out)
            cells = [f"task_acc={report.task_accuracy:.4f}"]
            cells += [f"fair_f1[{f}]={d['mean']:.4f}" for f, d in report.fairness_f1.items()]
            cells += [f"priv_f1[{f}]={v:.4f}" for f, v in report.privacy_f1.items()]
            print("attack: " + " ".join(cells))
            return EXIT_OK
        if args.command == "audit":
            report = cmd_audit(args.transcript, cfg)
            _print_audit(report)
            return EXIT_OK if report.ok else EXIT_VALIDATION
        if args.command == "sweep":
            try:
                values = [float(v) for v in args.values.split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"--values: {exc}") from None
            rows = cmd_sweep(cfg, args.axis, values, args.out)
            failed = [r for r in rows if r.get("error")]
            for row in rows:
                status = row["error"] or "ok"
                print(f"sweep {row['axis']}={row['value']:g}: {status}")
            print(f"sweep table: {Path(args.out) / 'sweep.tsv'}")
            return EXIT_VALIDATION if failed else EXIT_OK
        raise FairVflError(f"unknown command {args.command!r}")
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FairVflError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _print_audit(report) -> None:
    counts: dict[str, int] = {}
    for v in report.violations:
        counts[v.kind.value] = counts.get(v.kind.value, 0) + 1
    print(f"audit: {report.n_records} records, {len(report.violations)} violations")
    for kind, n in sorted(counts.items()):
        print(f"  {kind}: {n}")
    for v in report.violations[:20]:
        print(f"  [{v.kind.value}] round {v.record.round_id} "
              f"{v.record.sender} -> {v.record.receiver} {v.record.kind}: {v.detail}")
    for rid in sorted(report.traffic):
        row = report.traffic[rid]
        mark = "ok" if row["actual"] == row["expected"] else "MISMATCH"
        print(f"  round {rid}: fairness floats actual={row['actual']} "
              f"expected(4*E*sumH)={row['expected']} [{mark}]")


if __name__ == "__main__":
    sys.exit(main())
