"""Cost per record of the privacy-boundary audit and the transcript reader.

Measures, with one BLAS thread:

- ``audit_us_per_record``: ``audit_transcript`` over one training epoch's
  in-memory records, audited round by round as fvbench's round workloads do,
  at the paper widths (rep 400, gender H=32, age H=64) and at the C12 widths
  (rep 64, one H=4 feature);
- ``read_us_per_line``: ``Transcript.read`` of the ``transcript.ndjson``
  that ``fairvfl train --preset synthetic-smoke --seed 1`` exports;
- ``write_us_per_record``: ``TranscriptRecord.to_line`` over that
  transcript's records, the lines ``fairvfl train`` writes;
- ``audit_command_ms``: ``runner.cmd_audit`` on that transcript (audit and
  traffic accounting), what ``fairvfl audit`` runs;
- ``scale_read``: ``Transcript.read`` of that transcript repeated
  ``SCALE_COPIES`` times, each copy's round ids after the previous copy's
  (about 30k lines, 2,280 rounds, auditing clean): ``us_per_line``, and from
  one more read under ``tracemalloc`` the ``records_mb`` the result holds and
  the ``peak_mb`` of the read, which exceeds ``records_mb`` by what the
  reader holds on the side (a line-by-line read: one line; a chunked read: a
  chunk);
- ``scale_audit``: ``runner.cmd_audit`` on that repeated file:
  ``us_per_line``, and from one more call under ``tracemalloc`` the
  ``report_mb`` the returned report holds (its per-round traffic table) and
  the ``peak_mb`` of the call, next to ``base_peak_mb``, the peak of one call
  on the one-copy transcript. A command that holds the whole file peaks near
  ``scale_read``'s ``peak_mb``; a streamed one near its base plus the
  report's growth.

Every figure is the median over timed blocks. Compare two commits on one
machine by running the script against each tree's ``src/`` with its own
label; every run adds or replaces its label's entry in the output file:

    python benchmarks/bench_audit.py --label change
    python benchmarks/bench_audit.py --src OTHER_TREE/src --label parent
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import tempfile
import tracemalloc
from pathlib import Path

# One BLAS thread, set before numpy loads, so every commit runs alike.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from bench_passes import commit_of, ms_per_call, widths_config  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCALE_COPIES = 20


def epoch_rounds(widths_name: str):
    """One training epoch's transcript records, round by round, and the
    policy that audits them."""
    from fairvfl.data import iterate_batches
    from fairvfl.protocol.audit import AuditPolicy
    from fairvfl.runner import build_run_federation, make_dataset

    cfg = widths_config(widths_name)
    ds, pa = make_dataset(cfg)
    fed = build_run_federation(cfg, ds, pa)
    rounds = []
    for ids in iterate_batches(ds, "train", cfg.batch_size, 0):
        fed.run_training_round(ids)
        rounds.append(fed.transcript.drain())
    return rounds, AuditPolicy.from_federation(fed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src/ directory whose fairvfl to measure")
    parser.add_argument("--label", default="change", help="entry name in the output file")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_audit.json")
    parser.add_argument("--block-s", type=float, default=0.2, help="seconds per timed block")
    parser.add_argument("--repeats", type=int, default=7, help="timed blocks per figure")
    args = parser.parse_args()

    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    import fairvfl

    if Path(fairvfl.__file__).resolve().parent != (args.src / "fairvfl").resolve():
        sys.exit(f"bench_audit: imported fairvfl from outside {args.src}")
    from fairvfl.config import preset
    from fairvfl.protocol.audit import audit_transcript
    from fairvfl.protocol.messages import Transcript, write_records
    from fairvfl.runner import cmd_audit, cmd_train

    def timed(fn):
        return ms_per_call(fn, args.block_s, args.repeats)

    def traced(fn):
        """The bytes ``fn``'s result holds and the peak during the call."""
        tracemalloc.start()
        result = fn()
        held, peak = tracemalloc.get_traced_memory()  # while the result is alive
        tracemalloc.stop()
        del result
        return held, peak

    audit_us = {}
    for widths_name in ("paper", "c12"):
        rounds, policy = epoch_rounds(widths_name)
        n_records = sum(len(r) for r in rounds)
        if any(audit_transcript(r, policy) for r in rounds):
            sys.exit(f"bench_audit: {widths_name} epoch does not audit clean")
        ms = timed(lambda: [audit_transcript(r, policy) for r in rounds])
        audit_us[widths_name] = round(ms * 1e3 / n_records, 4)
        print(f"audit {widths_name}: {n_records} records, {audit_us[widths_name]:.3f} us/record")

    cfg = preset("synthetic-smoke").with_overrides(seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        cmd_train(cfg, tmp)
        path = Path(tmp) / "transcript.ndjson"
        records = Transcript.read(path).records
        n_lines = len(records)
        read_us = round(timed(lambda: Transcript.read(path)) * 1e3 / n_lines, 4)
        write_us = round(timed(lambda: [rec.to_line() for rec in records]) * 1e3 / n_lines, 4)
        command_ms = round(timed(lambda: cmd_audit(path, cfg)), 4)

        big = Path(tmp) / "scaled.ndjson"
        n_rounds = records[-1].round_id + 1
        with open(big, "w", encoding="utf-8") as fh:
            for copy in range(SCALE_COPIES):
                write_records(fh, [dataclasses.replace(rec, round_id=rec.round_id + copy * n_rounds)
                                   for rec in records])
        n_big = n_lines * SCALE_COPIES
        scale_us = round(timed(lambda: Transcript.read(big)) * 1e3 / n_big, 4)
        records_b, peak_b = traced(lambda: Transcript.read(big))
        if not cmd_audit(big, cfg).ok:
            sys.exit("bench_audit: the repeated transcript does not audit clean")
        scale_audit_us = round(timed(lambda: cmd_audit(big, cfg)) * 1e3 / n_big, 4)
        report_b, audit_peak_b = traced(lambda: cmd_audit(big, cfg))
        _, base_peak_b = traced(lambda: cmd_audit(path, cfg))
    print(f"read: {n_lines} lines, {read_us:.3f} us/line; write {write_us:.3f} us/record; "
          f"cmd_audit {command_ms:.3f} ms")
    scale = {"lines": n_big, "us_per_line": scale_us,
             "records_mb": round(records_b / 1e6, 3), "peak_mb": round(peak_b / 1e6, 3)}
    print(f"read x{SCALE_COPIES}: {n_big} lines, {scale_us:.3f} us/line; records "
          f"{scale['records_mb']:.1f} MB, peak {scale['peak_mb']:.1f} MB (tracemalloc)")
    scale_audit = {"lines": n_big, "us_per_line": scale_audit_us,
                   "report_mb": round(report_b / 1e6, 3), "peak_mb": round(audit_peak_b / 1e6, 3),
                   "base_peak_mb": round(base_peak_b / 1e6, 3)}
    print(f"cmd_audit x{SCALE_COPIES}: {scale_audit_us:.3f} us/line; report "
          f"{scale_audit['report_mb']:.1f} MB, peak {scale_audit['peak_mb']:.1f} MB, "
          f"one copy's peak {scale_audit['base_peak_mb']:.1f} MB (tracemalloc)")

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    doc[args.label] = {
        "commit": commit_of(args.src),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]},
        "audit_us_per_record": audit_us,
        "read_us_per_line": read_us,
        "read_lines": n_lines,
        "write_us_per_record": write_us,
        "audit_command_ms": command_ms,
        "scale_read": scale,
        "scale_audit": scale_audit,
        "unit": "median over timed blocks; scale_read and scale_audit MB from tracemalloc",
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
