"""Checks that two source trees write bitwise-identical artifacts.

Runs ``fairvfl train`` and then ``fairvfl attack`` on the synthetic-smoke
preset for seeds 1-3, once more in vfl mode (a ``{"mode": "vfl"}``
config over the preset, seed 1, shown as ``1vfl``) and once more with LDP
on (``{"ldp": {"enabled": True}}``, seed 1, shown as ``1ldp``). Each run
goes once with this repository's ``src/`` and once with the ``src/`` given
by ``--src``, each command in its own subprocess and output directory under
a temporary directory. It compares the SHA-256 of the
transcript, the checkpoint, the training ``metrics.json`` and ``losses.csv``,
and the attack ``metrics.json``. It runs ``fairvfl audit`` with each tree on
that tree's own transcript and compares the exit code and the stdout bytes
(the ``audit report`` row, shown as the exit code and the stdout's SHA-256).
It also reads each tree's transcript with that tree's ``Transcript.read``
and writes the records back with its ``write_records``, which must give the
file's bytes again. It prints one row per seed and artifact, and for a
transcript that differs, the first line that does: its round, sender and
kind, and which fields differ. It exits 1 on any mismatch, failed round trip
or failed command:

    python benchmarks/check_artifacts.py --src OTHER_TREE/src

Only the transcript and the checkpoint witness training bit for bit. The
``losses.csv`` cells are floats to six significant digits
(``evaluation.format_cell``) and the metrics are aggregates, so those rows
can read ``same`` when the training bits differ: a change that keeps the
bits must show the transcript and checkpoint rows ``same``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESET = "synthetic-smoke"
# (row label, seed, config over the preset)
RUNS = (("1", 1, {}), ("2", 2, {}), ("3", 3, {}), ("1vfl", 1, {"mode": "vfl"}),
        ("1ldp", 1, {"ldp": {"enabled": True}}))
# (label, run directory, file name)
ARTIFACTS = (("transcript", "train", "transcript.ndjson"),
             ("checkpoint", "train", "checkpoint.fvfl"),
             ("train metrics", "train", "metrics.json"),
             ("losses", "train", "losses.csv"),
             ("attack metrics", "attack", "metrics.json"))
# one row per artifact, then the audit report's exit code and stdout
LABELS = [label for label, _, _ in ARTIFACTS] + ["audit report"]
# Imports fairvfl from the tree whose src/ is argv[1], and refuses to run one
# imported from anywhere else.
PRELUDE = """
import sys
from pathlib import Path
src = Path(sys.argv.pop(1)).resolve()
sys.path.insert(0, str(src))
import fairvfl.cli
if not Path(fairvfl.cli.__file__).resolve().is_relative_to(src):
    sys.exit(f"imported fairvfl from {fairvfl.cli.__file__}, not from {src}")
"""
# Runs that tree's command line.
LAUNCH = PRELUDE + "sys.exit(fairvfl.cli.main(sys.argv[1:]))\n"
# Reads the transcript argv[1] and writes its records back; exits 3 if the
# bytes differ from the file's.
ROUND_TRIP = PRELUDE + """
import io
from fairvfl.protocol.messages import Transcript, write_records
path = Path(sys.argv[1])
buf = io.StringIO()
write_records(buf, Transcript.read(path).records)
sys.exit(0 if buf.getvalue().encode("utf-8") == path.read_bytes() else 3)
"""


def run_tree(src: Path, seed: int, config: Path, out: Path) -> None:
    """``fairvfl train`` then ``fairvfl attack`` with the tree at ``src``."""
    common = ["--preset", PRESET, "--config", str(config), "--seed", str(seed)]
    for cmd in (["train", *common, "--out", str(out / "train")],
                ["attack", *common, "--out", str(out / "attack"),
                 "--checkpoint", str(out / "train" / "checkpoint.fvfl")]):
        proc = subprocess.run([sys.executable, "-c", LAUNCH, str(src), *cmd],
                              cwd=out.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{src}: fairvfl {cmd[0]} --seed {seed} exited "
                               f"{proc.returncode}:\n{proc.stderr}")


def audit_report(src: Path, seed: int, config: Path, transcript: Path) -> str:
    """``fairvfl audit`` of ``transcript`` with the tree at ``src``: its exit
    code (1 means violations) and the SHA-256 of its stdout."""
    proc = subprocess.run([sys.executable, "-c", LAUNCH, str(src), "audit", "--preset",
                           PRESET, "--config", str(config), "--seed", str(seed),
                           "--transcript", str(transcript)],
                          capture_output=True)
    if proc.returncode not in (0, 1) or proc.stderr:
        raise RuntimeError(f"{src}: fairvfl audit --seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr.decode(errors='replace')}")
    return f"exit {proc.returncode} {hashlib.sha256(proc.stdout).hexdigest()[:9]}"


def round_trips(src: Path, transcript: Path) -> bool:
    """Whether the tree at ``src`` reads and rewrites ``transcript`` byte for byte."""
    proc = subprocess.run([sys.executable, "-c", ROUND_TRIP, str(src), str(transcript)],
                          capture_output=True, text=True)
    if proc.returncode not in (0, 3):
        raise RuntimeError(f"{src}: transcript round trip exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return proc.returncode == 0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def first_difference(this: Path, other: Path) -> str | None:
    """Where two transcripts first differ: the line, its round, sender and
    kind in this tree's file, and each differing field with both values."""
    with open(this, encoding="utf-8") as fa, open(other, encoding="utf-8") as fb:
        for lineno, (a, b) in enumerate(itertools.zip_longest(fa, fb), start=1):
            if a == b:
                continue
            if a is None or b is None:
                return f"line {lineno}: only in {'other' if a is None else 'this'}"
            try:
                ra, rb = json.loads(a), json.loads(b)
                where = f"round {ra['round']} {ra['sender']} {ra['kind']}"
            except (ValueError, KeyError, TypeError):
                return f"line {lineno}: not a transcript record in one tree"
            fields = [f"{k} {ra.get(k)!r} vs {rb.get(k)!r}"
                      for k in dict.fromkeys([*ra, *rb]) if ra.get(k) != rb.get(k)]
            return f"line {lineno}, {where}: {'; '.join(fields) or 'same values, other bytes'}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="the other tree's src/ directory")
    args = parser.parse_args()
    trees = {"this": ROOT / "src", "other": args.src.resolve()}

    mismatches = failed_trips = 0
    print(f"{'seed':>4}  {'artifact':<15} {'this':<16} {'other':<16} result")
    with tempfile.TemporaryDirectory(prefix="check_artifacts-") as tmp:
        for label, seed, overrides in RUNS:
            digests, trips = {}, {}
            config = Path(tmp) / f"config-{label}.json"
            config.write_text(json.dumps(overrides), encoding="utf-8")
            outs = {name: Path(tmp) / f"{name}-seed{label}" for name in trees}
            for name, src in trees.items():
                out = outs[name]
                transcript = out / "train" / "transcript.ndjson"
                try:
                    run_tree(src, seed, config, out)
                    trips[name] = round_trips(src, transcript)
                    report = audit_report(src, seed, config, transcript)
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 1
                digests[name] = [sha256(out / d / f) for _, d, f in ARTIFACTS] + [report]
            for artifact, a, b in zip(LABELS, digests["this"], digests["other"]):
                mismatches += a != b
                print(f"{label:>4}  {artifact:<15} {a[:16]} {b[:16]} "
                      f"{'same' if a == b else 'DIFFERENT'}")
                if artifact == "transcript" and a != b:
                    path = Path("train") / "transcript.ndjson"
                    print(f"      first difference: "
                          f"{first_difference(outs['this'] / path, outs['other'] / path)}")
            failed_trips += list(trips.values()).count(False)
            cells = ["bytes same" if ok else "CHANGED" for ok in trips.values()]
            print(f"{label:>4}  {'round trip':<15} {cells[0]:<16} {cells[1]:<16} "
                  f"{'ok' if all(trips.values()) else 'FAILED'}")
    print(f"{mismatches} mismatched artifact(s), {failed_trips} failed round trip(s)")
    return 1 if mismatches or failed_trips else 0


if __name__ == "__main__":
    sys.exit(main())
