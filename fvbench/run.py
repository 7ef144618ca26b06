"""fairvfl benchmark: training-round speed at the paper's and at small widths,
and the train -> audit -> attack pipeline of the command line.

Usage:
    python3 fvbench/run.py --workload paper-fairvfl --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop: one process, one caller, the next round only
after the previous one returns):

  paper-fairvfl   the paper's widths (rep 400, 3 insensitive platforms,
                  gender H=32 and age H=64, batch 32, lambda 1e2/1e1, gamma
                  0.25) on synthetic data shaped like ADULT. The big matrices
                  and the fairness machinery do most of the work.
  small-fairvfl   the same loop at the widths of acceptance criterion C12
                  (rep 64, 2 platforms, one binary feature H=4, 4000 samples):
                  tiny matrices, so per-call Python overhead dominates.
  smoke-pipeline  ``fairvfl train``, ``audit`` and ``attack`` on the
                  synthetic-smoke preset, exporting transcript and checkpoint
                  to a temporary directory: the only path that needs payload
                  digests, and the one that exercises the attack probes.

The two round workloads drive ``Federation.run_training_round`` in memory,
epoch after epoch, and audit each round's records in memory. So that every
workload reports every metric, they also attack a fixed checkpoint (taken
after the first epoch) with ``runner.cmd_attack``.

Every input comes from ``--seed``: the synthetic data's seed and the run's
global seed are both the workload seed. Attackers run a fixed number of epochs
(patience equal to the epoch cap), so the attack phase does the same work
whatever the seed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer split
(see ``spans.py``): self time per training round on the round workloads and
per pipeline run on smoke-pipeline, with epochs (or pipeline runs)
alternating untraced and traced so the tracing overhead is measured in the
same process. Layers a workload does not run while traced read 0 (the round
workloads' attack phase is never traced; smoke-pipeline covers it). Lines
before the JSON are a readable report, with error_rate (failed over attempted
operations); the full report is also written to ``.fvbench/results/``.

Correctness checks, each counted in ``attempted`` and ``failed``: every round
returns finite losses and moves exactly 4*B*sum(H_i) fairness floats; every
audit is clean; attack F1s and task accuracy lie in [0, 1]; two trainings
with the same seed give SHA-256-identical transcript and checkpoint bytes. A
round that raises counts as a failed operation and ends the timed loop; the
run still prints its result, with ``correct`` false.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# One BLAS thread: at these widths a second thread buys no speed, and a
# single-threaded process is less exposed to other load on the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".fvbench"

WORKLOADS = ("paper-fairvfl", "small-fairvfl", "smoke-pipeline")
MIN_ROUNDS = 100  # p90 needs at least ten samples beyond it
HARD_CAP_S = 120.0  # the timed loop never runs longer than this
# Samples of the short phases are spread over the run rather than taken back
# to back: one set-up after every epoch (or pipeline run), an audit after every
# round, an attack after every other epoch. The machine's speed drifts within
# seconds, and a median of samples taken at one moment follows it.
SETUP_REPEATS = 3  # set-ups before the timed loop; one more per epoch in it
AUDIT_REPEATS = 3  # smoke-pipeline: audits per pipeline run, before and after attack
ATTACK_EVERY = 2
MIN_ATTACKS = 3
SMOKE_PRESET = "synthetic-smoke"


def _import_fairvfl():
    """Imports the package from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "fairvfl" / "__init__.py").is_file():
        sys.exit(f"fvbench: no fairvfl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fairvfl

    if Path(fairvfl.__file__).resolve().parent != (SRC / "fairvfl").resolve():
        sys.exit(f"fvbench: imported fairvfl from {fairvfl.__file__}, not from {SRC}")


# -- inputs ------------------------------------------------------------------


def workload_config(name: str, seed: int):
    from fairvfl.config import ExperimentConfig, preset

    if name == "paper-fairvfl":
        return ExperimentConfig(
            mode="fairvfl",
            dataset={"kind": "synthetic", "n_samples": 400, "n_platforms": 3,
                     "numeric_per_platform": 2, "categorical_per_platform": 2,
                     "cat_vocab": 6, "sensitive_classes": {"gender": 2, "age": 5},
                     "rho": 0.6, "seed": seed},
            n_platforms=3,
            widths={"rep": 400, "protected": {"gender": 32, "age": 64}},
            lam={"gender": 1e2, "age": 1e1},
            gamma={"gender": 0.25, "age": 0.25},
            optim={"lr": 1e-4}, batch_size=32, epochs=1, seed=seed,
            attack={"k": 2, "max_epochs": 10, "patience": 10,
                    "privacy_fields": ["cat0_0", "cat1_0"]},
        )
    if name == "small-fairvfl":
        return ExperimentConfig(
            mode="fairvfl",
            dataset={"kind": "synthetic", "n_samples": 4000, "n_platforms": 2,
                     "numeric_per_platform": 2, "categorical_per_platform": 1,
                     "cat_vocab": 4, "sensitive_classes": {"attr": 2},
                     "rho": 0.9, "seed": seed},
            n_platforms=2,
            widths={"rep": 64, "protected": {"attr": 4}, "emb_dim": 8,
                    "encoder_hidden": 32, "attn_heads": 4, "pool_hidden": 32,
                    "head_hidden": 32, "mapper_hidden": 16, "cdisc_hidden": 32,
                    "bdisc_hidden": 16},
            lam={"attr": 100.0}, gamma={"attr": 0.25},
            optim={"lr": 1e-3}, batch_size=32, epochs=1, seed=seed,
            attack={"k": 2, "max_epochs": 4, "patience": 4,
                    "privacy_fields": ["cat0_0", "cat1_0"]},
        )
    base = preset(SMOKE_PRESET)
    return base.with_overrides(dataset={**base.dataset, "seed": seed}, seed=seed,
                               attack={**base.attack, "max_epochs": 10, "patience": 10})


# -- bookkeeping -------------------------------------------------------------


class Checks:
    """Attempted and failed operations; a failure is a raised round, a failed
    output check or an audit violation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {detail}")
        return ok


class RoundFailed(Exception):
    """A training round raised; the clock has already counted it as failed."""


class RoundClock:
    """Times every ``Federation.run_training_round`` call, wherever it is made
    from, and checks what the round returns. Installed for the whole run, in
    traced and untraced stretches alike, so both pay the same."""

    def __init__(self, sum_h: int, checks: Checks, tracer):
        from fairvfl.protocol.messages import FAIRNESS_KINDS

        self.sum_h = sum_h
        self.checks = checks
        self.tracer = tracer
        self.fairness_kinds = {k.value for k in FAIRNESS_KINDS}
        self.recording = False
        self.traced = False
        self.times_ms: dict[bool, list[float]] = {False: [], True: []}
        self.samples: dict[bool, int] = {False: 0, True: 0}
        self.per_round: dict[str, Counter] = {}
        self._original = None

    def install(self) -> None:
        from fairvfl.protocol.federation import Federation

        original = Federation.run_training_round
        traced = self.tracer.span(original, "protocol.round")
        clock = self

        def run_training_round(fed, ids):
            fn = traced if clock.traced else original
            before = clock._traced_counts() if clock.traced else None
            t0 = time.perf_counter()
            try:
                result = fn(fed, ids)
            except Exception as exc:
                clock.checks.record("round", False, f"{type(exc).__name__}: {exc}")
                raise RoundFailed from exc
            dt = time.perf_counter() - t0
            clock._observe(ids, result, dt, before)
            return result

        self._original = original
        Federation.run_training_round = run_training_round

    def uninstall(self) -> None:
        from fairvfl.protocol.federation import Federation

        Federation.run_training_round = self._original

    def _traced_counts(self) -> dict[str, int]:
        t = self.tracer
        return {"digest_bytes": t.digest_bytes_in_round, **t.in_round}

    def _observe(self, ids, result, dt: float, before) -> None:
        losses = result.losses.flat()
        finite = all(math.isfinite(v) for v in losses.values())
        self.checks.record("round losses finite", finite, f"round {result.round_id}: {losses}")
        fairness = sum(r.float_count for r in result.records if r.kind in self.fairness_kinds)
        expected = 4 * len(ids) * self.sum_h
        self.checks.record("round fairness floats", fairness == expected,
                           f"round {result.round_id}: {fairness} != 4*{len(ids)}*{self.sum_h}")
        counts = {"messages": len(result.records),
                  "floats": sum(r.float_count for r in result.records),
                  "fairness_floats": fairness}
        if before is not None:
            after = self._traced_counts()
            counts.update({k: v - before.get(k, 0) for k, v in after.items()})
        for key, value in counts.items():
            self.per_round.setdefault(key, Counter())[value] += 1
        if self.recording:
            self.times_ms[self.traced].append(dt * 1e3)
            self.samples[self.traced] += len(ids)

    def per_round_count(self, key: str) -> int:
        """The count of a full-batch round (the most common value)."""
        table = self.per_round.get(key)
        return table.most_common(1)[0][0] if table else 0


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def in_unit_interval(value) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def check_attack_report(checks: Checks, report: dict) -> None:
    values = [report.get("task_accuracy"), report.get("task_f1")]
    for d in report.get("fairness_f1", {}).values():
        values += [d.get("mean")] + list(d.get("per_attacker", []))
    values += list(report.get("privacy_f1", {}).values())
    ok = bool(report.get("fairness_f1")) and all(in_unit_interval(v) for v in values)
    checks.record("attack F1s and accuracy in [0, 1]", ok, str(values))


def setup(cfg):
    """One dataset and federation build: (seconds, dataset, federation)."""
    from fairvfl import runner

    gc.collect()
    t0 = time.perf_counter()
    ds, pa = runner.make_dataset(cfg)
    fed = runner.build_run_federation(cfg, ds, pa)
    return time.perf_counter() - t0, ds, fed


def timed_setups(cfg, keep: int):
    """SETUP_REPEATS set-ups; returns their times, the dataset and the last
    ``keep`` federations."""
    times, feds = [], []
    for _ in range(SETUP_REPEATS):
        feds = feds[-(keep - 1):] if keep > 1 else []
        seconds, ds, fed = setup(cfg)
        times.append(seconds)
        feds.append(fed)
    return times, ds, feds


def traced_setup(cfg, tracer) -> None:
    tracer.install()
    try:
        setup(cfg)
    finally:
        tracer.uninstall()


# -- the round workloads -------------------------------------------------------


def run_rounds(cfg, seconds: float, trace: bool, checks: Checks, tracer, tmp: Path) -> dict:
    from fairvfl import checkpoint, runner
    from fairvfl.protocol import audit

    sum_h = sum(cfg.rep_widths().protected.values())
    setup_times, ds, (fed, twin) = timed_setups(cfg, keep=2)
    clock = RoundClock(sum_h, checks, tracer)
    hashes = []
    attack_s, audit_s = [], []
    epochs = {False: [], True: []}  # (wall seconds, samples) per epoch

    def attack() -> None:
        t0 = time.perf_counter()
        report = runner.cmd_attack(cfg, tmp / "epoch0-1.fvfl")
        attack_s.append(time.perf_counter() - t0)
        check_attack_report(checks, report.to_dict())

    round_failed = False
    clock.install()
    try:
        # First epoch on two federations built from the same seed: warm-up,
        # determinism check, and the fixed checkpoint the attack phase probes.
        for i, f in enumerate((fed, twin)):
            h = hashlib.sha256()
            for ids in runner.iterate_batches(ds, "train", cfg.batch_size,
                                              runner._epoch_batch_seed(cfg.seed, 0)):
                f.run_training_round(ids)
                for rec in f.transcript.drain():
                    h.update((rec.to_line() + "\n").encode("utf-8"))
            ckpt = tmp / f"epoch0-{i}.fvfl"
            checkpoint.save_checkpoint(f.bundle, ckpt)
            hashes.append({"transcript_sha256": h.hexdigest(),
                           "checkpoint_sha256": sha256_file(ckpt)})
        checks.record("same seed, identical transcript and checkpoint",
                      hashes[0] == hashes[1], str(hashes))
        del f, twin

        policy = audit.AuditPolicy.from_federation(fed)
        clock.recording = True
        start = time.perf_counter()
        epoch = 1
        while True:
            elapsed = time.perf_counter() - start
            enough = trace or len(clock.times_ms[False]) >= MIN_ROUNDS
            if elapsed >= seconds and (enough or elapsed >= HARD_CAP_S):
                break
            traced = trace and epoch % 2 == 0
            if traced:
                tracer.install()
            clock.traced = traced
            try:
                rounds_before = len(clock.times_ms[traced])
                samples_before = clock.samples[traced]
                t0 = time.perf_counter()
                batches = runner.iterate_batches(ds, "train", cfg.batch_size,
                                                 runner._epoch_batch_seed(cfg.seed, epoch))
                batching = time.perf_counter() - t0
                audited, clean = 0.0, True
                for ids in batches:
                    fed.run_training_round(ids)
                    # audit each round's records right after it, so the epoch's
                    # audit time is sampled across the epoch like its rounds
                    records = fed.transcript.drain()
                    t0 = time.perf_counter()
                    violations = audit.audit_transcript(records, policy)
                    audited += time.perf_counter() - t0
                    clean &= not violations
                round_ms = clock.times_ms[traced][rounds_before:]
                epochs[traced].append((batching + sum(round_ms) / 1e3,
                                       clock.samples[traced] - samples_before))
                if not traced:
                    audit_s.append(audited)
            finally:
                if traced:
                    tracer.uninstall()
                clock.traced = False
            checks.record("epoch audit clean", clean, f"epoch {epoch}: audit violations")
            if epoch % ATTACK_EVERY == 0:
                attack()
            setup_times.append(setup(cfg)[0])
            epoch += 1
    except RoundFailed:
        round_failed = True  # counted by the clock; the run ends with correct: false
    finally:
        clock.recording = False
        clock.uninstall()
    while not round_failed and len(attack_s) < MIN_ATTACKS:
        attack()

    return {
        "setup_s": setup_times,
        "train_s": [s for s, _ in epochs[False]],
        "train_samples": [n for _, n in epochs[False]],
        "audit_s": audit_s,
        "attack_s": attack_s,
        "clock": clock,
        "hashes": hashes[0] if hashes else {},
        "units": {"train_s": "one epoch of rounds",
                  "audit_s": "one epoch's records, in memory, round by round",
                  "attack_s": "runner.cmd_attack on the epoch-0 checkpoint",
                  "per_layer": "per training round"},
        "traced_units": len(clock.times_ms[True]),
    }


# -- the pipeline workload -----------------------------------------------------


def cli(argv: list[str]) -> tuple[int, str, float]:
    """Runs one ``fairvfl`` command in this process: exit code, output, seconds."""
    from fairvfl import cli as fairvfl_cli

    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = fairvfl_cli.main(argv)
    except Exception:  # a crashed phase is a failed operation, not a crashed benchmark
        code = -1
        out.write(traceback.format_exc())
    return code, out.getvalue(), time.perf_counter() - t0


def run_pipeline(cfg, seconds: float, trace: bool, checks: Checks, tracer, tmp: Path) -> dict:
    from fairvfl import runner

    sum_h = sum(cfg.rep_widths().protected.values())
    setup_times, ds, (fed,) = timed_setups(cfg, keep=1)
    cfg_path = tmp / "config.json"
    overrides = {k: getattr(cfg, k) for k in ("dataset", "seed", "attack")}
    cfg_path.write_text(json.dumps(overrides), encoding="utf-8")
    common = ["--preset", SMOKE_PRESET, "--config", str(cfg_path)]

    clock = RoundClock(sum_h, checks, tracer)
    clock.install()
    train_s = {False: [], True: []}
    audit_s, attack_s, train_samples = [], [], []
    reference = None
    try:
        # warm-up: one epoch on a federation built during set-up
        for ids in runner.iterate_batches(ds, "train", cfg.batch_size,
                                          runner._epoch_batch_seed(cfg.seed, 0)):
            fed.run_training_round(ids)
            fed.transcript.drain()
        del fed

        clock.recording = True
        start = time.perf_counter()
        it = 0
        while True:
            elapsed = time.perf_counter() - start
            if it >= 2 and elapsed >= seconds or elapsed >= HARD_CAP_S:
                break
            traced = trace and it % 2 == 1
            out = tmp / f"run{it}"
            if traced:
                tracer.install()
            clock.traced = traced
            samples_before = clock.samples[traced]
            try:
                code, log, t_train = cli(["train", *common, "--out", str(out)])
                audit_argv = ["audit", *common, "--transcript", str(out / "transcript.ndjson")]
                audits = [cli(audit_argv)]
                code_k, log_k, t_attack = cli(["attack", *common, "--checkpoint",
                                               str(out / "checkpoint.fvfl"),
                                               "--out", str(out / "attack")])
                audits += [cli(audit_argv) for _ in range(AUDIT_REPEATS - 1)]
            finally:
                if traced:
                    tracer.uninstall()
                clock.traced = False

            train_ok = code == 0
            if train_ok:
                metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
                train_ok = all(in_unit_interval(metrics.get(k))
                               for k in ("task_accuracy", "task_f1"))
            checks.record("fairvfl train", train_ok, log.strip()[-300:])
            for code_a, log_a, _ in audits:
                checks.record("fairvfl audit reports ok", code_a == 0, log_a.strip()[-300:])
            if checks.record("fairvfl attack", code_k == 0, log_k.strip()[-300:]):
                check_attack_report(checks, json.loads(
                    (out / "attack" / "metrics.json").read_text(encoding="utf-8")))
            if train_ok:
                hashes = {"transcript_sha256": sha256_file(out / "transcript.ndjson"),
                          "checkpoint_sha256": sha256_file(out / "checkpoint.fvfl")}
                if reference is None:
                    reference = hashes
                else:
                    checks.record("same seed, identical transcript and checkpoint",
                                  hashes == reference, f"{hashes} != {reference}")
            shutil.rmtree(out, ignore_errors=True)

            train_s[traced].append(t_train)
            if not traced:
                audit_s += [t for _, _, t in audits]
                attack_s.append(t_attack)
                train_samples.append(clock.samples[False] - samples_before)
            setup_times.append(setup(cfg)[0])
            it += 1
    except RoundFailed:
        pass  # counted by the clock; the run ends with correct: false
    finally:
        clock.recording = False
        clock.uninstall()

    return {
        "setup_s": setup_times,
        "train_s": train_s[False],
        "train_samples": train_samples,
        "audit_s": audit_s,
        "attack_s": attack_s,
        "clock": clock,
        "hashes": reference or {},
        "units": {"train_s": "fairvfl train", "audit_s": "fairvfl audit",
                  "attack_s": "fairvfl attack", "per_layer": "per pipeline run"},
        "traced_units": len(train_s[True]),
    }


# -- reporting -----------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    import numpy as np
    from fairvfl import digest

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "compiled_fnv": bool(digest.HAVE_COMPILED_FNV),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        env["blas"] = "unknown"
    env["blas_threads"] = blas_threads()
    return env


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def end_to_end(res: dict) -> dict:
    """Round times as median and p90; phase times as the mean of their samples.

    The machine this was tuned on switches between a fast and a slow state
    (about 1.4x apart) for seconds to minutes at a time. A median of phase
    samples jumps from one state to the other between runs; their mean moves
    with the share of the run spent in each, and read steadier over ten seeds.
    """
    rounds = res["clock"].times_ms[False]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def mean(values: list[float]) -> float:  # 0 only when a raised round ended the run
        return statistics.fmean(values) if values else 0.0

    train_s = sum(res["train_s"])
    return {
        "setup_s": (mean(res["setup_s"]), "s"),
        "train_samples_per_s": (sum(res["train_samples"]) / train_s if train_s else 0.0, "1/s"),
        "round_ms.p50": (statistics.median(rounds) if rounds else 0.0, "ms"),
        "round_ms.p90": (percentile(rounds, 90), "ms"),
        "train_s": (mean(res["train_s"]), "s"),
        "audit_s": (mean(res["audit_s"]), "s"),
        "attack_s": (mean(res["attack_s"]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(res: dict, tracer, setup_tracer) -> dict:
    clock = res["clock"]
    units = max(res["traced_units"], 1)  # traced rounds, or traced pipeline runs
    t = tracer

    def ms(name: str) -> float:
        return t.self_ms(name) / units

    out = {}
    digest_ms = t.self_ms("protocol.digest")
    out["protocol.digest.ms"] = (ms("protocol.digest"), "ms")
    out["protocol.digest.mb_per_s"] = (t.digest_bytes / 1e6 / (digest_ms / 1e3)
                                       if digest_ms else 0.0, "MB/s")
    out["protocol.digest.bytes_per_round"] = (clock.per_round_count("digest_bytes"), "B")
    out["nn.adam_step.ms"] = (ms("nn.adam_step"), "ms")
    out["nn.zero_grad.ms"] = (ms("nn.zero_grad"), "ms")
    out["nn.adam_step.calls_per_round"] = (clock.per_round_count("nn.adam_step"), "count")
    out["nn.adam_update.calls_per_round"] = (clock.per_round_count("nn.adam_update"), "count")
    out["nn.zero_grad.block_calls_per_round"] = (clock.per_round_count("nn.zero_grad_block"),
                                                 "count")
    out["nn.layer_calls_per_round"] = (clock.per_round_count("nn.layer_call"), "count")
    for comp in ("encoder", "attention", "pool", "task_head", "mapper", "cdisc", "bdisc"):
        for d in ("fwd", "bwd"):
            out[f"models.{comp}.{d}_ms"] = (ms(f"models.{comp}.{d}"), "ms")
    for name in ("select_negatives", "combine_overall_grad", "contrastive_game", "bias_game"):
        out[f"adversarial.{name}.ms"] = (ms(f"adversarial.{name}"), "ms")
    for name in ("round", "send", "handle", "record_of"):
        out[f"protocol.{name}.self_ms"] = (ms(f"protocol.{name}"), "ms")
    out["protocol.messages_per_round"] = (clock.per_round_count("messages"), "count")
    out["protocol.floats_per_round"] = (clock.per_round_count("floats"), "count")
    out["protocol.fairness_floats_per_round"] = (clock.per_round_count("fairness_floats"),
                                                 "count")
    for name in ("transcript_write", "transcript_read", "audit"):
        out[f"protocol.{name}.ms"] = (ms(f"protocol.{name}"), "ms")
    out["checkpoint.save.ms"] = (ms("checkpoint.save"), "ms")
    out["checkpoint.load.ms"] = (ms("checkpoint.load"), "ms")
    out["runner.cmd.self_ms"] = (ms("runner.cmd"), "ms")
    out["runner.predict_classes.s"] = (t.incl_s("runner.predict_classes") / units, "s")
    out["runner.representations.s"] = (t.incl_s("runner.representations") / units, "s")
    out["runner.snapshot_params.ms"] = (ms("runner.snapshot_params"), "ms")
    out["runner.writers.ms"] = (ms("runner.writers"), "ms")
    out["evaluation.attacker_ensemble.s"] = (t.incl_s("evaluation.attacker_ensemble") / units,
                                             "s")
    out["evaluation.privacy_attack.s"] = (t.incl_s("evaluation.privacy_attack") / units, "s")
    out["evaluation.attacker_train_steps"] = (
        t.calls.get("evaluation.attacker_train_step", 0) // units, "count")
    out["evaluation.attacker_useful_epoch_ratio"] = (
        t.holdout_gains / t.holdout_epochs if t.holdout_epochs else 0.0, "ratio")
    out["data.make_dataset.s"] = (setup_tracer.self_ms("data.make_dataset") / 1e3, "s")
    out["models.bundle_build.ms"] = (setup_tracer.self_ms("models.bundle_build"), "ms")
    out["data.iterate_batches.ms"] = (ms("data.iterate_batches"), "ms")
    out["data.shard_take.ms"] = (ms("data.shard_take"), "ms")
    untraced, traced = clock.times_ms[False], clock.times_ms[True]
    if untraced and traced:
        p50_u, p50_t = statistics.median(untraced), statistics.median(traced)
        out["trace.overhead_ms"] = (p50_t - p50_u, "ms")
        out["trace.overhead_pct"] = (100.0 * (p50_t - p50_u) / p50_u, "%")
    else:
        out["trace.overhead_ms"] = (0.0, "ms")
        out["trace.overhead_pct"] = (0.0, "%")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_fairvfl()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import Tracer

    checks = Checks()
    tracer, setup_tracer = Tracer(), Tracer()
    cfg = workload_config(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        runner_fn = run_pipeline if args.workload == "smoke-pipeline" else run_rounds
        res = runner_fn(cfg, args.seconds, bool(args.trace), checks, tracer, tmp)
        if args.trace:
            traced_setup(cfg, setup_tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = environment()
    e2e = end_to_end(res)
    metrics = per_layer(res, tracer, setup_tracer) if args.trace else e2e
    clock = res["clock"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "error_rate": checks.failed / max(checks.attempted, 1),
        "timed_rounds": {"untraced": len(clock.times_ms[False]),
                         "traced": len(clock.times_ms[True])},
        "units": res["units"],
        "hashes": res["hashes"],
        "samples": {k: res[k] for k in ("setup_s", "train_s", "audit_s", "attack_s")},
        "failures": checks.failures,
        "tracer_missing_targets": sorted(tracer.missing | setup_tracer.missing),
    }
    if args.trace:
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    print(f"fvbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"timed rounds: {report['timed_rounds']}  units: {res['units']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<40} {report['error_rate']:>14.6g} ratio "
          f"({checks.failed} of {checks.attempted} operations failed)")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    print("hashes: " + json.dumps(res["hashes"], sort_keys=True))

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
