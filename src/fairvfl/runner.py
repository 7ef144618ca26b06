"""Experiment orchestration: training runs with streamed transcripts and
best-by-validation checkpointing, attack evaluation of frozen checkpoints,
transcript audits, and sweeps."""

from __future__ import annotations

import ctypes
import functools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .config import ExperimentConfig
from .data import (
    SyntheticSpec,
    VerticalDataset,
    default_partition,
    generate_synthetic,
    iterate_batches,
    load_adult,
    synthetic_partition,
    write_shard_manifest,
)
from .errors import ConfigError, EvaluationError, NumericError
from .evaluation import (
    MetricsReport,
    attack_f1,
    format_cell,
    random_baselines,
    task_metrics,
    train_attacker_ensembles,
)
from .models import ModelBundle, forward_unified
from .protocol import AuditPolicy, Federation
from .protocol.audit import audit_file, fairness_comm_cost
from .protocol.messages import write_records


def make_dataset(cfg: ExperimentConfig):
    spec = cfg.dataset_spec()
    if isinstance(spec, SyntheticSpec):
        return generate_synthetic(spec), synthetic_partition(spec)
    ds = load_adult(spec.path, seed=spec.sample_seed)
    return ds, default_partition(ds, cfg.n_platforms, cfg.partition_seed)


_OPENBLAS_SET_THREADS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads64_")


@functools.cache
def _openblas_set_threads():
    """The set-threads function of the OpenBLAS that numpy loaded, or None."""
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
        for name in _OPENBLAS_SET_THREADS:
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return setter
    return None


def pin_blas_threads() -> None:
    """Runs the OpenBLAS that numpy loaded on one thread; does nothing on any
    other BLAS. At these widths a second thread buys no speed, and a cold
    multi-threaded OpenBLAS takes ~24 ms for each of a process's first ~40
    products. Environment variables come too late: numpy is loaded first."""
    setter = _openblas_set_threads()
    if setter is not None:
        setter(1)


# (M_MMAP_THRESHOLD, 32 MB), (M_TRIM_THRESHOLD, 64 MB) and (M_ARENA_MAX, 1),
# glibc's malloc.h numbering: arrays up to 32 MB come from the heap, up to
# 64 MB of freed heap stays mapped, and every thread allocates from that heap
_HEAP_SETTINGS = ((-3, 32 << 20), (-1, 64 << 20), (-8, 1))


@functools.cache
def keep_freed_heap() -> None:
    """Makes glibc keep freed memory mapped, once per process: with its
    defaults it hands the freed top of the heap and every freed array above
    its dynamic mmap threshold back to the OS, and the next round, attack or
    checkpoint read faults the same pages in again. It also keeps one malloc
    arena: by default each thread that allocates gets an arena of its own,
    so an attack's probe threads (``train_attacker_ensembles``) could not
    reuse the heap kept here and would each grow a heap of their own. Run it
    before any such thread starts. Does nothing where the C library cannot
    be loaded or has no ``mallopt``."""
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param, value in _HEAP_SETTINGS:
        mallopt(param, value)


def build_run_federation(cfg: ExperimentConfig, ds: VerticalDataset, pa,
                         payload_digests: bool = False,
                         checkpoint: str | Path | None = None):
    """The federation of a run, built with the OpenBLAS pinned to one thread
    and freed heap kept mapped: every command that runs a model builds it
    here. Payload digests are off by default: only an exported transcript
    (``cmd_train``) reads them. Given a ``checkpoint`` path, the bundle takes
    that file's weights and draws none (see ``ModelBundle``)."""
    pin_blas_threads()
    keep_freed_heap()
    return Federation(cfg, ds, pa, payload_digests=payload_digests, checkpoint=checkpoint)


# fvbench/run.py imports this and iterate_batches to drive its own loops
def _epoch_batch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence([seed, 0xBA7C4, epoch]).generate_state(1)[0])


_ROWS = 512  # samples per forward pass of the frozen model


def predict_classes(bundle: ModelBundle, unified):
    """Eval-mode task predictions for unified reps from ``representations``,
    classified in chunks of the same ``_ROWS`` rows."""
    return np.concatenate([np.argmax(bundle.task_head.predict(unified[i:i + _ROWS]), axis=1)
                           for i in range(0, unified.shape[0], _ROWS)])


def representations(bundle: ModelBundle, feature_shards, ids, protected: bool = True):
    """Frozen unified (and optionally protected) reps for a set of samples."""
    reps, prot = [], {f: [] for f in bundle.features} if protected else {}
    for i in range(0, ids.shape[0], _ROWS):
        chunk = ids[i:i + _ROWS]
        s, _ = forward_unified(bundle, [shard.take(chunk) for shard in feature_shards])
        reps.append(s)
        if protected:
            for f in bundle.features:
                a, _ = bundle.mappers[f].forward(s)
                prot[f].append(a)
    unified = np.concatenate(reps)
    return unified, {f: np.concatenate(v) for f, v in prot.items()}


def _snapshot_params(bundle: ModelBundle) -> dict[str, np.ndarray]:
    return {key: opt.params.copy() for key, opt in bundle.optim.items()}


def _restore_params(bundle: ModelBundle, snap: dict[str, np.ndarray]) -> None:
    for key, opt in bundle.optim.items():
        opt.params[...] = snap[key]


def _check_finite(bundle: ModelBundle, epoch: int) -> None:
    """Raises ``NumericError`` naming the epoch and the first component whose
    store holds a non-finite weight: a last-round step can leave one while
    every payload it sent was finite."""
    for key, opt in bundle.optim.items():
        if not np.isfinite(opt.params).all():
            raise NumericError(f"non-finite weight in {key} after epoch {epoch}")


def train_epoch(fed: Federation, cfg: ExperimentConfig, ds: VerticalDataset, epoch: int):
    """Runs epoch ``epoch`` of a run: one training round per batch of the
    run's (seed, epoch) shuffle of the train split. Yields each round's
    ``RoundResult``, which holds the round's records, with the transcript
    drained, so the transcript never holds more than one round. Once the
    epoch is exhausted, checks every weight is finite."""
    for ids in iterate_batches(ds, "train", cfg.batch_size, _epoch_batch_seed(cfg.seed, epoch)):
        result = fed.run_training_round(ids)
        fed.transcript.drain()
        yield result
    _check_finite(fed.bundle, epoch)


@dataclass
class RunResult:
    out_dir: Path
    checkpoint_path: Path
    transcript_path: Path
    metrics: MetricsReport
    epochs: list[dict]
    wall_clock_s: float


def cmd_train(cfg: ExperimentConfig, out_dir: str | Path) -> RunResult:
    """Full training run: streams the transcript, tracks per-epoch losses,
    checks every weight is finite before each epoch's validation,
    checkpoints the best-by-validation-accuracy parameters, and reports task
    metrics of the selected checkpoint."""
    cfg.validate()
    t0 = time.perf_counter()
    out = _make_out_dir(out_dir)
    cfg.write(out / "config.json")

    ds, pa = make_dataset(cfg)
    write_shard_manifest(pa, ds, out / "manifest.json")
    fed = build_run_federation(cfg, ds, pa, payload_digests=True)
    feature_shards = [p.shard for p in fed.insensitive]

    val_ids = ds.split_ids("val")
    val_labels = ds.task_labels[val_ids]
    best = {"acc": -1.0}
    epoch_rows = []
    comm = {"total_floats": 0, "fairness_floats": 0, "rounds": 0}

    transcript_path = out / "transcript.ndjson"
    with open(transcript_path, "w", encoding="utf-8") as tfh:
        for epoch in range(cfg.epochs):
            sums, counts = {}, 0
            for result in train_epoch(fed, cfg, ds, epoch):
                for key, v in result.losses.flat().items():
                    sums[key] = sums.get(key, 0.0) + v
                counts += 1
                write_records(tfh, result.records)
                comm["rounds"] += 1
                comm["total_floats"] += sum(rec.float_count for rec in result.records)
                comm["fairness_floats"] += fairness_comm_cost(result.records)
            s_val, _ = representations(fed.bundle, feature_shards, val_ids, protected=False)
            val_pred = predict_classes(fed.bundle, s_val)
            val_acc = float(np.mean(val_pred == val_labels))
            row = {"epoch": epoch, "val_accuracy": val_acc}
            row.update({k: v / counts for k, v in sums.items()})
            epoch_rows.append(row)
            if val_acc > best["acc"]:
                best = {"acc": val_acc, "epoch": epoch, "snap": _snapshot_params(fed.bundle)}

    _restore_params(fed.bundle, best["snap"])
    checkpoint_path = out / "checkpoint.fvfl"
    save_checkpoint(fed.bundle, checkpoint_path)
    _write_loss_curves(out / "losses.csv", epoch_rows)

    test_ids = ds.split_ids("test")
    s_test, _ = representations(fed.bundle, feature_shards, test_ids, protected=False)
    test_pred = predict_classes(fed.bundle, s_test)
    acc, f1 = task_metrics(test_pred, ds.task_labels[test_ids])
    comm["fairness_floats_per_round"] = comm["fairness_floats"] / comm["rounds"]
    metrics = MetricsReport(task_accuracy=acc, task_f1=f1, comm=comm,
                            config_fingerprint=cfg.fingerprint())
    metrics.write(out / "metrics.json")
    _write_metrics_table(out / "metrics.tsv", [metrics])

    wall = time.perf_counter() - t0
    result = RunResult(out, checkpoint_path, transcript_path, metrics, epoch_rows, wall)
    _write_result_summary(out / "result.json", result, best["epoch"])
    return result


def cmd_attack(cfg: ExperimentConfig, checkpoint_path: str | Path,
               out_dir: str | Path | None = None) -> MetricsReport:
    """Regenerates representations with a frozen checkpoint and runs the
    fairness and privacy probes, all their ensembles trained concurrently
    (``train_attacker_ensembles``), plus task metrics."""
    cfg.validate()
    atk = cfg.attack_config()
    ds, pa = make_dataset(cfg)
    train_ids = ds.split_ids("train")
    test_ids = ds.split_ids("test")
    # every privacy field is checked before any probe trains
    probe_train, probe_test = {}, {}
    for fname in atk.privacy_fields:
        if fname not in ds.columns:
            raise EvaluationError(f"privacy field {fname!r} not in the dataset")
        col = ds.columns[fname]
        if col.kind != "cat":
            raise EvaluationError(f"privacy field {fname!r} is numeric; probes are "
                                  "classification only")
        probe_train[fname] = col.values[train_ids]
        probe_test[fname] = col.values[test_ids]

    fed = build_run_federation(cfg, ds, pa, checkpoint=checkpoint_path)
    # made once the inputs are checked (a bad one leaves no directory), before any probe
    out = None if out_dir is None else _make_out_dir(out_dir)
    bundle = fed.bundle
    feature_shards = [p.shard for p in fed.insensitive]

    s_train, prot_train = representations(bundle, feature_shards, train_ids)
    s_test, prot_test = representations(bundle, feature_shards, test_ids)

    report = MetricsReport(config_fingerprint=cfg.fingerprint())
    test_pred = predict_classes(bundle, s_test)
    report.task_accuracy, report.task_f1 = task_metrics(test_pred, ds.task_labels[test_ids])

    # every ensemble trains in one call: a fairness probe of the unified rep
    # per sensitive feature, then a privacy probe of each protected rep per field
    jobs = [(s_train, col.values[train_ids], f"fairness/{feature}")
            for feature, col in ds.sensitive.items()]
    jobs += [(prot_train[f], labels, f"privacy/{fname}/{f}")
             for fname, labels in probe_train.items() for f in bundle.features]
    ensembles = iter(train_attacker_ensembles(jobs, atk, cfg.seed))

    for feature, col in ds.sensitive.items():
        res = attack_f1(next(ensembles), s_test, col.values[test_ids])
        report.fairness_f1[feature] = {
            "mean": res.mean_f1, "std": res.std_f1, "per_attacker": res.per_attacker,
        }
        report.baselines[feature] = random_baselines(col.values[test_ids], col.n_classes)

    for fname, labels in probe_test.items():
        # mean F1 over the protected reps of every feature
        report.privacy_f1[fname] = float(np.mean(
            [attack_f1(next(ensembles), prot_test[f], labels).mean_f1 for f in bundle.features]))
        report.baselines[f"privacy/{fname}"] = random_baselines(labels, int(labels.max()) + 1)

    if out is not None:
        report.write(out / "metrics.json")
        _write_metrics_table(out / "metrics.tsv", [report])
    return report


@dataclass
class AuditReport:
    violations: list
    traffic: dict
    n_records: int

    @property
    def ok(self) -> bool:
        """No violation, the predicted fairness traffic in every round, and
        at least one record: every training run exports a round, so a file
        without one is truncated or not a transcript."""
        traffic_ok = all(r["actual"] == r["expected"] for r in self.traffic.values())
        return self.n_records > 0 and not self.violations and traffic_ok


def audit_policy_from_config(cfg: ExperimentConfig) -> AuditPolicy:
    """The policy of the federation ``make_dataset`` lays out: a synthetic
    dataset's platform count, else the top-level ``n_platforms``."""
    spec = cfg.dataset_spec()
    n_platforms = spec.n_platforms if isinstance(spec, SyntheticSpec) else cfg.n_platforms
    return AuditPolicy.for_run(n_platforms, cfg.rep_widths(), cfg.ldp_config())


def cmd_audit(transcript_path: str | Path, cfg: ExperimentConfig) -> AuditReport:
    """Audits an exported transcript against the run's policy, streaming the
    file when every line is canonical (``audit_file``)."""
    cfg.validate()
    return AuditReport(*audit_file(transcript_path, audit_policy_from_config(cfg)))


# -- sweeps ----------------------------------------------------------------

SWEEP_AXES = ("gamma_c", "lambda", "rho")


def apply_axis(cfg: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    if not np.isfinite(value) or value < 0:
        raise ConfigError(f"axis values must be finite and >= 0, got {value}")
    if axis == "gamma_c":
        return cfg.with_overrides(gamma={f: value for f in cfg.gamma})
    if axis == "lambda":
        return cfg.with_overrides(lam={f: value for f in cfg.lam})
    if axis.startswith("lambda:"):
        feature = axis.split(":", 1)[1]
        if feature not in cfg.lam:
            raise ConfigError(f"unknown feature {feature!r} for lambda sweep")
        lam = dict(cfg.lam)
        lam[feature] = value
        return cfg.with_overrides(lam=lam)
    if axis == "rho":
        if not isinstance(cfg.dataset_spec(), SyntheticSpec):
            raise ConfigError("rho sweeps require a synthetic dataset")
        return cfg.with_overrides(dataset=dict(cfg.dataset, rho=value))
    raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def run_train_and_attack(cfg: ExperimentConfig, out_dir: str | Path) -> MetricsReport:
    result = cmd_train(cfg, out_dir)
    report = cmd_attack(cfg, result.checkpoint_path, out_dir=None)
    report.comm = result.metrics.comm
    report.write(Path(out_dir) / "metrics.json")
    _write_metrics_table(Path(out_dir) / "metrics.tsv", [report])
    return report


def cmd_sweep(cfg: ExperimentConfig, axis: str, values: list[float],
              out_dir: str | Path) -> list[dict]:
    """One full train+attack per axis value; per-run failures are recorded
    and the sweep continues. FAIRVFL_THREADS caps process parallelism."""
    cfg.validate()
    if not values:
        raise ConfigError("a sweep needs at least one axis value")
    run_values: dict[str, float] = {}  # run directory name -> its value
    for v in values:
        apply_axis(cfg, axis, v)  # fail fast on bad axis/values
        name = f"{axis.replace(':', '_')}={v:g}"
        if name in run_values:
            raise ConfigError(f"sweep values {run_values[name]!r} and {v!r} would both "
                              f"write the run directory {name!r}")
        run_values[name] = v
    workers = _sweep_workers()
    out = _make_out_dir(out_dir)
    jobs = [(cfg.to_dict(), axis, v, str(out / name)) for name, v in run_values.items()]

    rows: list[dict] = []
    if workers == 1:
        for job in jobs:
            rows.append(_guarded_worker(job))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_guarded_worker, job) for job in jobs]
            rows = [f.result() for f in futures]

    (out / "sweep.json").write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
    _write_table(out / "sweep.tsv", rows, "\t")
    return rows


def _sweep_workers() -> int:
    """The sweep's process count from ``FAIRVFL_THREADS`` (default 1)."""
    raw = os.environ.get("FAIRVFL_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"FAIRVFL_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def _guarded_worker(job) -> dict:
    """One sweep run's table row; a failed run's row carries its error."""
    cfg_dict, axis, value, run_dir = job
    row = {"axis": axis, "value": value, "out": run_dir, "error": ""}
    try:
        cfg = apply_axis(ExperimentConfig.from_dict(cfg_dict), axis, value)
        row.update(run_train_and_attack(cfg, run_dir).flat_row())
    except Exception as exc:  # per-run failures must not kill the sweep
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


# -- small writers ----------------------------------------------------------


def _make_out_dir(out_dir: str | Path) -> Path:
    """``out_dir``, made with its parents if missing; a path that cannot be
    a directory (a file, or under one) is a ``ConfigError`` naming it."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {str(out)!r}: "
                          f"{exc.strerror or exc}") from None
    return out


def _write_loss_curves(path: Path, rows: list[dict]) -> None:
    _write_table(path, rows, ",", first="epoch")


def _write_metrics_table(path: Path, reports: list[MetricsReport]) -> None:
    _write_table(path, [r.flat_row() for r in reports], "\t")


def _write_table(path: Path, rows: list[dict], sep: str, first: str | None = None) -> None:
    """One column per key of any row, sorted with ``first`` leading; a
    missing value writes an empty cell."""
    if not rows:
        path.write_text("", encoding="utf-8")
        return
    keys = sorted({k for row in rows for k in row}, key=lambda k: (k != first, k))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sep.join(keys) + "\n")
        for row in rows:
            fh.write(sep.join(format_cell(row.get(k)) for k in keys) + "\n")


def _write_result_summary(path: Path, result: RunResult, best_epoch: int) -> None:
    doc = {
        "checkpoint": str(result.checkpoint_path),
        "transcript": str(result.transcript_path),
        "metrics": str(result.out_dir / "metrics.json"),
        "losses": str(result.out_dir / "losses.csv"),
        "best_epoch": best_epoch,
        "wall_clock_s": round(result.wall_clock_s, 3),
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
