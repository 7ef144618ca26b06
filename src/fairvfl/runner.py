"""Experiment orchestration: training runs with streamed transcripts and
best-by-validation checkpointing, attack evaluation of frozen checkpoints,
transcript audits, and sweeps."""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import AttackConfig, ExperimentConfig
from .data import (
    VerticalDataset,
    default_partition,
    generate_synthetic,
    iterate_batches,
    load_adult,
    partition_vertical,
    synthetic_partition,
    write_shard_manifest,
)
from .errors import ConfigError, EvaluationError
from .evaluation import (
    MetricsReport,
    attack_f1,
    class_histogram,
    majority_macro_f1,
    privacy_inference_attack,
    shuffled_label_macro_f1,
    task_metrics,
    train_attacker_ensemble,
)
from .models import ModelBundle, forward_unified
from .protocol import (
    AuditPolicy,
    FederationConfig,
    Transcript,
    build_federation,
    audit_transcript,
)
from .protocol.audit import per_round_fairness_cost
from .protocol.messages import FAIRNESS_KINDS, Role, write_records


def make_dataset(cfg: ExperimentConfig):
    kind = cfg.dataset.get("kind")
    if kind == "synthetic":
        spec = cfg.synthetic_spec()
        return generate_synthetic(spec), synthetic_partition(spec)
    if kind == "adult":
        ds = load_adult(cfg.dataset["path"], seed=int(cfg.dataset.get("sample_seed", 0)))
        return ds, default_partition(ds, cfg.n_platforms, cfg.partition_seed)
    raise ConfigError(f"unknown dataset kind {kind!r}")


def build_run_federation(cfg: ExperimentConfig, ds: VerticalDataset, pa,
                         payload_digests: bool = False):
    """The federation of a run. Payload digests are off by default: only an
    exported transcript (``cmd_train``) reads them."""
    fed_cfg = FederationConfig(
        weights=cfg.loss_weights(),
        ldp=cfg.ldp_config(),
        top_pool=cfg.top_pool,
        mode=cfg.mode,
        payload_digests=payload_digests,
    )
    return build_federation(ds, pa, cfg.rep_widths(), fed_cfg, cfg.seed,
                            optim=cfg.optim_params(), p_drop=cfg.p_drop)


def _epoch_batch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence([seed, 0xBA7C4, epoch]).generate_state(1)[0])


def _platform_cols(feature_shards, ids):
    return [shard.take(ids) for shard in feature_shards]


def predict_classes(bundle: ModelBundle, feature_shards, ids, batch: int = 512):
    """Eval-mode predictions via direct composition (no federation traffic)."""
    out = []
    for i in range(0, ids.shape[0], batch):
        chunk = ids[i:i + batch]
        s, _ = forward_unified(bundle, _platform_cols(feature_shards, chunk))
        probs = bundle.task_head.predict(s)
        out.append(np.argmax(probs, axis=1))
    return np.concatenate(out)


def representations(bundle: ModelBundle, feature_shards, ids, batch: int = 512,
                    protected: bool = True):
    """Frozen unified (and optionally protected) reps for a set of samples."""
    reps, prot = [], {f: [] for f in bundle.features} if protected else {}
    for i in range(0, ids.shape[0], batch):
        chunk = ids[i:i + batch]
        s, _ = forward_unified(bundle, _platform_cols(feature_shards, chunk))
        reps.append(s)
        if protected:
            for f in bundle.features:
                a, _ = bundle.mappers[f].forward(s)
                prot[f].append(a)
    unified = np.concatenate(reps)
    return unified, {f: np.concatenate(v) for f, v in prot.items()}


def _snapshot_params(bundle: ModelBundle):
    return {b.name: (b.w.copy(), None if b.b is None else b.b.copy())
            for b in bundle.named_blocks()}


def _restore_params(bundle: ModelBundle, snap) -> None:
    for b in bundle.named_blocks():
        w, bias = snap[b.name]
        b.w[...] = w
        if bias is not None:
            b.b[...] = bias


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
    checkpoints the best-by-validation-accuracy parameters, and reports task
    metrics of the selected checkpoint."""
    cfg.validate()
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg.write(out / "config.json")

    ds, pa = make_dataset(cfg)
    write_shard_manifest(pa, ds, out / "manifest.json")
    fed = build_run_federation(cfg, ds, pa, payload_digests=True)
    feature_shards, _, _ = partition_vertical(ds, pa)

    val_ids = ds.split_ids("val")
    val_labels = ds.task_labels[val_ids]
    best = {"acc": -1.0, "epoch": -1, "snap": None}
    epoch_rows = []
    comm = {"total_floats": 0, "fairness_floats": 0, "rounds": 0}
    fairness_kinds = {k.value for k in FAIRNESS_KINDS}

    transcript_path = out / "transcript.ndjson"
    with open(transcript_path, "w", encoding="utf-8") as tfh:
        for epoch in range(cfg.epochs):
            batches = iterate_batches(ds, "train", cfg.batch_size,
                                      _epoch_batch_seed(cfg.seed, epoch))
            sums, counts = {}, 0
            for ids in batches:
                result = fed.run_training_round(ids)
                for key, v in result.losses.flat().items():
                    sums[key] = sums.get(key, 0.0) + v
                counts += 1
                records = fed.transcript.drain()
                write_records(tfh, records)
                comm["rounds"] += 1
                for rec in records:
                    comm["total_floats"] += rec.float_count
                    if rec.kind in fairness_kinds:
                        comm["fairness_floats"] += rec.float_count
            val_pred = predict_classes(fed.bundle, feature_shards, val_ids)
            val_acc = float(np.mean(val_pred == val_labels))
            row = {"epoch": epoch, "val_accuracy": val_acc}
            row.update({k: v / max(counts, 1) for k, v in sums.items()})
            epoch_rows.append(row)
            if val_acc > best["acc"]:
                best = {"acc": val_acc, "epoch": epoch, "snap": _snapshot_params(fed.bundle)}

    if best["snap"] is not None:
        _restore_params(fed.bundle, best["snap"])
    checkpoint_path = out / "checkpoint.fvfl"
    save_checkpoint(fed.bundle, checkpoint_path)
    _write_loss_curves(out / "losses.csv", epoch_rows)

    test_ids = ds.split_ids("test")
    test_pred = predict_classes(fed.bundle, feature_shards, test_ids)
    acc, f1 = task_metrics(test_pred, ds.task_labels[test_ids])
    if comm["rounds"]:
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
    fairness and privacy probes plus task metrics."""
    cfg.validate()
    atk: AttackConfig = cfg.attack_config()
    ds, pa = make_dataset(cfg)
    feature_shards, _, _ = partition_vertical(ds, pa)
    schemas = [s.schema() for s in feature_shards]
    bundle = ModelBundle(schemas, cfg.rep_widths(), ds.n_task_classes,
                         {f: ds.sensitive[f].n_classes for f in ds.sensitive},
                         cfg.seed, cfg.optim_params(), cfg.p_drop)
    load_checkpoint(bundle, checkpoint_path)

    train_ids = ds.split_ids("train")
    test_ids = ds.split_ids("test")
    s_train, prot_train = representations(bundle, feature_shards, train_ids)
    s_test, prot_test = representations(bundle, feature_shards, test_ids)

    report = MetricsReport(config_fingerprint=cfg.fingerprint())
    test_pred = predict_classes(bundle, feature_shards, test_ids)
    report.task_accuracy, report.task_f1 = task_metrics(test_pred, ds.task_labels[test_ids])

    attacker_kw = dict(hidden=atk.hidden, lr=atk.lr, batch=atk.batch,
                       max_epochs=atk.max_epochs, patience=atk.patience)
    for feature, col in ds.sensitive.items():
        ens = train_attacker_ensemble(s_train, col.values[train_ids], k=atk.k,
                                      seed=cfg.seed, tag=f"fairness/{feature}",
                                      **attacker_kw)
        res = attack_f1(ens, s_test, col.values[test_ids])
        hist = class_histogram(col.values[test_ids], col.n_classes)
        report.fairness_f1[feature] = {
            "mean": res.mean_f1, "std": res.std_f1, "per_attacker": res.per_attacker,
        }
        report.baselines[feature] = {
            "shuffled": shuffled_label_macro_f1(hist),
            "majority": majority_macro_f1(hist),
        }

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
    if probe_train:
        report.privacy_f1 = privacy_inference_attack(
            {f: prot_train[f] for f in bundle.features},
            {f: prot_test[f] for f in bundle.features},
            probe_train, probe_test, k=atk.k, seed=cfg.seed, **attacker_kw)
        for fname in probe_train:
            hist = class_histogram(probe_test[fname], int(probe_test[fname].max()) + 1)
            report.baselines[f"privacy/{fname}"] = {
                "shuffled": shuffled_label_macro_f1(hist),
                "majority": majority_macro_f1(hist),
            }

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
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
        traffic_ok = all(r["actual"] == r["expected"] for r in self.traffic.values())
        return not self.violations and traffic_ok


def audit_policy_from_config(cfg: ExperimentConfig) -> AuditPolicy:
    widths = cfg.rep_widths()
    kind = cfg.dataset.get("kind")
    n_platforms = cfg.n_platforms
    if kind == "synthetic":
        n_platforms = int(cfg.dataset.get("n_platforms", n_platforms))
    roles = {"task": Role.TASK, "server": Role.SERVER}
    for i in range(n_platforms):
        roles[f"insensitive/{i}"] = Role.INSENSITIVE
    protected = {}
    for f, h in widths.protected.items():
        roles[f"sensitive/{f}"] = Role.SENSITIVE
        protected[f"sensitive/{f}"] = h
    ldp = cfg.ldp_config()
    return AuditPolicy(roles=roles, rep_width=widths.rep, protected_widths=protected,
                       require_ldp_serving=ldp.enabled,
                       require_ldp_training=ldp.enabled and ldp.perturb_training)


def cmd_audit(transcript_path: str | Path, cfg: ExperimentConfig) -> AuditReport:
    cfg.validate()
    transcript = Transcript.read(transcript_path)
    policy = audit_policy_from_config(cfg)
    violations = audit_transcript(transcript, policy)
    traffic = per_round_fairness_cost(transcript)
    return AuditReport(violations, traffic, len(transcript))


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
        if cfg.dataset.get("kind") != "synthetic":
            raise ConfigError("rho sweeps require a synthetic dataset")
        dataset = dict(cfg.dataset)
        dataset["rho"] = value
        return cfg.with_overrides(dataset=dataset)
    raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def run_train_and_attack(cfg: ExperimentConfig, out_dir: str | Path) -> MetricsReport:
    result = cmd_train(cfg, out_dir)
    report = cmd_attack(cfg, result.checkpoint_path, out_dir=None)
    report.comm = result.metrics.comm
    report.write(Path(out_dir) / "metrics.json")
    _write_metrics_table(Path(out_dir) / "metrics.tsv", [report])
    return report


def _sweep_worker(cfg_dict: dict, axis: str, value: float, run_dir: str) -> dict:
    cfg = apply_axis(ExperimentConfig.from_dict(cfg_dict), axis, value)
    report = run_train_and_attack(cfg, run_dir)
    row = {"axis": axis, "value": value, "out": run_dir, "error": ""}
    row.update(report.flat_row())
    return row


def cmd_sweep(cfg: ExperimentConfig, axis: str, values: list[float],
              out_dir: str | Path) -> list[dict]:
    """One full train+attack per axis value; per-run failures are recorded
    and the sweep continues. FAIRVFL_THREADS caps process parallelism."""
    cfg.validate()
    for v in values:
        apply_axis(cfg, axis, v)  # fail fast on bad axis/values
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    workers = max(1, int(os.environ.get("FAIRVFL_THREADS", "1")))
    jobs = [(cfg.to_dict(), axis, v, str(out / f"{axis.replace(':', '_')}={v:g}"))
            for v in values]

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
    _write_tsv(out / "sweep.tsv", rows)
    return rows


def _guarded_worker(job) -> dict:
    cfg_dict, axis, value, run_dir = job
    try:
        return _sweep_worker(cfg_dict, axis, value, run_dir)
    except Exception as exc:  # per-run failures must not kill the sweep
        return {"axis": axis, "value": value, "out": run_dir,
                "error": f"{type(exc).__name__}: {exc}"}


# -- small writers ----------------------------------------------------------


def _write_loss_curves(path: Path, rows: list[dict]) -> None:
    if not rows:
        path.write_text("", encoding="utf-8")
        return
    keys = sorted({k for row in rows for k in row}, key=lambda k: (k != "epoch", k))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(keys) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row.get(k)) for k in keys) + "\n")


def _write_metrics_table(path: Path, reports: list[MetricsReport]) -> None:
    _write_tsv(path, [r.flat_row() for r in reports])


def _write_tsv(path: Path, rows: list[dict]) -> None:
    if not rows:
        path.write_text("", encoding="utf-8")
        return
    keys = sorted({k for row in rows for k in row})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(keys) + "\n")
        for row in rows:
            fh.write("\t".join(_cell(row.get(k)) for k in keys) + "\n")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


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
