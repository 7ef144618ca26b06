"""Attack harnesses and metrics: closed-form metric cases, analytic random
baselines, separability and constant-rep sanity checks, probe isolation, and
the concurrent training of an attack's ensembles."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from fairvfl import evaluation
from fairvfl.errors import EvaluationError
from fairvfl.errors import LabelError
from fairvfl.evaluation import (
    AttackConfig,
    AttackerNet,
    AttackResult,
    attack_f1,
    class_histogram,
    macro_f1,
    majority_macro_f1,
    shuffled_label_macro_f1,
    task_metrics,
    train_attacker_ensemble,
    train_attacker_ensembles,
)
from fairvfl.models import TwoLayerMlp
from fairvfl.nn import Adam, rng_for
from oracles import softmax_cross_entropy_grad


class TestTaskMetrics:
    def test_all_correct(self):
        pred = np.array([0, 1, 1, 0])
        acc, f1 = task_metrics(pred, pred.copy())
        assert (acc, f1) == (1.0, 1.0)

    def test_majority_prediction_closed_form(self):
        # 70/30 binary split, everything predicted class 0
        labels = np.array([0] * 70 + [1] * 30)
        pred = np.zeros(100, dtype=np.int64)
        acc, f1 = task_metrics(pred, labels)
        assert acc == pytest.approx(0.7)
        # F1 for class 0 = 2*0.7/1.7, class 1 = 0; macro ~ 0.41
        assert f1 == pytest.approx((2 * 0.7 / 1.7) / 2, abs=1e-9)
        assert f1 == pytest.approx(0.41, abs=0.005)

    def test_macro_f1_counts_declared_classes(self):
        pred = np.array([0, 0])
        labels = np.array([0, 0])
        assert macro_f1(pred, labels, n_classes=2) == 0.5  # class 1 absent -> 0


class TestBaselines:
    def test_shuffled_baseline_balanced_binary_is_half(self):
        assert shuffled_label_macro_f1(np.array([0.5, 0.5])) == pytest.approx(0.5)

    def test_shuffled_baseline_skewed_five_buckets(self):
        hist = np.array([0.45, 0.3, 0.15, 0.07, 0.03])
        v = shuffled_label_macro_f1(hist)
        assert 0.13 < v < 0.2

    def test_majority_baseline(self):
        hist = np.array([0.7, 0.3])
        assert majority_macro_f1(hist) == pytest.approx((2 * 0.7 / 1.7) / 2)

    def test_histogram(self):
        hist = class_histogram(np.array([0, 0, 1, 2]), 4)
        assert np.allclose(hist, [0.5, 0.25, 0.25, 0.0])


class TestAttackers:
    def test_one_hot_reps_are_fully_decodable(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=400)
        reps = np.eye(3)[labels]
        ens = train_attacker_ensemble(reps[:300], labels[:300],
                                      AttackConfig(k=5, hidden=16, lr=1e-2, max_epochs=60),
                                      1, "onehot")
        assert len(ens.params) == 5
        res = attack_f1(ens, reps[300:], labels[300:])
        assert res.mean_f1 > 0.99
        assert isinstance(res, AttackResult) and len(res.per_attacker) == 5

    def test_constant_reps_hit_majority_baseline(self):
        rng = np.random.default_rng(1)
        labels = (rng.random(600) < 0.3).astype(np.int64)  # ~70/30
        reps = np.ones((600, 8))
        ens = train_attacker_ensemble(reps[:400], labels[:400],
                                      AttackConfig(k=3, hidden=8, lr=1e-2, max_epochs=10),
                                      2, "const")
        res = attack_f1(ens, reps[400:], labels[400:])
        base = majority_macro_f1(class_histogram(labels[400:], 2))
        assert abs(res.mean_f1 - base) < 0.05

    def test_shuffled_labels_match_analytic_baseline(self):
        """Averaged over 5 seeds, shuffled-label attacks land within 0.05 of
        the analytic baseline for a balanced binary histogram."""
        scores = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            reps = rng.normal(size=(500, 12))
            labels = np.arange(500) % 2
            shuffled = labels[rng.permutation(500)]
            ens = train_attacker_ensemble(reps[:350], shuffled[:350],
                                          AttackConfig(k=1, hidden=8, lr=1e-2, max_epochs=10),
                                          seed, f"shuf{seed}")
            scores.append(attack_f1(ens, reps[350:], shuffled[350:]).mean_f1)
        base = shuffled_label_macro_f1(np.array([0.5, 0.5]))
        assert abs(float(np.mean(scores)) - base) < 0.05

    def test_degenerate_labels_rejected(self):
        with pytest.raises(EvaluationError, match="single class"):
            train_attacker_ensemble(np.zeros((10, 4)), np.zeros(10, dtype=np.int64),
                                    AttackConfig(), 0, "degenerate")

    def test_width_mismatch_rejected(self):
        labels = np.arange(20) % 2
        ens = train_attacker_ensemble(np.zeros((20, 4)) + np.eye(20, 4), labels,
                                      AttackConfig(k=1, max_epochs=2, hidden=4), 0, "width")
        with pytest.raises(EvaluationError, match="width"):
            attack_f1(ens, np.zeros((5, 7)), labels[:5])

    def test_repeatable_with_same_seed(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, size=300)
        reps = rng.normal(size=(300, 6)) + labels[:, None]
        atk = AttackConfig(k=2, hidden=8, max_epochs=5)
        a = train_attacker_ensemble(reps, labels, atk, 5, "det")
        b = train_attacker_ensemble(reps, labels, atk, 5, "det")
        ra = attack_f1(a, reps, labels)
        rb = attack_f1(b, reps, labels)
        assert ra.per_attacker == rb.per_attacker


def reference_ensemble(reps, labels, atk, seed, tag):
    """The per-probe trainer the lockstep one must equal: one ``TwoLayerMlp``
    and one ``Adam`` per probe, trained one probe after another. Returns each
    probe's final flat weights and the epochs it trained."""
    k, hidden, lr, batch = atk.k, atk.hidden, atk.lr, atk.batch
    max_epochs, patience = atk.max_epochs, atk.patience
    n, n_classes = reps.shape[0], int(labels.max()) + 1
    out = []
    for i in range(k):
        net = TwoLayerMlp(f"attacker/{tag}/{i}", reps.shape[1], hidden, n_classes, seed + i)
        opt = Adam(net.blocks(), lr=lr)
        rng = rng_for(seed, f"attacker/{tag}/{i}")
        perm = rng.permutation(n)
        n_val = max(1, int(round(n * 0.1)))  # a 10% holdout
        val_idx, tr_idx = perm[:n_val], perm[n_val:]
        best_f1, best_snap, stale, epochs = -1.0, None, 0, 0
        for epochs in range(1, max_epochs + 1):
            order = tr_idx[rng.permutation(tr_idx.shape[0])]
            for lo in range(0, order.shape[0], batch):
                sel = order[lo:lo + batch]
                logits, cache = net.forward(reps[sel])
                net.backward(cache, softmax_cross_entropy_grad(logits, labels[sel]),
                             inputs=False)
                opt.step()
            pred = np.argmax(net.forward(reps[val_idx])[0], axis=1)
            val_f1 = macro_f1(pred, labels[val_idx], n_classes)
            if val_f1 > best_f1 + 1e-4:
                best_f1, best_snap, stale = val_f1, opt.params.copy(), 0
            else:
                stale += 1
                if stale >= patience:
                    break
        if best_snap is not None:
            opt.params[...] = best_snap
        out.append((opt.params, epochs))
    return out


class TestLockstepTrainer:
    """The lockstep trainer against the per-probe reference: every probe's
    final weights bitwise equal."""

    @pytest.mark.parametrize("k,d,n_classes,batch,max_epochs,patience", [
        (1, 4, 2, 32, 4, 4),
        (5, 4, 3, 32, 4, 4),
        (1, 64, 3, 16, 3, 3),
        (5, 64, 2, 32, 3, 3),
        (5, 4, 2, 1, 2, 2),  # one-row batches
    ])
    def test_matches_per_probe_reference(self, k, d, n_classes, batch, max_epochs, patience):
        rng = np.random.default_rng(d + n_classes)
        labels = rng.integers(0, n_classes, size=150)  # 135 train rows: a partial last batch
        reps = rng.normal(size=(150, d)) + labels[:, None]
        atk = AttackConfig(k=k, hidden=16, lr=1e-2, batch=batch, max_epochs=max_epochs,
                           patience=patience)
        ens = train_attacker_ensemble(reps, labels, atk, 7, "ref")
        ref = reference_ensemble(reps, labels, atk, 7, "ref")
        assert len(ens.params) == k
        for got, (want, _) in zip(ens.params, ref):
            assert np.array_equal(got, want)

    def test_retired_probes_match_reference(self, monkeypatch):
        """Patience 1 over 30 epochs retires the probes in different epochs.
        Each probe takes exactly the reference's steps: one too few changes
        its weights, and a retired probe costs no step at all."""
        stack_sizes = []
        step = AttackerNet.train_step
        monkeypatch.setattr(AttackerNet, "train_step", lambda net, x, y: (
            stack_sizes.append(y.shape[0]), step(net, x, y)))
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 3, size=300)
        reps = rng.normal(size=(300, 4)) + 0.3 * labels[:, None]
        atk = AttackConfig(k=5, hidden=8, lr=3e-2, batch=32, max_epochs=30, patience=1)
        ens = train_attacker_ensemble(reps, labels, atk, 3, "retire")
        ref = reference_ensemble(reps, labels, atk, 3, "retire")
        assert len({epochs for _, epochs in ref}) > 1
        assert all(epochs < 30 for _, epochs in ref)
        assert sum(stack_sizes) == sum(epochs for _, epochs in ref) * 9  # 270 rows, batch 32
        for got, (want, _) in zip(ens.params, ref):
            assert np.array_equal(got, want)

    def test_negative_label_rejected(self):
        with pytest.raises(LabelError, match="negative"):
            train_attacker_ensemble(np.zeros((10, 4)), np.arange(10) % 2 - 1,
                                    AttackConfig(), 0, "negative")


class TestPrivacyProbe:
    """A privacy probe: an ensemble on one protected rep, trained through
    ``train_attacker_ensembles`` under the tag ``cmd_attack`` gives it."""

    def test_leaky_reps_decodable(self):
        rng = np.random.default_rng(0)
        field = rng.integers(0, 4, size=500)
        reps = np.eye(4)[field]
        [ens] = train_attacker_ensembles(
            [(reps[:350], field[:350], "privacy/edu/attr")],
            AttackConfig(k=2, hidden=8, lr=1e-2, batch=32, max_epochs=60), 0)
        assert attack_f1(ens, reps[350:], field[350:]).mean_f1 > 0.95

    def test_constant_reps_near_majority(self):
        rng = np.random.default_rng(1)
        field = (rng.random(600) < 0.25).astype(np.int64)
        reps = np.ones((600, 6))
        [ens] = train_attacker_ensembles(
            [(reps[:400], field[:400], "privacy/edu/attr")],
            AttackConfig(k=2, hidden=6, max_epochs=6), 1)
        base = majority_macro_f1(class_histogram(field[400:], 2))
        assert abs(attack_f1(ens, reps[400:], field[400:]).mean_f1 - base) < 0.06

    def test_numeric_field_rejected(self):
        with pytest.raises(EvaluationError, match="classification"):
            train_attacker_ensembles([(np.zeros((10, 2)), np.linspace(0, 1, 10), "privacy/x/a")],
                                     AttackConfig(), 0)


def _axis_softmax(g):
    """The softmax of ``AttackerNet.train_step`` with numpy's axis reductions."""
    g -= g.max(axis=2, keepdims=True)
    np.exp(g, out=g)
    g /= g.sum(axis=2, keepdims=True)
    return g


class TestSlicedSoftmax:
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("c", [2, 5, 7, 8])
    def test_step_matches_axis_reductions(self, c, scale, monkeypatch):
        """One probe step with the column-by-column softmax (c <= 7) leaves
        the store bit for bit as the axis reductions do; at c = 8 the axis
        reductions run. At scale 1e3 the max matters, at scale 1 the sum of
        unsaturated exponentials."""
        rng = np.random.default_rng(c)
        k, b, d = 3, 64, 6
        x = rng.normal(size=(k, b, d)) * scale
        y = rng.integers(0, c, size=(k, b))
        sliced, axis = (AttackerNet("softmax", k, d, 16, c, 1e-2, 4, b) for _ in range(2))
        sliced.train_step(x, y)
        monkeypatch.setattr(evaluation, "_softmax_", _axis_softmax)
        axis.train_step(x, y)
        for store in ("params", "grads", "m", "v"):
            assert np.array_equal(getattr(sliced.opt, store), getattr(axis.opt, store))


class TestEnsemblePool:
    """``train_attacker_ensembles``: a thread per usable CPU, the ensembles
    back in job order and bit for bit those trained alone."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def use(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                                raising=False)
        return use

    @pytest.fixture
    def threads_seen(self, monkeypatch):
        """The thread each ``train_attacker_ensemble`` call ran on, by tag."""
        seen = {}
        real = evaluation.train_attacker_ensemble

        def spy(reps, labels, atk, seed, tag):
            seen[tag] = threading.current_thread()
            return real(reps, labels, atk, seed, tag)

        monkeypatch.setattr(evaluation, "train_attacker_ensemble", spy)
        return seen

    @staticmethod
    def jobs(n=240):
        rng = np.random.default_rng(3)
        out = []
        for d, c, tag in ((64, 2, "fairness/w64"), (16, 5, "privacy/w16"), (8, 3, "privacy/w8")):
            labels = rng.integers(0, c, size=n)
            out.append((rng.normal(size=(n, d)) + labels[:, None], labels, tag))
        return out

    def test_matches_each_ensemble_trained_alone(self, cpus, threads_seen):
        """Three threads, more than this host may have cores, switching
        every microsecond."""
        from fairvfl.runner import pin_blas_threads

        pin_blas_threads()
        cpus(4)
        jobs = self.jobs()
        atk = AttackConfig(k=3, hidden=32, lr=1e-2, batch=32, max_epochs=4, patience=2)
        alone = [train_attacker_ensemble(reps, labels, atk, 5, tag) for reps, labels, tag in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                threads_seen.clear()
                pooled = train_attacker_ensembles(jobs, atk, 5)
                assert threading.current_thread() not in threads_seen.values()
                assert [e.n_classes for e in pooled] == [2, 5, 3]
                assert [e.in_width for e in pooled] == [64, 16, 8]
                for got, want in zip(pooled, alone):
                    assert np.array_equal(got.params, want.params)
        finally:
            sys.setswitchinterval(interval)

    def test_one_cpu_starts_no_thread(self, cpus, threads_seen, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool started on one CPU")

        cpus(1)
        monkeypatch.setattr(evaluation, "ThreadPoolExecutor", no_pool)
        before = threading.active_count()
        atk = AttackConfig(k=2, hidden=8, max_epochs=2)
        assert len(train_attacker_ensembles(self.jobs(60), atk, 0)) == 3
        assert set(threads_seen.values()) == {threading.current_thread()}
        assert threading.active_count() == before

    @pytest.mark.parametrize("n_cpus", [1, 4])
    def test_first_failing_job_raises(self, n_cpus, cpus, monkeypatch):
        """Job 1's degenerate labels, as the serial loop raises, even when
        job 2's negative label fails first."""
        real = evaluation.train_attacker_ensemble

        def slow_first(reps, labels, atk, seed, tag):
            if tag == "one":
                time.sleep(0.05)
            return real(reps, labels, atk, seed, tag)

        cpus(n_cpus)
        monkeypatch.setattr(evaluation, "train_attacker_ensemble", slow_first)
        jobs = [(np.zeros((10, 4)), np.zeros(10, dtype=np.int64), "one"),
                (np.zeros((10, 4)), np.arange(10) % 2 - 1, "two")]
        with pytest.raises(EvaluationError, match="degenerate labels for one") as err:
            train_attacker_ensembles(jobs, AttackConfig(), 0)
        assert err.type is EvaluationError

    def test_no_thread_outlives_cmd_attack(self, tmp_path, tiny_dataset, cpus, threads_seen):
        from conftest import make_federation, train_batches
        from fairvfl.checkpoint import save_checkpoint
        from fairvfl.config import ExperimentConfig
        from fairvfl.runner import cmd_attack

        ds, pa = tiny_dataset
        fed = make_federation(ds, pa)
        fed.run_training_round(train_batches(ds)[0])
        ckpt = tmp_path / "pool.fvfl"
        save_checkpoint(fed.bundle, ckpt)
        cfg = ExperimentConfig(
            mode="fairvfl",
            dataset={"kind": "synthetic", "n_samples": 300, "n_platforms": 2, "seed": 5},
            widths={"rep": 16, "protected": {"attr": 8}, "emb_dim": 4,
                    "encoder_hidden": 8, "attn_heads": 2, "pool_hidden": 6,
                    "head_hidden": 8, "mapper_hidden": 8, "cdisc_hidden": 8,
                    "bdisc_hidden": 8},
            lam={"attr": 2.0}, gamma={"attr": 0.25},
            seed=11, epochs=1,
            attack={"k": 2, "hidden": 8, "max_epochs": 3, "privacy_fields": ["cat0_0"]},
        )
        cpus(4)
        before = threading.active_count()
        cmd_attack(cfg, ckpt)
        assert sorted(threads_seen) == ["fairness/attr", "privacy/cat0_0/attr"]
        assert threading.current_thread() not in threads_seen.values()
        assert threading.active_count() == before


class TestProbeIsolation:
    def test_checkpoint_bytes_identical_after_attack(self, tmp_path, tiny_dataset):
        from conftest import make_federation, train_batches
        from fairvfl.checkpoint import save_checkpoint
        from fairvfl.config import ExperimentConfig
        from fairvfl.runner import cmd_attack

        ds, pa = tiny_dataset
        fed = make_federation(ds, pa)
        for ids in train_batches(ds)[:2]:
            fed.run_training_round(ids)
        ckpt = tmp_path / "probe.fvfl"
        save_checkpoint(fed.bundle, ckpt)
        before = ckpt.read_bytes()

        cfg = ExperimentConfig(
            mode="fairvfl",
            dataset={"kind": "synthetic", "n_samples": 300, "n_platforms": 2, "seed": 5},
            widths={"rep": 16, "protected": {"attr": 8}, "emb_dim": 4,
                    "encoder_hidden": 8, "attn_heads": 2, "pool_hidden": 6,
                    "head_hidden": 8, "mapper_hidden": 8, "cdisc_hidden": 8,
                    "bdisc_hidden": 8},
            lam={"attr": 2.0}, gamma={"attr": 0.25},
            seed=11, epochs=1,
            attack={"k": 2, "hidden": 8, "max_epochs": 5,
                    "privacy_fields": ["cat0_0"]},
        )
        report = cmd_attack(cfg, ckpt, out_dir=tmp_path / "attack")
        assert ckpt.read_bytes() == before
        assert "attr" in report.fairness_f1
        assert "cat0_0" in report.privacy_f1

    def test_attack_report_deterministic(self, tmp_path, tiny_dataset):
        from conftest import make_federation, train_batches
        from fairvfl.checkpoint import save_checkpoint
        from fairvfl.config import ExperimentConfig
        from fairvfl.runner import cmd_attack

        ds, pa = tiny_dataset
        fed = make_federation(ds, pa)
        fed.run_training_round(train_batches(ds)[0])
        ckpt = tmp_path / "det.fvfl"
        save_checkpoint(fed.bundle, ckpt)
        cfg = ExperimentConfig(
            mode="fairvfl",
            dataset={"kind": "synthetic", "n_samples": 300, "n_platforms": 2, "seed": 5},
            widths={"rep": 16, "protected": {"attr": 8}, "emb_dim": 4,
                    "encoder_hidden": 8, "attn_heads": 2, "pool_hidden": 6,
                    "head_hidden": 8, "mapper_hidden": 8, "cdisc_hidden": 8,
                    "bdisc_hidden": 8},
            lam={"attr": 2.0}, gamma={"attr": 0.25},
            seed=11, epochs=1,
            attack={"k": 2, "hidden": 8, "max_epochs": 4, "privacy_fields": []},
        )
        r1 = cmd_attack(cfg, ckpt)
        r2 = cmd_attack(cfg, ckpt)
        assert r1.to_dict() == r2.to_dict()
