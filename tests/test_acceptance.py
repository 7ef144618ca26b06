"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1-4 need the full ADULT dataset; they are implemented at their stated
tolerances and skip (with a visible line) when the dataset directory is not
available. Point FAIRVFL_ADULT_DIR at a directory containing adult.data and
adult.test to enable them. Criteria 5-12 always run, on synthetic data.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import pack_blocks, pack_grads, unpack_blocks
from fairvfl.adversarial import (
    bias_loss_and_grad_frozen,
    combine_overall_grad,
    contrastive_adversarial_grad,
    contrastive_discriminator_step,
    select_negatives,
)
from fairvfl.config import ExperimentConfig, preset
from fairvfl.data import (
    generate_synthetic,
    iterate_batches,
    partition_vertical,
    synthetic_partition,
)
from fairvfl.evaluation import (
    AttackConfig,
    attack_f1,
    train_attacker_ensemble,
)
from fairvfl.models import (
    BiasDiscriminator,
    ContrastiveDiscriminator,
    Mapper,
    RepWidths,
)
from fairvfl.nn import Adam, softmax_cross_entropy
from fairvfl.protocol import AuditPolicy, audit_transcript, fairness_comm_cost
from fairvfl.protocol.audit import ViolationKind
from fairvfl.protocol.messages import Role, TranscriptRecord
from fairvfl.runner import (
    build_run_federation,
    cmd_attack,
    cmd_train,
    representations,
    predict_classes,
    run_train_and_attack,
    train_epoch,
)
from oracles import (
    adversarial_grad_on_unified,
    contrastive_loss_value,
    finite_difference_gradient,
    rank_and_select_negative,
)

ADULT_DIR = os.environ.get("FAIRVFL_ADULT_DIR", "data/adult")


def _adult_available() -> bool:
    d = Path(ADULT_DIR)
    return (d / "adult.data").exists() and (d / "adult.test").exists()

needs_adult = pytest.mark.skipif(
    not _adult_available(),
    reason=f"ADULT dataset not found under {ADULT_DIR!r} "
           "(set FAIRVFL_ADULT_DIR); criterion implemented but not runnable here",
)


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE] {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid}: {detail}"


def _adult_preset(name: str, seed: int) -> ExperimentConfig:
    cfg = preset(name)
    dataset = dict(cfg.dataset)
    dataset["path"] = ADULT_DIR
    return cfg.with_overrides(dataset=dataset, seed=seed)


@pytest.fixture(scope="session")
def adult_runs(tmp_path_factory):
    """Train+attack for both ADULT presets over 5 seeds (cached per session)."""
    root = tmp_path_factory.mktemp("adult")
    out = {"adult-vfl": [], "adult-fairvfl": []}
    for name in out:
        for seed in range(5):
            cfg = _adult_preset(name, seed)
            result = cmd_train(cfg, root / f"{name}-{seed}")
            rep = cmd_attack(cfg, result.checkpoint_path)
            rep.comm = result.metrics.comm
            out[name].append(rep)
    return out


@needs_adult
class TestAdultCriteria:
    def test_c1_plain_vfl_reference_bands(self, adult_runs):
        reps = adult_runs["adult-vfl"]
        acc = float(np.mean([r.task_accuracy for r in reps])) * 100
        gender = float(np.mean([r.fairness_f1["gender"]["mean"] for r in reps]))
        age = float(np.mean([r.fairness_f1["age"]["mean"] for r in reps]))
        ok = 78 <= acc <= 85 and gender >= 0.70 and age >= 0.35
        report("C1", ok, f"plain VFL: acc={acc:.2f} in [78,85], "
                         f"gender F1={gender:.3f} >= 0.70, age F1={age:.3f} >= 0.35")

    def test_c2_fairvfl_reference_bands(self, adult_runs):
        fair = adult_runs["adult-fairvfl"]
        plain = adult_runs["adult-vfl"]
        gender = float(np.mean([r.fairness_f1["gender"]["mean"] for r in fair]))
        age = float(np.mean([r.fairness_f1["age"]["mean"] for r in fair]))
        age_base = float(np.mean([r.baselines["age"]["shuffled"] for r in fair]))
        drop = (float(np.mean([r.task_accuracy for r in plain]))
                - float(np.mean([r.task_accuracy for r in fair]))) * 100
        ok = (0.45 <= gender <= 0.58 and age <= age_base + 0.05 and drop <= 8.0)
        report("C2", ok, f"FairVFL: gender F1={gender:.3f} in [0.45,0.58], "
                         f"age F1={age:.3f} <= {age_base:.3f}+0.05, acc drop={drop:.2f} <= 8")

    def test_c3_privacy_probe_with_and_without_cal(self, tmp_path):
        cal_off = _adult_preset("adult-fairvfl", 0).with_overrides(
            gamma={"gender": 0.0, "age": 0.0})
        cal_on = _adult_preset("adult-fairvfl", 0)
        rep_off = run_train_and_attack(cal_off, tmp_path / "cal-off")
        rep_on = run_train_and_attack(cal_on, tmp_path / "cal-on")

        def gap(rep):
            gaps = [rep.privacy_f1[f] - rep.baselines[f"privacy/{f}"]["shuffled"]
                    for f in rep.privacy_f1]
            return float(np.mean(gaps))

        ok = gap(rep_off) >= 0.15 and gap(rep_on) <= 0.05
        report("C3", ok, f"privacy gap over shuffled baseline: CAL off={gap(rep_off):.3f} "
                         f">= 0.15, CAL 0.25={gap(rep_on):.3f} <= 0.05")

    def test_age_bucket_populations(self):
        from fairvfl.data import load_adult

        ds = load_adult(ADULT_DIR, seed=0)
        train_mask = ds.split == 0
        counts = np.bincount(ds.sensitive["age"].values[train_mask], minlength=5)
        share = counts / counts.sum()
        print(f"\nage bucket shares: {np.round(share, 4)}")
        assert np.all(share >= 0.02)

    def test_c4_gamma_sweep_monotone(self, tmp_path):
        values = [0.0, 0.25, 0.5, 1.0]
        privacy, fairness = [], []
        for gamma in values:
            priv_v, fair_v = [], []
            for seed in range(3):
                cfg = _adult_preset("adult-fairvfl", seed).with_overrides(
                    gamma={"gender": gamma, "age": gamma})
                rep = run_train_and_attack(cfg, tmp_path / f"g{gamma}-s{seed}")
                priv_v.append(float(np.mean(list(rep.privacy_f1.values()))))
                fair_v.append(rep.fairness_f1["gender"]["mean"])
            privacy.append(float(np.mean(priv_v)))
            fairness.append(float(np.mean(fair_v)))
        priv_ok = all(b <= a + 0.02 for a, b in zip(privacy, privacy[1:]))
        fair_ok = all(b >= a - 0.02 for a, b in zip(fairness, fairness[1:]))
        report("C4", priv_ok and fair_ok,
               f"gamma sweep {values}: privacy F1 {['%.3f' % v for v in privacy]} "
               f"non-increasing, gender F1 {['%.3f' % v for v in fairness]} non-decreasing")


def _default_shape_config(seed=0) -> ExperimentConfig:
    """Synthetic dataset shaped like the default setup: two sensitive features
    (2-class and 5-class) at the default protected widths (32 and 64)."""
    return ExperimentConfig(
        mode="fairvfl",
        dataset={"kind": "synthetic", "n_samples": 400, "n_platforms": 3,
                 "numeric_per_platform": 2, "categorical_per_platform": 2,
                 "cat_vocab": 6, "sensitive_classes": {"gender": 2, "age": 5},
                 "rho": 0.6, "seed": 17},
        n_platforms=3,
        widths={"rep": 400, "protected": {"gender": 32, "age": 64}},
        lam={"gender": 1e2, "age": 1e1},
        gamma={"gender": 0.25, "age": 0.25},
        batch_size=32, epochs=1, seed=seed,
    )


class TestCommunicationAccounting:
    def test_c5_per_round_fairness_traffic_exact(self):
        t0 = time.perf_counter()
        cfg = _default_shape_config()
        ds, pa = generate_synthetic(cfg.dataset_spec()), synthetic_partition(cfg.dataset_spec())
        fed = build_run_federation(cfg, ds, pa)
        ids = iterate_batches(ds, "train", 32, 0)[0]
        assert ids.shape[0] == 32
        result = fed.run_training_round(ids)
        cost = fairness_comm_cost(result.records)
        elapsed = time.perf_counter() - t0
        ok = cost == 12288 and elapsed < 1.0
        report("C5", ok, f"fairness traffic per round = {cost} floats "
                         f"(4*32*(32+64) = 12288), checked in {elapsed:.2f}s")


def _small_widths():
    return RepWidths(rep=12, protected={"g": 6}, emb_dim=4, encoder_hidden=8,
                     attn_heads=2, pool_hidden=6, head_hidden=8, mapper_hidden=8,
                     cdisc_hidden=8, bdisc_hidden=6)


def _rel_err(analytic, numeric, floor=1e-6):
    analytic, numeric = np.asarray(analytic).ravel(), np.asarray(numeric).ravel()
    return float(np.max(np.abs(analytic - numeric) / (np.abs(numeric) + floor)))


def _relu_margin(*nets_and_inputs) -> float:
    """Smallest |pre-activation| across the given two-layer nets; central
    differences are only trusted when no ReLU kink sits within the step."""
    worst = np.inf
    for net, x in nets_and_inputs:
        if isinstance(net, ContrastiveDiscriminator):
            _, (cache, _) = net.forward(*x)
            h1 = cache[1]
        else:
            _, cache = net.forward(x)
            h1 = cache[1]
        worst = min(worst, float(np.min(np.abs(h1))))
    return worst


class TestGradientOracle:
    def test_c6_every_layer_and_loss_matches_the_oracle(self):
        """Central finite differences vs analytic backward over 20 seeds for
        each parameterized component and each loss formula. Inputs are redrawn
        when a ReLU pre-activation sits too close to zero for the oracle's
        step size."""
        widths = _small_widths()
        worst = {}
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = 5
            labels = rng.integers(0, 2, size=n)

            mapper = Mapper("g", widths, seed=seed)
            cdisc = ContrastiveDiscriminator("g", widths, seed=seed + 1)
            bdisc = BiasDiscriminator("g", 2, widths, seed=seed + 2)

            for _attempt in range(50):
                unified = rng.normal(size=(n, widths.rep))
                protected, _ = mapper.forward(unified)
                neg = select_negatives(protected, 3, np.random.default_rng(seed))
                margin = _relu_margin(
                    (mapper, unified), (bdisc, protected),
                    (cdisc, (np.concatenate([protected, protected]),
                             np.concatenate([unified, unified[neg]]))))
                if margin > 1e-3:
                    break

            # task loss vs logits
            logits = rng.normal(size=(n, 2))
            num = finite_difference_gradient(
                lambda v: softmax_cross_entropy(v.reshape(n, 2), labels)[0],
                logits.ravel().copy())
            _, g = softmax_cross_entropy(logits, labels)
            worst["task"] = max(worst.get("task", 0), _rel_err(g, num.reshape(n, 2)))

            # contrastive discrimination loss vs discriminator params

            def f_lp(vec):
                unpack_blocks(vec, cdisc.blocks())
                return contrastive_loss_value(cdisc, protected, unified, neg)

            v0 = pack_blocks(cdisc.blocks())
            num = finite_difference_gradient(f_lp, v0.copy())
            unpack_blocks(v0, cdisc.blocks())
            pos_neg = np.concatenate([protected, protected]), np.concatenate(
                [unified, unified[neg]])
            scores, cache = cdisc.forward(*pos_neg)
            from fairvfl.nn import pairwise_contrastive_loss

            _, gp, gq = pairwise_contrastive_loss(scores[:n], scores[n:])
            cdisc.backward(cache, np.concatenate([gp, gq]))
            worst["Lp"] = max(worst.get("Lp", 0), _rel_err(pack_grads(cdisc.blocks()), num))

            # contrastive adversarial loss vs mapper params (frozen disc)
            def f_lc(vec):
                unpack_blocks(vec, mapper.blocks())
                a, _ = mapper.forward(unified)
                return contrastive_loss_value(cdisc, a, unified, neg)

            v0 = pack_blocks(mapper.blocks())
            num = finite_difference_gradient(f_lc, v0.copy())
            unpack_blocks(v0, mapper.blocks())
            a, mcache = mapper.forward(unified)
            _, ga = contrastive_adversarial_grad(cdisc, a, unified, neg)
            mapper.backward(mcache, ga)
            worst["Lc"] = max(worst.get("Lc", 0), _rel_err(pack_grads(mapper.blocks()), num))

            # bias discrimination loss vs protected reps
            num = finite_difference_gradient(
                lambda v: bias_loss_and_grad_frozen(bdisc, v.reshape(a.shape), labels)[0],
                a.ravel().copy())
            _, ga_d = bias_loss_and_grad_frozen(bdisc, a, labels)
            worst["Ld"] = max(worst.get("Ld", 0), _rel_err(ga_d, num.reshape(a.shape)))

            # adversarial loss vs unified rep (frozen mapper + discriminator)
            num = finite_difference_gradient(
                lambda v: adversarial_grad_on_unified(
                    mapper, bdisc, v.reshape(unified.shape), labels)[0],
                unified.ravel().copy())
            _, gs = adversarial_grad_on_unified(mapper, bdisc, unified, labels)
            worst["La"] = max(worst.get("La", 0), _rel_err(gs, num.reshape(unified.shape)))

            # composed model layers: encoder -> aggregator -> head as one path
            from fairvfl.models import LocalEncoder, Aggregator, TaskHead, PlatformSchema

            enc = LocalEncoder("enc", PlatformSchema([("c", 4)], ["x"]), widths,
                               seed=seed, p_drop=0.0)
            agg = Aggregator(widths, seed=seed)
            head = TaskHead(widths, 2, seed=seed, p_drop=0.0)
            for _attempt in range(50):
                cols = {"c": rng.integers(0, 4, size=n), "x": rng.normal(size=n)}
                r0, (_, _, h1e, _, _) = enc.forward(cols, False, None)
                s0, _ = agg.forward(np.stack([r0, r0], axis=1))
                _, (_, h1h, _, _) = head.forward(s0)
                if min(float(np.min(np.abs(h1e))), float(np.min(np.abs(h1h)))) > 1e-3:
                    break
            blocks = enc.blocks() + agg.blocks() + head.blocks()

            def f_model(vec):
                unpack_blocks(vec, blocks)
                r, _ = enc.forward(cols, False, None)
                s, _ = agg.forward(np.stack([r, r], axis=1))
                lg, _ = head.forward(s)
                return softmax_cross_entropy(lg, labels)[0]

            v0 = pack_blocks(blocks)
            num = finite_difference_gradient(f_model, v0.copy())
            unpack_blocks(v0, blocks)
            r, ce = enc.forward(cols, False, None)
            s, ca = agg.forward(np.stack([r, r], axis=1))
            lg, ch = head.forward(s)
            _, glg = softmax_cross_entropy(lg, labels)
            gs2 = head.backward(ch, glg)
            gstack = agg.backward(ca, gs2)
            enc.backward(ce, gstack[:, 0, :] + gstack[:, 1, :])
            worst["model"] = max(worst.get("model", 0), _rel_err(pack_grads(blocks), num))

        ok = all(v < 1e-4 for v in worst.values())
        detail = ", ".join(f"{k}={v:.2e}" for k, v in sorted(worst.items()))
        report("C6", ok, f"worst relative error over 20 seeds: {detail} (tol 1e-4)")


class TestExactIdentities:
    def test_c7_formula_identities_hold_exactly(self):
        widths = _small_widths()
        rng = np.random.default_rng(3)
        n = 8
        unified = rng.normal(size=(n, widths.rep))
        labels = rng.integers(0, 2, size=n)
        mapper = Mapper("g", widths, seed=0)
        cdisc = ContrastiveDiscriminator("g", widths, seed=1)
        bdisc = BiasDiscriminator("g", 2, widths, seed=2)

        protected, _ = mapper.forward(unified)
        neg = select_negatives(protected, 3, np.random.default_rng(0))
        cdisc.opt = Adam(cdisc.blocks())
        contrastive_discriminator_step(cdisc, protected, unified, neg)
        l_c, _ = contrastive_adversarial_grad(cdisc, protected, unified, neg)
        l_p = contrastive_loss_value(cdisc, protected, unified, neg)
        id1 = l_c == l_p

        l_a, _ = adversarial_grad_on_unified(mapper, bdisc, unified, labels)
        a2, _ = mapper.forward(unified)
        l_d, _ = bias_loss_and_grad_frozen(bdisc, a2, labels)
        id2 = l_a == l_d

        task_grad = rng.normal(size=(n, widths.rep))
        task_grad[0, 0] = -0.0
        adv = {"g": rng.normal(size=(n, widths.rep)), "h": rng.normal(size=(n, widths.rep))}
        lam = {"g": 3.0, "h": 0.5}
        out = combine_overall_grad(task_grad, adv, lam)
        manual = task_grad.copy()
        for k in lam:
            manual -= lam[k] * adv[k]
        id3 = np.array_equal(out, manual)
        zero = combine_overall_grad(task_grad, adv, {k: 0.0 for k in lam})
        id4 = zero.tobytes() == task_grad.tobytes()

        report("C7", id1 and id2 and id3 and id4,
               f"Lc==Lp (frozen disc): {id1}; La==Ld (frozen blocks): {id2}; "
               f"combine formula exact: {id3}; lambda=0 collapse bitwise: {id4}")


class TestSignLedgerRounds:
    def test_c8_instrumented_rounds_respect_the_ledger(self, tiny_dataset):
        """Five instrumented reference rounds (tests/reference_round.py) keep
        the sign ledger, and the federation's rounds equal them bit for bit."""
        from conftest import reference_twins, train_batches
        from reference_round import compare_round

        ds, pa = tiny_dataset
        fed, ref = reference_twins(ds, pa, lam=3.0, gamma=0.5, seed=19)
        max_dev, diffs = 0.0, []
        for ids in train_batches(ds)[:5]:
            diff, result = compare_round(fed, ref, ids)
            max_dev = max(max_dev, result.ledger_max_dev)
            diffs.append(diff)
        same = diffs == [None] * 5
        ok = max_dev < 1e-9 and same
        report("C8", ok, f"5 instrumented reference rounds, max applied-vs-declared "
                         f"deviation {max_dev:.2e} < 1e-9; federation bitwise equal: {same}")


class TestNegativeSamplingOracle:
    def test_c9_selection_always_in_brute_force_top_pool(self):
        failures = 0
        master = np.random.default_rng(99)
        for trial in range(10_000):
            n = int(master.integers(2, 12))
            top = int(master.integers(1, 8))
            protected = master.normal(size=(n, 4))
            query = int(master.integers(n))
            pick = rank_and_select_negative(protected, top, np.random.default_rng(trial), query)
            scores = sorted(((float(protected[query] @ protected[j]), -j)
                             for j in range(n) if j != query), reverse=True)
            pool = {-j for _, j in scores[:top]}
            if pick == query or pick not in pool:
                failures += 1
        report("C9", failures == 0,
               f"10000 random batches, {failures} selections outside the "
               f"brute-force top pool (or hitting the query)")


class TestAuditAcceptance:
    def test_c10_hundred_round_run_is_clean_and_fixtures_flag_once(self, tiny_dataset):
        from conftest import make_federation

        ds, pa = tiny_dataset
        fed = make_federation(ds, pa, lam=2.0, gamma=0.25, seed=29)
        batches = iterate_batches(ds, "train", 16, seed=7)
        for r in range(100):
            fed.run_training_round(batches[r % len(batches)])
        policy = AuditPolicy.from_federation(fed)
        violations = audit_transcript(fed.transcript, policy)

        def rec(sender, receiver, kind, shape, **kw):
            return TranscriptRecord(0, sender, receiver, kind, shape,
                                    int(np.prod(shape)), 0, **kw)

        fixture_policy = AuditPolicy(
            roles={"task": Role.TASK, "server": Role.SERVER,
                   "insensitive/0": Role.INSENSITIVE,
                   "sensitive/attr": Role.SENSITIVE},
            rep_width=16, protected_widths={"sensitive/attr": 8},
            require_ldp_training=True)
        fixtures = [
            (rec("insensitive/0", "server", "LocalRepUpload", (4, 7)),
             ViolationKind.RAW_FEATURE_LEAK),
            (rec("insensitive/0", "task", "LocalRepUpload", (4, 16)),
             ViolationKind.LOCAL_REP_MISROUTE),
            (rec("server", "task", "UnifiedRepToTask", (4, 16),
                 ldp_applied=False, phase="train"),
             ViolationKind.UNPERTURBED_UNIFIED),
            (rec("server", "sensitive/attr", "ProtectedRepUpload", (4, 16)),
             ViolationKind.UNIFIED_TO_SENSITIVE),
            (rec("sensitive/attr", "server", "ProtectedRepUpload", (4, 8)),
             ViolationKind.SENSITIVE_LABEL_LEAK),
        ]
        fixture_ok = True
        for record, expected in fixtures:
            found = audit_transcript([record], fixture_policy)
            fixture_ok &= len(found) == 1 and found[0].kind is expected

        ok = len(violations) == 0 and fixture_ok
        report("C10", ok, f"100-round run: {len(violations)} violations; "
                          f"each injected fixture flagged exactly once: {fixture_ok}")


class TestDeterminism:
    def test_c11_bitwise_identical_artifacts(self, tmp_path):
        cfg = ExperimentConfig(
            mode="fairvfl",
            dataset={"kind": "synthetic", "n_samples": 400, "n_platforms": 2,
                     "sensitive_classes": {"attr": 2}, "rho": 0.8, "seed": 5},
            n_platforms=2,
            widths={"rep": 16, "protected": {"attr": 8}, "emb_dim": 4,
                    "encoder_hidden": 8, "attn_heads": 2, "pool_hidden": 6,
                    "head_hidden": 8, "mapper_hidden": 8, "cdisc_hidden": 8,
                    "bdisc_hidden": 8},
            lam={"attr": 2.0}, gamma={"attr": 0.25},
            batch_size=16, epochs=2, seed=123,
            attack={"k": 2, "hidden": 8, "max_epochs": 4, "privacy_fields": ["cat0_0"]},
        )
        artifacts = []
        for run in ("a", "b"):
            out = tmp_path / run
            result = cmd_train(cfg, out)
            cmd_attack(cfg, result.checkpoint_path, out_dir=out / "attack")
            artifacts.append({
                "transcript": (out / "transcript.ndjson").read_bytes(),
                "checkpoint": (out / "checkpoint.fvfl").read_bytes(),
                "train_metrics": (out / "metrics.json").read_bytes(),
                "attack_metrics": (out / "attack" / "metrics.json").read_bytes(),
            })
        same = {k: artifacts[0][k] == artifacts[1][k] for k in artifacts[0]}
        report("C11", all(same.values()),
               "two identical (seed, config) runs: " +
               ", ".join(f"{k} identical={v}" for k, v in same.items()))


class TestSyntheticEndToEnd:
    def test_c12_debiasing_direction_reproduced(self):
        t0 = time.perf_counter()
        base = dict(
            dataset={"kind": "synthetic", "n_samples": 4000, "n_platforms": 2,
                     "numeric_per_platform": 2, "categorical_per_platform": 1,
                     "cat_vocab": 4, "sensitive_classes": {"attr": 2},
                     "rho": 0.9, "seed": 100},
            n_platforms=2,
            widths={"rep": 64, "protected": {"attr": 4}, "emb_dim": 8,
                    "encoder_hidden": 32, "attn_heads": 4, "pool_hidden": 32,
                    "head_hidden": 32, "mapper_hidden": 16, "cdisc_hidden": 32,
                    "bdisc_hidden": 16},
            optim={"lr": 1e-3}, batch_size=32, epochs=1, seed=1,
        )
        plain = ExperimentConfig(mode="vfl", lam={"attr": 0.0}, gamma={"attr": 0.0}, **base)
        fair = ExperimentConfig(mode="fairvfl", lam={"attr": 100.0},
                                gamma={"attr": 0.25}, **base)
        spec = plain.dataset_spec()
        ds, pa = generate_synthetic(spec), synthetic_partition(spec)
        shards, _, _ = partition_vertical(ds, pa)
        tr, te = ds.split_ids("train"), ds.split_ids("test")
        y_attr = ds.sensitive["attr"].values

        def train(cfg, epochs):
            fed = build_run_federation(cfg, ds, pa)
            for epoch in range(epochs):
                for _ in train_epoch(fed, cfg, ds, epoch):
                    pass
            return fed.bundle

        def probe(bundle):
            s_tr, _ = representations(bundle, shards, tr, protected=False)
            s_te, _ = representations(bundle, shards, te, protected=False)
            atk = AttackConfig(k=3, hidden=32, lr=1e-2, batch=64, max_epochs=25, patience=4)
            ens = train_attacker_ensemble(s_tr, y_attr[tr], atk, 0, "c12")
            f1 = attack_f1(ens, s_te, y_attr[te]).mean_f1
            acc = float(np.mean(predict_classes(bundle, s_te) == ds.task_labels[te]))
            return f1, acc

        plain_f1, plain_acc = probe(train(plain, epochs=10))
        fair_f1, fair_acc = probe(train(fair, epochs=200))
        elapsed = time.perf_counter() - t0
        ok = (plain_f1 >= 0.8 and fair_f1 <= 0.6
              and abs(plain_acc - fair_acc) <= 0.05 and elapsed < 180)
        report("C12", ok,
               f"rho=0.9: plain-VFL attack F1={plain_f1:.3f} >= 0.8, "
               f"FairVFL attack F1={fair_f1:.3f} <= 0.6, accuracy "
               f"{plain_acc:.3f} vs {fair_acc:.3f} (gap <= 0.05), {elapsed:.0f}s < 180s")
