"""Adversarial machinery: negative sampling against a brute-force oracle, the
two discriminator games, exact formula identities, gradient assembly, and the
sign ledger (tests/reference_round.py)."""

import numpy as np
import pytest

from conftest import (
    pack_blocks,
    pack_grads,
    relative_error,
    small_widths,
    unpack_blocks,
)
from fairvfl.adversarial import (
    _contrastive_forward,
    bias_discriminator_step,
    bias_loss_and_grad_frozen,
    cal_mapper_gradient,
    combine_overall_grad,
    contrastive_adversarial_grad,
    contrastive_discriminator_step,
    select_negatives,
)
from fairvfl.errors import DimensionError, NumericError, ProtocolError
from fairvfl.models import BiasDiscriminator, ContrastiveDiscriminator, Mapper
from fairvfl.nn import Adam, pairwise_contrastive_loss
from oracles import (
    adversarial_grad_on_unified,
    contrastive_loss_value,
    finite_difference_gradient,
    rank_and_select_negative,
    top_pool_indices,
)
from reference_round import ASCEND, DESCEND, SignLedger, UpdateEvent


def brute_force_top_pool(protected, query, top_pool):
    """Independent oracle: exhaustive ranking with ties broken by index."""
    scores = [(float(protected[query] @ protected[j]), j)
              for j in range(protected.shape[0]) if j != query]
    scores.sort(key=lambda t: (-t[0], t[1]))
    return {j for _, j in scores[:top_pool]}


class TestNegativeSampling:
    def test_forced_argmax(self):
        protected = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert rank_and_select_negative(protected, 1, rng, 0) == 1

    def test_pool_has_exactly_top_pool_candidates(self):
        rng = np.random.default_rng(1)
        protected = rng.normal(size=(32, 8))
        relevance = protected @ protected[4]
        pool = top_pool_indices(relevance, 4, 5)
        assert pool.shape[0] == 5
        assert 4 not in pool

    def test_tie_break_ascending_index(self):
        protected = np.ones((5, 3))  # all relevances equal
        pool = top_pool_indices(protected @ protected[2], 2, 3)
        assert list(pool) == [0, 1, 3]

    @pytest.mark.parametrize("seed", range(20))
    def test_selection_always_in_brute_force_pool(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 24))
        top = int(rng.integers(1, 8))
        protected = rng.normal(size=(n, 5))
        chosen = select_negatives(protected, top, np.random.default_rng(seed + 1))
        for j in range(n):
            pool = brute_force_top_pool(protected, j, top)
            assert chosen[j] != j
            assert chosen[j] in pool

    @pytest.mark.parametrize("pool_past_batch", [False, True])
    @pytest.mark.parametrize("seed", range(15))
    def test_batch_selection_matches_per_row_reference(self, seed, pool_past_batch):
        """``select_negatives`` picks, row by row, what the per-row
        ``rank_and_select_negative`` picks from the same-seed RNG, and leaves
        the RNG in the same state."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 24))
        top = n + int(rng.integers(0, 3)) if pool_past_batch else int(rng.integers(1, n))
        # small integers make every relevance exact, so equal rows tie exactly
        protected = rng.integers(-2, 3, size=(n, 4)).astype(np.float64)
        dup_src = rng.integers(0, n, size=max(1, n // 3))
        protected[rng.integers(0, n, size=dup_src.size)] = protected[dup_src]
        # tie-heavy: one 0/1 column gives every row at most two relevances
        ties = rng.integers(0, 2, size=(n, 1)).astype(np.float64)
        for prot in (protected, ties):
            batch_rng, ref_rng = (np.random.default_rng(seed + 100) for _ in range(2))
            batch = select_negatives(prot, top, batch_rng)
            assert batch.tolist() == [rank_and_select_negative(prot, top, ref_rng, j)
                                      for j in range(n)]
            assert batch_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n,top", [(500, 5), (640, 31), (1000, 5)])
    def test_full_batch_partition_matches_per_row_reference(self, n, top):
        """Past ``top_pool < n/8`` the pools come from a partition or from
        scans of each row's minimum, not a sort. On full batches where most
        rows tie at their pool boundary (rounded inputs), where every row is
        constant, where every row takes two values, and where a few rows take
        two values but fewer than ``top`` sit at their minimum, every row
        still picks what the per-row reference picks and the RNG ends in the
        same state."""
        rng = np.random.default_rng(n + top)
        for protected in (np.round(rng.normal(size=(n, 3))),  # exact, tie-heavy relevances
                          np.ones((n, 3)),
                          rng.integers(0, 2, size=(n, 1)).astype(np.float64),
                          (rng.random(size=(n, 1)) < 4 / n).astype(np.float64)):
            batch_rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
            batch = select_negatives(protected, top, batch_rng)
            assert batch.tolist() == [rank_and_select_negative(protected, top, ref_rng, j)
                                      for j in range(n)]
            assert batch_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_batch_of_one_rejected(self):
        with pytest.raises(ProtocolError, match="requires >=2"):
            select_negatives(np.zeros((1, 4)), 3, np.random.default_rng(0))


def _game_fixture(seed=0, n=12):
    rng = np.random.default_rng(seed)
    widths = small_widths()
    mapper = Mapper("attr", widths, seed=seed)
    cdisc = ContrastiveDiscriminator("attr", widths, seed=seed + 1)
    bdisc = BiasDiscriminator("attr", 2, widths, seed=seed + 2)
    unified = rng.normal(size=(n, widths.rep))
    labels = rng.integers(0, 2, size=n)
    return widths, mapper, cdisc, bdisc, unified, labels, rng


class TestContrastiveDiscriminatorStep:
    def test_zero_disc_loss_is_ln2(self):
        _, mapper, cdisc, _, unified, _, _ = _game_fixture()
        for b in cdisc.blocks():
            b.w[...] = 0.0
            b.b[...] = 0.0
        protected, _ = mapper.forward(unified)
        neg = select_negatives(protected, 5, np.random.default_rng(0))
        cdisc.opt = Adam(cdisc.blocks(), lr=1e-3)
        loss = contrastive_discriminator_step(cdisc, protected, unified, neg)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_representations_receive_no_update(self):
        _, mapper, cdisc, _, unified, _, _ = _game_fixture(1)
        protected, _ = mapper.forward(unified)
        p0, u0 = protected.copy(), unified.copy()
        mapper_grads0 = pack_grads(mapper.blocks()).copy()
        neg = select_negatives(protected, 5, np.random.default_rng(1))
        # the same pass through an untouched copy of the discriminator
        ref = ContrastiveDiscriminator("attr", small_widths(), seed=2)
        ref_opt = Adam(ref.blocks())
        pos, negs, cache = _contrastive_forward(ref, protected, unified, neg)
        _, gpos, gneg = pairwise_contrastive_loss(pos, negs)
        ref.backward(cache, np.concatenate([gpos, gneg]), inputs=False)
        cdisc.opt = Adam(cdisc.blocks())
        contrastive_discriminator_step(cdisc, protected, unified, neg)
        assert np.array_equal(protected, p0)
        assert np.array_equal(unified, u0)
        assert np.array_equal(pack_grads(mapper.blocks()), mapper_grads0)
        assert ref_opt.grads.any()
        assert np.array_equal(cdisc.opt.grads, ref_opt.grads)  # its own gradient, nothing else

    @pytest.mark.parametrize("step", [contrastive_discriminator_step,
                                      contrastive_adversarial_grad],
                             ids=["discriminator-step", "adversarial-grad"])
    def test_non_finite_loss_names_the_sample(self, step):
        _, mapper, cdisc, _, unified, _, _ = _game_fixture(11)
        protected, _ = mapper.forward(unified)
        protected = protected.copy()
        protected[3, 0] = np.inf
        neg = np.roll(np.arange(unified.shape[0]), 1)

        cdisc.opt = Adam(cdisc.blocks())
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="sample 3"):
            step(cdisc, protected, unified, neg)

    def test_separable_pairs_drive_loss_down(self):
        # positives contain a shared signal; negatives are pure noise
        rng = np.random.default_rng(2)
        widths = small_widths()
        cdisc = ContrastiveDiscriminator("attr", widths, seed=3)
        opt = Adam(cdisc.blocks(), lr=1e-2)
        n = 64
        protected = rng.normal(size=(n, widths.protected["attr"]))
        pos = np.concatenate([protected, np.ones((n, widths.rep - widths.protected["attr"]))], axis=1)
        neg_pool = rng.normal(size=(n, widths.rep))
        unified = pos
        loss = None
        for step in range(200):
            neg_idx = np.roll(np.arange(n), 1 + step % 5)
            # train on (a, pos) vs (a, shuffled noise), stacked into one
            # forward and one backward as _contrastive_forward stacks them
            scores, cache = cdisc.forward(np.concatenate([protected, protected]),
                                          np.concatenate([unified, neg_pool[neg_idx]]))
            loss, gp, gq = pairwise_contrastive_loss(scores[:n], scores[n:])
            cdisc.backward(cache, np.concatenate([gp, gq]))
            opt.step()
        assert loss < 0.1


class TestContrastiveAdversarialGrad:
    def test_loss_equals_discrimination_loss_under_frozen_disc(self):
        """Same formulas: under the post-step parameters the two losses are
        bitwise identical."""
        _, mapper, cdisc, _, unified, _, _ = _game_fixture(3)
        protected, _ = mapper.forward(unified)
        neg = select_negatives(protected, 5, np.random.default_rng(3))
        cdisc.opt = Adam(cdisc.blocks())
        contrastive_discriminator_step(cdisc, protected, unified, neg)
        l_c, _ = contrastive_adversarial_grad(cdisc, protected, unified, neg)
        l_p_recomputed = contrastive_loss_value(cdisc, protected, unified, neg)
        assert l_c == l_p_recomputed

    def test_zero_gamma_zero_contribution(self):
        _, mapper, cdisc, _, unified, _, _ = _game_fixture(4)
        protected, mcache = mapper.forward(unified)
        neg = select_negatives(protected, 5, np.random.default_rng(4))
        _, ga = contrastive_adversarial_grad(cdisc, protected, unified, neg)
        cal_mapper_gradient(mapper, mcache, ga, gamma=0.0)
        assert np.all(pack_grads(mapper.blocks()) == 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_mapper_gradient_matches_oracle(self, seed):
        _, mapper, cdisc, _, unified, _, _ = _game_fixture(seed)
        protected0, _ = mapper.forward(unified)
        neg = select_negatives(protected0, 5, np.random.default_rng(seed))

        def f(vec):
            unpack_blocks(vec, mapper.blocks())
            a, _ = mapper.forward(unified)
            return contrastive_loss_value(cdisc, a, unified, neg)

        v0 = pack_blocks(mapper.blocks())
        numeric = finite_difference_gradient(f, v0.copy())
        unpack_blocks(v0, mapper.blocks())
        a, mcache = mapper.forward(unified)
        _, ga = contrastive_adversarial_grad(cdisc, a, unified, neg)
        cal_mapper_gradient(mapper, mcache, ga, gamma=1.0)
        # applied contribution is -gamma * dL/dA; compare against -numeric
        assert relative_error(pack_grads(mapper.blocks()), -numeric) < 1e-4


class TestBiasDiscriminatorStep:
    def test_uniform_prediction_gives_ln2(self):
        _, mapper, _, bdisc, unified, labels, _ = _game_fixture(5)
        for b in bdisc.blocks():
            b.w[...] = 0.0
            b.b[...] = 0.0
        protected, _ = mapper.forward(unified)
        bdisc.opt = Adam(bdisc.blocks())
        loss, _ = bias_discriminator_step(bdisc, protected, labels)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_only_declared_blocks_touched(self):
        widths, mapper, cdisc, bdisc, unified, labels, _ = _game_fixture(6)
        protected, mcache = mapper.forward(unified)
        cdisc_w0 = pack_blocks(cdisc.blocks()).copy()
        mapper_w0 = pack_blocks(mapper.blocks()).copy()
        bdisc.opt = Adam(bdisc.blocks())
        _, ga = bias_discriminator_step(bdisc, protected, labels)
        # discriminator step touches only its own params; the mapper descent
        # is a separate, explicit application of the returned gradient
        assert np.array_equal(pack_blocks(cdisc.blocks()), cdisc_w0)
        assert np.array_equal(pack_blocks(mapper.blocks()), mapper_w0)
        gs = mapper.backward(mcache, ga)
        assert np.any(pack_grads(mapper.blocks()) != 0.0)
        assert gs.shape == unified.shape

    @pytest.mark.parametrize("seed", range(3))
    def test_grad_on_protected_matches_oracle(self, seed):
        _, mapper, _, bdisc, unified, labels, _ = _game_fixture(seed + 10)
        protected, _ = mapper.forward(unified)

        def f(vec):
            loss, _ = bias_loss_and_grad_frozen(bdisc, vec.reshape(protected.shape), labels)
            return loss

        numeric = finite_difference_gradient(f, protected.ravel().copy())
        _, ga = bias_loss_and_grad_frozen(bdisc, protected, labels)
        assert relative_error(ga, numeric.reshape(protected.shape)) < 1e-4


class TestAdversarialGradOnUnified:
    def test_flat_discriminator_gives_zero_gradient(self):
        _, mapper, _, bdisc, unified, labels, _ = _game_fixture(7)
        for b in bdisc.blocks():
            b.w[...] = 0.0
            b.b[...] = 0.0
        _, gs = adversarial_grad_on_unified(mapper, bdisc, unified, labels)
        assert np.allclose(gs, 0.0, atol=1e-15)

    def test_loss_equals_bias_loss_under_frozen_blocks(self):
        _, mapper, _, bdisc, unified, labels, _ = _game_fixture(8)
        l_a, _ = adversarial_grad_on_unified(mapper, bdisc, unified, labels)
        protected, _ = mapper.forward(unified)
        l_d, _ = bias_loss_and_grad_frozen(bdisc, protected, labels)
        assert l_a == l_d

    @pytest.mark.parametrize("seed", range(3))
    def test_chain_matches_oracle(self, seed):
        _, mapper, _, bdisc, unified, labels, _ = _game_fixture(seed + 20)

        def f(vec):
            loss, _ = adversarial_grad_on_unified(mapper, bdisc,
                                                  vec.reshape(unified.shape), labels)
            return loss

        numeric = finite_difference_gradient(f, unified.ravel().copy())
        _, gs = adversarial_grad_on_unified(mapper, bdisc, unified, labels)
        assert relative_error(gs, numeric.reshape(unified.shape)) < 1e-4

    def test_frozen_blocks_keep_no_grads(self):
        _, mapper, _, bdisc, unified, labels, _ = _game_fixture(9)
        adversarial_grad_on_unified(mapper, bdisc, unified, labels)
        assert np.all(pack_grads(mapper.blocks()) == 0.0)
        assert np.all(pack_grads(bdisc.blocks()) == 0.0)


def _sentinel(opt: Adam) -> np.ndarray:
    """Fills a group's gradient store with non-zero values; returns a copy."""
    opt.grads[...] = np.arange(1.0, opt.grads.size + 1.0) * 0.125
    return opt.grads.copy()


class TestFrozenPassesLeaveGradientStores:
    """Frozen passes compute no parameter gradients, so whatever their groups'
    stores hold stays there bit for bit."""

    def test_contrastive_adversarial_grad(self):
        _, mapper, cdisc, _, unified, _, _ = _game_fixture(30)
        protected, _ = mapper.forward(unified)
        neg = select_negatives(protected, 5, np.random.default_rng(0))
        opt = Adam(cdisc.blocks())
        before = _sentinel(opt)
        contrastive_adversarial_grad(cdisc, protected, unified, neg)
        assert opt.grads.tobytes() == before.tobytes()

    def test_bias_loss_and_grad_frozen(self):
        _, mapper, _, bdisc, unified, labels, _ = _game_fixture(31)
        protected, _ = mapper.forward(unified)
        opt = Adam(bdisc.blocks())
        before = _sentinel(opt)
        bias_loss_and_grad_frozen(bdisc, protected, labels)
        assert opt.grads.tobytes() == before.tobytes()

    def test_adversarial_grad_on_unified(self):
        _, mapper, _, bdisc, unified, labels, _ = _game_fixture(32)
        m_opt, b_opt = Adam(mapper.blocks()), Adam(bdisc.blocks())
        m_before, b_before = _sentinel(m_opt), _sentinel(b_opt)
        adversarial_grad_on_unified(mapper, bdisc, unified, labels)
        assert m_opt.grads.tobytes() == m_before.tobytes()
        assert b_opt.grads.tobytes() == b_before.tobytes()

    def test_server_adversarial_mapper_pass(self, tiny_dataset, monkeypatch):
        """A round's one frozen mapper pass, the adversarial gradient back to
        the unified rep, leaves the mapper's gradient store as it was."""
        from conftest import make_federation, train_batches

        ds, pa = tiny_dataset
        fed = make_federation(ds, pa)
        backward = Mapper.backward
        frozen = []

        def spy(self, cache, gy, params=True, inputs=True):
            if params:
                return backward(self, cache, gy, params, inputs)
            held = self.opt.grads.copy()
            before = _sentinel(self.opt)
            out = backward(self, cache, gy, params, inputs)
            frozen.append((self.name, self.opt.grads.tobytes() == before.tobytes(),
                           out.shape))
            self.opt.grads[...] = held
            return out

        monkeypatch.setattr(Mapper, "backward", spy)
        ids = train_batches(ds)[0]
        fed.run_training_round(ids)
        unified_shape = (ids.shape[0], fed.bundle.widths.rep)
        assert frozen == [(fed.bundle.mappers[f].name, True, unified_shape)
                          for f in fed.bundle.features]


class TestCombineOverallGrad:
    def test_zero_lambda_collapses_bitwise(self):
        rng = np.random.default_rng(0)
        task = rng.normal(size=(4, 16))
        task[0, 0] = -0.0  # sign-of-zero must survive
        adv = {"a": rng.normal(size=(4, 16)), "b": rng.normal(size=(4, 16))}
        out = combine_overall_grad(task, adv, {"a": 0.0, "b": 0.0})
        assert out.tobytes() == task.tobytes()

    def test_arithmetic_example(self):
        task = np.array([[1.0, 0.0]])
        adv = {"a": np.array([[0.5, 0.5]])}
        out = combine_overall_grad(task, adv, {"a": 2.0})
        assert np.array_equal(out, np.array([[0.0, -1.0]]))

    def test_missing_feature_rejected(self):
        with pytest.raises(ProtocolError, match="missing"):
            combine_overall_grad(np.zeros((2, 4)), {}, {"a": 1.0})

    def test_width_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            combine_overall_grad(np.zeros((2, 4)), {"a": np.zeros((2, 5))}, {"a": 1.0})


class TestAscentCheck:
    def test_attack_f1_decreases_over_fifty_rounds(self):
        """With lambda fixed and the attacker retrained every 10 rounds, the
        bias attacker's F1 on the unified rep trends down: averaged over five
        seeds, the final probe sits more than 0.1 below the initial one.

        The adversary stack (mapper + bias discriminator) is warmed on the
        frozen initial reps first, matching the near-optimal-discriminator
        premise; rounds are full-batch to keep the 50-round window out of
        minibatch noise.
        """
        from fairvfl.config import ExperimentConfig
        from fairvfl.data import generate_synthetic, synthetic_partition, partition_vertical
        from fairvfl.runner import build_run_federation, representations
        from fairvfl.evaluation import AttackConfig, train_attacker_ensemble, attack_f1

        def config(seed, batch):
            return ExperimentConfig(
                mode="fairvfl",
                dataset={"kind": "synthetic", "n_samples": 1500, "n_platforms": 2,
                         "numeric_per_platform": 2, "categorical_per_platform": 1,
                         "cat_vocab": 4, "sensitive_classes": {"attr": 2},
                         "rho": 1.0, "seed": 200},
                n_platforms=2,
                widths={"rep": 32, "protected": {"attr": 4}, "emb_dim": 8,
                        "encoder_hidden": 16, "attn_heads": 4, "pool_hidden": 16,
                        "head_hidden": 16, "mapper_hidden": 16, "cdisc_hidden": 16,
                        "bdisc_hidden": 8},
                lam={"attr": 100.0}, gamma={"attr": 0.0},
                optim={"lr": 2e-2}, batch_size=batch, epochs=1, seed=seed)

        spec = config(0, 32).dataset_spec()
        ds = generate_synthetic(spec)
        pa = synthetic_partition(spec)
        shards, _, _ = partition_vertical(ds, pa)
        train_ids = ds.split_ids("train")
        test_ids = ds.split_ids("test")
        y = ds.sensitive["attr"].values

        def probe(bundle, seed):
            s_tr, _ = representations(bundle, shards, train_ids, protected=False)
            s_te, _ = representations(bundle, shards, test_ids, protected=False)
            atk = AttackConfig(k=2, hidden=16, lr=1e-2, batch=64, max_epochs=25, patience=5)
            ens = train_attacker_ensemble(s_tr, y[train_ids], atk, seed, "ascent")
            return attack_f1(ens, s_te, y[test_ids]).mean_f1

        initials, finals, trajectories = [], [], []
        for seed in range(5):
            fed = build_run_federation(config(seed, train_ids.shape[0]), ds, pa)
            # warm the adversary stack on the frozen initial representations
            s_tr, _ = representations(fed.bundle, shards, train_ids, protected=False)
            mapper = fed.bundle.mappers["attr"]
            bdisc = fed.bundle.bdiscs["attr"]
            warm_rng = np.random.default_rng(seed)
            for _ in range(400):
                sel = warm_rng.integers(0, s_tr.shape[0], 64)
                a, mcache = mapper.forward(s_tr[sel])
                _, ga = bias_discriminator_step(bdisc, a, y[train_ids][sel])
                mapper.backward(mcache, ga)
                mapper.opt.step()

            traj = [probe(fed.bundle, seed)]
            for r in range(50):
                fed.run_training_round(train_ids)
                if (r + 1) % 10 == 0:
                    traj.append(probe(fed.bundle, seed))
            initials.append(traj[0])
            finals.append(traj[-1])
            trajectories.append([round(v, 2) for v in traj])

        mean_initial = float(np.mean(initials))
        mean_final = float(np.mean(finals))
        assert mean_final < mean_initial - 0.1, (
            f"no downward trend: initial={mean_initial:.3f} final={mean_final:.3f} "
            f"trajectories={trajectories}")


class TestSignLedger:
    def _event(self, component, term, coeff, g=1.0, applied=None):
        piece = np.atleast_1d(np.array(g, dtype=np.float64))
        applied_grad = (coeff * piece if applied is None
                        else np.atleast_1d(np.array(applied, dtype=np.float64)))
        return UpdateEvent(component, [(term, coeff, piece)], applied_grad)

    def test_default_declarations(self):
        ledger = SignLedger.default(["gender", "age"])
        assert ledger.declared["mapper/gender"] == {
            "contrastive_adv/gender": ASCEND, "bias/gender": DESCEND}
        assert ledger.declared["aggregator"]["task"] == DESCEND
        assert ledger.declared["aggregator"]["adversarial/age"] == ASCEND
        assert ledger.declared["encoder/*"]["adversarial/gender"] == ASCEND

    def test_undeclared_term_rejected(self):
        ledger = SignLedger.default(["g"])
        with pytest.raises(ProtocolError, match="undeclared"):
            ledger.verify(self._event("task_head", "bias/g", 1.0))

    def test_wrong_direction_rejected(self):
        ledger = SignLedger.default(["g"])
        with pytest.raises(ProtocolError, match="declared"):
            ledger.verify(self._event("mapper/g", "contrastive_adv/g", +0.25))
        with pytest.raises(ProtocolError, match="declared"):
            ledger.verify(self._event("task_head", "task", -1.0))

    def test_deviation_detected(self):
        ledger = SignLedger.default(["g"])
        ok = self._event("task_head", "task", 1.0, g=2.0)
        assert ledger.verify(ok) == 0.0
        bad = self._event("task_head", "task", 1.0, g=2.0, applied=2.5)
        with pytest.raises(ProtocolError, match="deviates"):
            ledger.verify(bad)
        # a flat store where only one element past the first is off
        g = np.array([1.0, -2.0, 0.5, 4.0])
        assert ledger.verify(self._event("mapper/g", "contrastive_adv/g", -0.5, g=g)) == 0.0
        applied = -0.5 * g
        applied[2] += 1e-6
        with pytest.raises(ProtocolError, match="deviates"):
            ledger.verify(self._event("mapper/g", "contrastive_adv/g", -0.5, g=g,
                                      applied=applied))

    def test_unknown_component_rejected(self):
        ledger = SignLedger.default(["g"])
        with pytest.raises(ProtocolError, match="no ledger entry"):
            ledger.verify(self._event("rogue", "task", 1.0))
