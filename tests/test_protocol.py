"""Federation protocol: serving, LDP, training-round reductions and isolation
properties, determinism, transcript mechanics, auditing, and traffic
accounting."""

import dataclasses
import functools
import itertools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_round
from conftest import (
    JSON_VALUES,
    make_federation,
    reference_twins,
    small_widths,
    train_batches,
)
from fairvfl.config import ExperimentConfig, preset
from fairvfl.data import (
    SyntheticSpec,
    generate_synthetic,
    iterate_batches,
    partition_vertical,
    synthetic_partition,
)
from fairvfl.errors import (
    ConfigError,
    NumericError,
    ParseError,
    ProtocolError,
    SampleLookupError,
)
from fairvfl.models import ModelBundle, OptimParams, forward_unified
from fairvfl.nn import Adam, rng_for, softmax_cross_entropy
from fairvfl.protocol import (
    AuditPolicy,
    Federation,
    Kind,
    LdpConfig,
    Transcript,
    audit_transcript,
    fairness_comm_cost,
    ldp_perturb,
    messages,
)
from fairvfl.protocol import federation as federation_mod
from fairvfl.protocol.audit import ViolationKind, _classify, per_round_fairness_cost
from fairvfl.protocol.messages import (
    _CANONICAL,
    Role,
    TranscriptRecord,
    write_records,
)
from fairvfl.runner import (
    audit_policy_from_config,
    build_run_federation,
    cmd_audit,
    cmd_train,
    make_dataset,
)
from oracles import whole_file_audit
from reference_round import compare_round, first_difference


def _policy(fed):
    return AuditPolicy.from_federation(fed)


class TestServe:
    def test_matches_direct_composition_without_ldp(self, tiny_dataset):
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa)
        ids = ds.split_ids("test")[:8]
        served = fed.serve(ids)
        shards, _, _ = partition_vertical(ds, pa)
        unified, _ = forward_unified(fed.bundle, [s.take(ids) for s in shards])
        direct = fed.bundle.task_head.predict(unified)
        assert np.array_equal(served, direct)

    def test_vanishing_noise_with_huge_epsilon(self, tiny_dataset):
        ds, pa = tiny_dataset
        ids = ds.split_ids("test")[:8]
        fed_off = make_federation(ds, pa, seed=21)
        p_off = fed_off.serve(ids)
        # clip chosen to be the identity on these reps; noise scale 2c/eps ~ 2e-8
        shards, _, _ = partition_vertical(ds, pa)
        unified, _ = forward_unified(fed_off.bundle, [s.take(ids) for s in shards])
        assert np.max(np.abs(unified)) < 10.0
        fed_on = make_federation(ds, pa, seed=21,
                                 ldp=LdpConfig(enabled=True, clip=10.0, epsilon=1e9))
        p_on = fed_on.serve(ids)
        assert np.max(np.abs(p_on - p_off)) < 1e-6

    def test_transcript_counts(self, tiny_dataset):
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa)
        fed.serve(ds.split_ids("test")[:4])
        counts = Counter(r.kind for r in fed.transcript)
        n = len(fed.insensitive)
        assert counts[Kind.LOCAL_REP_UPLOAD.value] == n
        assert counts[Kind.UNIFIED_REP_TO_TASK.value] == 1

    def test_unknown_id_names_platform(self, tiny_dataset):
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa)
        with pytest.raises(SampleLookupError, match="insensitive/0"):
            fed.serve(np.array([10_000_000]))


class TestLdpPerturb:
    def test_vanishing_noise_approaches_clip(self):
        rng = np.random.default_rng(0)
        s = rng.normal(scale=3.0, size=(16, 8))
        out = ldp_perturb(s, LdpConfig(enabled=True, clip=1.0, epsilon=1e9),
                          np.random.default_rng(1))
        assert np.max(np.abs(out - np.clip(s, -1, 1))) < 1e-6

    def test_clipping_exact(self):
        s = np.array([[10.0, -0.5]])
        clipped = np.clip(s, -1.0, 1.0)
        assert clipped[0, 0] == 1.0

    def test_noise_moments(self):
        cfg = LdpConfig(enabled=True, clip=2.0, epsilon=4.0)
        s = np.zeros((200, 500))  # 1e5 coordinates
        out = ldp_perturb(s, cfg, np.random.default_rng(7))
        scale = 2 * cfg.clip / cfg.epsilon
        assert abs(float(out.mean())) < 0.05 * scale * 10
        var = float(out.var())
        assert abs(var - 2 * scale**2) < 0.05 * 2 * scale**2

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            ldp_perturb(np.zeros((2, 2)), LdpConfig(enabled=False), np.random.default_rng(0))
        with pytest.raises(ConfigError):
            ldp_perturb(np.zeros((2, 2)), LdpConfig(enabled=True, epsilon=0.0),
                        np.random.default_rng(0))
        with pytest.raises(ConfigError):
            LdpConfig(enabled=True, clip=-1.0).validate()


def _main_blocks(bundle):
    """Blocks of the plain-VFL model (encoders, aggregator, task head)."""
    return [b for c in (*bundle.encoders, bundle.aggregator, bundle.task_head)
            for b in c.blocks()]


def _main_params(bundle):
    return {b.name: b.w.copy() for b in _main_blocks(bundle)}


class TestTrainingRound:
    def test_zero_weights_reduce_to_plain_vfl_round(self, tiny_dataset):
        """lambda = gamma = 0: main-model updates bitwise equal to a round with
        the fairness machinery disabled entirely."""
        ds, pa = tiny_dataset
        fed_zero = make_federation(ds, pa, lam=0.0, gamma=0.0, mode="fairvfl", seed=31)
        fed_vfl = make_federation(ds, pa, mode="vfl", seed=31)
        ids = train_batches(ds)[0]
        fed_zero.run_training_round(ids)
        fed_vfl.run_training_round(ids)
        a, b = _main_params(fed_zero.bundle), _main_params(fed_vfl.bundle)
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_fairness_traffic_formula(self, tiny_dataset):
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa)
        ids = train_batches(ds)[0]
        result = fed.run_training_round(ids)
        e = ids.shape[0]
        h_sum = sum(fed.bundle.widths.protected.values())
        assert fairness_comm_cost(result.records) == 4 * e * h_sum
        table = per_round_fairness_cost(result.records)
        assert table[result.round_id]["actual"] == table[result.round_id]["expected"]

    def test_vfl_mode_has_zero_fairness_traffic(self, tiny_dataset):
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa, mode="vfl")
        result = fed.run_training_round(train_batches(ds)[0])
        assert fairness_comm_cost(result.records) == 0

    def test_single_feature_uniform_width_case(self):
        # one sensitive feature, batch 32, protected width 32: 4*32*32 floats
        spec = SyntheticSpec(n_samples=200, n_platforms=2, seed=3)
        ds = generate_synthetic(spec)
        pa = synthetic_partition(spec)
        widths = small_widths(h=32)
        fed = make_federation(ds, pa, widths=widths)
        ids = iterate_batches(ds, "train", 32, seed=0)[0]
        result = fed.run_training_round(ids)
        assert fairness_comm_cost(result.records) == 4096

    def test_determinism_bitwise(self, tiny_dataset):
        ds, pa = tiny_dataset
        runs = []
        for _ in range(2):
            fed = make_federation(ds, pa, seed=77)
            for ids in train_batches(ds)[:4]:
                fed.run_training_round(ids)
            params = {b.name: b.w.tobytes() for b in fed.bundle.named_blocks()}
            lines = [r.to_line() for r in fed.transcript]
            runs.append((params, lines))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_batch_below_two_rejected(self, tiny_dataset):
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa)
        with pytest.raises(ProtocolError, match=">=2 samples"):
            fed.run_training_round(np.array([3]))

    @pytest.mark.parametrize("mode", ["fairvfl", "vfl"])
    def test_non_finite_payload_stops_the_round_before_any_step(self, tiny_dataset, mode):
        """A NaN weight in an encoder fails its local-rep upload, naming the
        round, the kind and the edge, before any component steps."""
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa, mode=mode)
        fed.bundle.encoders[0].opt.params[0] = np.nan
        with pytest.raises(NumericError,
                           match="round 0: LocalRepUpload insensitive/0 -> server$"):
            fed.run_training_round(train_batches(ds)[0])
        assert {name: opt.t for name, opt in fed.bundle.optim.items()} == \
            dict.fromkeys(fed.bundle.optim, 0)

    def test_sign_ledger_holds_on_instrumented_rounds(self, tiny_dataset):
        """Five reference rounds keep every update within 1e-9 of its declared
        signed sum, and the federation's rounds equal them bit for bit."""
        ds, pa = tiny_dataset
        fed, ref = reference_twins(ds, pa, lam=3.0, gamma=0.5, seed=19)
        for r, ids in enumerate(train_batches(ds)[:5]):
            diff, result = compare_round(fed, ref, ids)
            assert diff is None, f"round {r}: first difference at {diff}"
            assert result.ledger_max_dev < 1e-9

    def test_contrastive_gradients_stop_at_mappers(self, tiny_dataset):
        """With lambda = 0 and gamma = 1, rounds with the task gradient flowing
        leave every main-model block bitwise equal to plain-VFL rounds from
        the same seed, while the mapper moves: the contrastive game's
        gradients stop at the mappers."""
        ds, pa = tiny_dataset
        fed_cal = make_federation(ds, pa, lam=0.0, gamma=1.0, seed=13)
        fed_vfl = make_federation(ds, pa, mode="vfl", seed=13)
        mapper_before = {b.name: b.w.copy() for b in fed_cal.bundle.mappers["attr"].blocks()}
        for ids in train_batches(ds)[:3]:
            fed_cal.run_training_round(ids)
            fed_vfl.run_training_round(ids)
        for a, b in zip(_main_blocks(fed_cal.bundle), _main_blocks(fed_vfl.bundle),
                        strict=True):
            assert a.name == b.name
            assert np.array_equal(a.w, b.w), a.name
            assert a.b is None or np.array_equal(a.b, b.b), a.name
        # the mapper itself did move (CAL is active)
        assert any(not np.array_equal(mapper_before[b.name], b.w)
                   for b in fed_cal.bundle.mappers["attr"].blocks())

    def test_reduction_matches_directly_composed_trainer(self, tiny_dataset):
        """vfl-mode federation vs an inline (non-federated) trainer with the
        same seeds: identical parameters, hence identical task metrics."""
        ds, pa = tiny_dataset
        seed = 41
        fed = make_federation(ds, pa, mode="vfl", seed=seed)
        batches = train_batches(ds)[:4]
        for ids in batches:
            fed.run_training_round(ids)

        shards, _, task_shard = partition_vertical(ds, pa)
        widths = small_widths()
        bundle = ModelBundle([s.schema() for s in shards], widths, 2, {"attr": 2},
                             seed=seed, optim=OptimParams(lr=1e-3))
        enc_rngs = [rng_for(seed, f"dropout/encoder/{i}") for i in range(len(shards))]
        head_rng = rng_for(seed, "dropout/task_head")
        for ids in batches:
            cols = [s.take(ids) for s in shards]
            unified, (enc_caches, agg_cache) = forward_unified(
                bundle, cols, training=True, rngs=enc_rngs)
            logits, hcache = bundle.task_head.forward(unified, training=True, rng=head_rng)
            _, glogits = softmax_cross_entropy(logits, task_shard.take(ids))
            gs = bundle.task_head.backward(hcache, glogits)
            bundle.task_head.opt.step()
            gstack = bundle.aggregator.backward(agg_cache, gs)
            bundle.aggregator.opt.step()
            for i, enc in enumerate(bundle.encoders):
                enc.backward(enc_caches[i], gstack[:, i, :])
                enc.opt.step()

        for fb, db in zip(_main_blocks(fed.bundle), _main_blocks(bundle), strict=True):
            assert fb.name == db.name
            assert np.array_equal(fb.w, db.w), fb.name
            if fb.b is not None:
                assert np.array_equal(fb.b, db.b), fb.name

        test_ids = ds.split_ids("test")
        direct_unified, _ = forward_unified(bundle, [s.take(test_ids) for s in shards])
        direct_pred = np.argmax(bundle.task_head.predict(direct_unified), 1)
        fed_pred = np.argmax(fed.serve(test_ids), 1)
        assert np.array_equal(direct_pred, fed_pred)

    def test_illegal_edge_raises_and_is_recorded(self, tiny_dataset):
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa)
        with pytest.raises(ProtocolError, match="illegal edge"):
            fed.send(0, fed.server, fed.sensitive["attr"], Kind.UNIFIED_REP_TO_TASK,
                     np.zeros((2, 16)))
        assert fed.transcript.records[-1].kind == Kind.UNIFIED_REP_TO_TASK.value
        violations = audit_transcript(fed.transcript, _policy(fed))
        assert len(violations) == 1

    def test_role_scoped_data_ownership(self, tiny_dataset):
        """The task platform holds no sensitive labels; sensitive platforms
        hold neither raw features nor task labels."""
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa)
        assert not hasattr(fed.task.shard, "values")
        assert set(vars(fed.task).keys()) & {"sensitive", "bdisc"} == set()
        for p in fed.sensitive.values():
            assert not hasattr(p.shard, "columns")
            assert not hasattr(p.shard, "labels")
        for p in fed.insensitive:
            assert not hasattr(p.shard, "labels")
            assert set(p.shard.columns) <= set(ds.columns)


class TestRoundLedger:
    """The reference round records every update, in protocol order, and a
    sign flipped anywhere in the federation's round makes it differ from the
    reference, first at the component the flip reaches first. The same flip
    in the reference's own step functions makes its ledger reject it."""

    _ADV = ["task", "adversarial/attr"]
    EVENTS = {
        "fairvfl": [("task_head", ["task"]), ("cdisc/attr", ["contrastive/attr"]),
                    ("mapper/attr", ["contrastive_adv/attr"]), ("bdisc/attr", ["bias/attr"]),
                    ("mapper/attr", ["bias/attr"]), ("aggregator", _ADV),
                    ("encoder/0", _ADV), ("encoder/1", _ADV)],
        "vfl": [("task_head", ["task"]), ("aggregator", ["task"]),
                ("encoder/0", ["task"]), ("encoder/1", ["task"])],
    }

    @staticmethod
    def _round(dataset, mode="fairvfl"):
        """The first difference between a federation's round and the
        reference's, and the reference's result."""
        ds, pa = dataset
        fed, ref = reference_twins(ds, pa, lam=3.0, gamma=0.5, mode=mode)
        return compare_round(fed, ref, train_batches(ds)[0])

    @pytest.mark.parametrize("mode", ["fairvfl", "vfl"])
    def test_event_list(self, tiny_dataset, mode):
        diff, result = self._round(tiny_dataset, mode)
        assert diff is None
        events = [(e.component, [term for term, _, _ in e.contributions])
                  for e in result.events]
        assert events == self.EVENTS[mode]
        assert result.ledger_max_dev < 1e-9

    def test_aggregator_adding_the_adversarial_gradient_is_rejected(self, tiny_dataset,
                                                                     monkeypatch):
        def plus_lam(task_grad, adv_grads, lam):
            out = task_grad.copy()
            for feature, weight in lam.items():
                out += weight * adv_grads[feature]
            return out

        monkeypatch.setattr(federation_mod, "combine_overall_grad", plus_lam)
        assert self._round(tiny_dataset)[0] == "aggregator"
        monkeypatch.setattr(reference_round, "combine_overall_grad", plus_lam)
        with pytest.raises(ProtocolError, match="^aggregator: "):
            self._round(tiny_dataset)

    def test_mapper_descending_the_contrastive_loss_is_rejected(self, tiny_dataset,
                                                                 monkeypatch):
        def plus_gamma(mapper, mapper_cache, grad_protected, gamma):
            mapper.backward(mapper_cache, grad_protected * gamma, inputs=False)

        monkeypatch.setattr(federation_mod, "cal_mapper_gradient", plus_gamma)
        assert self._round(tiny_dataset)[0] == "mapper/attr"
        monkeypatch.setattr(reference_round, "cal_mapper_gradient", plus_gamma)
        with pytest.raises(ProtocolError, match="^mapper/attr: "):
            self._round(tiny_dataset)

    def test_encoder_taking_a_scaled_gradient_is_rejected(self, tiny_dataset, monkeypatch):
        send = Federation.send

        def scaled(self, round_id, sender, receiver, kind, payload, ldp_applied=None):
            if kind is Kind.LOCAL_REP_GRAD_DOWN:
                payload = payload * 1.5
            return send(self, round_id, sender, receiver, kind, payload, ldp_applied)

        monkeypatch.setattr(Federation, "send", scaled)
        assert self._round(tiny_dataset)[0] == "encoder/0"


#: the sensitive features of the reference-round datasets, taken 1 to 3 at a time
_REF_FEATURES = {"attr": 2, "age": 3, "region": 2}
_REF_LDP = {"ldp-off": None, "ldp-on": LdpConfig(enabled=True),
            "ldp-serve-only": LdpConfig(enabled=True, perturb_training=False)}


@functools.lru_cache(maxsize=None)
def _reference_dataset(n_features):
    spec = SyntheticSpec(n_samples=120, n_platforms=2, seed=5, sensitive_classes=dict(
        itertools.islice(_REF_FEATURES.items(), n_features)))
    return generate_synthetic(spec), synthetic_partition(spec)


class TestReferenceRound:
    """``Federation.run_training_round`` equals a message-free round written
    from the protocol order (tests/reference_round.py), bit for bit: every
    component's ``params``, ``m``, ``v`` and ``t``, and the round's losses."""

    @pytest.mark.parametrize("n_features", [1, 2, 3])
    @pytest.mark.parametrize("ldp", list(_REF_LDP))
    @pytest.mark.parametrize("mode", ["fairvfl", "vfl"])
    def test_federation_equals_the_reference(self, mode, ldp, n_features):
        ds, pa = _reference_dataset(n_features)
        widths = dataclasses.replace(small_widths(), protected={
            f: 4 + 2 * k for k, f in enumerate(ds.sensitive)})
        fed, ref = reference_twins(ds, pa, lam=3.0, gamma=0.5, seed=17, mode=mode,
                                   ldp=_REF_LDP[ldp], widths=widths, top_pool=4)
        assert first_difference(fed.bundle, ref.bundle, {}, {}) is None
        for r, ids in enumerate(train_batches(ds)[:3]):
            diff, _ = compare_round(fed, ref, ids)
            assert diff is None, f"round {r}: first difference at {diff}"
        assert ref.bundle.task_head.opt.t == 3
        assert ref.bundle.mappers["attr"].opt.t == (6 if mode == "fairvfl" else 0)


class TestDelivery:
    """Every receiver acts on the payload ``send`` returns to it, not on the
    sender's copy: altering any one delivery changes the round."""

    @staticmethod
    def _outcome(fed, ids):
        losses = fed.run_training_round(ids).losses.flat()
        return (np.array(list(losses.values())).tobytes(),
                [opt.params.tobytes() for opt in fed.bundle.optim.values()])

    @pytest.mark.parametrize("kind", list(Kind), ids=[k.value for k in Kind])
    def test_receiver_acts_on_the_delivered_payload(self, tiny_dataset, monkeypatch, kind):
        """Each message of the kind in turn is delivered altered (floats
        scaled by 1.5, ids reversed); the round's losses or post-round
        parameters must differ from an unaltered same-seed round's."""
        ds, pa = tiny_dataset
        ids = train_batches(ds)[0]
        fed = make_federation(ds, pa, seed=19)
        plain = self._outcome(fed, ids)
        n_sent = sum(r.kind == kind.value for r in fed.transcript)
        assert n_sent > 0
        send = Federation.send
        for target in range(n_sent):
            count = itertools.count()

            def altered(self, round_id, sender, receiver, sent_kind, payload,
                        ldp_applied=None, count=count, target=target):
                if sent_kind is kind and next(count) == target:
                    payload = payload[::-1].copy() if payload.dtype.kind == "i" else payload * 1.5
                return send(self, round_id, sender, receiver, sent_kind, payload, ldp_applied)

            monkeypatch.setattr(Federation, "send", altered)
            assert self._outcome(make_federation(ds, pa, seed=19), ids) != plain, target


class TestGradientsAtRest:
    def test_instrumented_rounds_train_alike_and_leave_grads_zero(self, tiny_dataset):
        """Serving touches no gradient store: after five rounds each group's
        store, a prefix of the bundle's shared gradient buffer, holds the
        same bytes before and after serving.

        The name is kept from earlier contracts: every store was once zeroed
        after use, and later held its own group's last gradient. The groups
        now share one buffer, which holds whatever the last backward wrote,
        so the test checks that the stores are not all zero after training,
        and that serving leaves them unchanged."""
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa, lam=3.0, gamma=0.5, seed=23)
        for ids in train_batches(ds)[:5]:
            fed.run_training_round(ids)
        stores = {key: opt.grads.copy() for key, opt in fed.bundle.optim.items()}
        assert all(store.any() for store in stores.values())
        fed.serve(ds.split_ids("test"))
        for key, opt in fed.bundle.optim.items():
            assert opt.grads.tobytes() == stores[key].tobytes(), key


class TestSharedGradientBuffer:
    """A bundle's component optimizers share one gradient buffer. Training
    with it is, bit for bit, training with a private gradient store per
    component."""

    @staticmethod
    def _private_reference(ds, pa, **kwargs):
        """A same-seed federation whose components each own a gradient store:
        each component's ``opt`` is built again over the same blocks before
        any round, and the platforms step the new ones."""
        fed = make_federation(ds, pa, **kwargs)
        for c in fed.bundle.components:
            c.opt = Adam(c.opt.blocks, c.opt.lr, c.opt.beta1, c.opt.beta2, c.opt.eps)
        stores = [c.opt.grads for c in fed.bundle.components]
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(stores, 2))
        return fed

    @pytest.mark.parametrize("mode", ["fairvfl", "vfl"])
    def test_trains_like_private_stores(self, tiny_dataset, mode):
        ds, pa = tiny_dataset
        kwargs = dict(lam=3.0, gamma=0.5, seed=29, mode=mode)
        shared = make_federation(ds, pa, **kwargs)
        private = self._private_reference(ds, pa, **kwargs)
        pairs = list(zip(shared.bundle.components, private.bundle.components, strict=True))
        assert all(c.name == ref_c.name for c, ref_c in pairs)
        for rounds, ids in enumerate(train_batches(ds)[:6], 1):
            results = [fed.run_training_round(ids) for fed in (shared, private)]
            losses = [r.losses.flat() for r in results]
            assert list(losses[0]) == list(losses[1])
            assert np.array(list(losses[0].values())).tobytes() == \
                np.array(list(losses[1].values())).tobytes()
            for c, ref_c in pairs:
                assert c.opt.t == ref_c.opt.t, c.name
                for name in ("params", "m", "v"):  # the moments are None until a step
                    a, b = getattr(c.opt, name), getattr(ref_c.opt, name)
                    assert (a is None) == (b is None), (c.name, name)
                    assert a is None or a.tobytes() == b.tobytes(), (c.name, name)
            assert shared.bundle.aggregator.opt.t == rounds
            assert (shared.bundle.mappers["attr"].opt.t == 2 * rounds) == (mode == "fairvfl")

    def test_groups_share_one_buffer_of_the_largest_size(self, tiny_dataset):
        ds, pa = tiny_dataset
        opts = list(make_federation(ds, pa).bundle.optim.values())
        buffer = opts[0].grads.base
        assert buffer is not None and not buffer.any()
        assert buffer.size == max(opt.params.size for opt in opts)
        for opt in opts:
            assert opt.grads.base is buffer and opt.grads.size == opt.params.size
            assert opt.grads.ctypes.data == buffer.ctypes.data  # a prefix
            for blk in opt.blocks:
                for grad in (blk.gw, blk.gb):
                    assert grad is None or grad.base is buffer


class TestMapperAdamSharing:
    def test_mapper_state_advances_twice_per_round(self, tiny_dataset):
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa)
        opt = fed.bundle.mappers["attr"].opt
        assert opt.t == 0
        fed.run_training_round(train_batches(ds)[0])
        assert opt.t == 2


class TestLedgerEventNames:
    @pytest.mark.parametrize("mode", ["fairvfl", "vfl"])
    def test_events_name_the_components_that_stepped(self, tiny_dataset, monkeypatch, mode):
        """A reference round logs one ledger event per optimizer step, in step
        order, each under the name of the component that stepped, and the
        federation's round steps the same components in the same order."""
        ds, pa = tiny_dataset
        fed, ref = reference_twins(ds, pa, lam=3.0, gamma=0.5, mode=mode)
        owner = {id(c.opt): c.name for b in (fed.bundle, ref.bundle) for c in b.components}
        stepped = []

        def step(opt, step=Adam.step):
            stepped.append(owner[id(opt)])
            step(opt)

        monkeypatch.setattr(Adam, "step", step)
        ids = train_batches(ds)[0]
        fed.run_training_round(ids)
        fed_stepped, stepped[:] = stepped[:], []
        events = ref.run(ids).events
        assert [e.component for e in events] == stepped == fed_stepped
        fairness = ["cdisc/attr", "mapper/attr", "bdisc/attr", "mapper/attr"]
        assert stepped == ["task_head", *(fairness if mode == "fairvfl" else []),
                           "aggregator", "encoder/0", "encoder/1"]


class TestAudit:
    def test_compliant_round_is_clean(self, tiny_dataset):
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa)
        for ids in train_batches(ds)[:2]:
            fed.run_training_round(ids)
        fed.serve(ds.split_ids("val")[:4])
        assert audit_transcript(fed.transcript, _policy(fed)) == []

    def _rec(self, sender, receiver, kind, shape, **kw):
        return TranscriptRecord(round_id=0, sender=sender, receiver=receiver,
                                kind=kind, shape=shape,
                                float_count=int(np.prod(shape)), digest=0, **kw)

    def _fixture_policy(self):
        return AuditPolicy(
            roles={"task": Role.TASK, "server": Role.SERVER,
                   "insensitive/0": Role.INSENSITIVE, "insensitive/1": Role.INSENSITIVE,
                   "sensitive/attr": Role.SENSITIVE},
            rep_width=16,
            protected_widths={"sensitive/attr": 8},
            require_ldp_training=True,
        )

    @pytest.mark.parametrize("rec_args,expected", [
        ((("insensitive/0", "server", "LocalRepUpload", (4, 7)), {}),
         ViolationKind.RAW_FEATURE_LEAK),
        ((("insensitive/0", "task", "LocalRepUpload", (4, 16)), {}),
         ViolationKind.LOCAL_REP_MISROUTE),
        ((("server", "task", "UnifiedRepToTask", (4, 16)),
          {"ldp_applied": False, "phase": "train"}),
         ViolationKind.UNPERTURBED_UNIFIED),
        ((("server", "sensitive/attr", "ProtectedRepUpload", (4, 16)), {}),
         ViolationKind.UNIFIED_TO_SENSITIVE),
        ((("sensitive/attr", "server", "ProtectedRepUpload", (4, 8)), {}),
         ViolationKind.SENSITIVE_LABEL_LEAK),
        ((("task", "insensitive/0", "TaskGradDown", (4, 16)), {}),
         ViolationKind.ILLEGAL_EDGE),
    ])
    def test_injected_violation_flagged_exactly_once(self, rec_args, expected):
        (args, kwargs) = rec_args
        rec = self._rec(*args, **kwargs)
        violations = audit_transcript([rec], self._fixture_policy())
        assert len(violations) == 1
        assert violations[0].kind == expected

    def test_unknown_kind_is_flagged(self):
        rec = self._rec("server", "task", "RawDump", (4, 16))
        violations = audit_transcript([rec], self._fixture_policy())
        assert len(violations) == 1
        assert violations[0].kind == ViolationKind.RAW_FEATURE_LEAK

    def test_injected_unified_to_sensitive_in_live_transcript(self, tiny_dataset):
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa)
        fed.run_training_round(train_batches(ds)[0])
        rec = self._rec("server", "sensitive/attr", "ProtectedRepUpload", (4, 16))
        fed.transcript.append(rec)
        violations = audit_transcript(fed.transcript, _policy(fed))
        assert len(violations) == 1
        assert violations[0].kind == ViolationKind.UNIFIED_TO_SENSITIVE


def _smoke(**overrides):
    return preset("synthetic-smoke").with_overrides(**overrides)


def _two_feature_config():
    base = preset("synthetic-smoke")
    dataset = dict(base.dataset, n_platforms=3, sensitive_classes={"attr": 2, "age": 5})
    widths = dict(base.widths, protected={"attr": 4, "age": 8})
    return base.with_overrides(dataset=dataset, n_platforms=3, widths=widths,
                               lam={"attr": 100.0, "age": 10.0},
                               gamma={"attr": 0.25, "age": 0.25})


POLICY_CONFIGS = {
    "smoke": _smoke,
    "vfl": lambda: _smoke(mode="vfl"),
    "ldp": lambda: _smoke(ldp={"enabled": True}),
    "ldp-serve-only": lambda: _smoke(ldp={"enabled": True, "perturb_training": False}),
    "3-platforms-2-features": _two_feature_config,
    # the top-level count disagrees with the dataset's n_platforms = 2
    "top-level-n-platforms": lambda: _smoke(n_platforms=3),
    # no dataset n_platforms: the dataset's default 2 rules, not the top-level 1
    "default-dataset-n-platforms": lambda: _smoke(
        dataset={k: v for k, v in preset("synthetic-smoke").dataset.items()
                 if k != "n_platforms"}, n_platforms=1),
}


class TestAuditPolicyBuilders:
    """``fairvfl audit`` builds its policy from the config alone; it must be
    the policy of the federation that the same config runs."""

    @pytest.mark.parametrize("name", list(POLICY_CONFIGS))
    def test_config_policy_is_the_federation_policy(self, name):
        cfg = POLICY_CONFIGS[name]()
        cfg.validate()
        fed = build_run_federation(cfg, *make_dataset(cfg))
        assert audit_policy_from_config(cfg) == AuditPolicy.from_federation(fed)


def _reference_classify(rec, policy):
    """The auditor's classifier as it read before its constants were hoisted
    (enum lookups per record, ``Kind(rec.kind)`` for the edge table): the
    reference the table-driven ``_classify`` must match rule for rule."""
    from fairvfl.protocol.audit import Violation
    from fairvfl.protocol.messages import LEGAL_EDGES

    def width(r):
        return r.shape[-1] if len(r.shape) == 2 else None

    sensitive_out = {Kind.BIAS_DISC_GRAD_DOWN.value, Kind.ADV_GRAD_DOWN.value}
    role_s = policy.roles.get(rec.sender)
    role_r = policy.roles.get(rec.receiver)
    if role_s is None or role_r is None:
        return Violation(ViolationKind.ILLEGAL_EDGE, rec,
                         f"unknown platform on edge {rec.sender} -> {rec.receiver}")
    if role_s is Role.SENSITIVE and rec.kind not in sensitive_out:
        return Violation(ViolationKind.SENSITIVE_LABEL_LEAK, rec,
                         f"{rec.sender} emitted {rec.kind}")
    if role_r is Role.SENSITIVE:
        if rec.kind == Kind.UNIFIED_REP_TO_TASK.value or (
                rec.kind == Kind.PROTECTED_REP_UPLOAD.value
                and width(rec) == policy.rep_width
                and policy.protected_widths.get(rec.receiver) != policy.rep_width):
            return Violation(ViolationKind.UNIFIED_TO_SENSITIVE, rec,
                             f"rep-width payload ({rec.shape}) sent to {rec.receiver}")
        if rec.kind == Kind.PROTECTED_REP_UPLOAD.value:
            expected = policy.protected_widths.get(rec.receiver)
            if expected is not None and width(rec) != expected:
                return Violation(ViolationKind.UNIFIED_TO_SENSITIVE, rec,
                                 f"payload width {width(rec)} != declared {expected}")
    if rec.kind == Kind.LOCAL_REP_UPLOAD.value and role_r is not Role.SERVER:
        return Violation(ViolationKind.LOCAL_REP_MISROUTE, rec,
                         f"local rep delivered to {rec.receiver}")
    if role_s is Role.INSENSITIVE:
        if rec.kind != Kind.LOCAL_REP_UPLOAD.value:
            return Violation(ViolationKind.RAW_FEATURE_LEAK, rec,
                             f"{rec.sender} emitted {rec.kind}")
        if width(rec) != policy.rep_width:
            return Violation(ViolationKind.RAW_FEATURE_LEAK, rec,
                             f"upload width {width(rec)} != rep width {policy.rep_width}")
    if rec.kind == Kind.UNIFIED_REP_TO_TASK.value and rec.ldp_applied is not None:
        required = (policy.require_ldp_serving if rec.phase == "serve"
                    else policy.require_ldp_training)
        if required and rec.ldp_applied is False:
            return Violation(ViolationKind.UNPERTURBED_UNIFIED, rec,
                             "LDP required but upload was not perturbed")
    try:
        kind = Kind(rec.kind)
    except ValueError:
        return Violation(ViolationKind.RAW_FEATURE_LEAK, rec,
                         f"unknown payload kind {rec.kind!r}")
    if (role_s, role_r) not in LEGAL_EDGES[kind]:
        return Violation(ViolationKind.ILLEGAL_EDGE, rec,
                         f"{rec.kind}: {role_s.value} -> {role_r.value} not permitted")
    return None


class TestClassifierMatchesReference:
    @pytest.mark.parametrize("serving", [False, True])
    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("protected_width", [8, 16])
    def test_every_edge_kind_shape_and_flag(self, serving, training, protected_width):
        """Every sender and receiver (the fixture platforms and an unknown
        one), every kind and an unknown one, payload shapes of rep width,
        protected width, neither, rank 1 and rank 0, each LDP flag and phase:
        the classifier gives the reference's violation kind and detail, or
        None for both."""
        policy = dataclasses.replace(
            TestAudit()._fixture_policy(), protected_widths={"sensitive/attr": protected_width},
            require_ldp_serving=serving, require_ldp_training=training)
        names = [*policy.roles, "stranger"]
        kinds = [k.value for k in Kind] + ["RawDump"]
        seen = set()
        for sender, receiver, kind, shape, ldp_applied, phase in itertools.product(
                names, names, kinds, [(4, 16), (4, 8), (4, 7), (4,), ()],
                [None, True, False], ["train", "serve", None]):
            rec = TranscriptRecord(0, sender, receiver, kind, shape, int(np.prod(shape)), 0,
                                   ldp_applied=ldp_applied, phase=phase)
            got, want = _classify(rec, policy), _reference_classify(rec, policy)
            assert (got is None) == (want is None), rec
            if want is not None:
                seen.add(want.kind)
                assert (got.kind, got.detail, got.record) == (want.kind, want.detail, rec)
        # every rule fires somewhere (LDP only when a flag requires it)
        assert seen == set(ViolationKind) - (set() if serving or training
                                             else {ViolationKind.UNPERTURBED_UNIFIED})


# JSON texts to put in place of a record's field: number literals json.dumps
# never writes, malformed digests, and nesting deeper than the parser allows
_RAW_JSON = ["1e999", "-1e999", "[1e999]", "NaN", "Infinity", "1.5", "-3", "[[2]]",
             '"0xzz"', "9" * 5000, "[" * 5000 + "]" * 5000]


def _write_mutated(path, lines, data):
    """Writes the transcript ``lines`` with one line edited: a field replaced
    by an arbitrary JSON text, or a few bytes flipped and the line cut."""
    i = data.draw(st.integers(0, len(lines) - 1))
    raw = [line.encode("utf-8") for line in lines]
    if data.draw(st.booleans()):
        obj = json.loads(lines[i])
        key = data.draw(st.sampled_from(sorted(obj)))
        value = data.draw(st.one_of(st.sampled_from(_RAW_JSON), JSON_VALUES.map(json.dumps)))
        raw[i] = json.dumps({**obj, key: "X"}).replace('"X"', value).encode("utf-8")
    else:
        buf = bytearray(raw[i])
        for off, mask in data.draw(st.lists(st.tuples(st.integers(0, len(buf) - 1),
                                                      st.integers(1, 255)),
                                            min_size=1, max_size=4)):
            buf[off] ^= mask
        raw[i] = bytes(buf[:data.draw(st.integers(0, len(buf)))])
    path.write_bytes(b"\n".join(raw) + b"\n")
    return path


def _reference_read(path):
    """Transcript reading as it was before the scanner: ``json.loads`` per
    stripped line and a keyword-built record. Returns the records and the
    number of the first bad line (None if every line parsed, 0 if the file is
    not UTF-8)."""
    records = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    digest = obj["payload_digest"]
                    records.append(TranscriptRecord(
                        round_id=int(obj["round"]),
                        sender=str(obj["sender"]),
                        receiver=str(obj["receiver"]),
                        kind=str(obj["kind"]),
                        shape=tuple(int(x) for x in obj["shape"]),
                        float_count=int(obj["float_count"]),
                        digest=None if digest is None else int(digest, 16)))
                except (KeyError, TypeError, ValueError, OverflowError, RecursionError):
                    return records, lineno
    except UnicodeDecodeError:
        return records, 0
    return records, None


def _read_or_bad_line(path):
    """``Transcript.read`` in ``_reference_read``'s terms."""
    try:
        return Transcript.read(path).records, None
    except ParseError as exc:
        return None, 0 if exc.line is None else exc.line


@pytest.fixture(scope="module")
def exported_transcript(tiny_dataset):
    """The lines of one exported training round and the policy to audit them."""
    ds, pa = tiny_dataset
    fed = make_federation(ds, pa)
    fed.run_training_round(train_batches(ds)[0])
    return [rec.to_line() for rec in fed.transcript], _policy(fed)


class TestTranscriptFiles:
    @pytest.mark.parametrize("payload_digests", [True, False],
                             ids=["digests", "no-digests"])
    def test_export_parse_round_trip(self, tiny_dataset, tmp_path, payload_digests):
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa, payload_digests=payload_digests)
        fed.run_training_round(train_batches(ds)[0])
        path = tmp_path / "t.ndjson"
        fed.transcript.write(path)
        back = Transcript.read(path)
        assert len(back) == len(fed.transcript)
        # a digest-less federation writes "payload_digest": null and reads None
        assert all((r.digest is None) != payload_digests for r in back)
        for a, b in zip(fed.transcript, back):
            assert (a.round_id, a.sender, a.receiver, a.kind, a.shape,
                    a.float_count, a.digest) == \
                   (b.round_id, b.sender, b.receiver, b.kind, b.shape,
                    b.float_count, b.digest)
        # audited equally (minus the live-only LDP check)
        assert audit_transcript(back, _policy(fed)) == []

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"round":0,"sender":"a","receiver":"b","kind":"SampleIds",'
                        '"shape":[2],"float_count":2,"payload_digest":"0x0"}\n'
                        "not json\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            Transcript.read(path)

    @pytest.mark.parametrize("field", ["round", "float_count", "shape"])
    def test_overflowing_number_is_parse_error(self, tmp_path, field):
        obj = {"round": 0, "sender": "a", "receiver": "b", "kind": "SampleIds",
               "shape": [2], "float_count": 2, "payload_digest": None}
        line = json.dumps({**obj, field: "X"}).replace('"X"', "[1e999]" if field == "shape"
                                                      else "1e999")
        path = tmp_path / "t.ndjson"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            Transcript.read(path)

    def test_unreadable_file_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.ndjson"
        bad.write_bytes(b'{"round":0}\n\xff\xfe\n')
        for path in (bad, tmp_path / "missing.ndjson", tmp_path):
            with pytest.raises(ParseError, match="cannot read transcript"):
                Transcript.read(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_lines_raise_only_parse_error(self, tmp_path_factory,
                                                  exported_transcript, data):
        """A real transcript with one line edited either parses and audits,
        or raises ParseError; nothing else escapes."""
        lines, policy = exported_transcript
        path = _write_mutated(tmp_path_factory.getbasetemp() / "mutated.ndjson", lines, data)
        try:
            back = Transcript.read(path)
        except ParseError:
            return
        audit_transcript(back, policy)
        per_round_fairness_cost(back)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_lines_read_as_json_loads_reads_them(self, tmp_path_factory,
                                                         exported_transcript, data):
        """On a real transcript with one line edited, the scanner-based reader
        gives the records a ``json.loads`` reader gives, or both reject the
        same line."""
        lines, _ = exported_transcript
        path = _write_mutated(tmp_path_factory.getbasetemp() / "mutated.ndjson", lines, data)
        want, bad = _reference_read(path)
        got, got_bad = _read_or_bad_line(path)
        assert got_bad == bad
        if bad is None:
            assert got == want

    @pytest.mark.parametrize("edit", [
        lambda line: "\ufeff" + line,  # a byte order mark
        lambda line: line + " x",  # trailing data
        lambda line: line + line,  # two values on one line
        lambda line: line + " " + line,
        lambda line: line[:-1],  # a value cut short
        lambda line: "[" + line + "]",  # a record, but not an object
    ], ids=["bom", "trailing-data", "two-values", "two-values-spaced", "cut", "list"])
    def test_bad_line_is_parse_error_like_json_loads(self, tmp_path, exported_transcript, edit):
        lines, _ = exported_transcript
        path = tmp_path / "t.ndjson"
        path.write_text("\n".join([lines[0], edit(lines[1]), lines[2]]) + "\n",
                        encoding="utf-8")
        assert _reference_read(path)[1] == 2
        with pytest.raises(ParseError, match="line 2") as err:
            Transcript.read(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("text", ["", " ", "\ufeff"])
    def test_empty_value_is_parse_error(self, text):
        with pytest.raises(ParseError, match="line 7"):
            TranscriptRecord.from_line(text, 7)

    def test_payload_digest_reflects_content(self, tiny_dataset):
        ds, pa = tiny_dataset
        fed1 = make_federation(ds, pa, seed=1)
        fed2 = make_federation(ds, pa, seed=2)
        ids = train_batches(ds)[0]
        r1 = fed1.run_training_round(ids)
        r2 = fed2.run_training_round(ids)
        d1 = [r.digest for r in r1.records if r.kind == Kind.LOCAL_REP_UPLOAD.value]
        d2 = [r.digest for r in r2.records if r.kind == Kind.LOCAL_REP_UPLOAD.value]
        assert d1 != d2  # different params, different payload bytes

    def test_digest_flag_changes_only_digests(self, tiny_dataset):
        ds, pa = tiny_dataset
        ldp = LdpConfig(enabled=True)
        on = make_federation(ds, pa, ldp=ldp, payload_digests=True)
        off = make_federation(ds, pa, ldp=ldp, payload_digests=False)
        for ids in train_batches(ds)[:2]:
            r_on, r_off = on.run_training_round(ids), off.run_training_round(ids)
            assert len(r_on.records) == len(r_off.records) > 0
            for a, b in zip(r_on.records, r_off.records):
                assert a.digest is not None and b.digest is None
                assert dataclasses.replace(a, digest=None) == b
            l_on, l_off = r_on.losses.flat(), r_off.losses.flat()
            assert list(l_on) == list(l_off)
            assert np.array(list(l_on.values())).tobytes() == \
                np.array(list(l_off.values())).tobytes()


def _reference_line(rec):
    """A record's line as ``json.dumps`` writes it."""
    return json.dumps({"round": rec.round_id, "sender": rec.sender, "receiver": rec.receiver,
                       "kind": rec.kind, "shape": list(rec.shape),
                       "float_count": rec.float_count,
                       "payload_digest": None if rec.digest is None else f"0x{rec.digest:016x}"},
                      separators=(",", ":"))


#: strings json.dumps must escape, and a few it writes as they are
_ODD_STRINGS = ["", '"', "\\", 'a"b\\c/d', "".join(map(chr, range(32))), "\x7f", "é",
                "ß中", "\U0001f600", "퟿￿", "insensitive/0"]
_HUGE = 10**25 - 1  # 25 digits
_BASE = {"round": 3, "sender": "task", "receiver": "insensitive/0", "kind": "SampleIds",
         "shape": [32, 4], "float_count": 128, "payload_digest": "0x11d9eccb361f8d3c"}


def _canonical(**fields):
    """A canonical line: ``_BASE`` with ``fields`` replaced, non-ASCII left raw."""
    return json.dumps({**_BASE, **fields}, ensure_ascii=False, separators=(",", ":"))


def _reads_like_reference(path, line):
    """Writes a good line, then ``line``, and checks ``Transcript.read`` gives
    what ``_reference_read`` gives, or fails on the same line. Returns the
    reference's bad line number."""
    path.write_text(_canonical() + "\n" + line + "\n", encoding="utf-8")
    want, bad = _reference_read(path)
    got, got_bad = _read_or_bad_line(path)
    assert got_bad == bad
    if bad is None:
        assert got == want
    return bad


#: lines one edit away from canonical, each read by the scanner
_NEAR_CANONICAL = {
    "leading-zero": _canonical().replace('"round":3', '"round":03'),
    "double-zero": _canonical().replace('"round":3', '"round":00'),
    "leading-zero-dim": _canonical().replace("[32,4]", "[032,4]"),
    "leading-zero-count": _canonical().replace('"float_count":128', '"float_count":0128'),
    "minus-zero": _canonical().replace('"round":3', '"round":-0'),
    "minus-zero-dim": _canonical().replace("[32,4]", "[-0,4]"),
    "arabic-digit": _canonical().replace('"round":3', '"round":٣'),  # Arabic-Indic three
    "fullwidth-dim": _canonical().replace("[32,4]", "[３２,4]"),  # fullwidth 32
    "arabic-count": _canonical().replace('"float_count":128', '"float_count":١٢٨'),
    "mixed-digits": _canonical().replace('"round":3', '"round":3٣'),
    "mixed-digits-dim": _canonical().replace("[32,4]", "[3２,4]"),
    "float": _canonical().replace('"round":3', '"round":3.0'),
    "exponent": _canonical().replace('"round":3', '"round":3e0'),
    "bool": _canonical().replace('"round":3', '"round":true'),
    "upper-hex": _canonical(payload_digest="0x11D9ECCB361F8D3C"),
    "upper-prefix": _canonical(payload_digest="0X11d9eccb361f8d3c"),
    "short-hex": _canonical(payload_digest="0x1f"),
    "long-hex": _canonical(payload_digest="0x011d9eccb361f8d3c"),
    "no-prefix": _canonical(payload_digest="11d9eccb361f8d3c"),
    "bad-hex": _canonical(payload_digest="0xzz"),
    "int-digest": _canonical(payload_digest=17),
    "escape-u": _canonical().replace('"task"', '"\\u0074ask"'),
    "escape-quote": _canonical().replace('"task"', '"t\\/a\\"sk"'),
    "escape-non-ascii": _canonical().replace('"task"', '"ta\\u00e9"'),
    "raw-tab": _canonical().replace('"task"', '"ta\tsk"'),
    "raw-control": _canonical().replace('"task"', '"ta\x1fsk"'),
    "spaces": json.dumps(_BASE),
    "space-in-brace": _canonical().replace("{", "{ ", 1),
    "space-before-comma": _canonical().replace(",", " ,", 1),
    "sorted-keys": json.dumps(_BASE, sort_keys=True, separators=(",", ":")),
    "extra-key": _canonical()[:-1] + ',"extra":1}',
    "duplicate-key": _canonical().replace('"round":3', '"round":3,"round":4'),
    "missing-key": _canonical().replace('"shape":[32,4],', ""),
    "int-string-field": _canonical().replace('"task"', "5"),
    "nested-dim": _canonical().replace("[32,4]", "[32,[4]]"),
}

_RECORDS = st.builds(
    TranscriptRecord, st.integers(0, _HUGE), st.text(), st.text(), st.text(),
    st.lists(st.integers(0, _HUGE), max_size=4).map(tuple), st.integers(0, _HUGE),
    st.none() | st.integers(0, 2**64 - 1))


class TestTranscriptCodec:
    """The format-string writer and the pattern reader against ``json``."""

    @pytest.mark.parametrize("rec", [
        *(TranscriptRecord(0, s, s[::-1], s, (2,), 2, 0) for s in _ODD_STRINGS),
        TranscriptRecord(0, "a", "b", "k", (), 0, None),
        TranscriptRecord(1, "a", "b", "k", (0, 0), 0, 2**64 - 1),
        TranscriptRecord(_HUGE, "a", "b", "k", (_HUGE, 0, 7), _HUGE, 0),
    ])
    def test_writer_matches_json_dumps(self, rec):
        line = rec.to_line()
        assert line == _reference_line(rec)
        assert TranscriptRecord.from_line(line, 1) == rec

    @settings(max_examples=300, deadline=None)
    @given(rec=_RECORDS)
    def test_random_records_write_as_json_dumps_and_read_back(self, rec):
        line = rec.to_line()
        assert line == _reference_line(rec)
        assert TranscriptRecord.from_line(line, 1) == rec

    @pytest.mark.parametrize("fields", [
        {"shape": []}, {"shape": [0, 0], "float_count": 0}, {"shape": [0]},
        {"round": _HUGE, "shape": [_HUGE, 1], "float_count": _HUGE},
        {"payload_digest": None}, {"payload_digest": "0x0000000000000000"},
        {"payload_digest": "0xffffffffffffffff"},
        {"sender": "é中\U0001f600", "receiver": "\x7f", "kind": "Ω"},
        {"sender": "", "receiver": "", "kind": ""},
    ], ids=["empty-shape", "zero-dims", "zero-dim", "25-digits", "null-digest",
            "zero-digest", "max-digest", "non-ascii", "empty-strings"])
    def test_canonical_line_reads_as_json_loads_reads_it(self, tmp_path, fields):
        line = _canonical(**fields)
        assert _CANONICAL.fullmatch(line)
        assert _reads_like_reference(tmp_path / "t.ndjson", line) is None

    @pytest.mark.parametrize("line", list(_NEAR_CANONICAL.values()), ids=list(_NEAR_CANONICAL))
    def test_near_canonical_line_reads_as_json_loads_reads_it(self, tmp_path, line):
        assert not _CANONICAL.fullmatch(line)
        _reads_like_reference(tmp_path / "t.ndjson", line)

    @pytest.mark.parametrize("field", ["round", "float_count", "shape"])
    def test_huge_number_is_parse_error(self, tmp_path, field):
        big = "9" * 5000  # past int()'s 4300-digit limit
        line = _canonical(**{field: "X"}).replace(
            '"X"', f"[2,{big}]" if field == "shape" else big)
        assert _CANONICAL.fullmatch(line)
        path = tmp_path / "t.ndjson"
        path.write_text(_canonical() + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            Transcript.read(path)

    def test_exported_transcript_rewrites_byte_for_byte(self, tmp_path):
        cmd_train(preset("synthetic-smoke").with_overrides(seed=1), tmp_path)
        path = tmp_path / "transcript.ndjson"
        records = Transcript.read(path).records
        assert all(_CANONICAL.fullmatch(rec.to_line()) for rec in records)
        again = tmp_path / "again.ndjson"
        with open(again, "w", encoding="utf-8") as fh:
            write_records(fh, records)
        assert again.read_bytes() == path.read_bytes()


def _per_line_read(path):
    """``Transcript.read`` as one ``from_line`` per stripped text-mode line:
    the reference the chunked reader must match, records and errors alike."""
    records = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    records.append(TranscriptRecord.from_line(line, lineno))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read transcript {path}: {exc}") from exc
    return records


def _outcome(read, path):
    """The records ``read`` gives, or the line and message of its ParseError."""
    try:
        return read(path), None
    except ParseError as exc:
        return None, (exc.line, str(exc))


def _raw_line(rec):
    """A record's canonical line with non-ASCII characters left raw."""
    return json.dumps(json.loads(rec.to_line()), ensure_ascii=False, separators=(",", ":"))


def _huge(field):
    big = "9" * 5000  # past int()'s 4300-digit limit
    return _canonical(**{field: "X"}).replace('"X"', f"[2,{big}]" if field == "shape" else big)


#: characters str.splitlines breaks at that a JSON string may hold raw
_RAW_BREAKS = ["\u2028", "\u2029", "\x85"]
#: a line of a file the reader must read as the per-line reference does
_LINES = st.one_of(
    _RECORDS.map(TranscriptRecord.to_line),
    _RECORDS.map(_raw_line),
    st.sampled_from(_RAW_BREAKS).map(lambda c: _canonical(sender=f"a{c}b")),
    # two records on one line, apart at a break str.splitlines knows
    st.sampled_from(_RAW_BREAKS + ["\x0b", "\x1c"]).map(
        lambda c: _canonical() + c + _canonical()),
    st.sampled_from(list(_NEAR_CANONICAL.values())),
    st.sampled_from(["", "  ", "\t", "\u3000", " " + _canonical(), _canonical() + "\x0b",
                     "not json", "{", "[1]", "\ufeff" + _canonical()]),
    st.sampled_from(["round", "float_count", "shape"]).map(_huge),
)
#: chunk sizes from one character to the default
_CHUNKS = st.sampled_from([1, 2, 3, 7, 64, 200, 1000, 1 << 18])


class TestChunkedRead:
    """``Transcript.read`` against ``_per_line_read``: the same records, or a
    ParseError with the same line number and message, at any chunk size."""

    @staticmethod
    def _check(path, chunk):
        want = _outcome(_per_line_read, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(messages, "_CHUNK_CHARS", chunk)
            got = _outcome(lambda p: Transcript.read(p).records, path)
        assert got == want
        return want

    @settings(max_examples=150, deadline=None)
    @given(records=st.lists(_RECORDS, max_size=30), chunk=_CHUNKS)
    def test_canonical_records_read_back(self, tmp_path_factory, records, chunk):
        path = tmp_path_factory.getbasetemp() / "canonical.ndjson"
        with open(path, "w", encoding="utf-8") as fh:
            write_records(fh, records)
        assert self._check(path, chunk) == (records, None)

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(_LINES, min_size=1, max_size=12), data=st.data(), chunk=_CHUNKS)
    def test_mixed_lines_read_like_per_line(self, tmp_path_factory, lines, data, chunk):
        ends = data.draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                                  min_size=len(lines), max_size=len(lines)))
        if data.draw(st.booleans()):
            ends[-1] = ""  # no final newline
        raw = [(line + end).encode("utf-8") for line, end in zip(lines, ends)]
        if data.draw(st.booleans()):
            raw[0] = "\ufeff".encode("utf-8") + raw[0]
        if data.draw(st.booleans()):  # bytes that are not UTF-8
            raw.insert(data.draw(st.integers(0, len(raw))), b"\xff\n")
        path = tmp_path_factory.getbasetemp() / "mixed.ndjson"
        path.write_bytes(b"".join(raw))
        self._check(path, chunk)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), chunk=_CHUNKS)
    def test_mutated_line_reads_like_per_line(self, tmp_path_factory, exported_transcript,
                                              data, chunk):
        lines, _ = exported_transcript
        path = _write_mutated(tmp_path_factory.getbasetemp() / "mutated.ndjson", lines, data)
        self._check(path, chunk)

    @pytest.mark.parametrize("text, n_records, bad_line", [
        (_canonical() + "\n\n  \n" + _canonical() + "\n", 2, None),
        (_canonical() + "\r\n" + _canonical() + "\r\n", 2, None),
        (_canonical() + "\n" + _canonical(), 2, None),
        ("\ufeff" + _canonical() + "\n", 0, 1),
        (_canonical(sender="a\u2028b") + "\n" + _canonical() + "\n", 2, None),
        (_canonical() + "\n" + _huge("round") + "\n", 0, 2),
    ], ids=["blank-lines", "crlf", "no-final-newline", "bom", "u2028-in-sender",
            "huge-round"])
    @pytest.mark.parametrize("chunk", [5, 1 << 18])
    def test_edge_files(self, tmp_path, text, n_records, bad_line, chunk):
        path = tmp_path / "t.ndjson"
        path.write_text(text, encoding="utf-8", newline="")
        records, error = self._check(path, chunk)
        if bad_line is None:
            assert error is None and len(records) == n_records
        else:
            assert error[0] == bad_line

    def test_many_chunks_with_a_bad_line_late(self, tmp_path, exported_transcript):
        lines, _ = exported_transcript
        path = tmp_path / "t.ndjson"
        path.write_text("\n".join(lines * 8 + ["not json"] + lines) + "\n", encoding="utf-8")
        assert self._check(path, 1000)[1][0] == 8 * len(lines) + 1
        assert self._check(path, 1 << 18)[1][0] == 8 * len(lines) + 1

    @pytest.mark.parametrize("gap", [1, 200], ids=["bad-bytes-near", "bad-bytes-far"])
    def test_bad_line_then_bad_bytes_reports_what_per_line_meets_first(
            self, tmp_path, exported_transcript, gap):
        """A line-by-line read decodes ahead of the line it parses, so bytes
        that are not UTF-8 a few lines after a bad record are the error it
        reports; far enough after, the bad record is."""
        lines, _ = exported_transcript
        good = "\n".join(lines[:1] * gap).encode("utf-8")
        path = tmp_path / "t.ndjson"
        path.write_bytes(b"not json\n" + good + b"\n\xff\n")
        want = self._check(path, 1 << 18)
        assert want[1][0] == (None if gap == 1 else 1)
        self._check(path, 16)


@pytest.fixture(scope="module")
def audited_run():
    """A small run's config and the lines of its first two exported rounds."""
    cfg = ExperimentConfig(
        dataset={"kind": "synthetic", "n_samples": 300, "n_platforms": 2, "seed": 5},
        n_platforms=2, widths=dataclasses.asdict(small_widths()), lam={"attr": 2.0},
        gamma={"attr": 0.25}, batch_size=16, seed=11)
    ds, pa = make_dataset(cfg)
    fed = build_run_federation(cfg, ds, pa, payload_digests=True)
    for ids in train_batches(ds)[:2]:
        fed.run_training_round(ids)
    return cfg, [rec.to_line() for rec in fed.transcript]


def _audit_lines(cfg, lines):
    """Transcript lines for the audit: the run's own records in any round,
    and the same with platforms, kind and shape swapped for legal and illegal
    ones, so that each violation kind a file can show occurs."""
    records = [TranscriptRecord.from_line(line, 1) for line in lines]
    names = [*audit_policy_from_config(cfg).roles, "stranger"]
    shapes = sorted({rec.shape for rec in records}) + [(), (16, 7), (16, 16, 8)]
    own = st.builds(lambda rec, rid: dataclasses.replace(rec, round_id=rid),
                    st.sampled_from(records), st.integers(0, 3))
    edited = st.builds(
        dataclasses.replace, own, sender=st.sampled_from(names),
        receiver=st.sampled_from(names),
        kind=st.sampled_from([k.value for k in Kind] + ["RawDump"]),
        shape=st.sampled_from(shapes))
    return (own | edited).map(TranscriptRecord.to_line)


class TestStreamedAudit:
    """``cmd_audit`` streams a canonical file and reads any other whole; both
    give ``whole_file_audit``'s report, or its ParseError."""

    @staticmethod
    def _check(cfg, path, chunk=1 << 18):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(messages, "_CHUNK_CHARS", chunk)
            got = _outcome(lambda p: cmd_audit(p, cfg), path)
            want = _outcome(lambda p: whole_file_audit(p, cfg), path)
        assert got == want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), chunk=_CHUNKS)
    def test_report_equals_whole_file_audit(self, tmp_path_factory, audited_run, data, chunk):
        cfg, lines = audited_run
        strategy = _audit_lines(cfg, lines)
        if data.draw(st.booleans()):  # some lines the canonical pass does not take
            strategy = strategy | _LINES
        drawn = data.draw(st.lists(strategy, max_size=40))
        ends = data.draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                                  min_size=len(drawn), max_size=len(drawn)))
        if ends and data.draw(st.booleans()):
            ends[-1] = ""  # no final newline
        raw = [(line + end).encode("utf-8") for line, end in zip(drawn, ends)]
        if data.draw(st.integers(0, 9)) == 0:
            raw.insert(0, "\ufeff".encode("utf-8"))
        if data.draw(st.integers(0, 9)) == 0:  # bytes that are not UTF-8
            raw.insert(data.draw(st.integers(0, len(raw))), b"\xff\n")
        path = tmp_path_factory.getbasetemp() / "audited.ndjson"
        path.write_bytes(b"".join(raw))
        self._check(cfg, path, chunk)

    def test_canonical_file_is_streamed(self, tmp_path, audited_run, monkeypatch):
        """A canonical file with violations and a traffic mismatch is audited
        without a whole-file read, and reports what the whole-file read does."""
        cfg, lines = audited_run
        misroute = dataclasses.replace(TranscriptRecord.from_line(lines[1], 1), receiver="task")
        path = tmp_path / "t.ndjson"
        path.write_text("\n".join(lines * 3 + [misroute.to_line(), lines[-3]]) + "\n",
                        encoding="utf-8")
        want = whole_file_audit(path, cfg)
        assert want.violations and not want.ok
        monkeypatch.setattr(Transcript, "read", None)
        for chunk in (1, 1000, 1 << 18):
            monkeypatch.setattr(messages, "_CHUNK_CHARS", chunk)
            assert cmd_audit(path, cfg) == want

    @pytest.mark.parametrize("edit", [
        lambda line: " " + line,
        lambda line: line + "\n",  # a blank line
        lambda line: line.replace('"round":1', '"round":' + "9" * 5000),
        lambda line: line.replace("[", "[" + "9" * 5000 + ","),
    ], ids=["padded", "blank-line", "huge-round", "huge-dim"])
    def test_other_files_are_read_whole(self, tmp_path, audited_run, edit, monkeypatch):
        cfg, lines = audited_run
        path = tmp_path / "t.ndjson"
        path.write_text("\n".join([*lines[:-1], edit(lines[-1])]) + "\n", encoding="utf-8")
        want = _outcome(lambda p: whole_file_audit(p, cfg), path)
        read, reads = Transcript.read.__func__, []
        monkeypatch.setattr(Transcript, "read",
                            classmethod(lambda cls, p: reads.append(p) or read(cls, p)))
        monkeypatch.setattr(messages, "_CHUNK_CHARS", 1000)
        assert _outcome(lambda p: cmd_audit(p, cfg), path) == want
        assert reads == [path]

    def test_unreadable_path_is_the_readers_parse_error(self, tmp_path, audited_run):
        cfg, _ = audited_run
        for path in (tmp_path / "missing.ndjson", tmp_path):
            with pytest.raises(ParseError, match="cannot read transcript"):
                cmd_audit(path, cfg)
            self._check(cfg, path)
