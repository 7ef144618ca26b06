"""Federation protocol: serving, LDP, training-round reductions and isolation
properties, determinism, transcript mechanics, auditing, and traffic
accounting."""

import dataclasses

import numpy as np
import pytest

from conftest import make_federation, small_widths, train_batches
from fairvfl.adversarial import LossWeights
from fairvfl.data import (
    SyntheticSpec,
    generate_synthetic,
    iterate_batches,
    partition_vertical,
    synthetic_partition,
)
from fairvfl.errors import ConfigError, ParseError, ProtocolError, SampleLookupError
from fairvfl.models import ModelBundle, OptimParams, forward_unified
from fairvfl.nn import rng_for, softmax_cross_entropy
from fairvfl.protocol import (
    AuditPolicy,
    FederationConfig,
    Kind,
    LdpConfig,
    Message,
    Transcript,
    audit_transcript,
    build_federation,
    fairness_comm_cost,
    ldp_perturb,
)
from fairvfl.protocol.audit import ViolationKind, per_round_fairness_cost
from fairvfl.protocol.messages import Role, TranscriptRecord, record_of


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
        assert np.max(np.abs(fed_off.server.unified)) < 10.0
        fed_on = make_federation(ds, pa, seed=21,
                                 ldp=LdpConfig(enabled=True, clip=10.0, epsilon=1e9))
        p_on = fed_on.serve(ids)
        assert np.max(np.abs(p_on - p_off)) < 1e-6

    def test_transcript_counts(self, tiny_dataset):
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa)
        fed.serve(ds.split_ids("test")[:4])
        counts = fed.transcript.kind_counts()
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


def _main_params(bundle):
    return {b.name: b.w.copy() for b in bundle.main_blocks()}


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

    def test_missing_local_rep_rejected(self, tiny_dataset):
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa)
        fed.server.reset_round_state()
        fed.server.local_reps[0] = np.zeros((4, 16))  # second platform missing
        with pytest.raises(ProtocolError, match="expected 2 local reps"):
            fed.server.aggregate()

    def test_sign_ledger_holds_on_instrumented_rounds(self, tiny_dataset):
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa, verify=True, lam=3.0, gamma=0.5)
        for ids in train_batches(ds)[:3]:
            result = fed.run_training_round(ids)
            assert result.ledger_max_dev is not None
            assert result.ledger_max_dev < 1e-9

    def test_contrastive_gradients_stop_at_mappers(self, tiny_dataset):
        """With lambda = 0 and the task gradient detached, a full round leaves
        the aggregator and every local encoder bitwise unchanged."""
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa, lam=0.0, gamma=1.0, task_grad_scale=0.0, seed=13)
        before = _main_params(fed.bundle)
        mapper_before = {b.name: b.w.copy()
                         for b in fed.bundle.mappers["attr"].blocks()}
        fed.run_training_round(train_batches(ds)[0])
        after = _main_params(fed.bundle)
        for name in before:
            if name.startswith(("encoder/", "aggregator")):
                assert np.array_equal(before[name], after[name]), name
        # the mapper itself did move (CAL is active)
        assert any(not np.array_equal(mapper_before[b.name], b.w)
                   for b in fed.bundle.mappers["attr"].blocks())

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
            bundle.optim["task_head"].step()
            bundle.optim["task_head"].zero_grad()
            gstack = bundle.aggregator.backward(agg_cache, gs)
            bundle.optim["aggregator"].step()
            bundle.optim["aggregator"].zero_grad()
            for i, enc in enumerate(bundle.encoders):
                enc.backward(enc_caches[i], gstack[:, i, :])
                bundle.optim[f"encoder/{i}"].step()
                bundle.optim[f"encoder/{i}"].zero_grad()

        for fb, db in zip(fed.bundle.main_blocks(), bundle.main_blocks()):
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
        bad = Message(0, "server", "sensitive/attr", Kind.UNIFIED_REP_TO_TASK,
                      np.zeros((2, 16)))
        with pytest.raises(ProtocolError, match="illegal edge"):
            fed.send(bad)
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


class TestMapperAdamSharing:
    def test_mapper_state_advances_twice_per_round(self, tiny_dataset):
        ds, pa = tiny_dataset
        fed = make_federation(ds, pa)
        opt = fed.bundle.optim["mapper/attr"]
        assert all(s.t == 0 for s in opt.states)
        fed.run_training_round(train_batches(ds)[0])
        assert all(s.t == 2 for s in opt.states)


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
