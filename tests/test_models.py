"""Model components: encoder/aggregator/head/mapper/discriminator contracts,
gradient checks against the oracle, purity, and checkpoint round-trips."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    JSON_VALUES,
    duplicate_last_block,
    join_checkpoint,
    pack_blocks,
    pack_grads,
    poison_block,
    relative_error,
    small_widths,
    split_checkpoint,
    unpack_blocks,
    zero_grads,
)
from fairvfl import nn
from fairvfl.checkpoint import (
    MAGIC,
    load_checkpoint,
    parse_checkpoint,
    read_checkpoint,
    save_checkpoint,
)
from fairvfl.config import preset
from fairvfl.errors import CheckpointError, ConfigError, NumericError
from fairvfl.models import (
    Aggregator,
    AttentionPool,
    BiasDiscriminator,
    ContrastiveDiscriminator,
    LocalEncoder,
    Mapper,
    MultiHeadSelfAttention,
    ModelBundle,
    OptimParams,
    PlatformSchema,
    RepWidths,
    TaskHead,
    TwoLayerMlp,
    forward_unified,
)
from fairvfl.nn import (
    Adam,
    Embedding,
    Linear,
    rng_for,
    softmax_cross_entropy,
)
from fairvfl.runner import build_run_federation, make_dataset
from oracles import finite_difference_gradient, pooling_weights


class TestLocalEncoder:
    def _encoder(self, p_drop=0.0):
        widths = small_widths()
        schema = PlatformSchema(cat_fields=[("color", 5), ("shape", 4)],
                                numeric_fields=["x0", "x1"])
        return LocalEncoder("encoder/0", schema, widths, seed=3, p_drop=p_drop), widths

    def _cols(self, n=6, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "color": rng.integers(0, 5, size=n),
            "shape": rng.integers(0, 4, size=n),
            "x0": rng.normal(size=n),
            "x1": rng.normal(size=n),
        }

    def test_default_embedding_width_is_32(self):
        assert RepWidths().emb_dim == 32
        enc = LocalEncoder("e", PlatformSchema([("f", 7)], []), RepWidths(), seed=0)
        assert enc.embeddings["f"].block.w.shape == (7, 32)

    def test_deterministic_for_fixed_inputs(self):
        enc, widths = self._encoder()
        cols = {"color": np.array([2, 2]), "shape": np.array([1, 1]),
                "x0": np.zeros(2), "x1": np.zeros(2)}
        a, _ = enc.forward(cols, training=False, rng=None)
        b, _ = enc.forward(cols, training=False, rng=None)
        assert np.array_equal(a, b)
        assert a.shape == (2, widths.rep)
        enc2, _ = self._encoder()  # same seed, fresh instance
        c, _ = enc2.forward(cols, training=False, rng=None)
        assert np.array_equal(a, c)

    @pytest.mark.parametrize("seed", range(3))
    def test_backward_matches_oracle(self, seed):
        enc, _ = self._encoder()
        cols = self._cols(seed=seed)
        proj = np.random.default_rng(seed + 100).normal(size=(6, small_widths().rep))

        def f(vec):
            unpack_blocks(vec, enc.blocks())
            y, _ = enc.forward(cols, training=False, rng=None)
            return float((y * proj).sum())

        v0 = pack_blocks(enc.blocks())
        numeric = finite_difference_gradient(f, v0.copy())
        unpack_blocks(v0, enc.blocks())
        y, cache = enc.forward(cols, training=False, rng=None)
        enc.backward(cache, proj)
        assert relative_error(pack_grads(enc.blocks()), numeric) < 1e-4


class TestAggregator:
    def test_single_platform_pooling_weight_is_one(self):
        agg = Aggregator(small_widths(), seed=1)
        x = np.random.default_rng(0).normal(size=(4, 1, 16))
        _, cache = agg.forward(x)
        assert np.array_equal(pooling_weights(cache), np.ones((4, 1)))

    def test_pooling_weights_sum_to_one(self):
        agg = Aggregator(small_widths(), seed=1)
        x = np.random.default_rng(1).normal(scale=30.0, size=(8, 5, 16))
        _, cache = agg.forward(x)
        alpha = pooling_weights(cache)
        assert np.all(alpha >= 0.0)
        assert np.max(np.abs(alpha.sum(axis=1) - 1.0)) < 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_full_gradcheck_three_platforms(self, seed):
        agg = Aggregator(small_widths(), seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 3, 16))
        proj = rng.normal(size=(4, 16))

        def f(vec):
            unpack_blocks(vec, agg.blocks())
            s, _ = agg.forward(x)
            return float((s * proj).sum())

        v0 = pack_blocks(agg.blocks())
        numeric = finite_difference_gradient(f, v0.copy())
        unpack_blocks(v0, agg.blocks())
        s, cache = agg.forward(x)
        gx = agg.backward(cache, proj)
        assert relative_error(pack_grads(agg.blocks()), numeric) < 1e-4

        def fx(vec):
            s, _ = agg.forward(vec.reshape(4, 3, 16))
            return float((s * proj).sum())

        numeric_x = finite_difference_gradient(fx, x.ravel().copy()).reshape(4, 3, 16)
        assert relative_error(gx, numeric_x) < 1e-4

    def test_head_split_must_divide(self):
        with pytest.raises(ConfigError):
            RepWidths(rep=30, protected={"a": 4}, attn_heads=4).validate()


class TestTaskHead:
    def test_zero_initialized_head_is_uniform(self):
        head = TaskHead(small_widths(), n_classes=2, seed=0)
        for b in head.blocks():
            b.w[...] = 0.0
            b.b[...] = 0.0
        probs = head.predict(np.random.default_rng(0).normal(size=(5, 16)))
        assert np.allclose(probs, 0.5)

    def test_rows_sum_to_one(self):
        head = TaskHead(small_widths(), n_classes=3, seed=1)
        probs = head.predict(np.random.default_rng(1).normal(size=(9, 16)))
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-6

    def test_eval_predictions_are_pure(self):
        head = TaskHead(small_widths(), n_classes=2, seed=2, p_drop=0.5)
        s = np.random.default_rng(2).normal(size=(7, 16))
        assert np.array_equal(head.predict(s), head.predict(s))

    def test_learns_synthetic_rule_quickly(self):
        # full model on an easy separable rule: > 0.9 accuracy in < 2000 steps
        from fairvfl.data import SyntheticSpec, generate_synthetic, iterate_batches, partition_vertical, synthetic_partition

        spec = SyntheticSpec(n_samples=600, n_platforms=2, rho=0.0, label_noise=0.0, seed=9)
        ds = generate_synthetic(spec)
        shards, _, _ = partition_vertical(ds, synthetic_partition(spec))
        bundle = ModelBundle([s.schema() for s in shards], small_widths(), 2,
                             {"attr": 2}, seed=4, optim=OptimParams(lr=1e-3), p_drop=0.0)
        steps = 0
        for epoch in range(40):
            for ids in iterate_batches(ds, "train", 32, seed=epoch):
                cols = [s.take(ids) for s in shards]
                unified, (enc_caches, agg_cache) = forward_unified(bundle, cols, training=True)
                logits, hcache = bundle.task_head.forward(unified, training=True,
                                                          rng=np.random.default_rng(steps))
                _, glogits = softmax_cross_entropy(logits, ds.task_labels[ids])
                # each group steps right after its own backward: the bundle's
                # groups share one gradient buffer
                gs = bundle.task_head.backward(hcache, glogits)
                bundle.task_head.opt.step()
                gstack = bundle.aggregator.backward(agg_cache, gs)
                bundle.aggregator.opt.step()
                for i, enc in enumerate(bundle.encoders):
                    enc.backward(enc_caches[i], gstack[:, i, :])
                    enc.opt.step()
                steps += 1
            test_ids = ds.split_ids("test")
            unified, _ = forward_unified(bundle, [s.take(test_ids) for s in shards])
            acc = float(np.mean(np.argmax(bundle.task_head.predict(unified), 1)
                                == ds.task_labels[test_ids]))
            if acc > 0.9:
                break
        assert steps < 2000
        assert acc > 0.9


class TestMapper:
    def test_declared_default_widths(self):
        widths = RepWidths()
        assert widths.protected == {"gender": 32, "age": 64}
        g = Mapper("gender", widths, seed=0)
        a = Mapper("age", widths, seed=0)
        assert g.fc2.block.w.shape[1] == 32
        assert a.fc2.block.w.shape[1] == 64

    def test_pure_no_stochastic_layer(self):
        mapper = Mapper("attr", small_widths(), seed=1)
        s = np.random.default_rng(0).normal(size=(6, 16))
        a1, _ = mapper.forward(s)
        a2, _ = mapper.forward(s)
        assert np.array_equal(a1, a2)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck(self, seed):
        mapper = Mapper("attr", small_widths(), seed=seed)
        rng = np.random.default_rng(seed)
        s = rng.normal(size=(5, 16))
        proj = rng.normal(size=(5, 8))

        def f(vec):
            unpack_blocks(vec, mapper.blocks())
            a, _ = mapper.forward(s)
            return float((a * proj).sum())

        v0 = pack_blocks(mapper.blocks())
        numeric = finite_difference_gradient(f, v0.copy())
        unpack_blocks(v0, mapper.blocks())
        a, cache = mapper.forward(s)
        mapper.backward(cache, proj)
        assert relative_error(pack_grads(mapper.blocks()), numeric) < 1e-4


class TestContrastiveDiscriminator:
    def test_zero_disc_scores_zero(self):
        disc = ContrastiveDiscriminator("attr", small_widths(), seed=0)
        for b in disc.blocks():
            b.w[...] = 0.0
            b.b[...] = 0.0
        rng = np.random.default_rng(0)
        scores, _ = disc.forward(rng.normal(size=(4, 8)), rng.normal(size=(4, 16)))
        assert np.array_equal(scores, np.zeros(4))

    def test_finite_for_bounded_inputs(self):
        disc = ContrastiveDiscriminator("attr", small_widths(), seed=1)
        rng = np.random.default_rng(1)
        scores, _ = disc.forward(rng.uniform(-1e3, 1e3, (4, 8)),
                                 rng.uniform(-1e3, 1e3, (4, 16)))
        assert np.all(np.isfinite(scores))

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck_inputs_and_params(self, seed):
        disc = ContrastiveDiscriminator("attr", small_widths(), seed=seed)
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 8))
        s = rng.normal(size=(4, 16))
        w = rng.normal(size=4)

        def f(vec):
            unpack_blocks(vec, disc.blocks())
            scores, _ = disc.forward(a, s)
            return float((scores * w).sum())

        v0 = pack_blocks(disc.blocks())
        numeric = finite_difference_gradient(f, v0.copy())
        unpack_blocks(v0, disc.blocks())
        scores, cache = disc.forward(a, s)
        ga, gs = disc.backward(cache, w)
        assert relative_error(pack_grads(disc.blocks()), numeric) < 1e-4

        def fa(vec):
            scores, _ = disc.forward(vec.reshape(4, 8), s)
            return float((scores * w).sum())

        numeric_a = finite_difference_gradient(fa, a.ravel().copy()).reshape(4, 8)
        assert relative_error(ga, numeric_a) < 1e-4

        def fs(vec):
            scores, _ = disc.forward(a, vec.reshape(4, 16))
            return float((scores * w).sum())

        numeric_s = finite_difference_gradient(fs, s.ravel().copy()).reshape(4, 16)
        assert relative_error(gs, numeric_s) < 1e-4


class TestPartialBackward:
    """A parameters-only or inputs-only backward gives bitwise what the full
    backward gives, and nothing else."""

    @pytest.mark.parametrize("kind", ["linear", "mlp", "cdisc"])
    def test_matches_full_backward_bitwise(self, kind):
        rng = np.random.default_rng(7)
        n = 9
        if kind == "linear":
            mod = Linear("t", 7, 5, seed=1)
            _, cache = mod.forward(rng.normal(size=(n, 7)))
            gy = rng.normal(size=(n, 5))
        elif kind == "mlp":
            mod = TwoLayerMlp("t", 7, 6, 3, seed=1)
            _, cache = mod.forward(rng.normal(size=(n, 7)))
            gy = rng.normal(size=(n, 3))
        else:
            widths = small_widths()
            mod = ContrastiveDiscriminator("attr", widths, seed=1)
            _, cache = mod.forward(rng.normal(size=(n, widths.protected["attr"])),
                                   rng.normal(size=(n, widths.rep)))
            gy = rng.normal(size=n)
        opt = Adam(mod.blocks())
        full = mod.backward(cache, gy)
        full_grads = opt.grads.copy()
        assert full_grads.any()

        assert mod.backward(cache, gy, inputs=False) is None
        assert opt.grads.tobytes() == full_grads.tobytes()
        zero_grads(opt.blocks)

        only_inputs = mod.backward(cache, gy, params=False)
        assert not opt.grads.any()
        pairs = zip(full, only_inputs) if kind == "cdisc" else [(full, only_inputs)]
        for a, b in pairs:
            assert a.tobytes() == b.tobytes()


class TestBackwardSetsGradients:
    """A parameter backward writes its gradients over the store: a second
    backward of the same pass leaves what one backward on a fresh store
    leaves, and so does one over a store of NaNs."""

    @staticmethod
    def _pass(kind):
        """(module, forward output, cache) of one forward pass."""
        rng = np.random.default_rng(3)
        widths = small_widths()
        n = 6
        if kind == "linear":
            mod = Linear("t", 7, 5, seed=1)
            out, cache = mod.forward(rng.normal(size=(n, 7)))
        elif kind == "embedding":
            mod = Embedding("e", 6, 3, seed=1)
            out, cache = mod.forward(np.array([0, 2, 2, 5, 0, 2]))
        elif kind == "mlp":
            mod = TwoLayerMlp("t", 7, 6, 3, seed=1)
            out, cache = mod.forward(rng.normal(size=(n, 7)))
        elif kind == "cdisc":
            mod = ContrastiveDiscriminator("attr", widths, seed=1)
            out, cache = mod.forward(rng.normal(size=(n, widths.protected["attr"])),
                                     rng.normal(size=(n, widths.rep)))
        elif kind == "attention":
            mod = MultiHeadSelfAttention("a", widths.rep, widths.attn_heads, seed=1)
            out, cache = mod.forward(rng.normal(size=(n, 3, widths.rep)))
        elif kind == "pool":
            mod = AttentionPool("p", widths.rep, widths.pool_hidden, seed=1)
            out, cache = mod.forward(rng.normal(size=(n, 3, widths.rep)))
        elif kind == "encoder":
            mod = LocalEncoder("enc", PlatformSchema([("c", 4)], ["x"]), widths, seed=1,
                               p_drop=0.0)
            out, cache = mod.forward({"c": rng.integers(0, 4, size=n),
                                      "x": rng.normal(size=n)}, False, None)
        else:
            mod = TaskHead(widths, 2, seed=1, p_drop=0.0)
            out, cache = mod.forward(rng.normal(size=(n, widths.rep)))
        return mod, out, cache

    @pytest.mark.parametrize("kind", ["linear", "embedding", "mlp", "cdisc", "attention",
                                      "pool", "encoder", "task_head"])
    def test_second_backward_equals_one_on_a_fresh_store(self, kind):
        mod, out, cache = self._pass(kind)
        opt = Adam(mod.blocks())
        gy = np.random.default_rng(4).normal(size=out.shape)
        mod.backward(cache, gy)
        fresh = opt.grads.copy()
        assert fresh.any()
        mod.backward(cache, gy)
        assert np.array_equal(opt.grads, fresh)
        opt.grads.fill(np.nan)
        mod.backward(cache, gy)
        assert np.array_equal(opt.grads, fresh)


class TestBiasDiscriminator:
    def test_zero_init_uniform(self):
        disc = BiasDiscriminator("attr", 3, small_widths(), seed=0)
        for b in disc.blocks():
            b.w[...] = 0.0
            b.b[...] = 0.0
        logits, _ = disc.forward(np.random.default_rng(0).normal(size=(5, 8)))
        from fairvfl.nn import softmax

        assert np.allclose(softmax(logits), 1.0 / 3.0)

    def test_trains_to_separable_labels(self):
        # protected rep literally one-hot of the label: accuracy ~ 1
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=256)
        reps = np.zeros((256, 8))
        reps[np.arange(256), labels] = 1.0
        disc = BiasDiscriminator("attr", 2, small_widths(), seed=1)
        opt = Adam(disc.blocks(), lr=1e-2)
        for _ in range(200):
            logits, cache = disc.forward(reps)
            _, glogits = softmax_cross_entropy(logits, labels)
            disc.backward(cache, glogits)
            opt.step()
        logits, _ = disc.forward(reps)
        acc = float(np.mean(np.argmax(logits, 1) == labels))
        assert acc > 0.99


class TestCounterfactualInvariant:
    def test_sensitive_labels_never_touch_forward(self, tiny_dataset):
        """Flipping sensitive labels changes nothing on the prediction path."""
        from fairvfl.data import partition_vertical

        ds, pa = tiny_dataset
        shards, _, _ = partition_vertical(ds, pa)
        bundle = ModelBundle([s.schema() for s in shards], small_widths(), 2,
                             {"attr": 2}, seed=7)
        ids = ds.split_ids("train")[:16]
        cols = [s.take(ids) for s in shards]
        s1, _ = forward_unified(bundle, cols)
        p1 = bundle.task_head.predict(s1)
        ds.sensitive["attr"].values[:] = 1 - ds.sensitive["attr"].values
        try:
            s2, _ = forward_unified(bundle, [s.take(ids) for s in shards])
            p2 = bundle.task_head.predict(s2)
        finally:
            ds.sensitive["attr"].values[:] = 1 - ds.sensitive["attr"].values
        assert np.array_equal(s1, s2)
        assert np.array_equal(p1, p2)


class TestComponents:
    @staticmethod
    def _bundle():
        widths = small_widths()
        widths.protected = {"attr": 4, "other": 6}
        schema = PlatformSchema([("f", 3)], ["x"])
        return ModelBundle([schema] * 2, widths, 2, {"attr": 2, "other": 3}, seed=0)

    def test_each_component_carries_its_optimizer(self):
        bundle = self._bundle()
        names = [c.name for c in bundle.components]
        assert names == ["encoder/0", "encoder/1", "aggregator", "task_head",
                         "mapper/attr", "cdisc/attr", "bdisc/attr",
                         "mapper/other", "cdisc/other", "bdisc/other"]
        assert list(bundle.optim) == names
        for c in bundle.components:
            assert c.opt is bundle.optim[c.name]
            assert c.opt.blocks == c.blocks()
            assert all(blk.name.startswith(c.name + "/") for blk in c.blocks())

    def test_named_blocks_follow_components(self):
        bundle = self._bundle()
        want = [blk for c in bundle.components for blk in c.opt.blocks]
        got = bundle.named_blocks()
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))


class TestInitialStores:
    @staticmethod
    def _reference_stores(bundle, seed):
        """Each group's store as a build that draws every block with
        ``rng.uniform`` and concatenates the draws would hold it."""
        stores = {}
        for key, opt in bundle.optim.items():
            parts = []
            for blk in opt.blocks:
                fan_in, fan_out = blk.w.shape
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                rng = rng_for(seed, f"init/{blk.name}")
                parts.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)).ravel())
                if blk.b is not None:
                    parts.append(np.zeros(fan_out))
            stores[key] = np.concatenate(parts)
        return stores

    def test_paper_width_stores_equal_uniform_reference(self):
        schema = PlatformSchema([("c0", 9), ("c1", 17)], ["x0", "x1"])
        bundle = ModelBundle([schema] * 3, RepWidths(), 2, {"gender": 2, "age": 5}, seed=7)
        ref = self._reference_stores(bundle, 7)
        assert list(ref) == list(bundle.optim)
        for key, opt in bundle.optim.items():
            assert opt.params.tobytes() == ref[key].tobytes(), key
            assert not opt.grads.any()
        assert sum(o.params.size for o in bundle.optim.values()) > 1_000_000

    def test_smoke_initial_checkpoint_is_pinned(self, tmp_path):
        """The untrained synthetic-smoke bundle saves to fixed bytes, so a
        renamed, reordered or redrawn block changes the hash. Trained bytes
        are not pinned: GEMM rounding may differ across BLAS builds."""
        cfg = preset("synthetic-smoke")
        fed = build_run_federation(cfg, *make_dataset(cfg))
        path = tmp_path / "init.fvfl"
        save_checkpoint(fed.bundle, path)
        raw = path.read_bytes()
        assert len(raw) == 220_409
        assert hashlib.sha256(raw).hexdigest() == (
            "a13505c48e31815255243ade01c7c17a1cbd9d97023081d268a6fdfe7bf9bac3")


class TestCheckpoint:
    def _bundle(self, seed=0):
        schema = PlatformSchema([("f", 4)], ["x"])
        return ModelBundle([schema, schema], small_widths(), 2, {"attr": 2}, seed=seed)

    def test_round_trip_bitwise(self, tmp_path):
        bundle = self._bundle()
        path = tmp_path / "model.fvfl"
        save_checkpoint(bundle, path)
        other = self._bundle(seed=99)
        before = {b.name: b.w.copy() for b in other.named_blocks()}
        load_checkpoint(other, path)
        for a, b in zip(bundle.named_blocks(), other.named_blocks()):
            assert a.name == b.name
            assert np.array_equal(a.w, b.w)
            assert (a.b is None) == (b.b is None)
            if a.b is not None:
                assert np.array_equal(a.b, b.b)
        assert any(not np.array_equal(before[b.name], b.w) for b in other.named_blocks())
        header, _ = read_checkpoint(path)
        assert header["rep_width"] == 16
        assert header["protected_widths"] == {"attr": 8}

    def test_save_load_save_is_byte_identical(self, tmp_path):
        bundle = self._bundle()
        p1, p2 = tmp_path / "a.fvfl", tmp_path / "b.fvfl"
        save_checkpoint(bundle, p1)
        load_checkpoint(bundle, p1)
        save_checkpoint(bundle, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_width_mismatch_rejected(self, tmp_path):
        bundle = self._bundle()
        path = tmp_path / "model.fvfl"
        save_checkpoint(bundle, path)
        schema = PlatformSchema([("f", 4)], ["x"])
        other = ModelBundle([schema, schema],
                            small_widths(h=4), 2, {"attr": 2}, seed=0)
        with pytest.raises(CheckpointError):
            load_checkpoint(other, path)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.fvfl"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_magic_only_file_rejected(self, tmp_path):
        path = tmp_path / "bad.fvfl"
        path.write_bytes(MAGIC)
        with pytest.raises(CheckpointError, match="truncated header"):
            read_checkpoint(path)

    def test_header_only_file_rejected(self, saved_checkpoint):
        header, _ = split_checkpoint(saved_checkpoint[1])
        with pytest.raises(CheckpointError, match="truncated body"):
            parse_checkpoint(join_checkpoint(header, b""))

    @pytest.mark.parametrize("key", ["blocks", "w_shape", "b_shape", "name",
                                     "rep_width", "protected_widths", "version"])
    def test_header_missing_key_rejected(self, tmp_path, saved_checkpoint, key):
        bundle, raw = saved_checkpoint
        header, body = split_checkpoint(raw)
        header.pop(key, None)
        for entry in header.get("blocks", []):
            entry.pop(key, None)
        path = tmp_path / "bad.fvfl"
        path.write_bytes(join_checkpoint(header, body))
        with pytest.raises(CheckpointError):
            load_checkpoint(bundle, path)

    def test_block_named_twice_rejected(self, tmp_path, saved_checkpoint):
        bundle, raw = saved_checkpoint
        name = split_checkpoint(raw)[0]["blocks"][-1]["name"]
        path = tmp_path / "twice.fvfl"
        path.write_bytes(duplicate_last_block(raw, 7.0))
        with pytest.raises(CheckpointError, match=re.escape(f"block {name!r} appears twice")):
            load_checkpoint(bundle, path)

    @pytest.mark.parametrize("version", [99, 0, "1", 1.0, True, None])
    def test_wrong_version_rejected(self, saved_checkpoint, version):
        header, body = split_checkpoint(saved_checkpoint[1])
        assert header["version"] == 1
        header["version"] = version
        message = re.escape(f"unsupported checkpoint version {version!r}")
        with pytest.raises(CheckpointError, match=message):
            parse_checkpoint(join_checkpoint(header, body))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_is_not_saved(self, tmp_path, value):
        bundle = self._bundle()
        blocks = bundle.named_blocks()
        blocks[5].b[-1] = value
        blocks[9].w[0, 0] = np.nan  # a later block: the error names the first
        path = tmp_path / "model.fvfl"
        with pytest.raises(NumericError, match=re.escape(f"block {blocks[5].name} holds")):
            save_checkpoint(bundle, path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_is_not_loaded(self, tmp_path, saved_checkpoint, value):
        bundle, raw = saved_checkpoint
        poisoned, name = poison_block(raw, 4, value)
        path = tmp_path / "poisoned.fvfl"
        path.write_bytes(poisoned)
        stores = [opt.params.copy() for opt in bundle.optim.values()]
        with pytest.raises(CheckpointError, match=re.escape(f"block {name} holds a non-finite")):
            load_checkpoint(bundle, path)
        for opt, before in zip(bundle.optim.values(), stores):
            assert np.array_equal(opt.params, before)  # nothing loaded

    def test_every_truncation_rejected(self, saved_checkpoint):
        _, raw = saved_checkpoint
        for cut in range(len(raw)):
            with pytest.raises(CheckpointError):
                parse_checkpoint(raw[:cut])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_corrupted_file_raises_only_checkpoint_error(self, tmp_path_factory,
                                                         saved_checkpoint, data):
        bundle, raw = saved_checkpoint
        header_end = len(raw) - len(split_checkpoint(raw)[1])
        # most flips land in the header, where they change the parse
        offsets = st.one_of(st.integers(0, header_end - 1), st.integers(0, len(raw) - 1))
        flips = data.draw(st.lists(st.tuples(offsets, st.integers(1, 255)),
                                   min_size=1, max_size=4))
        buf = bytearray(raw)
        for off, mask in flips:
            buf[off] ^= mask
        cut = data.draw(st.integers(0, len(buf)))
        path = tmp_path_factory.getbasetemp() / "fuzzed.fvfl"
        path.write_bytes(bytes(buf[:cut]))
        try:
            load_checkpoint(bundle, path)  # a flip inside a float can still load
        except CheckpointError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), value=JSON_VALUES)
    def test_header_field_replaced_raises_only_checkpoint_error(
            self, tmp_path_factory, saved_checkpoint, data, value):
        bundle, raw = saved_checkpoint
        header, body = split_checkpoint(raw)
        if data.draw(st.booleans()):
            target = header
            key = data.draw(st.sampled_from(sorted(header)))
        else:
            target = data.draw(st.sampled_from(header["blocks"]))
            key = data.draw(st.sampled_from(["name", "w_shape", "b_shape"]))
        target[key] = value
        path = tmp_path_factory.getbasetemp() / "edited.fvfl"
        path.write_bytes(join_checkpoint(header, body))
        try:
            load_checkpoint(bundle, path)
        except CheckpointError:
            pass


def _paper_width_config():
    """synthetic-smoke at the paper's widths: rep 400, 3 platforms, gender
    H=32 and age H=64."""
    return preset("synthetic-smoke").with_overrides(
        dataset={"kind": "synthetic", "n_samples": 400, "n_platforms": 3,
                 "numeric_per_platform": 2, "categorical_per_platform": 2,
                 "cat_vocab": 6, "sensitive_classes": {"gender": 2, "age": 5},
                 "rho": 0.6, "seed": 1},
        n_platforms=3, widths={"rep": 400, "protected": {"gender": 32, "age": 64}},
        lam={"gender": 1e2, "age": 1e1}, gamma={"gender": 0.25, "age": 0.25})


class TestBundleFromCheckpoint:
    """``build_run_federation(..., checkpoint=path)`` builds the bundle with
    the file's weights and draws none."""

    @staticmethod
    def _saved(cfg, tmp_path):
        """A checkpoint of ``cfg``'s bundle with every weight moved off its
        drawn value, so a load that kept a draw shows."""
        ds, pa = make_dataset(cfg)
        fed = build_run_federation(cfg, ds, pa)
        rng = np.random.default_rng(3)
        for opt in fed.bundle.optim.values():
            opt.params += rng.normal(size=opt.params.size)
        path = tmp_path / "moved.fvfl"
        save_checkpoint(fed.bundle, path)
        return ds, pa, path

    @pytest.mark.parametrize("cfg", [preset("synthetic-smoke"), _paper_width_config()],
                             ids=["smoke", "paper"])
    def test_equals_load_into_drawn_bundle(self, tmp_path, monkeypatch, cfg):
        ds, pa, path = self._saved(cfg, tmp_path)
        drawn = build_run_federation(cfg, ds, pa)
        before = {key: opt.params.copy() for key, opt in drawn.bundle.optim.items()}
        load_checkpoint(drawn.bundle, path)

        def no_draw(*args, **kwargs):
            raise AssertionError("a bundle built from a checkpoint drew weights")

        monkeypatch.setattr(nn, "glorot_uniform", no_draw)
        built = build_run_federation(cfg, ds, pa, checkpoint=path)
        assert list(built.bundle.optim) == list(drawn.bundle.optim)
        for key, opt in built.bundle.optim.items():
            assert opt.params.tobytes() == drawn.bundle.optim[key].params.tobytes(), key
            assert not np.array_equal(opt.params, before[key]), key
            for blk in opt.blocks:
                assert blk._glorot is None, blk.name
                assert np.shares_memory(blk.w, opt.params) and blk.w.flags.writeable
        assert len(built.bundle.named_blocks()) == len(drawn.bundle.named_blocks())
        resaved = tmp_path / "resaved.fvfl"
        save_checkpoint(built.bundle, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def _corruptions(self, raw):
        header, body = split_checkpoint(raw)
        yield "missing", None, "cannot read checkpoint"
        yield "corrupt", raw[:len(raw) // 2], "truncated body"
        header["version"] = 2
        yield "wrong-version", join_checkpoint(header, body), "unsupported checkpoint version 2"

    def test_bad_checkpoint_raises_and_builds_nothing(self, tmp_path, monkeypatch):
        cfg = preset("synthetic-smoke")
        ds, pa, path = self._saved(cfg, tmp_path)
        built = []
        real_init = ModelBundle.__init__

        def recording_init(bundle, *args, **kwargs):
            real_init(bundle, *args, **kwargs)
            built.append(bundle)

        monkeypatch.setattr(ModelBundle, "__init__", recording_init)
        for name, raw, message in self._corruptions(path.read_bytes()):
            bad = tmp_path / f"{name}.fvfl"
            if raw is not None:
                bad.write_bytes(raw)
            with pytest.raises(CheckpointError, match=re.escape(message)):
                build_run_federation(cfg, ds, pa, checkpoint=bad)
            with pytest.raises(CheckpointError, match=re.escape(message)):
                load_checkpoint(build_run_federation(cfg, ds, pa).bundle, bad)
        assert len(built) == 3  # only the drawn bundles finished building

    def test_mismatched_widths_raise_the_load_message(self, tmp_path):
        cfg = preset("synthetic-smoke")
        ds, pa, path = self._saved(cfg, tmp_path)
        wider = cfg.with_overrides(widths=dict(cfg.widths, rep=128))
        message = "rep width mismatch: checkpoint 64 vs bundle 128"
        with pytest.raises(CheckpointError, match=message):
            build_run_federation(wider, ds, pa, checkpoint=path)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(build_run_federation(wider, ds, pa).bundle, path)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """A bundle and the bytes of its saved checkpoint (loads may overwrite the
    bundle's parameters)."""
    bundle = TestCheckpoint()._bundle()
    path = tmp_path_factory.mktemp("ckpt") / "model.fvfl"
    save_checkpoint(bundle, path)
    return bundle, path.read_bytes()
