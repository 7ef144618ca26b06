"""Model components: encoder/aggregator/head/mapper/discriminator contracts,
gradient checks against the oracle, purity, and checkpoint round-trips."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import relative_error, small_widths
from fairvfl.checkpoint import (
    MAGIC,
    load_checkpoint,
    parse_checkpoint,
    read_checkpoint,
    save_checkpoint,
)
from fairvfl.errors import CheckpointError, ConfigError
from fairvfl.models import (
    Aggregator,
    BiasDiscriminator,
    ContrastiveDiscriminator,
    LocalEncoder,
    Mapper,
    ModelBundle,
    OptimParams,
    PlatformSchema,
    RepWidths,
    TaskHead,
    forward_unified,
)
from fairvfl.nn import (
    Adam,
    finite_difference_gradient,
    pack_blocks,
    pack_grads,
    rng_for,
    softmax_cross_entropy,
    unpack_blocks,
)


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
        enc.zero_grad()
        y, cache = enc.forward(cols, training=False, rng=None)
        enc.backward(cache, proj)
        assert relative_error(pack_grads(enc.blocks()), numeric) < 1e-4


class TestAggregator:
    def test_single_platform_pooling_weight_is_one(self):
        agg = Aggregator(small_widths(), seed=1)
        x = np.random.default_rng(0).normal(size=(4, 1, 16))
        _, cache = agg.forward(x)
        assert np.array_equal(agg.pooling_weights(cache), np.ones((4, 1)))

    def test_pooling_weights_sum_to_one(self):
        agg = Aggregator(small_widths(), seed=1)
        x = np.random.default_rng(1).normal(scale=30.0, size=(8, 5, 16))
        _, cache = agg.forward(x)
        alpha = agg.pooling_weights(cache)
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
        agg.zero_grad()
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
                gs = bundle.task_head.backward(hcache, glogits)
                gstack = bundle.aggregator.backward(agg_cache, gs)
                for i, enc in enumerate(bundle.encoders):
                    enc.backward(enc_caches[i], gstack[:, i, :])
                for key in ("task_head", "aggregator", "encoder/0", "encoder/1"):
                    bundle.optim[key].step()
                    bundle.optim[key].zero_grad()
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

    def test_unknown_feature_is_config_error(self):
        widths = small_widths()
        schema = PlatformSchema([("f", 3)], ["x"])
        bundle = ModelBundle([schema], widths, 2, {"attr": 2}, seed=0)
        with pytest.raises(ConfigError):
            bundle.mapper("nope")

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
        mapper.zero_grad()
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
        disc.zero_grad()
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
            disc.zero_grad()
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


# arbitrary JSON values to put in place of checkpoint header fields
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)


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
        header, _ = _split_checkpoint(saved_checkpoint[1])
        with pytest.raises(CheckpointError, match="truncated body"):
            parse_checkpoint(_join_checkpoint(header, b""))

    @pytest.mark.parametrize("key", ["blocks", "w_shape", "b_shape", "name",
                                     "rep_width", "protected_widths"])
    def test_header_missing_key_rejected(self, tmp_path, saved_checkpoint, key):
        bundle, raw = saved_checkpoint
        header, body = _split_checkpoint(raw)
        header.pop(key, None)
        for entry in header.get("blocks", []):
            entry.pop(key, None)
        path = tmp_path / "bad.fvfl"
        path.write_bytes(_join_checkpoint(header, body))
        with pytest.raises(CheckpointError):
            load_checkpoint(bundle, path)

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
        header_end = len(raw) - len(_split_checkpoint(raw)[1])
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
    @given(data=st.data(), value=_JSON_VALUES)
    def test_header_field_replaced_raises_only_checkpoint_error(
            self, tmp_path_factory, saved_checkpoint, data, value):
        bundle, raw = saved_checkpoint
        header, body = _split_checkpoint(raw)
        if data.draw(st.booleans()):
            target = header
            key = data.draw(st.sampled_from(sorted(header)))
        else:
            target = data.draw(st.sampled_from(header["blocks"]))
            key = data.draw(st.sampled_from(["name", "w_shape", "b_shape"]))
        target[key] = value
        path = tmp_path_factory.getbasetemp() / "edited.fvfl"
        path.write_bytes(_join_checkpoint(header, body))
        try:
            load_checkpoint(bundle, path)
        except CheckpointError:
            pass


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """A bundle and the bytes of its saved checkpoint (loads may overwrite the
    bundle's parameters)."""
    bundle = TestCheckpoint()._bundle()
    path = tmp_path_factory.mktemp("ckpt") / "model.fvfl"
    save_checkpoint(bundle, path)
    return bundle, path.read_bytes()


def _split_checkpoint(raw: bytes) -> tuple[dict, bytes]:
    """(header, body) of a checkpoint file's bytes."""
    (head_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    start = len(MAGIC) + 4
    return json.loads(raw[start:start + head_len]), raw[start + head_len:]


def _join_checkpoint(header: dict, body: bytes) -> bytes:
    head = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<I", len(head)) + head + body
