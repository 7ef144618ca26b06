"""Numerics layer: forward contracts, Adam closed forms, dropout statistics,
and the finite-difference oracle cross-checks."""

import numpy as np
import pytest

from conftest import pack_blocks, pack_grads, relative_error, unpack_blocks
from fairvfl.errors import ConfigError, DimensionError, LabelError
from fairvfl.nn import (
    _ADAM_TILE,
    Adam,
    Embedding,
    Linear,
    ParamBlock,
    dropout_apply,
    dropout_backward,
    glorot_uniform,
    pairwise_contrastive_loss,
    relu,
    softmax,
    softmax_cross_entropy,
)
from oracles import OracleError, finite_difference_gradient, softmax_cross_entropy_grad


class TestLinear:
    def test_identity(self):
        lin = Linear("t", 2, 2, seed=0)
        lin.block.w[...] = np.eye(2)
        lin.block.b[...] = 0.0
        y, _ = lin.forward(np.eye(2))
        assert np.array_equal(y, np.eye(2))

    def test_zero_input_gives_bias_rows(self):
        lin = Linear("t", 3, 2, seed=0)
        lin.block.b[...] = [1.0, 1.0]
        y, _ = lin.forward(np.zeros((4, 3)))
        assert np.array_equal(y, np.ones((4, 2)))

    def test_shape_mismatch_names_both_shapes(self):
        lin = Linear("t", 3, 2, seed=0)
        with pytest.raises(DimensionError, match=r"\(4, 5\).*\(3, 2\)"):
            lin.forward(np.zeros((4, 5)))

    @pytest.mark.parametrize("seed", range(5))
    def test_backward_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        lin = Linear("t", 4, 3, seed=seed)
        x = rng.normal(size=(5, 4))
        proj = rng.normal(size=3)

        def f(vec):
            unpack_blocks(vec, lin.blocks())
            y, _ = lin.forward(x)
            return float((y @ proj).sum())

        v0 = pack_blocks(lin.blocks())
        numeric = finite_difference_gradient(f, v0.copy())
        unpack_blocks(v0, lin.blocks())
        y, cache = lin.forward(x)
        gx = lin.backward(cache, np.tile(proj, (5, 1)))
        assert relative_error(pack_grads(lin.blocks()), numeric) < 1e-4

        def fx(vec):
            y, _ = lin.forward(vec.reshape(5, 4))
            return float((y @ proj).sum())

        numeric_x = finite_difference_gradient(fx, x.ravel().copy()).reshape(5, 4)
        assert relative_error(gx, numeric_x) < 1e-4


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_saturated_correct_class(self):
        loss, _ = softmax_cross_entropy(np.array([[30.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_label(self):
        with pytest.raises(LabelError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    @pytest.mark.parametrize("logits, targets", [
        (np.zeros((2, 3)), np.array([0, 1, 2])),  # one target too many
        (np.zeros((2, 3)), np.array([[0], [1]])),  # targets not (n,)
        (np.zeros(3), np.array([0, 1, 2])),  # logits not (n, c)
    ], ids=["extra-target", "column-targets", "flat-logits"])
    def test_mismatched_shapes(self, logits, targets):
        with pytest.raises(DimensionError, match="need \\(n, c\\) and \\(n,\\)"):
            softmax_cross_entropy(logits, targets)

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_only_is_bitwise_the_full_gradient(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=20.0, size=(128, 2 + seed))
        targets = rng.integers(0, 2 + seed, size=128)
        _, grad = softmax_cross_entropy(logits, targets)
        assert softmax_cross_entropy_grad(logits, targets).tobytes() == grad.tobytes()

    def test_softmax_rows_normalized_nonnegative(self):
        z = np.random.default_rng(0).normal(scale=50.0, size=(20, 7))
        p = softmax(z)
        assert np.all(p >= 0.0)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(4, 3))
        targets = rng.integers(0, 3, size=4)

        def f(vec):
            loss, _ = softmax_cross_entropy(vec.reshape(4, 3), targets)
            return loss

        numeric = finite_difference_gradient(f, logits.ravel().copy()).reshape(4, 3)
        _, grad = softmax_cross_entropy(logits, targets)
        assert relative_error(grad, numeric) < 1e-4


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        block = ParamBlock("p", np.array([[1.0, -2.0]]), np.array([0.5]))
        opt = Adam([block], lr=1e-2)
        before = (block.w.copy(), block.b.copy())
        for _ in range(3):
            opt.step()
        assert np.array_equal(block.w, before[0])
        assert np.array_equal(block.b, before[1])
        assert opt.t == 3

    def test_first_step_closed_form(self):
        g = 0.37
        block = ParamBlock("p", np.array([[2.0]]))
        opt = Adam([block], lr=1e-3)
        block.gw[...] = g
        opt.step()
        expected = 2.0 - 1e-3 * g / (abs(g) + opt.eps)
        assert block.w[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_two_steps_constant_gradient(self):
        block = ParamBlock("p", np.array([[0.0]]))
        opt = Adam([block], lr=1e-3)
        for _ in range(2):
            block.gw[...] = 5.0
            opt.step()
        assert block.w[0, 0] == pytest.approx(-2e-3, abs=1e-6)

    def test_accumulators_untouched(self):
        block = ParamBlock("p", np.ones((2, 2)))
        opt = Adam([block])
        block.gw[...] = 3.0
        opt.step()
        assert np.all(block.gw == 3.0)
        # a store of several tiles: the reference round's sign ledger copies
        # ``grads`` after the step, so every tile's gradients must come out as
        # they went in
        opt = Adam(self._mixed_blocks(3))
        opt.grads[...] = np.random.default_rng(4).normal(size=opt.grads.size)
        before = opt.grads.tobytes()
        for _ in range(2):
            opt.step()
            assert opt.grads.tobytes() == before

    def test_optimizer_wrapper(self):
        blocks = [ParamBlock("a", np.ones((2, 2))), ParamBlock("b", np.ones((1, 3)), np.zeros(3))]
        opt = Adam(blocks, lr=1e-2)
        for b in blocks:
            b.gw[...] = 1.0
        opt.step()
        assert blocks[0].w[0, 0] != 1.0

    @staticmethod
    def _mixed_blocks(seed):
        # "wide" spans more than one tile of the store's step
        return (Linear("lin", 3, 4, seed).blocks() + Linear("nobias", 4, 2, seed, bias=False).blocks()
                + Embedding("emb", 5, 3, seed).blocks() + Linear("wide", 190, 180, seed).blocks())

    def test_blocks_are_views_of_the_store_in_order(self):
        blocks = self._mixed_blocks(0)
        values = [(b.w.copy(), None if b.b is None else b.b.copy()) for b in blocks]
        opt = Adam(blocks)
        assert opt.m is None and opt.v is None  # the first step allocates them
        off = 0
        for blk, (w, bias) in zip(blocks, values):
            for arr, grad, before in ((blk.w, blk.gw, w), (blk.b, blk.gb, bias)):
                if before is None:
                    assert arr is None and grad is None
                    continue
                n = before.size
                assert np.shares_memory(arr, opt.params) and np.shares_memory(grad, opt.grads)
                assert np.array_equal(arr, before)
                assert np.array_equal(opt.params[off:off + n], before.ravel())
                arr[...] = 7.0
                grad[...] = 3.0
                assert np.all(opt.params[off:off + n] == 7.0)
                assert np.all(opt.grads[off:off + n] == 3.0)
                off += n
        assert off == opt.params.size == opt.grads.size > _ADAM_TILE

    def test_matches_per_block_reference_bitwise(self):
        """Five steps over mixed blocks equal Adam applied block by block."""
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        blocks, ref = self._mixed_blocks(1), self._mixed_blocks(1)
        opt = Adam(blocks, lr, b1, b2, eps)
        ref_arrays = [a for blk in ref for a in (blk.w, blk.b) if a is not None]
        moments = [(np.zeros_like(a), np.zeros_like(a)) for a in ref_arrays]
        rng = np.random.default_rng(2)
        for t in range(1, 6):
            grads = [rng.normal(size=a.shape) for a in ref_arrays]
            i = 0
            for blk in blocks:
                for g in (blk.gw, blk.gb):
                    if g is not None:
                        g[...] = grads[i]
                        i += 1
            opt.step()
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for a, g, (m, v) in zip(ref_arrays, grads, moments):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * np.square(g)
                a -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
        for blk, rblk in zip(blocks, ref):
            assert np.array_equal(blk.w, rblk.w)
            assert (blk.b is None) == (rblk.b is None)
            if blk.b is not None:
                assert np.array_equal(blk.b, rblk.b)


class TestGlorotInit:
    SHAPES = [(1, 1), (37, 1), (1, 37), (7, 32), (400, 400)]

    @pytest.mark.parametrize("shape", SHAPES, ids=[f"{a}x{b}" for a, b in SHAPES])
    def test_out_equals_uniform_bitwise(self, shape):
        limit = np.sqrt(6.0 / sum(shape))
        for seed in range(24):
            ref = np.random.default_rng(seed).uniform(-limit, limit, shape)
            out = np.full(shape, np.nan)
            w = glorot_uniform(*shape, np.random.default_rng(seed), out=out)
            assert w is out
            assert out.tobytes() == ref.tobytes()
            assert glorot_uniform(*shape, np.random.default_rng(seed)).tobytes() == ref.tobytes()

    @staticmethod
    def _deferred(seed):
        return [ParamBlock.glorot("lin", 3, 4, seed), ParamBlock.glorot("nobias", 4, 2, seed, bias=False),
                ParamBlock.glorot("wide", 190, 180, seed)]

    def test_bare_read_equals_store_draw(self):
        bare, adopted = self._deferred(5), self._deferred(5)
        opt = Adam(adopted)
        for a, b in zip(bare, adopted):
            assert a.w.tobytes() == b.w.tobytes()
            assert np.shares_memory(b.w, opt.params) and not np.shares_memory(a.w, opt.params)
            assert (a.b is None) == (b.b is None)
            if a.b is not None:
                assert np.all(a.b == 0.0) and a.b.tobytes() == b.b.tobytes()

    def test_grad_read_before_adoption(self):
        """Reading a deferred block's grad buffer first gives it the block's
        shapes and leaves the store's draw unchanged."""
        blk = ParamBlock.glorot("lin", 3, 4, 0)
        assert blk.gw.shape == (3, 4) and blk.gb.shape == (4,)
        opt = Adam([blk])
        assert np.shares_memory(blk.w, opt.params)
        assert blk.w.tobytes() == ParamBlock.glorot("lin", 3, 4, 0).w.tobytes()

    def test_second_adam_keeps_the_weights(self):
        blocks = self._deferred(2) + [ParamBlock("given", np.arange(6.0).reshape(2, 3), np.ones(3))]
        first = Adam(blocks)
        for blk in blocks:
            blk.gw[...] = 1.0
        first.step()
        before = first.params.copy()
        second = Adam(blocks)
        assert second.params.tobytes() == before.tobytes()
        assert not np.shares_memory(second.params, first.params)
        assert all(np.shares_memory(blk.w, second.params) for blk in blocks)


class TestDropout:
    def test_degenerate_probability(self):
        x = np.random.default_rng(0).normal(size=(5, 5))
        y, mask = dropout_apply(x, 0.0, np.random.default_rng(1), training=True)
        assert np.array_equal(y, x)
        assert mask is None

    def test_eval_mode_identity(self):
        x = np.random.default_rng(0).normal(size=(5, 5))
        y, mask = dropout_apply(x, 0.7, None, training=False)
        assert np.array_equal(y, x) and mask is None

    def test_empirical_drop_fraction(self):
        x = np.ones((500, 400))  # 2e5 entries
        y, _ = dropout_apply(x, 0.2, np.random.default_rng(2), training=True)
        dropped = float(np.mean(y == 0.0))
        assert abs(dropped - 0.2) < 0.02
        kept = y[y != 0.0]
        assert np.allclose(kept, 1.0 / 0.8)

    def test_invalid_probability(self):
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                dropout_apply(np.zeros((2, 2)), p, np.random.default_rng(0), True)

    def test_backward_with_fixed_mask_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        _, mask = dropout_apply(x, 0.3, np.random.default_rng(9), training=True)
        proj = rng.normal(size=6)

        def f(vec):
            return float(((vec.reshape(4, 6) * mask) @ proj).sum())

        numeric = finite_difference_gradient(f, x.ravel().copy()).reshape(4, 6)
        analytic = dropout_backward(mask, np.tile(proj, (4, 1)))
        assert relative_error(analytic, numeric) < 1e-4


class TestFiniteDifferenceOracle:
    def test_analytic_derivative(self):
        grad = finite_difference_gradient(lambda v: float(v[0] ** 2), np.array([3.0]), h=1e-4)
        assert grad[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant_function(self):
        grad = finite_difference_gradient(lambda v: 1.25, np.arange(4.0))
        assert np.allclose(grad, 0.0, atol=1e-9)

    def test_two_layer_network_cross_check(self):
        rng = np.random.default_rng(4)
        fc1, fc2 = Linear("a", 5, 4, seed=1), Linear("b", 4, 3, seed=2)
        blocks = fc1.blocks() + fc2.blocks()
        x = rng.normal(size=(6, 5))
        targets = rng.integers(0, 3, size=6)

        def f(vec):
            unpack_blocks(vec, blocks)
            h, _ = fc1.forward(x)
            y, _ = fc2.forward(relu(h))
            loss, _ = softmax_cross_entropy(y, targets)
            return loss

        v0 = pack_blocks(blocks)
        numeric = finite_difference_gradient(f, v0.copy())
        unpack_blocks(v0, blocks)
        h, c1 = fc1.forward(x)
        y, c2 = fc2.forward(relu(h))
        loss, gy = softmax_cross_entropy(y, targets)
        fc1.backward(c1, fc2.backward(c2, gy) * (h > 0.0))
        assert relative_error(pack_grads(blocks), numeric) < 1e-4

    def test_bad_step_size(self):
        with pytest.raises(ConfigError):
            finite_difference_gradient(lambda v: 0.0, np.zeros(2), h=0.0)

    def test_non_finite_objective(self):
        with pytest.raises(OracleError):
            finite_difference_gradient(lambda v: float("nan"), np.zeros(2))


class TestPairwiseContrastiveLoss:
    def test_equal_scores_give_ln2(self):
        loss, gp, gq = pairwise_contrastive_loss(np.zeros(4), np.zeros(4))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)
        assert np.allclose(gp, -0.125) and np.allclose(gq, 0.125)

    @pytest.mark.parametrize("seed", range(3))
    def test_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=8)

        def f(vec):
            loss, _, _ = pairwise_contrastive_loss(vec[:4], vec[4:])
            return loss

        numeric = finite_difference_gradient(f, scores.copy())
        _, gp, gq = pairwise_contrastive_loss(scores[:4], scores[4:])
        assert relative_error(np.concatenate([gp, gq]), numeric) < 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            pairwise_contrastive_loss(np.zeros(3), np.zeros(4))


class TestBoundedInputFiniteness:
    def test_forward_backward_finite_at_1e3(self):
        rng = np.random.default_rng(7)
        lin = Linear("t", 4, 3, seed=0)
        x = rng.uniform(-1e3, 1e3, size=(8, 4))
        y, cache = lin.forward(x)
        assert np.all(np.isfinite(y))
        loss, gy = softmax_cross_entropy(y, rng.integers(0, 3, size=8))
        assert np.isfinite(loss)
        gx = lin.backward(cache, gy)
        assert np.all(np.isfinite(gx))
        l2, gp, gq = pairwise_contrastive_loss(x[:, 0], x[:, 1])
        assert np.isfinite(l2) and np.all(np.isfinite(gp)) and np.all(np.isfinite(gq))

    def test_glorot_bounds(self):
        w = glorot_uniform(30, 50, np.random.default_rng(0))
        limit = np.sqrt(6.0 / 80.0)
        assert np.all(np.abs(w) <= limit)
