import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from papaformer import blocks
from papaformer import tensor as T
from papaformer.blocks import LayerBlockParams, causal_mha, layer_block, rmsnorm, rope, swiglu_ffn, swiglu_gate
from papaformer.tensor import RngState, Tensor

from fdcheck import check_grad


@pytest.fixture
def float64():
    T.set_default_dtype(np.float64)
    yield
    T.set_default_dtype(np.float32)


def make_params(d=8, heads=2, ff=12, seed=0):
    return LayerBlockParams.init(d, heads, ff, RngState(seed))


def rotated(x, w, heads):
    """RoPE-rotated x @ w as a head-major [B, heads, T, head_dim] array."""
    b, t, d = x.shape
    return rope((x @ w).reshape(b, t, heads, d // heads), np.arange(t)).data.transpose(0, 2, 1, 3)


class TestRmsNorm:
    def test_unit_input(self):
        out = rmsnorm(Tensor([1.0, 1.0, 1.0, 1.0]), Tensor(np.ones(4))).data
        np.testing.assert_allclose(out, np.ones(4), atol=1e-4)

    def test_zero_input(self):
        out = rmsnorm(Tensor(np.zeros(4)), Tensor(np.ones(4))).data
        np.testing.assert_array_equal(out, np.zeros(4))
        assert np.all(np.isfinite(out))

    def test_plus_minus_three(self):
        # mean(x^2) = 9, so normalization divides by 3
        out = rmsnorm(Tensor([3.0, -3.0]), Tensor(np.ones(2))).data
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-5)

    def test_grad(self):
        rng = np.random.default_rng(0)
        scale = Tensor((rng.random(6) + 0.5).astype(np.float32))
        check_grad(lambda x: (rmsnorm(x, scale) * rmsnorm(x, scale)).sum(), rng.random((3, 6)) * 4 - 2)

    def test_matches_formula_float64(self):
        rng = np.random.default_rng(20)
        x0, s0 = rng.normal(size=(2, 3, 6)), rng.normal(size=6)
        want = s0 * x0 / np.sqrt((x0 * x0).mean(axis=-1, keepdims=True) + blocks.RMSNORM_EPS)
        np.testing.assert_allclose(rmsnorm(Tensor(x0), Tensor(s0)).data, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("wrt", ["x", "scale"])
    def test_grad_float64(self, wrt, float64):
        rng = np.random.default_rng(21)
        x0, s0 = rng.normal(size=(2, 3, 6)), rng.normal(size=6)
        probe = Tensor(rng.normal(size=(2, 3, 6)))
        if wrt == "x":
            check_grad(lambda x: (rmsnorm(x, Tensor(s0)) * probe).sum(), x0, h=1e-5, tol=1e-6)
        else:
            check_grad(lambda s: (rmsnorm(Tensor(x0), s) * probe).sum(), s0, h=1e-5, tol=1e-6)


class TestRope:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(1)
        x0 = rng.random((1, 1, 2, 8)).astype(np.float32)
        out = rope(Tensor(x0), np.array([0])).data
        np.testing.assert_allclose(out, x0, atol=1e-6)

    def test_position_one_rotates_by_theta(self):
        # head_dim=2 has a single pair with theta_0 = 1; position 1 rotates (1,0)->(cos 1, sin 1)
        x = Tensor(np.array([[[[1.0, 0.0]]]]))
        out = rope(x, np.array([1])).data
        np.testing.assert_allclose(out, [[[[np.cos(1.0), np.sin(1.0)]]]], atol=1e-6)

    def test_preserves_pair_norms(self):
        rng = np.random.default_rng(2)
        x0 = rng.random((1, 5, 2, 8)).astype(np.float32) * 2 - 1
        out = rope(Tensor(x0), np.arange(5)).data
        norms = lambda a: np.linalg.norm(a.reshape(1, 5, 2, 4, 2), axis=-1)
        np.testing.assert_allclose(norms(out), norms(x0), atol=1e-5)

    def test_relative_position_inner_products(self):
        # <rope(q,p1), rope(k,p2)> depends only on p1 - p2
        rng = np.random.default_rng(3)
        q0 = rng.random((1, 1, 1, 8)).astype(np.float32)
        k0 = rng.random((1, 1, 1, 8)).astype(np.float32)

        def ip(p1, p2):
            rq = rope(Tensor(q0), np.array([p1])).data.reshape(-1)
            rk = rope(Tensor(k0), np.array([p2])).data.reshape(-1)
            return float(rq @ rk)

        for offset in range(4):
            vals = [ip(p + offset, p) for p in range(4)]
            assert max(vals) - min(vals) < 1e-4

    def test_odd_head_dim_rejected(self):
        with pytest.raises(blocks.ConfigError):
            rope(Tensor(np.zeros((1, 1, 1, 3))), np.array([0]))

    @pytest.mark.parametrize("head_dim", [2, 8, 32])
    def test_tables_bit_identical_to_inline_formula(self, head_dim):
        def inline(positions):
            j = np.arange(head_dim // 2, dtype=np.float64)
            theta = blocks.ROPE_BASE ** (-2.0 * j / head_dim)
            angles = np.asarray(positions, dtype=np.float64)[:, None] * theta[None, :]
            return tuple(f(angles).astype(np.float32)[:, None, :, None] for f in (np.cos, np.sin))

        # from 0, cached continuations, and a position past the table built so far
        for positions in (np.arange(7), 5 + np.arange(3), np.arange(255), 250 + np.arange(1), None):
            if positions is None:
                positions = np.array([len(blocks._ROPE_TABLES[head_dim][0]) + 37])
            got, want = blocks.rope_tables(positions, head_dim), inline(positions)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()

    def test_table_rows_are_copies(self):
        cos, _ = blocks.rope_tables(np.arange(4), 4)
        cos[:] = 7.0
        assert blocks.rope_tables(np.arange(4), 4)[0].max() <= 1.0

    def test_grad(self):
        rng = np.random.default_rng(4)
        x0 = rng.random((1, 3, 2, 4)) * 4 - 2
        check_grad(lambda x: (rope(x, np.arange(3)) * rope(x, np.arange(3))).sum(), x0)


class TestCausalMha:
    def test_single_token(self):
        p = make_params()
        x = Tensor(np.random.default_rng(5).random((1, 1, 8)).astype(np.float32))
        out = causal_mha(x, p)
        # with one token, attention weight is [1], so output is wo(wv x)
        expected = (x @ p.wv) @ p.wo
        np.testing.assert_allclose(out.data, expected.data, atol=1e-6)

    def test_causality(self):
        p = make_params()
        rng = np.random.default_rng(6)
        x0 = rng.random((1, 6, 8)).astype(np.float32)
        base = causal_mha(Tensor(x0), p).data
        perturbed = x0.copy()
        perturbed[0, 4:] += rng.random((2, 8)).astype(np.float32)
        out = causal_mha(Tensor(perturbed), p).data
        assert np.max(np.abs(out[0, :4] - base[0, :4])) < 1e-6

    def test_attention_rows_sum_to_one(self):
        p = make_params()
        x = Tensor(np.random.default_rng(7).random((2, 5, 8)).astype(np.float32))
        att = blocks._causal_softmax(rotated(x, p.wq, p.heads), rotated(x, p.wk, p.heads))
        np.testing.assert_allclose(att.sum(axis=-1), 1.0, atol=1e-5)
        # strict causal: no weight above the diagonal
        assert np.max(np.abs(np.triu(att, k=1))) < 1e-6

    @pytest.mark.parametrize("t", [1, 5, 64])
    @pytest.mark.parametrize("extra", [0, 70])
    def test_softmax_bit_identical_to_full_mask(self, t, extra):
        rng = np.random.default_rng(t + extra)
        s = t + extra
        q = rng.standard_normal((2, 3, t, 8)).astype(np.float32)
        k = rng.standard_normal((2, 3, s, 8)).astype(np.float32)
        p = q @ np.swapaxes(k, -1, -2)
        p *= 1.0 / math.sqrt(8)
        p = p + blocks.causal_mask(t, s)
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        assert blocks._causal_softmax(q, k).tobytes() == p.tobytes()

    def test_offset_mask_is_last_rows_of_full_mask(self):
        np.testing.assert_array_equal(blocks.causal_mask(2, 5), blocks.causal_mask(5, 5)[3:])

    def test_cached_grad_reaches_only_new_positions_float64(self):
        T.set_default_dtype(np.float64)
        try:
            p = make_params(seed=3)
            rng = np.random.default_rng(16)
            x0 = rng.random((1, 5, 8)) * 2 - 1
            probe = Tensor(rng.normal(size=(1, 2, 8)))

            def loss(x_new):
                cache = blocks.KVCache()
                causal_mha(Tensor(x0[:, :3]), p, 5, cache)
                cache.length = 3  # as model.forward advances it, so x_new runs at positions 3 and 4
                return (causal_mha(x_new, p, 5, cache) * probe).sum()

            check_grad(loss, x0[:, 3:], h=1e-5, tol=1e-6)
        finally:
            T.set_default_dtype(np.float32)

    def test_cache_needs_max_seq_len(self):
        p = make_params()
        with pytest.raises(blocks.ConfigError, match="max_seq_len"):
            causal_mha(Tensor(np.zeros((1, 3, 8))), p, cache=blocks.KVCache())

    def test_seq_len_limit(self):
        p = make_params()
        with pytest.raises(blocks.ConfigError):
            causal_mha(Tensor(np.zeros((1, 9, 8))), p, max_seq_len=8)
        cache = blocks.KVCache()
        causal_mha(Tensor(np.zeros((1, 6, 8))), p, max_seq_len=8, cache=cache)
        cache.length = 6  # as model.forward advances it
        with pytest.raises(blocks.ConfigError, match="9 exceeds"):
            causal_mha(Tensor(np.zeros((1, 3, 8))), p, max_seq_len=8, cache=cache)

    def test_matches_per_row_loop_reference(self):
        p = make_params()
        x = Tensor(np.random.default_rng(14).random((2, 5, 8)).astype(np.float32))
        pos = np.arange(5)
        q = rope((x @ p.wq).reshape(2, 5, 2, 4), pos).data.astype(np.float64)
        k = rope((x @ p.wk).reshape(2, 5, 2, 4), pos).data.astype(np.float64)
        v = (x @ p.wv).data.reshape(2, 5, 2, 4).astype(np.float64)
        ctx = np.zeros((2, 5, 2, 4))
        att = np.zeros((2, 2, 5, 5))
        for b in range(2):
            for h in range(2):
                for i in range(5):
                    s = np.array([q[b, i, h] @ k[b, j, h] / 2.0 for j in range(i + 1)])
                    w = np.exp(s - s.max()) / np.exp(s - s.max()).sum()
                    att[b, h, i, : i + 1] = w
                    ctx[b, i, h] = w @ v[b, : i + 1, h]
        ref = ctx.reshape(2, 5, 8) @ p.wo.data.astype(np.float64)
        np.testing.assert_allclose(causal_mha(x, p).data, ref, rtol=1e-5, atol=1e-6)
        got_att = blocks._causal_softmax(rotated(x, p.wq, p.heads), rotated(x, p.wk, p.heads))
        np.testing.assert_allclose(got_att, att, atol=1e-6)
        # the same positions in two chunks through one K/V cache
        cache = blocks.KVCache()
        chunks = []
        for a, b in ((0, 2), (2, 5)):
            chunks.append(causal_mha(x[:, a:b], p, 5, cache).data)
            assert cache.length == a  # attention writes from cache.length; model.forward advances it
            cache.length = b
        np.testing.assert_allclose(np.concatenate(chunks, axis=1), ref, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("wrt", ["x", "wq", "wk", "wv"])
    def test_grad_float64(self, wrt):
        T.set_default_dtype(np.float64)
        try:
            p = make_params(seed=2)
            rng = np.random.default_rng(15)
            x0 = rng.random((2, 4, 8)) * 2 - 1
            probe = Tensor(rng.normal(size=(2, 4, 8)))
            if wrt == "x":
                check_grad(lambda x: (causal_mha(x, p) * probe).sum(), x0, h=1e-5, tol=1e-6)
            else:
                x = Tensor(x0)
                check_grad(
                    lambda w: (causal_mha(x, replace(p, **{wrt: w})) * probe).sum(),
                    getattr(p, wrt).data * 10,
                    h=1e-5,
                    tol=1e-6,
                )
        finally:
            T.set_default_dtype(np.float32)


def loop_attention(q, k, v):
    """Per-row float64 reference of causal attention for q, k, v [B, T, heads, head_dim] at positions 0..T-1."""
    b, t, heads, hd = q.shape
    out = np.zeros((b, t, heads, hd))
    for bi in range(b):
        for h in range(heads):
            for i in range(t):
                s = k[bi, : i + 1, h] @ q[bi, i, h] / np.sqrt(hd)
                w = np.exp(s - s.max())
                out[bi, i, h] = w @ v[bi, : i + 1, h] / w.sum()
    return out.reshape(b, t, heads * hd)


def head_major(*arrays):
    return tuple(np.asarray(a).transpose(0, 2, 1, 3) for a in arrays)


class TestTiledAttention:
    """150 queries run as tiles of 64, 64 and 22 rows; 80 cached queries as 64 and 16."""

    LENGTH, CACHED = 150, 70

    def qkv(self, seed, dtype=np.float64):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(1, self.LENGTH, 2, 4)).astype(dtype) for _ in range(3)]

    def test_matches_per_row_loop_reference(self):
        assert self.LENGTH > 2 * blocks.ATTN_TILE and self.LENGTH - self.CACHED > blocks.ATTN_TILE
        q, k, v = self.qkv(30, np.float32)
        ref = loop_attention(*(z.astype(np.float64) for z in (q, k, v)))
        got = blocks.causal_attention(Tensor(q), Tensor(k), Tensor(v)).data
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-6)
        # the last 80 positions as queries over a K/V cache of all 150
        c = self.CACHED
        kv = head_major(k, v)
        cached = blocks.causal_attention(Tensor(q[:, c:]), Tensor(k[:, c:]), Tensor(v[:, c:]), kv).data
        np.testing.assert_allclose(cached, ref[:, c:], rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("wrt", [0, 1, 2], ids=["q", "k", "v"])
    def test_grad_float64(self, wrt, float64):
        qkv = self.qkv(31)
        probe = Tensor(np.random.default_rng(32).normal(size=(1, self.LENGTH, 8)))

        def loss(z):
            args = [Tensor(a) for a in qkv]
            args[wrt] = z
            return (blocks.causal_attention(*args) * probe).sum()

        check_grad(loss, qkv[wrt], h=1e-5, tol=1e-6)

    @pytest.mark.parametrize("wrt", [0, 1, 2], ids=["q", "k", "v"])
    def test_cached_grad_float64(self, wrt, float64):
        # a 70-token prompt in the cache, then 80 new tokens; gradients reach only the new ones
        c = self.CACHED
        qkv = self.qkv(33)
        probe = Tensor(np.random.default_rng(34).normal(size=(1, self.LENGTH - c, 8)))

        def loss(z):
            new = [Tensor(a[:, c:]) for a in qkv]
            new[wrt] = z
            kv = tuple(np.concatenate(pair, axis=2) for pair in zip(head_major(qkv[1][:, :c], qkv[2][:, :c]),
                                                                    head_major(new[1].data, new[2].data)))
            return (blocks.causal_attention(*new, kv) * probe).sum()

        check_grad(loss, qkv[wrt][:, c:], h=1e-5, tol=1e-6)


class TestFewerQueriesThanKeys:
    """Queries at the last T of S key positions, as a last-row forward runs them: 3 queries over 7 keys."""

    QUERIES, KEYS = 3, 7

    def qkv(self, seed, queries=QUERIES):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(2, queries, 2, 4))
        return [q] + [rng.normal(size=(2, self.KEYS, 2, 4)) for _ in range(2)]

    def test_matches_last_rows_of_full_attention(self, float64):
        q, k, v = self.qkv(40)
        earlier = np.random.default_rng(41).normal(size=(2, self.KEYS - self.QUERIES, 2, 4))
        ref = loop_attention(np.concatenate([earlier, q], axis=1), k, v)[:, -self.QUERIES :]
        got = blocks.causal_attention(Tensor(q), Tensor(k), Tensor(v)).data
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("wrt", [0, 1, 2], ids=["q", "k", "v"])
    def test_grad_reaches_every_row_float64(self, wrt, float64):
        qkv = self.qkv(42)
        probe = Tensor(np.random.default_rng(43).normal(size=(2, self.QUERIES, 8)))

        def loss(z):
            args = [Tensor(a) for a in qkv]
            args[wrt] = z
            return (blocks.causal_attention(*args) * probe).sum()

        check_grad(loss, qkv[wrt], h=1e-5, tol=1e-6)
        leaf = Tensor(qkv[wrt], requires_grad=True)
        loss(leaf).backward()
        assert leaf.grad.shape == qkv[wrt].shape
        assert np.all(np.abs(leaf.grad).sum(axis=(0, 2, 3)) > 0)

    @pytest.mark.parametrize("wrt", [0, 1, 2], ids=["q", "k", "v"])
    def test_cached_grad_float64(self, wrt, float64):
        # one query over a cache whose last two rows are new: dk and dv cover those two rows
        q, k, v = self.qkv(44, queries=1)
        new = [q, k[:, -2:].copy(), v[:, -2:].copy()]  # fdcheck perturbs its input through a flat view
        probe = Tensor(np.random.default_rng(45).normal(size=(2, 1, 8)))

        def loss(z):
            args = [Tensor(a) for a in new]
            args[wrt] = z
            kv = head_major(np.concatenate([k[:, :-2], args[1].data], axis=1),
                            np.concatenate([v[:, :-2], args[2].data], axis=1))
            return (blocks.causal_attention(*args, kv) * probe).sum()

        check_grad(loss, new[wrt], h=1e-5, tol=1e-6)

    @pytest.mark.parametrize("wrt", ["x", "wq", "wk", "wv", "wo", "w_down"])
    def test_last_row_layer_block_grad_float64(self, wrt, float64):
        p = make_params(seed=5)
        rng = np.random.default_rng(46)
        x0 = rng.random((2, 6, 8)) * 2 - 1
        probe = Tensor(rng.normal(size=(2, 1, 8)))
        np.testing.assert_allclose(layer_block(Tensor(x0), p, last_row=True).data,
                                   layer_block(Tensor(x0), p).data[:, -1:], rtol=1e-12, atol=1e-12)
        if wrt == "x":
            check_grad(lambda x: (layer_block(x, p, last_row=True) * probe).sum(), x0, h=1e-5, tol=1e-6)
            leaf = Tensor(x0, requires_grad=True)
            (layer_block(leaf, p, last_row=True) * probe).sum().backward()
            assert np.all(np.abs(leaf.grad).sum(axis=(0, 2)) > 0)  # every key position gets a gradient
        else:
            x = Tensor(x0)
            check_grad(
                lambda w: (layer_block(x, replace(p, **{wrt: w}), last_row=True) * probe).sum(),
                getattr(p, wrt).data * 10,
                h=1e-5,
                tol=1e-6,
            )


class TestKVCache:
    def test_cached_steps_write_one_buffer_in_place(self):
        p = make_params()
        rng = np.random.default_rng(47)
        rows = [rng.normal(size=(1, t, 2, 4)).astype(np.float32) for t in (5, 1, 1, 1)]
        cache = blocks.KVCache()
        kvs = []
        for r in rows:
            start = cache.length
            kvs.append(cache.extend(p, r, -r, 10))
            assert cache.length == start  # extend writes from cache.length; model.forward advances it
            cache.length += r.shape[1]
        assert cache.length == 8
        # the first extend allocates max_seq_len rows; every extend, that one included, writes into them
        keys, values = kvs[0][0].base, kvs[0][1].base
        assert keys.shape == values.shape == (1, 2, 10, 4) and keys.dtype == values.dtype == np.float32
        assert all(k.base is keys and v.base is values for k, v in kvs)
        want = np.concatenate(rows, axis=1).transpose(0, 2, 1, 3)
        np.testing.assert_array_equal(kvs[-1][0], want)
        np.testing.assert_array_equal(kvs[-1][1], -want)
        np.testing.assert_array_equal(kvs[0][0], want[:, :, :5])  # earlier views keep their rows


class TestSwiglu:
    def test_zero_input(self):
        p = make_params()
        out = swiglu_ffn(Tensor(np.zeros((1, 2, 8))), p).data
        np.testing.assert_allclose(out, 0.0, atol=1e-8)

    def test_scalar_case(self):
        # d=1, ff=1, unit weights: silu(1) * 1 = 1 / (1 + e^-1)
        p = make_params(d=2, heads=1, ff=1)
        for w in ("w_gate", "w_up", "w_down", "norm1_scale", "norm2_scale"):
            getattr(p, w).data[...] = 1.0
        p.w_gate.data[:] = [[1.0], [0.0]]
        p.w_up.data[:] = [[1.0], [0.0]]
        p.w_down.data[:] = [[1.0, 0.0]]
        out = swiglu_ffn(Tensor(np.array([[[1.0, 0.0]]])), p).data
        np.testing.assert_allclose(out[0, 0, 0], 0.731059, atol=1e-5)

    def test_grad(self):
        p = make_params()
        rng = np.random.default_rng(8)
        check_grad(lambda x: (swiglu_ffn(x, p) * swiglu_ffn(x, p)).sum(), rng.random((1, 3, 8)) * 2 - 1)

    @pytest.mark.parametrize("wrt", ["a", "b"])
    def test_gate_grad_float64(self, wrt, float64):
        rng = np.random.default_rng(22)
        a0, b0 = rng.normal(size=(2, 3, 6)) * 3, rng.normal(size=(2, 3, 6))
        probe = Tensor(rng.normal(size=(2, 3, 6)))
        if wrt == "a":
            check_grad(lambda a: (swiglu_gate(a, Tensor(b0)) * probe).sum(), a0, h=1e-5, tol=1e-6)
        else:
            check_grad(lambda b: (swiglu_gate(Tensor(a0), b) * probe).sum(), b0, h=1e-5, tol=1e-6)

    @pytest.mark.parametrize("shape", [(2, 255, 512), (1, 1, 512)])
    def test_gate_equals_silu_times_b_bit_for_bit(self, shape):
        rng = np.random.default_rng(23)
        a0, b0, g0 = ((rng.normal(size=shape) * 4).astype(np.float32) for _ in range(3))
        runs = []
        for gate in (swiglu_gate, lambda a, b: a.silu() * b):
            a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
            y = gate(a, b)
            (y * Tensor(g0)).sum().backward()
            runs.append([z.dtype.str + z.tobytes().hex() for z in (y.data, a.grad, b.grad)])
        assert runs[0] == runs[1]
        # the forward is the float32 formula a * (1 / (1 + exp(-a))) * b, evaluated in that order
        assert runs[0][0] == "<f4" + (a0 * (1.0 / (1.0 + np.exp(-a0))) * b0).tobytes().hex()

    def test_gate_rejects_operands_of_two_shapes(self):
        with pytest.raises(T.ShapeError):
            swiglu_gate(Tensor(np.ones((2, 3))), Tensor(np.ones((1, 3))))

    def test_taped_ffn_holds_three_hidden_arrays(self):
        # the gate node keeps a and b and the w_down node the product; sigmoid(a) and silu(a) are recomputed
        n, d, ff = 256, 8, 1024
        p = make_params(d=d, ff=ff)
        x = Tensor(np.random.default_rng(24).normal(size=(1, n, d)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = swiglu_ffn(x, p)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        hidden = n * ff * 4
        assert held < 3 * hidden + 2 * n * d * 4 + 64 * 1024, f"{held / hidden:.2f} [N, ff] arrays held"
        y.sum().backward()
        assert x.grad is not None and p.w_gate.grad is not None and p.w_up.grad is not None


class TestLayerBlock:
    def test_zeroed_sublayers_passthrough(self):
        p = make_params()
        p.wo.data[...] = 0.0
        p.w_down.data[...] = 0.0
        rng = np.random.default_rng(9)
        x0 = rng.random((1, 4, 8)).astype(np.float32)
        out = layer_block(Tensor(x0), p).data
        np.testing.assert_allclose(out, x0, atol=1e-7)

    def test_shape_preserved(self):
        p = make_params()
        for t in (1, 3, 7):
            x = Tensor(np.zeros((2, t, 8), dtype=np.float32))
            assert layer_block(x, p).shape == (2, t, 8)

    def test_gradient_reaches_every_parameter(self):
        p = make_params()
        x = Tensor(np.random.default_rng(10).random((1, 4, 8)).astype(np.float32))
        loss = (layer_block(x, p) * layer_block(x, p)).sum()
        loss.backward()
        for name, param in p.named_params().items():
            assert param.grad is not None, name
            assert np.any(param.grad != 0), f"zero gradient for {name}"

    def test_causality_end_to_end(self):
        p = make_params()
        rng = np.random.default_rng(11)
        x0 = rng.random((1, 6, 8)).astype(np.float32)
        base = layer_block(Tensor(x0), p).data
        perturbed = x0.copy()
        perturbed[0, 3:] = rng.random((3, 8))
        out = layer_block(Tensor(perturbed), p).data
        assert np.max(np.abs(out[0, :3] - base[0, :3])) < 1e-6

    def test_input_grad_vs_finite_differences(self):
        p = make_params(d=4, heads=2, ff=6, seed=1)
        rng = np.random.default_rng(12)
        check_grad(lambda x: (layer_block(x, p).softmax(axis=-1)[..., 0]).sum(), rng.random((1, 3, 4)) * 2 - 1)
