import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papaformer.blocks import ConfigError, LayerBlockParams
from papaformer.parallel import (
    GumbelConfig,
    GumbelParams,
    ParallelLayerParams,
    ShareLinearParams,
    concat_paths,
    gumbel_softmax,
    gumbel_v1_forward,
    gumbel_v2_forward,
    parallel_layer_forward,
    run_paths,
)
from papaformer.tensor import RngState, Tensor

from fdcheck import check_grad

D_PATH = 4
K = 2


def path_params(seed=0, d=D_PATH, heads=2, ff=6):
    return LayerBlockParams.init(d, heads, ff, RngState(seed))


def make_layer(kind, final=False, seed=0):
    """A K-path layer; a final share_linear layer expands to K * D_PATH."""
    paths = [path_params(seed=30 + seed), path_params(seed=40 + seed)]
    if kind == "share_linear":
        conn = ShareLinearParams.init(K, D_PATH, K * D_PATH if final else D_PATH, RngState(50 + seed))
    else:
        conn = GumbelParams.init(1 if kind == "gumbel_v1" else 2, K, D_PATH, RngState(50 + seed))
    return ParallelLayerParams(paths=paths, connection=conn, final=final)


def rand_outputs(rng, k=K, b=1, t=3, d=D_PATH):
    return [Tensor((rng.random((b, t, d)) * 2 - 1).astype(np.float32)) for _ in range(k)]


class TestRunPaths:
    def test_identical_paths_identical_outputs(self):
        p = path_params(seed=3)
        x = Tensor(np.random.default_rng(1).random((1, 3, D_PATH)).astype(np.float32))
        o1, o2 = run_paths(x, [p, p])
        np.testing.assert_array_equal(o1.data, o2.data)

    def test_path_independence(self):
        p1, p2 = path_params(seed=1), path_params(seed=2)
        x = Tensor(np.random.default_rng(2).random((1, 3, D_PATH)).astype(np.float32))
        base = run_paths(x, [p1, p2])[1].data
        p1.wq.data += 1.0
        after = run_paths(x, [p1, p2])[1].data
        np.testing.assert_array_equal(base, after)

    def test_output_shapes(self):
        outs = run_paths(Tensor(np.zeros((2, 3, D_PATH), dtype=np.float32)), [path_params(), path_params(4)])
        assert all(o.shape == (2, 3, D_PATH) for o in outs)


class TestConcatPaths:
    def test_order(self):
        out = concat_paths([Tensor([[[1.0]]]), Tensor([[[2.0]]])])
        np.testing.assert_array_equal(out.data, [[[1.0, 2.0]]])

    def test_recovers_full_width(self):
        outs = [Tensor(np.zeros((1, 2, 128), dtype=np.float32)) for _ in range(2)]
        assert concat_paths(outs).shape == (1, 2, 256)

    def test_split_after_concat_identity(self):
        rng = np.random.default_rng(3)
        outs = rand_outputs(rng)
        cat = concat_paths(outs)
        back = [cat[..., i * D_PATH : (i + 1) * D_PATH] for i in range(K)]
        for a, b in zip(outs, back):
            np.testing.assert_array_equal(a.data, b.data)


class TestShareLinear:
    def test_projection_onto_path1(self):
        rng = np.random.default_rng(4)
        outs = rand_outputs(rng)
        w = Tensor(np.vstack([np.eye(D_PATH), np.zeros((D_PATH, D_PATH))]).astype(np.float32))
        np.testing.assert_allclose((concat_paths(outs) @ w).data, outs[0].data, atol=1e-6)

    def test_mean_of_two_paths(self):
        rng = np.random.default_rng(5)
        outs = rand_outputs(rng)
        w = Tensor(0.5 * np.vstack([np.eye(D_PATH), np.eye(D_PATH)]).astype(np.float32))
        np.testing.assert_allclose(
            (concat_paths(outs) @ w).data, 0.5 * (outs[0].data + outs[1].data), atol=1e-6
        )

    def test_grad_through_both_paths(self):
        rng = np.random.default_rng(6)
        w = Tensor((rng.random((2 * D_PATH, D_PATH)) - 0.5).astype(np.float32))
        o2 = rand_outputs(rng)[1]

        def loss(x):
            y = concat_paths([x, x * 2.0 + o2]) @ w
            return (y * y).sum()

        check_grad(loss, rng.random((1, 3, D_PATH)))


class TestGumbelSoftmax:
    def test_equal_logits_uniform(self):
        cfg = GumbelConfig(temperature=0.37)
        pi = gumbel_softmax(Tensor(np.zeros((2, 3))), cfg, training=False).data
        np.testing.assert_allclose(pi, 1.0 / 3.0, atol=1e-6)

    def test_saturation(self):
        pi = gumbel_softmax(Tensor([[10.0, 0.0, 0.0]]), GumbelConfig(), training=False).data
        assert pi[0, 0] > 0.9999

    def test_temperature_annealing_with_frozen_noise(self):
        logits = Tensor(np.random.default_rng(7).normal(size=(4, 3)).astype(np.float32))
        prev_max = None
        prev_arg = None
        for tau in (1.0, 0.1, 0.01):
            pi = gumbel_softmax(logits, GumbelConfig(temperature=tau), rng=RngState(11), training=True).data
            arg = np.argmax(pi, axis=-1)
            if prev_arg is not None:
                np.testing.assert_array_equal(arg, prev_arg)
                assert np.all(pi.max(axis=-1) >= prev_max - 1e-7)
            prev_arg, prev_max = arg, pi.max(axis=-1)
        assert np.all(prev_max > 0.999)

    def test_training_requires_rng(self):
        with pytest.raises(ConfigError):
            gumbel_softmax(Tensor(np.zeros((1, 3))), GumbelConfig(), training=True)

    def test_invalid_temperature(self):
        with pytest.raises(ConfigError):
            GumbelConfig(temperature=0.0)

    @given(st.integers(0, 2**31 - 1), st.floats(0.05, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_simplex_property(self, seed, tau):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.normal(size=(3, K + 1)).astype(np.float32) * 5)
        pi = gumbel_softmax(logits, GumbelConfig(temperature=tau), rng=RngState(seed), training=True).data
        assert np.all(pi >= 0)
        np.testing.assert_allclose(pi.sum(axis=-1), 1.0, atol=1e-5)


def one_hot_pi(slot, b=1, t=3, slots=K + 1):
    pi = np.zeros((b, t, slots), dtype=np.float32)
    pi[..., slot] = 1.0
    return Tensor(pi)


class TestGumbelV1:
    def test_router_shapes(self):
        p = GumbelParams.init(1, K, D_PATH, RngState(0))
        assert p.w_router.shape == (D_PATH, K + 1)
        assert p.w_combine.shape == (K * D_PATH, D_PATH)

    def test_forced_one_hot_path2(self):
        rng = np.random.default_rng(8)
        outs = rand_outputs(rng)
        p = GumbelParams.init(1, K, D_PATH, RngState(1))
        y, _ = gumbel_v1_forward(outs, p, GumbelConfig(), forced_pi=one_hot_pi(1))
        np.testing.assert_allclose(y.data, outs[1].data, atol=1e-6)

    def test_forced_one_hot_combined(self):
        rng = np.random.default_rng(9)
        outs = rand_outputs(rng)
        p = GumbelParams.init(1, K, D_PATH, RngState(2))
        y, _ = gumbel_v1_forward(outs, p, GumbelConfig(), forced_pi=one_hot_pi(K))
        x_comb = (concat_paths(outs) @ p.w_combine).data
        np.testing.assert_allclose(y.data, x_comb, atol=1e-6)


class TestGumbelV2:
    def test_router_shapes(self):
        p = GumbelParams.init(2, K, D_PATH, RngState(0))
        assert p.w_router.shape == (K * D_PATH, K + 1)

    def test_forced_one_hot_path1(self):
        rng = np.random.default_rng(10)
        outs = rand_outputs(rng)
        p = GumbelParams.init(2, K, D_PATH, RngState(3))
        y, _ = gumbel_v2_forward(outs, p, GumbelConfig(), forced_pi=one_hot_pi(0))
        np.testing.assert_allclose(y.data, outs[0].data, atol=1e-6)

    def test_v1_v2_match_under_forced_pi_and_shared_combine(self):
        rng = np.random.default_rng(11)
        outs = rand_outputs(rng)
        p1 = GumbelParams.init(1, K, D_PATH, RngState(4))
        p2 = GumbelParams.init(2, K, D_PATH, RngState(5))
        p2.w_combine.data[...] = p1.w_combine.data
        pi = Tensor(np.random.default_rng(12).dirichlet(np.ones(K + 1), size=(1, 3)).astype(np.float32))
        y1, _ = gumbel_v1_forward(outs, p1, GumbelConfig(), forced_pi=pi)
        y2, _ = gumbel_v2_forward(outs, p2, GumbelConfig(), forced_pi=pi)
        np.testing.assert_allclose(y1.data, y2.data, atol=1e-6)

    def test_variant_mismatch_rejected(self):
        p = GumbelParams.init(1, K, D_PATH, RngState(6))
        with pytest.raises(ConfigError):
            gumbel_v2_forward([], p, GumbelConfig())


class TestRoutingGradients:
    def test_gradients_reach_router_combine_and_paths(self):
        layer = make_layer("gumbel_v1", seed=1)
        x = Tensor(np.random.default_rng(13).random((1, 3, D_PATH)).astype(np.float32))
        y, rec = parallel_layer_forward(x, layer, GumbelConfig(), rng=RngState(8), training=True)
        (y * y).sum().backward()
        for name, p in layer.named_params().items():
            assert p.grad is not None and np.any(p.grad != 0), name

    def test_directional_fd_with_frozen_noise(self):
        layer = make_layer("gumbel_v2", seed=2)

        def loss(x):
            y, _ = parallel_layer_forward(x, layer, GumbelConfig(), rng=RngState(10), training=True)
            return (y * y).sum()

        check_grad(loss, np.random.default_rng(14).random((1, 3, D_PATH)))

    def test_path_independence_of_gradients_under_zero_weight(self):
        # with pi_i = 0, path j's gradient is unaffected by path i's output
        layer = make_layer("gumbel_v1", seed=3)
        conn = layer.connection
        x = Tensor(np.random.default_rng(15).random((1, 3, D_PATH)).astype(np.float32))
        pi = np.zeros((1, 3, K + 1), dtype=np.float32)
        pi[..., 1] = 1.0

        def grads_for_path1():
            outs = run_paths(x, layer.paths)
            y, _ = gumbel_v1_forward(outs, conn, GumbelConfig(), forced_pi=Tensor(pi))
            loss = (y * y).sum()
            for p in layer.paths[1].named_params().values():
                p.zero_grad()
            conn.w_combine.zero_grad()
            loss.backward()
            return {n: p.grad.copy() for n, p in layer.paths[1].named_params().items()}

        base = grads_for_path1()
        # mixture term for path 0 is weighted zero; x_comb still sees path 0, so
        # neutralize it through the combine weights slice
        conn.w_combine.data[:D_PATH, :] = 0.0
        g1 = grads_for_path1()
        layer.paths[0].wo.data += 0.5
        g2 = grads_for_path1()
        for n in g1:
            np.testing.assert_allclose(g1[n], g2[n], atol=1e-7)


class TestParallelLayerForward:
    @pytest.mark.parametrize("kind", ["share_linear", "gumbel_v1", "gumbel_v2"])
    def test_stacking_preserves_shape(self, kind):
        x = Tensor(np.random.default_rng(16).random((1, 3, D_PATH)).astype(np.float32))
        for i in range(3):
            layer = make_layer(kind, seed=i)
            x, _ = parallel_layer_forward(x, layer, GumbelConfig(), rng=RngState(70 + i), training=True)
            assert x.shape == (1, 3, D_PATH)

    @pytest.mark.parametrize("kind", ["gumbel_v1", "gumbel_v2"])
    def test_one_routing_record_per_forward(self, kind):
        x = Tensor(np.random.default_rng(17).random((1, 3, D_PATH)).astype(np.float32))
        _, rec = parallel_layer_forward(x, make_layer(kind), GumbelConfig(), training=False)
        assert rec.pi.shape == (1, 3, K + 1)

    def test_share_linear_final_expands(self):
        x = Tensor(np.random.default_rng(18).random((1, 3, D_PATH)).astype(np.float32))
        y, _ = parallel_layer_forward(x, make_layer("share_linear", final=True), GumbelConfig())
        assert y.shape == (1, 3, K * D_PATH)

    @pytest.mark.parametrize("kind", ["gumbel_v1", "gumbel_v2"])
    def test_gumbel_final_restores_width_by_concat(self, kind):
        x = Tensor(np.random.default_rng(19).random((1, 3, D_PATH)).astype(np.float32))
        layer = make_layer(kind, final=True)
        y, rec = parallel_layer_forward(x, layer, GumbelConfig(), training=False)
        assert y.shape == (1, 3, K * D_PATH)
        outs = run_paths(x, layer.paths)
        np.testing.assert_allclose(y.data, concat_paths(outs).data, atol=1e-6)
        assert rec.pi.shape == (1, 3, K + 1)

    @pytest.mark.parametrize("kind", ["gumbel_v1", "gumbel_v2"])
    def test_final_layer_skips_mixture_but_keeps_pi(self, kind):
        x = Tensor(np.random.default_rng(20).random((2, 3, D_PATH)).astype(np.float32))
        layer = make_layer(kind, final=True)
        y, rec = parallel_layer_forward(x, layer, GumbelConfig(), rng=RngState(5), training=True)
        mixed, inner = parallel_layer_forward(x, make_layer(kind), GumbelConfig(), rng=RngState(5), training=True)
        np.testing.assert_array_equal(y.data, concat_paths(run_paths(x, layer.paths)).data)
        np.testing.assert_array_equal(rec.pi.data, inner.pi.data)
        assert not np.allclose(mixed.data, y.data[..., :D_PATH])
        # with the mixture gone, the final v2 combine weight is off the tape
        ((y * y).sum() + rec.pi.sum()).backward()
        assert (layer.connection.w_combine.grad is None) == (kind == "gumbel_v2")

    def test_parameter_count_matches_closed_form(self):
        # k=2, d'=128, d=256 with the preset path dims: heads 4, ff 512
        k, dp, ff = 2, 128, 512
        paths = [LayerBlockParams.init(dp, 4, ff, RngState(s)) for s in (0, 1)]
        for variant in (1, 2):
            conn = GumbelParams.init(variant, k, dp, RngState(2))
            layer = ParallelLayerParams(paths=paths, connection=conn)
            total = sum(p.size for p in layer.named_params().values())
            per_block = 4 * dp * dp + 3 * dp * ff + 2 * dp
            router_in = dp if variant == 1 else k * dp
            expected = k * per_block + k * dp * dp + router_in * (k + 1)
            assert total == expected
