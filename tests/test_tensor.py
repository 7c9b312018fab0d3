import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papaformer import tensor as T
from papaformer.tensor import RngState, Tensor, concat, embedding, gumbel_from_uniform, gumbel_noise

from fdcheck import check_grad


def rand(rng, *shape):
    return (rng.random(shape) * 4.0 - 2.0).astype(np.float32)


class TestMatmul:
    def test_identity(self):
        out = Tensor([[1.0, 0.0], [0.0, 1.0]]) @ Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_allclose(out.data, [[3, 4], [5, 6]])

    def test_row_times_column(self):
        out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
        np.testing.assert_allclose(out.data, [[11.0]])

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            Tensor(np.ones((4, 5))) @ Tensor(np.ones((4, 3)))

    def test_grad_of_sum_is_ones_times_bt(self):
        rng = np.random.default_rng(0)
        a = Tensor(rand(rng, 4, 5), requires_grad=True)
        b = Tensor(rand(rng, 5, 3), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((4, 3)) @ b.data.T, rtol=1e-5)

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        b0 = rand(rng, 5, 3)
        check_grad(lambda a: (a @ Tensor(b0)).sum(), rand(rng, 4, 5))
        a0 = rand(rng, 4, 5)
        check_grad(lambda b: (Tensor(a0) @ b).sum(), b0)

    def test_batched(self):
        # a batched right operand is refused: the right operand is always a [d, e] matrix
        rng = np.random.default_rng(2)
        with pytest.raises(T.ShapeError, match=r"\[d, e\]"):
            Tensor(rand(rng, 2, 3, 4)) @ Tensor(rand(rng, 2, 4, 5))

    def test_vector_right_operand_rejected(self):
        with pytest.raises(T.ShapeError):
            Tensor(np.ones((3, 4))) @ Tensor(np.ones(4))

    def test_vector_left_operand_is_one_row(self):
        rng = np.random.default_rng(6)
        w0 = rand(rng, 4, 3)
        out = Tensor(np.ones(4)) @ Tensor(w0)
        assert out.shape == (3,)
        np.testing.assert_allclose(out.data, w0.sum(axis=0), rtol=1e-6)
        check_grad(lambda a: (a @ Tensor(w0)).sum(), rand(rng, 4))


    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 3, 2, 4)], ids=["BTd", "BThd"])
    @pytest.mark.parametrize("wrt", ["activation", "weight"])
    def test_flat_weight_gemm_grad_float64(self, shape, wrt):
        T.set_default_dtype(np.float64)
        try:
            rng = np.random.default_rng(5)
            a0, w0 = rng.normal(size=shape), rng.normal(size=(4, 5))
            probe = Tensor(rng.normal(size=(*shape[:-1], 5)))
            np.testing.assert_allclose((Tensor(a0) @ Tensor(w0)).data, a0 @ w0, rtol=1e-12)
            if wrt == "activation":
                check_grad(lambda a: ((a @ Tensor(w0)) * probe).sum(), a0, h=1e-5, tol=1e-6)
            else:
                check_grad(lambda w: ((Tensor(a0) @ w) * probe).sum(), w0, h=1e-5, tol=1e-6)
        finally:
            T.set_default_dtype(np.float32)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(Tensor([0.0, 0.0, 0.0]).softmax().data, [1 / 3] * 3, atol=1e-7)

    def test_saturation_no_overflow(self):
        out = Tensor([1000.0, 0.0, 0.0]).softmax().data
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-6)
        assert np.all(np.isfinite(out))

    def test_known_values(self):
        # exp/sum evaluated directly
        np.testing.assert_allclose(
            Tensor([1.0, 2.0, 3.0]).softmax().data, [0.09003057, 0.24472847, 0.66524096], atol=1e-5
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_simplex_property(self, seed):
        x = rand(np.random.default_rng(seed), 4, 7)
        p = Tensor(x).softmax(axis=-1).data
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-5)

    def test_grad(self):
        rng = np.random.default_rng(3)
        w0 = rand(rng, 3, 5)
        check_grad(lambda x: (x.softmax(axis=-1) * Tensor(w0)).sum(), rand(rng, 3, 5))


class TestBackward:
    def test_sum_grad_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        x.sum().backward()
        np.testing.assert_allclose(x.grad, [1, 1, 1])

    def test_square_grad(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [2, 4, 6])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).backward()

    def test_accumulation_without_reset(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        x.sum().backward()
        x.sum().backward()
        np.testing.assert_allclose(x.grad, [2, 2])

    def test_second_backward_on_one_graph_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already walked"):
            loss.backward()
        np.testing.assert_allclose(x.grad, [2, 4])

    def test_second_root_reaching_walked_node_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        h = x * 3.0
        (h * h).sum().backward()
        with pytest.raises(RuntimeError, match="already walked"):
            (h * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [18, 36])

    def test_walked_node_in_no_grad_or_leaf_inputs_still_constant(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            c = x * 3.0
        k = Tensor([5.0, 7.0])
        (x * c + k).sum().backward()
        np.testing.assert_allclose(x.grad, [3, 6])

    def test_two_fresh_graphs_over_one_leaf_accumulate(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([3.0, 4.0], requires_grad=True)
        for _ in range(2):
            (x * w).sum().backward()
        np.testing.assert_allclose(x.grad, [6, 8])
        np.testing.assert_allclose(w.grad, [2, 4])

    def test_add_grads_sums_into_grad_in_sink_order(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        sink = {}
        (x * 3.0).sum().backward(sink)
        T.add_grads(sink)
        np.testing.assert_allclose(x.grad, [5, 7])

    def test_sink_takes_the_gradients_and_leaves_grad_alone(self):
        rng = np.random.default_rng(9)
        x0, w0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))

        def loss(x, w):
            h = x @ w
            return (h * h).sum() + (h @ w.transpose()).sum()  # w is reached along two routes

        x, w = Tensor(x0, requires_grad=True), Tensor(w0, requires_grad=True)
        loss(x, w).backward()
        xs, ws = Tensor(x0, requires_grad=True), Tensor(w0, requires_grad=True)
        sink = {}
        loss(xs, ws).backward(sink)
        assert set(sink) == {xs, ws}
        assert xs.grad is None and ws.grad is None
        assert sink[xs].tobytes() == x.grad.tobytes()
        assert sink[ws].tobytes() == w.grad.tobytes()

    def test_walk_frees_interior_nodes_and_keeps_leaves(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        h = x * 3.0
        loss = (h * h).sum()
        loss.backward()
        assert h._node.vertices == () and loss._node.vertices == ()
        assert h._node.backward is T._walked and loss._node.backward is T._walked
        assert x._node is None and x.requires_grad
        np.testing.assert_array_equal(h.data, [3.0, 6.0])

    def test_composite_matmul_softmax_ce(self):
        rng = np.random.default_rng(4)
        w0 = rand(rng, 4, 3)
        targets = np.array([0, 2, 1])

        def loss_fn(x):
            logits = x @ Tensor(w0)
            p = logits.softmax(axis=-1)
            picked = p[np.arange(3), targets]
            return -(picked.log().mean())

        check_grad(loss_fn, rand(rng, 3, 4))


class TestNoGrad:
    def test_results_record_no_tape(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            y = (x * x).sum()
            leaf = Tensor([0.5], requires_grad=True)
        assert y._node is None and leaf._node is None
        assert leaf.requires_grad and x.requires_grad
        assert y.data == 5.0
        z = x * x
        assert z._node.vertices == (x, x) and z._node.backward is not None

    def test_values_match_recorded_forward(self):
        rng = np.random.default_rng(8)
        a, b = Tensor(rand(rng, 3, 4)), Tensor(rand(rng, 4, 5))
        taped = (a @ b).softmax(axis=-1)
        with T.no_grad():
            free = (a @ b).softmax(axis=-1)
        np.testing.assert_array_equal(free.data, taped.data)

    def test_nesting_restores_each_level(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert (x * x)._node is None
        assert (x * x)._node is not None

    def test_flag_restored_after_exception(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(KeyError):
            with T.no_grad():
                raise KeyError("boom")
        assert (x * x)._node.vertices == (x, x)


class TestGumbel:
    def test_analytic_point(self):
        assert abs(gumbel_from_uniform(np.array(0.5)) - 0.36651292) < 1e-6

    def test_fixed_point(self):
        assert abs(gumbel_from_uniform(np.array(np.exp(-1.0)))) < 1e-6

    def test_float32_one_gives_finite_noise(self):
        # 1 - 1e-9 rounds to 1.0 in float32, so the clip must stay an ulp below 1
        g = gumbel_from_uniform(np.float32([1.0, 1 - 2**-26, 1 - 2**-24]))
        assert g.dtype == np.float32
        assert np.isfinite(g).all()

    def test_sample_mean_is_euler_mascheroni(self):
        g = gumbel_noise((100_000,), RngState(7)).data
        assert abs(g.mean() - 0.5772156649) < 0.02


class TestRngState:
    def test_determinism_bit_identical(self):
        a = RngState(42).uniform((100,))
        b = RngState(42).uniform((100,))
        assert a.tobytes() == b.tobytes()

    def test_position_advances_stream(self):
        r = RngState(42)
        first = r.uniform((10,))
        second = r.uniform((10,))
        assert not np.array_equal(first, second)
        # restoring (seed, position) resumes the identical stream
        r2 = RngState(42, position=1)
        assert r2.uniform((10,)).tobytes() == second.tobytes()


class TestShapeOps:
    def test_concat_split_identity(self):
        rng = np.random.default_rng(5)
        x0 = rand(rng, 2, 6)
        t = Tensor(x0)
        back = concat([t[:, 0:2], t[:, 2:4], t[:, 4:6]], axis=1)
        np.testing.assert_array_equal(back.data, x0)

    @given(st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_concat_split_property(self, n, sections):
        x0 = np.arange(n * sections * 2, dtype=np.float32).reshape(n, sections * 2)
        t = Tensor(x0)
        parts = [t[:, 2 * i : 2 * i + 2] for i in range(sections)]
        np.testing.assert_array_equal(concat(parts, axis=1).data, x0)

    def test_concat_grad(self):
        rng = np.random.default_rng(6)
        b0 = rand(rng, 2, 3)

        def loss(a):
            c = concat([a, Tensor(b0)], axis=1)
            return (c * c).sum()

        check_grad(loss, rand(rng, 2, 3))

    def test_transpose_reshape_grads(self):
        rng = np.random.default_rng(7)
        w0 = rand(rng, 4, 6)
        check_grad(lambda x: (x.transpose(1, 0) * Tensor(w0.T)).sum(), w0)
        check_grad(lambda x: (x.reshape(2, 12) * Tensor(w0.reshape(2, 12))).sum(), w0)

    def test_basic_slice_grad_is_placed_by_assignment(self):
        x = Tensor(np.zeros((3, 4, 2), dtype=np.float32), requires_grad=True)
        x[1, ..., None, 0:2:1, -1].sum().backward()
        expect = np.zeros((3, 4, 2), dtype=np.float32)
        expect[1, 0:2, -1] = 1.0
        np.testing.assert_array_equal(x.grad, expect)

    def test_repeated_fancy_index_grad_float64(self):
        T.set_default_dtype(np.float64)
        try:
            rng = np.random.default_rng(10)
            w0 = rng.normal(size=(5, 3))
            idx = np.array([2, 0, 2, 2, 4])
            # row 2 is picked three times, element (2, 1) twice
            check_grad(lambda x: (x[idx] * Tensor(w0)).sum(), rng.normal(size=(6, 3)), h=1e-5, tol=1e-6)
            cols = [1, 1, 0, 1, 2]
            check_grad(lambda x: (x[idx, cols] * Tensor(w0[:, 0])).sum(), rng.normal(size=(6, 3)), h=1e-5, tol=1e-6)
        finally:
            T.set_default_dtype(np.float32)


class TestEmbedding:
    def test_lookup(self):
        table = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        out = embedding(table, np.array([1, 1, 3]))
        np.testing.assert_array_equal(out.data, table.data[[1, 1, 3]])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            embedding(Tensor(np.zeros((4, 3))), np.array([4]))

    def test_scatter_add_grad(self):
        table = Tensor(np.zeros((4, 3), dtype=np.float32), requires_grad=True)
        embedding(table, np.array([1, 1, 2])).sum().backward()
        expected = np.zeros((4, 3))
        expected[1] = 2
        expected[2] = 1
        np.testing.assert_array_equal(table.grad, expected)


@pytest.mark.parametrize(
    "name,fn",
    [
        ("add", lambda x, w: ((x + Tensor(w)) * Tensor(w)).sum()),
        ("mul", lambda x, w: (x * Tensor(w)).sum()),
        ("div", lambda x, w: (x / Tensor(np.abs(w) + 1.0)).sum()),
        ("sqrt", lambda x, w: ((x * x + 1.0).sqrt() * Tensor(w)).sum()),
        ("log", lambda x, w: ((x * x + 0.5).log() * Tensor(w)).sum()),
        ("exp", lambda x, w: ((x * 0.5).exp() * Tensor(w)).sum()),
        ("silu", lambda x, w: (x.silu() * Tensor(w)).sum()),
        ("max", lambda x, w: (x.maximum(Tensor(w)) * Tensor(w)).sum()),
        ("mean", lambda x, w: (x.mean(axis=0) * Tensor(w[0])).sum()),
        ("getitem", lambda x, w: (x[1:, :] * Tensor(w[1:, :])).sum()),
    ],
)
def test_primitive_gradients_five_shapes(name, fn):
    # five random shapes per primitive, inputs in [-2, 2]
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        x0 = rand(rng, *shape)
        w0 = rand(rng, *shape)
        if name == "max":
            # keep elements away from ties so the subgradient is unambiguous
            w0 = w0 + np.where(np.abs(x0 - w0) < 0.05, 0.2, 0.0)
        check_grad(lambda x, w0=w0: fn(x, w0), x0)


def test_cosine_similarity_values_and_grad():
    a = Tensor([[1.0, 0.0], [1.0, 1.0]])
    b = Tensor([[0.0, 1.0], [1.0, 1.0]])
    np.testing.assert_allclose(T.cosine_similarity(a, b).data, [0.0, 1.0], atol=1e-6)
    rng = np.random.default_rng(8)
    b0 = rand(rng, 3, 4)
    check_grad(lambda x: T.cosine_similarity(x, Tensor(b0)).sum(), rand(rng, 3, 4))


def test_float64_mode_tightens_gradcheck():
    T.set_default_dtype(np.float64)
    try:
        rng = np.random.default_rng(9)
        x0 = (rng.random((4, 4)) * 4 - 2)
        b0 = (rng.random((4, 4)) * 4 - 2)
        check_grad(lambda x: ((x @ Tensor(b0)).silu()).sum(), x0, h=1e-5, tol=1e-6)
    finally:
        T.set_default_dtype(np.float32)
