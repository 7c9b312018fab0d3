import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papaformer.losses import cross_entropy, entropy_loss, load_balance_loss, total_loss
from papaformer.parallel import RoutingWeights
from papaformer import tensor as T
from papaformer.tensor import Tensor

from fdcheck import check_grad


def simplex_batch(seed, b=2, t=3, slots=3):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(slots) * rng.uniform(0.2, 3.0), size=(b, t)).astype(np.float32)


class TestCrossEntropy:
    def test_uniform_logits(self):
        ce = cross_entropy(Tensor(np.zeros((5, 4))), np.zeros(5, dtype=np.int64))
        assert abs(float(ce.data) - np.log(4)) < 1e-6

    def test_saturated_logits(self):
        logits = np.full((3, 4), -50.0, dtype=np.float32)
        logits[np.arange(3), [1, 2, 0]] = 50.0
        ce = cross_entropy(Tensor(logits), np.array([1, 2, 0]))
        assert float(ce.data) < 1e-5

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 7)).astype(np.float32)
        targets = rng.integers(0, 7, size=5)
        ce = float(cross_entropy(Tensor(logits), targets).data)
        # independent oracle: -mean log softmax at the target
        ref = -np.mean(
            [logits[i, t] - np.log(np.exp(logits[i] - logits[i].max()).sum()) - logits[i].max() for i, t in enumerate(targets)]
        )
        assert abs(ce - ref) < 1e-6

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, 4]))

    def test_grad(self):
        rng = np.random.default_rng(1)
        targets = rng.integers(0, 6, size=4)
        check_grad(lambda x: cross_entropy(x, targets), rng.normal(size=(4, 6)))

    def test_grad_on_sharply_peaked_rows_float64(self):
        # the target's probability is ~1e-17, where log(p + 1e-12) had a biased slope
        T.set_default_dtype(np.float64)
        try:
            logits = np.array([[40.0, 0.0, 1.0, -2.0], [0.5, -1.0, 35.0, 0.0]])
            targets = np.array([3, 1])
            check_grad(lambda x: cross_entropy(x, targets), logits, h=1e-5, tol=1e-6)
            x = Tensor(logits, requires_grad=True)
            ce = cross_entropy(x, targets)
            ce.backward()
            lse = logits.max(axis=-1) + np.log(np.exp(logits - logits.max(axis=-1, keepdims=True)).sum(axis=-1))
            np.testing.assert_allclose(float(ce.data), np.mean(lse - logits[[0, 1], targets]), rtol=1e-12)
            expect = np.exp(logits - lse[:, None])
            expect[[0, 1], targets] -= 1.0
            np.testing.assert_allclose(x.grad, expect / 2, atol=1e-15)
        finally:
            T.set_default_dtype(np.float32)

    def test_batched_3d(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(2, 3, 5)).astype(np.float32)
        targets = rng.integers(0, 5, size=(2, 3))
        ce = float(cross_entropy(Tensor(logits), targets).data)
        flat = float(cross_entropy(Tensor(logits.reshape(6, 5)), targets.reshape(6)).data)
        assert abs(ce - flat) < 1e-7


class TestEntropyLoss:
    def test_uniform_rows(self):
        pi = Tensor(np.full((2, 4, 3), 1 / 3, dtype=np.float32))
        assert abs(float(entropy_loss(pi).data) - np.log(3)) < 1e-6

    def test_one_hot_rows(self):
        pi = np.zeros((1, 5, 3), dtype=np.float32)
        pi[..., 1] = 1.0
        assert abs(float(entropy_loss(Tensor(pi)).data)) < 1e-6

    def test_hand_computed_mixed_rows(self):
        pi = Tensor(np.array([[[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]], dtype=np.float32))
        assert abs(float(entropy_loss(pi).data) - np.log(2) / 2) < 1e-6

    def test_grad(self):
        check_grad(lambda x: entropy_loss(x.softmax(axis=-1)), np.random.default_rng(3).normal(size=(2, 3, 4)))


class TestLoadBalanceLoss:
    def test_all_uniform(self):
        pi = Tensor(np.full((2, 4, 3), 1 / 3, dtype=np.float32))
        assert abs(float(load_balance_loss(pi).data) - np.log(3)) < 1e-6

    def test_all_one_hot_same_slot(self):
        pi = np.zeros((1, 5, 3), dtype=np.float32)
        pi[..., 0] = 1.0
        assert abs(float(load_balance_loss(Tensor(pi)).data)) < 1e-5

    def test_two_tokens_opposite_slots(self):
        pi = Tensor(np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]], dtype=np.float32))
        assert abs(float(load_balance_loss(pi).data) - np.log(2)) < 1e-6


class TestBounds:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_jensen(self, seed):
        pi = Tensor(simplex_batch(seed))
        ent = float(entropy_loss(pi).data)
        load = float(load_balance_loss(pi).data)
        bound = np.log(pi.shape[-1])
        assert -1e-6 <= ent <= bound + 1e-6
        assert -1e-6 <= load <= bound + 1e-6
        # entropy of the mean >= mean entropy
        assert load >= ent - 1e-5


class TestTotalLoss:
    def records(self, *seeds):
        return [RoutingWeights(pi=Tensor(simplex_batch(s))) for s in seeds]

    def test_zero_lambda_reduces_to_ce(self):
        ce = Tensor(1.5)
        out = total_loss(ce, self.records(0), lambda_entropy=0.0, lambda_load=0.0)
        assert float(out.total.data) == pytest.approx(1.5)

    def test_defaults_assemble_weighted_sum(self):
        ce = Tensor(2.0)
        recs = self.records(1, 2)
        out = total_loss(ce, recs)
        expected = 2.0 + 0.01 * float(out.entropy.data) + 0.01 * float(out.load.data)
        assert float(out.total.data) == pytest.approx(expected, abs=1e-6)
        # aux terms are layer averages
        per_layer_ent = [float(entropy_loss(r.pi).data) for r in recs]
        assert float(out.entropy.data) == pytest.approx(np.mean(per_layer_ent), abs=1e-6)

    def test_no_records_means_ce_only(self):
        out = total_loss(Tensor(0.7), [])
        assert float(out.entropy.data) == 0.0
        assert float(out.load.data) == 0.0
        assert float(out.total.data) == pytest.approx(0.7)

    def test_invariant_of_breakdown(self):
        out = total_loss(Tensor(1.0), self.records(4), lambda_entropy=0.02, lambda_load=0.03)
        assert float(out.total.data) == pytest.approx(
            float(out.ce.data) + 0.02 * float(out.entropy.data) + 0.03 * float(out.load.data),
            abs=1e-6,
        )

    def test_gradient_reaches_pi_through_total(self):
        logits = Tensor(np.random.default_rng(5).normal(size=(1, 3, 3)).astype(np.float32), requires_grad=True)
        pi = logits.softmax(axis=-1)
        out = total_loss(Tensor(1.0), [RoutingWeights(pi=pi)])
        out.total.backward()
        assert logits.grad is not None and np.any(logits.grad != 0)
