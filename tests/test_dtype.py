"""The tape computes in the parameters' dtype, in float32 and in float64 mode."""

import numpy as np
import pytest

from papaformer import tensor as T
from papaformer.losses import cross_entropy, total_loss
from papaformer.model import ModelConfig, build, forward
from papaformer.tensor import RngState, Tensor
from papaformer.trainer import OptimizerState, TrainConfig, adamw_step


def gumbel_config():
    return ModelConfig(
        vocab_size=17,
        d_model=16,
        d_path=8,
        n_layer_blocks=2,
        n_parallel_layers=2,
        k_paths=2,
        heads_layer=2,
        heads_path=2,
        ff_layer=24,
        ff_path=16,
        max_seq_len=8,
        connection_kind="gumbel_v1",
    )


def training_loss(model, seed=0):
    tokens = np.random.default_rng(seed).integers(0, model.config.vocab_size, size=(2, 8))
    logits, records = forward(model, tokens[:, :-1], rng=RngState(seed + 1), training=True)
    breakdown = total_loss(cross_entropy(logits, tokens[:, 1:]), records)
    return logits, records, breakdown


@pytest.fixture
def made(monkeypatch) -> list:
    """Every Tensor made from here on; the graph holds no values, so the step's values are seen where they are made."""
    tensors = []
    init = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tensors.append(self)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    return tensors


@pytest.fixture
def float64_mode():
    T.set_default_dtype(np.float64)
    try:
        yield
    finally:
        T.set_default_dtype(np.float32)


def assert_whole_step_in(dtype):
    model = build(gumbel_config(), RngState(3))
    params = model.named_params()
    assert all(p.data.dtype == dtype for p in params.values())
    logits, records, breakdown = training_loss(model)
    assert logits.data.dtype == dtype
    assert [r.pi.data.dtype for r in records] == [dtype, dtype]
    for part in (breakdown.ce, breakdown.entropy, breakdown.load, breakdown.total):
        assert part.data.dtype == dtype
    breakdown.total.backward()
    for name, p in params.items():
        assert p.grad is not None and p.grad.dtype == dtype, name
    opt = OptimizerState.init(params)
    adamw_step(params, opt, 1e-3, TrainConfig())
    for name, p in params.items():
        assert p.data.dtype == dtype, name
        assert opt.m[name].dtype == dtype and opt.v[name].dtype == dtype, name
    return breakdown


def test_float32_parameters_give_a_float32_step():
    assert_whole_step_in(np.float32)


def test_float64_mode_keeps_the_whole_step_float64(float64_mode, made):
    assert_whole_step_in(np.float64)
    assert {t.data.dtype for t in made} == {np.dtype(np.float64)}


def test_float32_training_tape_has_no_float64_node(made):
    model = build(gumbel_config(), RngState(4))
    _, _, breakdown = training_loss(model, seed=5)
    assert len(made) > 100
    assert [t.shape for t in made if t.data.dtype != np.float32] == []


def test_scalar_operands_are_weak():
    x = Tensor(np.ones(3, dtype=np.float32))
    for y in (x + 1.0, 2.0 - x, x * np.float64(0.5), x / np.asarray(3.0), x.maximum(0.5), x.mean(), x - 1):
        assert y.data.dtype == np.float32


def test_array_operands_keep_numpy_promotion():
    x = Tensor(np.ones(3, dtype=np.float32))
    assert (x * np.ones(3)).data.dtype == np.float64
    assert (x + Tensor(np.float64(1.0))).data.dtype == np.float64
    assert (Tensor(np.ones(3)) * 2.0).data.dtype == np.float64
