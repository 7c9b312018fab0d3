"""The tape keeps only what backward reads: graph nodes hold closures and vertices, not values."""

import tracemalloc
import weakref

import numpy as np
import pytest

from papaformer import tensor as T
from papaformer.blocks import rmsnorm, rope
from papaformer.losses import cross_entropy, total_loss
from papaformer.model import ModelConfig, build, forward
from papaformer.tensor import RngState, Tensor, concat

SHAPE = (2, 3, 2, 4)  # [B, T, heads, head_dim] for rope; rmsnorm, the CE and the matmul read the last axis
X0 = np.random.default_rng(0).standard_normal(SHAPE).astype(np.float32)
OTHER = Tensor(np.random.default_rng(1).standard_normal(SHAPE).astype(np.float32))
W = Tensor(np.random.default_rng(2).standard_normal((4, 4)).astype(np.float32))
SCALE = Tensor(np.linspace(0.5, 1.5, 4, dtype=np.float32), requires_grad=True)
TARGETS = np.random.default_rng(3).integers(0, 4, SHAPE[:-1])


def doubled(x):
    return x * 2.0


def projected(x):
    return x @ W


# (make the operand from the leaf x, the op under test); no op's backward reads its operand's value
CASES = {
    "add": (doubled, lambda h: h + OTHER),
    "sub": (doubled, lambda h: h - OTHER),
    "reshape": (doubled, lambda h: h.reshape(6, 8)),
    "transpose": (doubled, lambda h: h.transpose(0, 2, 1, 3)),
    "concat": (doubled, lambda h: concat([h, OTHER], axis=1)),
    "getitem_basic": (doubled, lambda h: h[:, 1:]),
    "getitem_advanced": (doubled, lambda h: h[np.array([1, 0, 1])]),
    "sum": (doubled, lambda h: h.sum(axis=-1)),
    "rope": (doubled, lambda h: rope(h, np.arange(SHAPE[1]))),
    "rmsnorm_input": (doubled, lambda h: rmsnorm(h, SCALE)),
    "cross_entropy_logits": (doubled, lambda h: cross_entropy(h, TARGETS)),
    "matmul_output": (projected, lambda h: h),
}


def walk(make, op, keep: bool) -> tuple:
    """(whether the operand's array died when the caller dropped it, x's gradient)."""
    x = Tensor(X0.copy(), requires_grad=True)
    h = make(x)
    ref = weakref.ref(h.data)
    y = op(h)
    weights = np.random.default_rng(4).standard_normal(y.shape).astype(np.float32)
    loss = (y * weights).sum()
    del y
    kept = h if keep else None
    del h
    freed = ref() is None
    loss.backward()
    del kept
    return freed, x.grad


@pytest.mark.parametrize("case", sorted(CASES))
def test_value_no_backward_reads_dies_with_its_tensor(case):
    make, op = CASES[case]
    freed, grad = walk(make, op, keep=False)
    assert freed, f"the graph of {case} still holds its operand's value"
    held, reference = walk(make, op, keep=True)
    assert not held
    assert grad.tobytes() == reference.tobytes()


def closure_contents(fn) -> list:
    """Everything ``fn``'s closure reaches through nested functions and containers."""
    out, stack, seen = [], [fn], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        out.append(obj)
        if callable(obj) and getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # a cell not yet filled
                    pass
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
    return out


def test_no_closure_in_a_training_graph_holds_a_tensor():
    config = ModelConfig(
        vocab_size=17, d_model=16, d_path=8, n_layer_blocks=2, n_parallel_layers=1, k_paths=2, heads_layer=2,
        heads_path=2, ff_layer=24, ff_path=16, max_seq_len=8, connection_kind="gumbel_v1",
    )
    model = build(config, RngState(3))
    tokens = np.random.default_rng(0).integers(0, config.vocab_size, size=(2, 8))
    logits, records = forward(model, tokens[:, :-1], rng=RngState(1), training=True)
    total = total_loss(cross_entropy(logits, tokens[:, 1:]), records).total
    assert set(T._Node.__slots__) == {"backward", "vertices"}
    nodes, stack, seen = [], [total._node], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        for v in node.vertices:
            if type(v) is T._Node:
                stack.append(v)
            else:
                assert v is None or (isinstance(v, Tensor) and v._node is None and v.requires_grad), v
    assert len(nodes) > 100
    for node in nodes:
        held = [type(obj).__name__ for obj in closure_contents(node.backward) if isinstance(obj, Tensor)]
        assert not held, f"{node.backward.__qualname__} holds {held}"


def test_cross_entropy_holds_one_logits_sized_array():
    n, v, d = 256, 4096, 8
    rng = np.random.default_rng(5)
    h = Tensor(rng.standard_normal((n, d)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((d, v)).astype(np.float32), requires_grad=True)
    targets = rng.integers(0, v, n)
    logits = h @ w
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cross_entropy(logits, targets).backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert h.grad is not None and w.grad is not None
    assert peak < 1.25 * n * v * 4, f"peak {peak} bytes beyond the logits, against {n * v * 4} for one [N, V] array"
