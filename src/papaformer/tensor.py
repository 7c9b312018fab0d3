"""Dense float tensors with reverse-mode automatic differentiation.

Every recorded operation gives its result a graph node: the backward closure
and one vertex per operand, which is the operand's own node, the operand
itself when it is a leaf, or None for a constant. A closure captures only
the arrays and shapes its backward reads, never a Tensor, and nothing in the
graph points back at a result's value, so a value no backward reads is freed
as soon as the forward drops it. Calling ``backward()`` on a scalar loss
walks the nodes in reverse topological order, accumulates gradients into
every leaf that has ``requires_grad`` set, and frees each node's closure and
vertices once it has run, so the graph can be walked once. Under
``no_grad()`` nothing is recorded: results keep their values and get no node.

The tape computes in the dtype of its operands. Parameters and random draws
are created in the default dtype, float32; ``set_default_dtype`` switches
them to float64 for tighter gradient checking. A non-Tensor operand that is
a scalar or a 0-d array is weak: it takes the dtype of the Tensor it meets,
so constants never promote a float32 graph. Array operands and Tensors keep
NumPy's promotion rules, so a float64 input still lifts a float32 graph to
float64 (the finite-difference oracles rely on this).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_default_dtype = np.float32
COSINE_EPS = 1e-12  # keeps cosine_similarity finite at a zero vector


def set_default_dtype(dtype) -> None:
    global _default_dtype
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"unsupported dtype {dtype!r}")
    _default_dtype = dtype


def default_dtype():
    return _default_dtype


_recording = True  # read only by Tensor.__init__; set by no_grad


@contextmanager
def no_grad():
    """Record no tape inside the block: new Tensors get no graph node.

    Ops still build their closures and hand them to ``Tensor.__init__``, which
    drops them here, so each op keeps one code path. ``requires_grad`` keeps
    the value it is given. The previous state returns on exit, so blocks nest.
    The flag is process-wide: entering ``no_grad`` on one thread stops the tape
    on every thread, so a ``no_grad`` block on another thread while ``train``
    runs its micro-batch workers would leave their graphs unrecorded.
    """
    global _recording
    outer, _recording = _recording, False
    try:
        yield
    finally:
        _recording = outer


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NonFiniteError(FloatingPointError):
    """A NaN or Inf surfaced where only finite values are allowed."""


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(_default_dtype)
    return arr


def _constant(value, like: np.ndarray) -> np.ndarray:
    """A non-Tensor operand as an array; scalars and 0-d arrays take ``like``'s dtype."""
    arr = _as_array(value)
    return arr.astype(like.dtype, copy=False) if arr.ndim == 0 else arr


def _is_basic(key) -> bool:
    """True when ``key`` holds only ints, slices, ``...`` and ``None``: no element repeats."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        k is None
        or k is Ellipsis
        or isinstance(k, slice)
        or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
        for k in parts
    )


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class _Node:
    """A recorded op's place in the graph: its backward closure and one vertex per operand.

    A vertex is the operand's own node, the operand itself when it is a leaf
    with ``requires_grad``, or None for a constant. ``backward(g)`` returns
    one gradient per vertex, in operand order.
    """

    __slots__ = ("backward", "vertices")

    def __init__(self, backward, vertices: tuple):
        self.backward = backward
        self.vertices = vertices


class Tensor:
    """A dense n-d value participating in reverse-mode differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad = None
        if _recording and _backward is not None:
            self._node = _Node(_backward, tuple([p._node or (p if p.requires_grad else None) for p in _parents]))
        else:
            self._node = None

    # -- introspection ----------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph ------------------------------------------------------------

    def backward(self, sink: dict | None = None) -> None:
        """Accumulate d(self)/d(leaf) into every requires_grad leaf.

        ``self`` must be a scalar. The walk adds each leaf's gradient into
        ``sink[leaf]``. Without a ``sink`` it walks into a fresh one and then
        adds that into ``.grad`` with ``add_grads``, so repeated calls on fresh
        graphs without ``zero_grad`` accumulate, matching gradient-accumulation
        training. With a ``sink``, ``leaf.grad`` is not touched, so backward
        walks on other threads over graphs that share leaves write nothing
        shared.
        Each node's closure and vertices are dropped as soon as it has run, so
        the arrays its closure holds are released during the walk; leaves are
        untouched. A walked node keeps a closure that raises, so a later
        ``backward`` that reaches it, from the same root or another, raises
        RuntimeError instead of silently stopping there.
        """
        if self.size != 1:
            raise ValueError(f"backward() requires a scalar loss, got shape {self.shape}")
        root = self._node or self
        topo: list = []
        seen: set = set()
        stack = [(root, False)]
        while stack:
            vertex, processed = stack.pop()
            if processed:
                topo.append(vertex)
                continue
            if vertex in seen:
                continue
            seen.add(vertex)
            stack.append((vertex, True))
            if type(vertex) is _Node:
                for p in vertex.vertices:
                    if p is not None and p not in seen:
                        stack.append((p, False))
        walk = {} if sink is None else sink
        grads = {root: np.ones_like(self.data)}
        while topo:
            vertex = topo.pop()
            g = grads.pop(vertex, None)
            if g is None:
                continue
            if type(vertex) is _Node:
                for p, pg in zip(vertex.vertices, vertex.backward(g), strict=True):
                    if p is not None:
                        acc = grads.get(p)
                        grads[p] = pg if acc is None else acc + pg
                vertex.backward, vertex.vertices = _walked, ()
            elif vertex.requires_grad:
                held = walk.get(vertex)
                walk[vertex] = g.copy() if held is None else held + g
        if sink is None:
            add_grads(walk)

    # -- arithmetic -------------------------------------------------------
    # Each closure captures only the arrays and shapes its backward reads, never
    # a Tensor, so a value no backward reads dies with its Tensor. Shapes come
    # from ``.data.shape``, a slot read: ops build their closures under no_grad too.

    def __add__(self, other) -> "Tensor":
        a_shape = self.data.shape
        if not isinstance(other, Tensor):
            out_data = self.data + _constant(other, self.data)
            return Tensor(out_data, _parents=(self,), _backward=lambda g: (_unbroadcast(g, a_shape),))
        b_shape = other.data.shape

        def bwd(g):
            return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

        return Tensor(self.data + other.data, _parents=(self, other), _backward=bwd)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor(-self.data, _parents=(self,), _backward=lambda g: (-g,))

    def __sub__(self, other) -> "Tensor":
        if not isinstance(other, Tensor):
            return self + (-_constant(other, self.data))
        return self + (-other)

    def __rsub__(self, other) -> "Tensor":
        return (-self) + other

    def __mul__(self, other) -> "Tensor":
        a = self.data
        if not isinstance(other, Tensor):
            c = _constant(other, a)
            a_shape = a.shape
            return Tensor(a * c, _parents=(self,), _backward=lambda g: (_unbroadcast(g * c, a_shape),))
        b = other.data

        def bwd(g):
            return _unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)

        return Tensor(a * b, _parents=(self, other), _backward=bwd)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        a = self.data
        if not isinstance(other, Tensor):
            c = _constant(other, a)
            a_shape = a.shape
            return Tensor(a / c, _parents=(self,), _backward=lambda g: (_unbroadcast(g / c, a_shape),))
        b = other.data

        def bwd(g):
            return _unbroadcast(g / b, a.shape), _unbroadcast(-g * a / (b * b), b.shape)

        return Tensor(a / b, _parents=(self, other), _backward=bwd)

    def matmul(self, other: "Tensor") -> "Tensor":
        """[..., d] @ [d, e]: one flat GEMM over the rows of ``self``, forward and backward.

        The right operand must be a 2-D [d, e] matrix whose d matches the last
        axis of ``self``; any other raises ShapeError.
        """
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self.data, other.data
        if a.ndim < 1 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
            raise ShapeError(f"matmul needs [..., d] @ [d, e], got {a.shape} @ {b.shape}")
        a_shape = a.shape
        a2 = a.reshape(-1, a_shape[-1])

        def bwd(g):
            g2 = g.reshape(-1, b.shape[1])
            return (g2 @ b.T).reshape(a_shape), a2.T @ g2

        out = (a2 @ b).reshape(*a_shape[:-1], b.shape[1])
        return Tensor(out, _parents=(self, other), _backward=bwd)

    __matmul__ = matmul

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a_shape, a_dtype = self.data.shape, self.data.dtype

        def bwd(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a_shape).astype(a_dtype),)

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims), _parents=(self,), _backward=bwd)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            n = 1
            for ax in axes:
                n *= self.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- elementwise ------------------------------------------------------

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        return Tensor(out_data, _parents=(self,), _backward=lambda g: (g * 0.5 / out_data,))

    def log(self) -> "Tensor":
        a = self.data
        return Tensor(np.log(a), _parents=(self,), _backward=lambda g: (g / a,))

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return Tensor(out_data, _parents=(self,), _backward=lambda g: (g * out_data,))

    def silu(self) -> "Tensor":
        """x * sigmoid(x); the node keeps only x and recomputes the sigmoid in backward."""
        a = self.data
        out = sigmoid(a)
        out *= a
        return Tensor(out, _parents=(self,), _backward=lambda g: (g * silu_slope(a, sigmoid(a)),))

    def maximum(self, other) -> "Tensor":
        """Elementwise max; ties send the full gradient to self."""
        other = other if isinstance(other, Tensor) else Tensor(_constant(other, self.data))
        a, b = self.data, other.data
        a_shape, b_shape = a.shape, b.shape
        take_a = a >= b

        def bwd(g):
            return _unbroadcast(np.where(take_a, g, 0.0), a_shape), _unbroadcast(np.where(take_a, 0.0, g), b_shape)

        return Tensor(np.where(take_a, a, b), _parents=(self, other), _backward=bwd)

    def softmax(self, axis: int = -1) -> "Tensor":
        """Max-subtracted stable softmax along ``axis``."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def bwd(g):
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            return (out_data * (g - dot),)

        return Tensor(out_data, _parents=(self,), _backward=bwd)

    # -- shape manipulation ----------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape
        return Tensor(self.data.reshape(shape), _parents=(self,), _backward=lambda g: (g.reshape(orig),))

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        return Tensor(self.data.transpose(axes), _parents=(self,), _backward=lambda g: (g.transpose(inv),))

    def __getitem__(self, key) -> "Tensor":
        """Indexing; basic keys backpropagate by assignment, advanced keys by scatter-add."""
        a_shape, a_dtype = self.data.shape, self.data.dtype
        basic = _is_basic(key)

        def bwd(g):
            full = np.zeros(a_shape, a_dtype)
            if basic:
                full[key] = g
            else:
                np.add.at(full, key, g)  # advanced indices may repeat
            return (full,)

        return Tensor(self.data[key], _parents=(self,), _backward=bwd)


def add_grads(sink: dict) -> None:
    """Add each leaf's gradient in ``sink`` into its ``.grad``, in the sink's order."""
    for leaf, g in sink.items():
        leaf.grad = g if leaf.grad is None else leaf.grad + g


def sigmoid(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)), computed in one new array."""
    s = np.negative(a)
    np.exp(s, out=s)
    s += 1
    return np.divide(1, s, out=s)


def silu_slope(a: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """d silu(a) / da = sig * (1 + a * (1 - sig)) for ``sig`` = sigmoid(a), in one new array."""
    d = 1.0 - sig
    d *= a
    d += 1.0
    d *= sig
    return d


def _walked(g):
    """The closure of a node that ``backward`` has already run and freed."""
    raise RuntimeError(
        "backward() reached a graph that an earlier backward() already walked and freed; run the forward again"
    )


# -- module-level operations ----------------------------------------------


def concat(tensors: list, axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; gradient splits back to each operand."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != len(base) or any(
            o != b for i, (o, b) in enumerate(zip(other, base)) if i != axis % len(base)
        ):
            raise ShapeError(f"concat shape mismatch: {[t.shape for t in tensors]}")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    return Tensor(
        out_data,
        _parents=tuple(tensors),
        _backward=lambda g: tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis)),
    )


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]`` with scatter-add gradient into the table."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"token id out of range [0, {table.shape[0]})")
    t_shape, t_dtype = table.data.shape, table.data.dtype

    def bwd(g):
        full = np.zeros(t_shape, t_dtype)
        np.add.at(full, ids, g)
        return (full,)

    return Tensor(table.data[ids], _parents=(table,), _backward=bwd)


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """a.b / (|a||b| + COSINE_EPS) along the last axis."""
    dot = (a * b).sum(axis=-1)
    na = (a * a).sum(axis=-1).sqrt()
    nb = (b * b).sum(axis=-1).sqrt()
    return dot / (na * nb + COSINE_EPS)


# -- seeded randomness ----------------------------------------------------

GUMBEL_EPS = 1e-9


@dataclass
class RngState:
    """Counter-based random stream: (seed, position) fully determines draws.

    Each draw call derives a fresh generator from (seed, position) and bumps
    the position, so serializing the two integers and restoring them resumes
    the stream bit-exactly on any platform.
    """

    seed: int
    position: int = 0

    def _generator(self) -> np.random.Generator:
        """The generator for the current position; advances the position."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.position,))
        self.position += 1
        return np.random.Generator(np.random.PCG64(ss))

    def uniform(self, shape=()) -> np.ndarray:
        return self._generator().random(size=shape, dtype=np.float64).astype(_default_dtype)

    def normal(self, shape=(), std: float = 1.0) -> np.ndarray:
        return (self._generator().standard_normal(size=shape) * std).astype(_default_dtype)

    def integers(self, low: int, high: int) -> np.int64:
        return self._generator().integers(low, high)

    def permutation(self, n: int) -> np.ndarray:
        return self._generator().permutation(n)

    def clone(self) -> "RngState":
        return RngState(self.seed, self.position)


def gumbel_from_uniform(u: np.ndarray) -> np.ndarray:
    """g = -log(-log(u)) with u clamped away from {0, 1}.

    The upper bound is at least one ulp below 1 in u's dtype: 1 - GUMBEL_EPS
    rounds to 1.0 in float32, which would give infinite noise.
    """
    u = np.clip(u, GUMBEL_EPS, 1.0 - max(GUMBEL_EPS, np.finfo(u.dtype).epsneg))
    return -np.log(-np.log(u))


def gumbel_noise(shape, rng: RngState) -> Tensor:
    """Standard Gumbel(0, 1) samples, non-differentiable."""
    return Tensor(gumbel_from_uniform(rng.uniform(shape)))
