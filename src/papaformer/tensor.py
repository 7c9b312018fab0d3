"""Dense float tensors with reverse-mode automatic differentiation.

Every operation records a backward closure on a tape (the implicit graph of
parent links). Calling ``backward()`` on a scalar loss walks the graph in
reverse topological order, accumulates gradients into every leaf that has
``requires_grad`` set, and frees each node's closure and parent links once it
has run, so the graph can be walked once. Under ``no_grad()`` nothing is
recorded: results keep their values and drop their parents and closures.

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
    """Record no tape inside the block: new Tensors keep no parents and no closure.

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


class Tensor:
    """A dense n-d value participating in reverse-mode differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad = None
        if _recording:
            self._parents = _parents
            self._backward = _backward
        else:
            self._parents = ()
            self._backward = None

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
        Each node's closure and parent links are dropped as soon as it has run,
        so the activations they hold are released during the walk; leaves are
        untouched. A walked node keeps a closure that raises, so a later
        ``backward`` that reaches it, from the same root or another, raises
        RuntimeError instead of silently stopping there.
        """
        if self.size != 1:
            raise ValueError(f"backward() requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        walk = {} if sink is None else sink
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                held = walk.get(node)
                walk[node] = g.copy() if held is None else held + g
            if node._backward is not None:
                for parent, pg in node._backward(g):
                    if parent.requires_grad or parent._backward is not None:
                        acc = grads.get(id(parent))
                        grads[id(parent)] = pg if acc is None else acc + pg
                node._backward, node._parents = _walked, ()
        if sink is None:
            add_grads(walk)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        a = self
        if not isinstance(other, Tensor):
            out_data = a.data + _constant(other, a.data)
            return Tensor(out_data, _parents=(a,), _backward=lambda g: ((a, _unbroadcast(g, a.shape)),))
        b = other

        def bwd(g):
            return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape)))

        return Tensor(a.data + b.data, _parents=(a, b), _backward=bwd)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self
        return Tensor(-a.data, _parents=(a,), _backward=lambda g: ((a, -g),))

    def __sub__(self, other) -> "Tensor":
        if not isinstance(other, Tensor):
            return self + (-_constant(other, self.data))
        return self + (-other)

    def __rsub__(self, other) -> "Tensor":
        return (-self) + other

    def __mul__(self, other) -> "Tensor":
        a = self
        if not isinstance(other, Tensor):
            c = _constant(other, a.data)
            return Tensor(a.data * c, _parents=(a,), _backward=lambda g: ((a, _unbroadcast(g * c, a.shape)),))
        b = other

        def bwd(g):
            return (
                (a, _unbroadcast(g * b.data, a.shape)),
                (b, _unbroadcast(g * a.data, b.shape)),
            )

        return Tensor(a.data * b.data, _parents=(a, b), _backward=bwd)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        a = self
        if not isinstance(other, Tensor):
            c = _constant(other, a.data)
            return Tensor(a.data / c, _parents=(a,), _backward=lambda g: ((a, _unbroadcast(g / c, a.shape)),))
        b = other

        def bwd(g):
            return (
                (a, _unbroadcast(g / b.data, a.shape)),
                (b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
            )

        return Tensor(a.data / b.data, _parents=(a, b), _backward=bwd)

    def matmul(self, other: "Tensor") -> "Tensor":
        """[..., d] @ [d, e]: one flat GEMM over the rows of ``self``, forward and backward.

        The right operand must be a 2-D [d, e] matrix whose d matches the last
        axis of ``self``; any other raises ShapeError.
        """
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other
        if a.ndim < 1 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
            raise ShapeError(f"matmul needs [..., d] @ [d, e], got {a.shape} @ {b.shape}")
        a2 = a.data.reshape(-1, a.shape[-1])

        def bwd(g):
            g2 = g.reshape(-1, b.shape[1])
            return ((a, (g2 @ b.data.T).reshape(a.shape)), (b, a2.T @ g2))

        out = (a2 @ b.data).reshape(*a.shape[:-1], b.shape[1])
        return Tensor(out, _parents=(a, b), _backward=bwd)

    __matmul__ = matmul

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return ((a, np.broadcast_to(g, a.shape).astype(a.data.dtype)),)

        return Tensor(out_data, _parents=(a,), _backward=bwd)

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
        a = self
        out_data = np.sqrt(a.data)
        return Tensor(out_data, _parents=(a,), _backward=lambda g: ((a, g * 0.5 / out_data),))

    def log(self) -> "Tensor":
        a = self
        return Tensor(np.log(a.data), _parents=(a,), _backward=lambda g: ((a, g / a.data),))

    def exp(self) -> "Tensor":
        a = self
        out_data = np.exp(a.data)
        return Tensor(out_data, _parents=(a,), _backward=lambda g: ((a, g * out_data),))

    def silu(self) -> "Tensor":
        """x * sigmoid(x)."""
        a = self
        sig = 1.0 / (1.0 + np.exp(-a.data))
        out_data = a.data * sig

        def bwd(g):
            return ((a, g * (sig * (1.0 + a.data * (1.0 - sig)))),)

        return Tensor(out_data, _parents=(a,), _backward=bwd)

    def maximum(self, other) -> "Tensor":
        """Elementwise max; ties send the full gradient to self."""
        other = other if isinstance(other, Tensor) else Tensor(_constant(other, self.data))
        a, b = self, other
        take_a = a.data >= b.data
        out_data = np.where(take_a, a.data, b.data)

        def bwd(g):
            return (
                (a, _unbroadcast(np.where(take_a, g, 0.0), a.shape)),
                (b, _unbroadcast(np.where(take_a, 0.0, g), b.shape)),
            )

        return Tensor(out_data, _parents=(a, b), _backward=bwd)

    def softmax(self, axis: int = -1) -> "Tensor":
        """Max-subtracted stable softmax along ``axis``."""
        a = self
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def bwd(g):
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            return ((a, out_data * (g - dot)),)

        return Tensor(out_data, _parents=(a,), _backward=bwd)

    # -- shape manipulation ----------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        orig = a.shape
        return Tensor(
            a.data.reshape(shape),
            _parents=(a,),
            _backward=lambda g: ((a, g.reshape(orig)),),
        )

    def transpose(self, *axes) -> "Tensor":
        a = self
        if not axes:
            axes = tuple(reversed(range(a.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        return Tensor(
            a.data.transpose(axes),
            _parents=(a,),
            _backward=lambda g: ((a, g.transpose(inv)),),
        )

    def __getitem__(self, key) -> "Tensor":
        """Indexing; basic keys backpropagate by assignment, advanced keys by scatter-add."""
        a = self
        basic = _is_basic(key)

        def bwd(g):
            full = np.zeros_like(a.data)
            if basic:
                full[key] = g
            else:
                np.add.at(full, key, g)  # advanced indices may repeat
            return ((a, full),)

        return Tensor(a.data[key], _parents=(a,), _backward=bwd)


def add_grads(sink: dict) -> None:
    """Add each leaf's gradient in ``sink`` into its ``.grad``, in the sink's order."""
    for leaf, g in sink.items():
        leaf.grad = g if leaf.grad is None else leaf.grad + g


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
    sizes = [t.shape[axis] for t in tensors]

    def bwd(g):
        pieces = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        return tuple(zip(tensors, pieces))

    return Tensor(out_data, _parents=tuple(tensors), _backward=bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]`` with scatter-add gradient into the table."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"token id out of range [0, {table.shape[0]})")
    a = table

    def bwd(g):
        full = np.zeros_like(a.data)
        np.add.at(full, ids, g)
        return ((a, full),)

    return Tensor(a.data[ids], _parents=(a,), _backward=bwd)


def cosine_similarity(a: Tensor, b: Tensor, eps: float = 1e-12) -> Tensor:
    """a.b / (|a||b|) along the last axis."""
    dot = (a * b).sum(axis=-1)
    na = (a * a).sum(axis=-1).sqrt()
    nb = (b * b).sum(axis=-1).sqrt()
    return dot / (na * nb + eps)


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

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return self._generator().integers(low, high, size=shape)

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
