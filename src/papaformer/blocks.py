"""LLaMA-style decoder building blocks.

One layer block = pre-norm causal multi-head attention plus a pre-norm
SwiGLU feed-forward, each wrapped in a residual connection. Rotary
positional embeddings are applied to queries and keys inside attention.
All functions operate on [B, T, d] activations.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass

import numpy as np

from papaformer.tensor import RngState, ShapeError, Tensor, default_dtype, sigmoid, silu_slope

RMSNORM_EPS = 1e-5
ROPE_BASE = 10000.0
INIT_STD = 0.02
ATTN_MASK_VALUE = -1e9
ATTN_TILE = 64  # query rows per causal attention tile


class ConfigError(ValueError):
    """A block or model hyperparameter violates its constraints."""


_SCALAR_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def read_config(cls, d, prefix: str = ""):
    """``cls(**d)`` for a config dataclass read from a file or manifest mapping.

    An unknown key, a scalar field holding a value of another type (a field
    typed ``T | None`` also takes null), or a float field holding inf, nan or
    an int too large for a float raises ConfigError naming the key;
    ``prefix`` is the mapping's own key path. A key of the class's ``RETIRED``
    mapping, which older manifests still carry, is dropped when it holds the
    one value that mapping accepts for it, and raises ConfigError otherwise.
    """
    retired = getattr(cls, "RETIRED", {})
    for key in sorted(retired.keys() & d.keys()):
        value, accepted = d[key], retired[key]
        # bools are ints to Python, so 0 would pass for false without the type test
        if value != accepted or isinstance(value, bool) != isinstance(accepted, bool):
            raise ConfigError(f"{prefix}{key}: retired; only {json.dumps(accepted)} is accepted, got {value!r}")
    d = {k: v for k, v in d.items() if k not in retired}
    fields = cls.__dataclass_fields__
    unknown = sorted(prefix + k for k in set(d) - set(fields))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    required = [k for k, f in fields.items() if f.default is MISSING and f.default_factory is MISSING]
    missing = sorted(prefix + k for k in set(required) - set(d))
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    for key, value in d.items():
        kind, _, optional = fields[key].type.partition(" | ")
        if kind not in _SCALAR_TYPES or (optional and value is None):
            continue
        if not isinstance(value, _SCALAR_TYPES[kind]) or (isinstance(value, bool) and kind != "bool"):
            raise ConfigError(f"{prefix}{key}: expected {kind}, got {value!r}")
        # an int too large for a float fails too, by exact comparison, where float() would raise
        if kind == "float" and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{prefix}{key}: expected a finite number, got {value!r}")
    return cls(**d)


def weight(shape: tuple, rng: RngState | None) -> Tensor:
    """A trainable N(0, INIT_STD) leaf, or with ``rng`` None a skeleton leaf: a read-only zero view that
    allocates nothing. Every caller replaces its ``.data`` (load, ``init_weights``, compose), so a stray
    in-place write raises instead of landing in a weight that was never filled."""
    data = np.broadcast_to(np.zeros((), default_dtype()), shape) if rng is None else rng.normal(shape, std=INIT_STD)
    return Tensor(data, requires_grad=True)


@dataclass
class LayerBlockParams:
    """Weights of one decoder layer at width d with ff hidden size."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    w_gate: Tensor
    w_up: Tensor
    w_down: Tensor
    norm1_scale: Tensor
    norm2_scale: Tensor
    heads: int

    @classmethod
    def init(cls, d: int, heads: int, ff: int, rng: RngState | None) -> "LayerBlockParams":
        """Random projections from ``rng``, or a zero skeleton when it is None."""
        if d % heads != 0:
            raise ConfigError(f"width {d} not divisible by {heads} heads")
        if (d // heads) % 2 != 0:
            raise ConfigError(f"head_dim {d // heads} must be even for rotary embeddings")
        return cls(
            wq=weight((d, d), rng),
            wk=weight((d, d), rng),
            wv=weight((d, d), rng),
            wo=weight((d, d), rng),
            w_gate=weight((d, ff), rng),
            w_up=weight((d, ff), rng),
            w_down=weight((ff, d), rng),
            norm1_scale=Tensor(np.ones(d, dtype=default_dtype()), requires_grad=True),
            norm2_scale=Tensor(np.ones(d, dtype=default_dtype()), requires_grad=True),
            heads=heads,
        )

    def named_params(self, prefix: str = "") -> dict:
        names = ["wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down", "norm1_scale", "norm2_scale"]
        return {f"{prefix}{n}": getattr(self, n) for n in names}


def rmsnorm(x: Tensor, scale: Tensor, eps: float = RMSNORM_EPS) -> Tensor:
    """scale * x / sqrt(mean(x^2) + eps) over the last axis.

    One tape node. With r = sqrt(mean(x^2) + eps) and x_hat = x / r, the
    backward pass is dx = (gs - x_hat * mean(gs * x_hat)) / r for gs = g * scale,
    and dscale = g * x_hat summed over the leading axes of x; scale is [d].
    """
    xd, sd = x.data, scale.data
    rms = np.sqrt((xd * xd).sum(axis=-1, keepdims=True) * (1.0 / xd.shape[-1]) + eps)
    x_hat = xd / rms

    def bwd(g):
        gs = g * sd
        dx = gs - x_hat * (gs * x_hat).mean(axis=-1, keepdims=True)
        dx /= rms
        return dx, (g * x_hat).reshape(-1, x_hat.shape[-1]).sum(axis=0)

    return Tensor(x_hat * sd, _parents=(x, scale), _backward=bwd)


_ROPE_TABLES = {}  # head_dim -> float32 cos/sin of pos * theta_j for pos in 0..n-1


def rope_tables(positions: np.ndarray, head_dim: int) -> tuple:
    """cos/sin rotation tables for the given integer positions, shaped [T, 1, hd/2, 1].

    The rows come from one table per head_dim, computed in float64, which
    grows to cover the largest position asked for; since each entry is the
    elementwise pos * theta_j, a row does not depend on the table's length.
    """
    if head_dim % 2 != 0:
        raise ConfigError(f"head_dim {head_dim} must be even for rotary embeddings")
    positions = np.asarray(positions)
    need = int(positions.max(initial=-1)) + 1
    table = _ROPE_TABLES.get(head_dim)
    if table is None or need > len(table[0]):
        size = max(need, 0 if table is None else 2 * len(table[0]))
        theta = ROPE_BASE ** (-2.0 * np.arange(head_dim // 2, dtype=np.float64) / head_dim)
        angles = np.arange(size, dtype=np.float64)[:, None] * theta[None, :]
        table = _ROPE_TABLES[head_dim] = tuple(f(angles).astype(np.float32)[:, None, :, None] for f in (np.cos, np.sin))
    cos, sin = table
    return cos[positions], sin[positions]


def rope(x: Tensor, positions: np.ndarray) -> Tensor:
    """Rotate consecutive feature pairs of [.., T, heads, head_dim] by pos * theta_j.

    One tape node; its backward pass rotates the gradient pairs by -theta.
    """
    shape = x.data.shape
    cos, sin = rope_tables(positions, shape[-1])
    pair_shape = (*shape[:-1], shape[-1] // 2, 2)

    def rotate(arr: np.ndarray, sin: np.ndarray) -> np.ndarray:
        pairs = arr.reshape(pair_shape)
        even, odd = pairs[..., 0:1], pairs[..., 1:2]
        return np.concatenate([even * cos - odd * sin, even * sin + odd * cos], axis=-1).reshape(shape)

    return Tensor(rotate(x.data, sin), _parents=(x,), _backward=lambda g: (rotate(g, -sin),))


def causal_mask(t: int, s: int) -> np.ndarray:
    """[T, S] additive mask for T queries at the last T of S positions.

    0 where a key's position is at or before the query's, large negative after it.
    """
    return np.triu(np.full((t, s), ATTN_MASK_VALUE, dtype=np.float32), k=s - t + 1)


def _causal_softmax(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """softmax(q k^T / sqrt(head_dim) + causal mask) for q [B, heads, T, head_dim], k [B, heads, S, head_dim].

    The T queries sit at the last T of the S key positions, so only the last
    T key columns can hold a masked entry, and a single query masks none.
    """
    t, head_dim = q.shape[-2:]
    p = q @ np.swapaxes(k, -1, -2)
    p *= 1.0 / math.sqrt(head_dim)
    if t > 1:
        p[..., k.shape[-2] - t :] += causal_mask(t, t)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def causal_attention(q: Tensor, k: Tensor, v: Tensor, kv: tuple | None = None) -> Tensor:
    """Causal softmax(q k^T / sqrt(head_dim)) v of [B, T, heads, head_dim] inputs, as [B, T, d].

    One tape node. The queries run in tiles of ATTN_TILE rows, and each tile
    scores only the keys at or before its last position: the fully masked key
    tiles are skipped, the causal tiling of FlashAttention (Dao et al. 2022).
    The node keeps each tile's probabilities P [B, heads, rows, end] for the
    backward pass instead of recomputing them, the store side of the same
    paper's trade-off. Up to ATTN_TILE queries run as one tile over all keys.

    The T queries sit at the last T of the S key positions. The keys and
    values are ``k`` and ``v`` themselves, or, with a K/V cache, ``kv``: those
    of all S positions as head-major [B, heads, S, head_dim] arrays, of which
    ``k`` and ``v`` are the last rows. Either way ``k`` and ``v`` may carry
    more rows than ``q``, and the gradients reach exactly the rows they carry.
    """
    b, t, heads, head_dim = q.data.shape
    k_rows, v_rows = k.data.shape[1], v.data.shape[1]
    qh = q.data.transpose(0, 2, 1, 3)
    kh, vh = kv if kv is not None else (z.data.transpose(0, 2, 1, 3) for z in (k, v))
    s = kh.shape[-2]
    # (first row, one past the last row, one past the last visible key) per tile
    tiles = [(lo, min(lo + ATTN_TILE, t), s - t + min(lo + ATTN_TILE, t)) for lo in range(0, t, ATTN_TILE)]
    probs = [_causal_softmax(qh[..., lo:hi, :], kh[..., :end, :]) for lo, hi, end in tiles]
    ctx = [p @ vh[..., :end, :] for p, (_, _, end) in zip(probs, tiles)]
    outh = ctx[0] if len(ctx) == 1 else np.concatenate(ctx, axis=-2)
    out = outh.transpose(0, 2, 1, 3).reshape(b, t, heads * head_dim)

    def bwd(g):
        gh = g.reshape(b, t, heads, head_dim).transpose(0, 2, 1, 3)
        dq, dk, dv = [], None, None
        # the last tile sees every key, so its dk and dv are full-length
        for p, (lo, hi, end) in zip(reversed(probs), reversed(tiles)):
            gt = gh[..., lo:hi, :]
            tile_dv = np.swapaxes(p, -1, -2) @ gt
            # dP, turned in place into dS = P * (dP - rowsum(dP * P)) / sqrt(head_dim)
            ds = gt @ np.swapaxes(vh[..., :end, :], -1, -2)
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= 1.0 / math.sqrt(head_dim)
            dq.append(ds @ kh[..., :end, :])
            tile_dk = np.swapaxes(ds, -1, -2) @ qh[..., lo:hi, :]
            if dk is None:
                dk, dv = tile_dk, tile_dv
            else:
                dk[..., :end, :] += tile_dk
                dv[..., :end, :] += tile_dv
        dq = dq[0] if len(dq) == 1 else np.concatenate(dq[::-1], axis=-2)
        return tuple(dz.transpose(0, 2, 1, 3) for dz in (dq, dk[..., -k_rows:, :], dv[..., -v_rows:, :]))

    return Tensor(out, _parents=(q, k, v), _backward=bwd)


class KVCache:
    """Rotated keys and values of the positions already run, per attention block.

    ``generate`` creates one per continuation and passes it down the forward
    path, so each step runs only its new tokens. Slots are keyed by the
    block's ``LayerBlockParams`` object; every block of a model is its own.
    Each block keeps one key and one value buffer, [B, heads, max_seq_len,
    head_dim], allocated by its first ``extend``; every ``extend`` writes its
    rows into them in place.
    """

    def __init__(self):
        self._kv = {}  # id(LayerBlockParams) -> (keys, values, positions filled)
        # positions run so far: ``model.trunk`` sets it on every forward, so it
        # counts them also in a model with no attention block to extend
        self.length = 0

    def start(self, params: LayerBlockParams) -> int:
        """Positions already cached for this block: the position of its next token."""
        kv = self._kv.get(id(params))
        return 0 if kv is None else kv[2]

    def extend(self, params: LayerBlockParams, k: np.ndarray, v: np.ndarray, max_seq_len: int) -> tuple:
        """Write new [B, T, heads, head_dim] keys and values; return views of all of them, head-major."""
        kv = self._kv.get(id(params))
        if kv is None:
            b, _, heads, head_dim = k.shape
            kv = *(np.empty((b, heads, max_seq_len, head_dim), dtype=z.dtype) for z in (k, v)), 0
        keys, values, start = kv
        end = start + k.shape[1]
        keys[:, :, start:end] = k.transpose(0, 2, 1, 3)
        values[:, :, start:end] = v.transpose(0, 2, 1, 3)
        self._kv[id(params)] = (keys, values, end)
        self.length = max(self.length, end)
        return keys[:, :, :end], values[:, :, :end]


def _heads(x: Tensor, w: Tensor, heads: int, positions: np.ndarray | None = None) -> Tensor:
    """x @ w split into [B, T, heads, head_dim], rotated when positions are given."""
    b, t, _ = x.shape
    h = (x @ w).reshape(b, t, heads, w.shape[1] // heads)
    return h if positions is None else rope(h, positions)


def causal_mha(
    x: Tensor,
    params: LayerBlockParams,
    max_seq_len: int | None = None,
    cache: KVCache | None = None,
    last_row: bool = False,
) -> Tensor:
    """Scaled dot-product attention with a strict causal mask and RoPE on q, k.

    With a ``cache``, which ``max_seq_len`` sizes, x holds the positions after
    those already cached: q and k are rotated at their absolute positions, k
    and v are appended to the cache, and the queries attend over every cached
    key. With ``last_row``, keys and values cover every position but only the
    last one gets a query, so the output is that position's row alone.
    """
    t = x.shape[1]
    if cache is not None and max_seq_len is None:
        raise ConfigError("a K/V cache needs max_seq_len to size its buffers")
    start = 0 if cache is None else cache.start(params)
    if max_seq_len is not None and start + t > max_seq_len:
        raise ConfigError(f"sequence length {start + t} exceeds max_seq_len {max_seq_len}")
    positions = start + np.arange(t)
    k = _heads(x, params.wk, params.heads, positions)
    v = _heads(x, params.wv, params.heads)
    if last_row:
        x, positions = x[:, -1:], positions[-1:]
    q = _heads(x, params.wq, params.heads, positions)
    kv = None if cache is None else cache.extend(params, k.data, v.data, max_seq_len)
    return causal_attention(q, k, v, kv) @ params.wo


def swiglu_gate(a: Tensor, b: Tensor) -> Tensor:
    """silu(a) * b, the gate of the SwiGLU feed-forward (Shazeer 2020), for a and b of one shape.

    One tape node that keeps only a and b: the backward pass recomputes
    sigmoid(a) and silu(a) from a instead of keeping them (the recomputation
    of Chen et al. 2016). The float ops and their order are those of
    ``a.silu() * b``, so for operands of one dtype the output and both
    gradients are the same bits; operands of two dtypes compute in the wider.
    """
    if a.data.shape != b.data.shape:
        raise ShapeError(f"swiglu_gate needs operands of one shape, got {a.data.shape} and {b.data.shape}")
    dtype = np.result_type(a.data, b.data)
    ad, bd = a.data.astype(dtype, copy=False), b.data.astype(dtype, copy=False)
    h = sigmoid(ad)
    h *= ad
    h *= bd

    def bwd(g):
        sig = sigmoid(ad)
        da = g * bd
        da *= silu_slope(ad, sig)
        sig *= ad
        return da, g * sig

    return Tensor(h, _parents=(a, b), _backward=bwd)


def swiglu_ffn(x: Tensor, params: LayerBlockParams) -> Tensor:
    """w_down @ (silu(w_gate x) * (w_up x))."""
    return swiglu_gate(x @ params.w_gate, x @ params.w_up) @ params.w_down


def layer_block(
    x: Tensor,
    params: LayerBlockParams,
    max_seq_len: int | None = None,
    cache: KVCache | None = None,
    last_row: bool = False,
) -> Tensor:
    """Pre-norm residual layer: x + mha(norm(x)), then h + ffn(norm(h)).

    ``cache`` and ``last_row`` are passed to ``causal_mha``; with ``last_row``
    the residual and the feed-forward run on the last position only, and the
    output is its [B, 1, d] row.
    """
    attn = causal_mha(rmsnorm(x, params.norm1_scale), params, max_seq_len, cache, last_row)
    h = (x[:, -1:] if last_row else x) + attn
    return h + swiglu_ffn(rmsnorm(h, params.norm2_scale), params)
