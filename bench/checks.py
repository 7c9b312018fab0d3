"""Output checks computed apart from the program.

The file readers, the float64 layer-block and cross-entropy references and
the parameter-count closed form below re-derive each result from the file
formats and the model's definition, without calling the code under test.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

CKPT_HEADER = "<4sIQ"
STORE_HEADER = "<4sIIQ"


class Checker:
    """Collects failed expectations; a run is correct when none failed."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, what: str) -> bool:
        if not ok and len(self.failures) < 50:
            self.failures.append(what)
        return bool(ok)


# -- file formats ------------------------------------------------------------


def read_ppck(path: str) -> tuple:
    """(manifest, manifest length, {name: float32 array}) of a checkpoint file."""
    with open(path, "rb") as f:
        raw = f.read()
    magic, _, mlen = struct.unpack_from(CKPT_HEADER, raw, 0)
    if magic != b"PPCK":
        raise ValueError(f"{path}: bad magic {magic!r}")
    base = struct.calcsize(CKPT_HEADER)
    manifest = json.loads(raw[base : base + mlen])
    arrays = {}
    for e in manifest["tensors"]:
        n = int(np.prod(e["shape"], dtype=np.int64))
        arrays[e["name"]] = np.frombuffer(raw, "<f4", n, base + mlen + e["offset"]).reshape(e["shape"])
    return manifest, mlen, arrays


def read_ppch(path: str) -> tuple:
    """(seq_len, tokens [count, seq_len], provenance dict) of a chunk-store file."""
    with open(path, "rb") as f:
        raw = f.read()
    magic, _, seq_len, count = struct.unpack_from(STORE_HEADER, raw, 0)
    if magic != b"PPCH":
        raise ValueError(f"{path}: bad magic {magic!r}")
    base = struct.calcsize(STORE_HEADER)
    tokens = np.frombuffer(raw, "<u4", count * seq_len, base).reshape(count, seq_len)
    provenance = json.loads(raw[base + 4 * count * seq_len :])
    return seq_len, tokens, provenance


def vocab_fingerprint(vocab: dict) -> str:
    h = hashlib.sha256()
    for tok, idx in sorted(vocab.items(), key=lambda kv: kv[1]):
        h.update(f"{idx}:{tok}\n".encode())
    return h.hexdigest()[:16]


# -- closed forms and references ----------------------------------------------


def block_params(d: int, ff: int) -> int:
    """wq, wk, wv, wo (d x d), w_gate, w_up (d x ff), w_down (ff x d), two norm scales."""
    return 4 * d * d + 3 * d * ff + 2 * d


def param_total(cfg: dict) -> int:
    """Scalar parameter count of a Gumbel-connected parallel model from its shapes."""
    d, dp, k, v = cfg["d_model"], cfg["d_path"], cfg["k_paths"], cfg["vocab_size"]
    router_in = dp if cfg["connection_kind"] == "gumbel_v1" else k * dp
    per_layer = k * block_params(dp, cfg["ff_path"]) + k * dp * dp + router_in * (k + 1)
    return (
        2 * v * d  # embed and lm_head
        + cfg["n_layer_blocks"] * block_params(d, cfg["ff_layer"])
        + d * dp  # down projection
        + cfg["n_parallel_layers"] * per_layer
        + d  # final norm
    )


def log_softmax64(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def ce64(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean next-token negative log-likelihood in float64."""
    lp = log_softmax64(logits).reshape(-1, logits.shape[-1])
    return float(-lp[np.arange(lp.shape[0]), np.asarray(targets).reshape(-1)].mean())


def _rmsnorm64(x, scale, eps=1e-5):
    return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + eps) * scale


def _rope64(x, base=10000.0):
    """Rotate consecutive (even, odd) feature pairs of [B, T, H, hd] by t * base^(-2j/hd)."""
    t, hd = x.shape[1], x.shape[-1]
    ang = np.arange(t, dtype=np.float64)[:, None] * base ** (-2.0 * np.arange(hd // 2) / hd)
    cos, sin = np.cos(ang)[:, None, :], np.sin(ang)[:, None, :]
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def ref_layer_block(x: np.ndarray, w: dict, heads: int) -> np.ndarray:
    """Float64 pre-norm block: x + attn(rmsnorm(x)), then h + swiglu(rmsnorm(h))."""
    x = np.asarray(x, dtype=np.float64)
    w = {k: np.asarray(v, dtype=np.float64) for k, v in w.items()}
    b, t, d = x.shape
    hd = d // heads
    a = _rmsnorm64(x, w["norm1_scale"])
    q = _rope64((a @ w["wq"]).reshape(b, t, heads, hd)).transpose(0, 2, 1, 3)
    k = _rope64((a @ w["wk"]).reshape(b, t, heads, hd)).transpose(0, 2, 1, 3)
    v = (a @ w["wv"]).reshape(b, t, heads, hd).transpose(0, 2, 1, 3)
    scores = q @ k.swapaxes(-1, -2) / np.sqrt(hd)
    scores = np.where(np.tril(np.ones((t, t), dtype=bool)), scores, -np.inf)
    att = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att /= att.sum(axis=-1, keepdims=True)
    h = x + (att @ v).transpose(0, 2, 1, 3).reshape(b, t, d) @ w["wo"]
    f = _rmsnorm64(h, w["norm2_scale"])
    gate = f @ w["w_gate"]
    return h + ((gate / (1.0 + np.exp(-gate))) * (f @ w["w_up"])) @ w["w_down"]


def close(a, b, rtol: float, atol: float) -> bool:
    return bool(np.allclose(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64), rtol=rtol, atol=atol))
