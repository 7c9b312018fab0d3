"""Whole-model assembly: baseline stacks and parallel-path models.

Topology for parallel models: embedding -> layer blocks at d_model ->
down-projection to d_path -> n_parallel_layers parallel layers -> width
restored to d_model -> the last layer block, when there are two or more ->
final norm -> lm head. Baselines are the same without the parallel core.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, asdict

import numpy as np

from papaformer.blocks import (
    INIT_STD,
    ConfigError,
    KVCache,
    LayerBlockParams,
    layer_block,
    read_config,
    rmsnorm,
    weight,
)
from papaformer.parallel import (
    GumbelConfig,
    GumbelParams,
    ParallelLayerParams,
    ShareLinearParams,
    parallel_layer_forward,
)
from papaformer.tensor import RngState, Tensor, default_dtype, embedding

CONNECTION_KINDS = ("none", "share_linear", "gumbel_v1", "gumbel_v2")
# smallest allowed value of each size and layer count
_LEAST_SIZES = dict.fromkeys(
    ("vocab_size", "d_model", "d_path", "heads_layer", "heads_path", "ff_layer", "ff_path", "max_seq_len"), 1
) | {"n_layer_blocks": 0, "n_parallel_layers": 0}
# largest allowed value of each: a weight is a matrix of two sizes, and its element count must fit an array index
_MOST_SIZE = math.isqrt(np.iinfo(np.intp).max)


@dataclass
class ModelConfig:
    """Declarative description of a baseline or parallel model."""

    vocab_size: int
    d_model: int = 256
    d_path: int = 128
    n_layer_blocks: int = 8
    n_parallel_layers: int = 0
    k_paths: int = 2
    heads_layer: int = 8
    heads_path: int = 4
    ff_layer: int = 1024
    ff_path: int = 512
    max_seq_len: int = 256
    connection_kind: str = "none"
    gumbel: GumbelConfig = field(default_factory=GumbelConfig)

    RETIRED = {"n_before": None, "dropout_path": 0.0}  # see blocks.read_config

    def __post_init__(self):
        for key, least in _LEAST_SIZES.items():
            if not least <= getattr(self, key) <= _MOST_SIZE:
                raise ConfigError(f"{key}: must be from {least} to {_MOST_SIZE}, got {getattr(self, key)}")
        if self.connection_kind not in CONNECTION_KINDS:
            raise ConfigError(f"connection_kind: unknown value {self.connection_kind!r}")
        if self.connection_kind == "none" and self.n_parallel_layers != 0:
            raise ConfigError("n_parallel_layers: must be 0 when connection_kind is 'none'")
        if self.connection_kind != "none":
            if self.n_parallel_layers < 1:
                raise ConfigError("n_parallel_layers: parallel models need at least one parallel layer")
            if self.k_paths < 2:
                raise ConfigError("k_paths: need at least 2 paths")
            if self.d_path * self.k_paths != self.d_model:
                raise ConfigError(
                    f"d_path: d_path*k_paths must equal d_model "
                    f"({self.d_path}*{self.k_paths} != {self.d_model})"
                )
            if self.d_path % self.heads_path != 0:
                raise ConfigError("heads_path: must divide d_path")
        if self.d_model % self.heads_layer != 0:
            raise ConfigError("heads_layer: must divide d_model")
        if isinstance(self.gumbel, dict):
            self.gumbel = read_config(GumbelConfig, self.gumbel, "gumbel.")
        elif not isinstance(self.gumbel, GumbelConfig):
            raise ConfigError(f"gumbel: expected a mapping, got {self.gumbel!r}")

    def split_blocks(self) -> tuple:
        """(before, after): layer blocks ahead of and behind the parallel core."""
        if self.connection_kind == "none":
            return self.n_layer_blocks, 0
        n_after = 1 if self.n_layer_blocks > 1 else 0
        return self.n_layer_blocks - n_after, n_after

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return read_config(cls, d)


@dataclass
class PaPaformerModel:
    """A built model: parameters plus the config that shaped them."""

    config: ModelConfig
    embed: Tensor
    blocks_before: list
    down_proj: Tensor | None
    parallel_layers: list
    blocks_after: list
    final_norm_scale: Tensor
    lm_head: Tensor

    def named_params(self) -> dict:
        out = {"embed": self.embed}
        for i, b in enumerate(self.blocks_before):
            out.update(b.named_params(f"block_before{i}."))
        if self.down_proj is not None:
            out["down_proj"] = self.down_proj
        for i, layer in enumerate(self.parallel_layers):
            out.update(layer.named_params(f"parallel{i}."))
        for i, b in enumerate(self.blocks_after):
            out.update(b.named_params(f"block_after{i}."))
        out["final_norm_scale"] = self.final_norm_scale
        out["lm_head"] = self.lm_head
        return out

    def zero_grad(self) -> None:
        for p in self.named_params().values():
            p.zero_grad()


# setters of the bundled OpenBLAS's thread count, by build: NumPy 2 wheels, then NumPy 1 wheels
_BLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)
_M_ARENA_MAX = -8  # glibc mallopt parameter


@functools.cache
def _claim_cpus() -> bool:
    """Pin NumPy's OpenBLAS to one thread and glibc malloc to one arena, once per process.

    Weight draws and training micro-batches run on one thread each. BLAS
    threads on top of them would oversubscribe the CPUs: two workers at two
    BLAS threads ran at 0.73x the serial speed. Each thread would also get its
    own malloc arena, which keeps the high-water mark of a micro-batch tape;
    so this must run before the first such thread starts. One BLAS thread also
    makes each weight-gradient GEMM reduce in one order, so the bits no longer
    depend on OPENBLAS_NUM_THREADS. Returns False when either setting is out
    of reach; callers then stay on the calling thread.
    """
    try:
        try:
            from numpy._core import _multiarray_umath
        except ImportError:  # NumPy 1
            from numpy.core import _multiarray_umath
        blas = ctypes.CDLL(_multiarray_umath.__file__)
        libc = ctypes.CDLL(None)
    except (ImportError, OSError):
        return False
    set_threads = next((getattr(blas, n) for n in _BLAS_SET_THREADS if hasattr(blas, n)), None)
    mallopt = getattr(libc, "mallopt", None)
    if set_threads is None or mallopt is None:
        return False
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    set_threads(1)
    return mallopt(_M_ARENA_MAX, 1) == 1


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def init_weights(model: PaPaformerModel, rng: RngState, skip=frozenset()) -> None:
    """Draw the model's weight matrices in place; deterministic under the rng's (seed, position).

    Weight matrix i, counted in ``named_params`` order with the norm scales
    left out, is drawn as N(0, INIT_STD) from ``RngState(rng.seed,
    rng.position + i)``, so each draw is independent of the others and they
    run on up to one thread per usable CPU with the same bits at any count.
    Names in ``skip`` keep their data but still use up their position, and
    ``rng`` ends past every weight matrix either way.
    """
    matrices = [(name, t) for name, t in model.named_params().items() if t.data.ndim == 2]
    jobs = [(t, RngState(rng.seed, rng.position + i)) for i, (name, t) in enumerate(matrices) if name not in skip]
    rng.position += len(matrices)

    def draw(job):
        t, stream = job
        t.data = stream.normal(t.shape, std=INIT_STD)

    workers = min(len(jobs), _usable_cpus()) if _claim_cpus() else 1
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        list(map(draw, jobs) if pool is None else pool.map(draw, jobs))


def build(config: ModelConfig, rng: RngState | None) -> PaPaformerModel:
    """Initialize all parameters; deterministic under the rng's (seed, position).

    With ``rng=None`` the result is the model's skeleton: the same parameter
    names, order, shapes and dtypes, with read-only zero views that allocate
    nothing where a fresh build draws random weights (``blocks.weight``), and
    no draws made. Checkpoint loading fills a skeleton;
    parameter counts and composition provenance only read its names and shapes.
    A seeded build draws the skeleton's weight matrices with ``init_weights``.
    Every build claims the CPUs (``_claim_cpus``), a skeleton build too, so a
    process that only loads checkpoints computes at one BLAS thread as well.
    """
    c = config
    before, after = c.split_blocks()
    embed = weight((c.vocab_size, c.d_model), None)
    blocks_before = [
        LayerBlockParams.init(c.d_model, c.heads_layer, c.ff_layer, None) for _ in range(before)
    ]
    down_proj = None
    parallel_layers = []
    if c.connection_kind != "none":
        down_proj = weight((c.d_model, c.d_path), None)
        for i in range(c.n_parallel_layers):
            paths = [
                LayerBlockParams.init(c.d_path, c.heads_path, c.ff_path, None)
                for _ in range(c.k_paths)
            ]
            final = i == c.n_parallel_layers - 1
            if c.connection_kind == "share_linear":
                conn = ShareLinearParams.init(c.k_paths, c.d_path, c.d_model if final else c.d_path, None)
            else:
                variant = 1 if c.connection_kind == "gumbel_v1" else 2
                conn = GumbelParams.init(variant, c.k_paths, c.d_path, None)
            parallel_layers.append(ParallelLayerParams(paths=paths, connection=conn, final=final))
    blocks_after = [
        LayerBlockParams.init(c.d_model, c.heads_layer, c.ff_layer, None) for _ in range(after)
    ]
    final_norm_scale = Tensor(np.ones(c.d_model, dtype=default_dtype()), requires_grad=True)
    lm_head = weight((c.d_model, c.vocab_size), None)
    model = PaPaformerModel(
        config=c,
        embed=embed,
        blocks_before=blocks_before,
        down_proj=down_proj,
        parallel_layers=parallel_layers,
        blocks_after=blocks_after,
        final_norm_scale=final_norm_scale,
        lm_head=lm_head,
    )
    if rng is not None:
        init_weights(model, rng)  # claims the CPUs before its first draw thread
    else:
        _claim_cpus()
    return model


def trunk(
    model: PaPaformerModel,
    tokens: np.ndarray,
    rng: RngState | None = None,
    training: bool = False,
    cache: KVCache | None = None,
    last_row: bool = False,
) -> tuple:
    """The model up to its last parallel layer: ([B, T, width] activations, routing records).

    Runs the embedding, the blocks before the parallel core, the
    down-projection and the parallel layers of a [T] or [B, T] id array; a
    [T] array runs as one batch row. Routing traces read everything they need
    from the records, so they stop here. With ``last_row``, the trunk's last
    attention layer (the last parallel layer, or a baseline's last block)
    computes keys and values at every position but the rest of it at the
    last position only, so T is 1 in its output and records. Other arguments
    are those of ``forward``.
    """
    c = model.config
    tokens = np.asarray(tokens)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    length = tokens.shape[1] + (0 if cache is None else cache.length)
    if length > c.max_seq_len:
        raise ConfigError(f"sequence length {length} exceeds max_seq_len {c.max_seq_len}")
    x = embedding(model.embed, tokens)
    before, layers = model.blocks_before, model.parallel_layers
    for i, b in enumerate(before):
        x = layer_block(x, b, c.max_seq_len, cache, last_row and not layers and i == len(before) - 1)
    if last_row and not before and not layers:
        x = x[:, -1:]  # a baseline without blocks has no attention layer to cut the rows
    records = []
    if layers:
        x = x @ model.down_proj
        for i, layer in enumerate(layers):
            x, rec = parallel_layer_forward(
                x, layer, c.gumbel, rng, training, c.max_seq_len, cache, last_row and i == len(layers) - 1
            )
            records.append(rec)
    if cache is not None:
        cache.length = length
    return x, records


def forward(
    model: PaPaformerModel,
    tokens: np.ndarray,
    rng: RngState | None = None,
    training: bool = False,
    cache: KVCache | None = None,
    last_row: bool = False,
) -> tuple:
    """Next-token logits for a [T] or [B, T] id array, plus routing records.

    ``trunk``, then the blocks after the parallel core, the final norm and
    the LM head. Training mode draws Gumbel noise from ``rng``; evaluation
    routes without noise and needs no rng. With a ``cache``, the tokens
    continue the ``cache.length`` positions already run through it, and
    logits and records cover the new tokens only; every other layer acts on
    each position alone, so only attention needs the cache.

    ``last_row`` is for forward-only callers that read the last position's
    logits alone. The model's last attention layer (the last block after the
    parallel core, else as in ``trunk``) still computes and caches keys and
    values at every position, but its queries, attention, output projection,
    residual and feed-forward, and then the final norm and the LM head, run
    on the last position only: the logits are its [B, 1, vocab] row, or
    [1, vocab] for a [T] array. Records of that layer cover the same row.
    """
    c = model.config
    after = model.blocks_after
    x, records = trunk(model, tokens, rng, training, cache, last_row and not after)
    for i, b in enumerate(after):
        x = layer_block(x, b, c.max_seq_len, cache, last_row and i == len(after) - 1)
    x = rmsnorm(x, model.final_norm_scale)
    logits = x @ model.lm_head
    if np.ndim(tokens) == 1:
        logits = logits.reshape(logits.shape[1], logits.shape[2])
    return logits, records


def count_params(model: PaPaformerModel) -> tuple:
    """(total, per-name breakdown) of scalar parameters."""
    breakdown = {name: p.size for name, p in model.named_params().items()}
    return sum(breakdown.values()), breakdown
