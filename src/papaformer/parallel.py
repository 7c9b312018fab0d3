"""Parallel layers and the Connection Block strategies that fuse them.

A parallel layer runs k independent width-d' layer blocks on the same input
and combines their outputs with one of three strategies:

* share_linear - a fixed linear map over the concatenated path outputs,
* gumbel_v1    - router logits computed from the combined representation,
* gumbel_v2    - router logits computed directly from the concatenation.

Both Gumbel strategies emit per-token routing weights over k paths plus one
"combined" slot, produced by a Gumbel-Softmax so path selection stays
differentiable.
"""

from __future__ import annotations

from dataclasses import dataclass

from papaformer.blocks import ConfigError, KVCache, layer_block, weight
from papaformer.tensor import RngState, Tensor, concat, gumbel_noise


@dataclass
class GumbelConfig:
    """Temperature of the routing gate's soft Gumbel-Softmax."""

    temperature: float = 1.0

    RETIRED = {"hard": False, "eval_deterministic": True}  # see blocks.read_config

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError(f"gumbel temperature must be positive, got {self.temperature}")


@dataclass
class RoutingWeights:
    """Per-token routing simplex over k paths + 1 combined slot."""

    pi: Tensor  # [B, T, k+1], rows on the simplex


@dataclass
class ShareLinearParams:
    """Connection weight W: (k*d') x d_out."""

    w: Tensor

    @classmethod
    def init(cls, k: int, d_path: int, d_out: int, rng: RngState | None) -> "ShareLinearParams":
        return cls(w=weight((k * d_path, d_out), rng))

    def named_params(self, prefix: str = "") -> dict:
        return {f"{prefix}w": self.w}


@dataclass
class GumbelParams:
    """Combine/router weights for either Gumbel variant.

    v1: w_combine (k*d') x d', w_router d' x (k+1)
    v2: w_router (k*d') x (k+1), w_combine (k*d') x d'

    On the last parallel layer the output is the path concatenation, so only
    pi is computed there. That layer's v2 ``w_combine`` never gets a
    gradient; with both auxiliary loss weights at 0, pi does not affect the
    loss and both of that layer's tensors (v1 or v2) get only zero gradients.
    They are kept so parameter totals match the paper's.
    """

    variant: int
    w_combine: Tensor
    w_router: Tensor

    @classmethod
    def init(cls, variant: int, k: int, d_path: int, rng: RngState | None) -> "GumbelParams":
        if variant not in (1, 2):
            raise ConfigError(f"unknown gumbel variant {variant}")
        w_combine = weight((k * d_path, d_path), rng)
        router_in = d_path if variant == 1 else k * d_path
        w_router = weight((router_in, k + 1), rng)
        return cls(variant=variant, w_combine=w_combine, w_router=w_router)

    def named_params(self, prefix: str = "") -> dict:
        return {f"{prefix}w_combine": self.w_combine, f"{prefix}w_router": self.w_router}


@dataclass
class ParallelLayerParams:
    """k path blocks at width d' plus the connection that fuses them.

    The ``final`` (last) layer restores the full width d: a share_linear
    connection there is the expanding (k*d') x d map, named ``final.w``, and
    a Gumbel connection outputs the path concatenation.
    """

    paths: list  # k LayerBlockParams at width d'
    connection: object  # ShareLinearParams | GumbelParams
    final: bool = False

    def named_params(self, prefix: str = "") -> dict:
        out = {}
        for i, p in enumerate(self.paths):
            out.update(p.named_params(f"{prefix}path{i}."))
        expands = self.final and isinstance(self.connection, ShareLinearParams)
        out.update(self.connection.named_params(f"{prefix}{'final' if expands else 'conn'}."))
        return out


def run_paths(
    x: Tensor, paths: list, max_seq_len: int | None = None, cache: KVCache | None = None, last_row: bool = False
) -> list:
    """Run each path block independently on the same input."""
    return [layer_block(x, p, max_seq_len, cache, last_row) for p in paths]


def concat_paths(outputs: list) -> Tensor:
    """Feature-axis concatenation in path order: [f_1 ; ... ; f_k]."""
    return concat(outputs, axis=-1)


def gumbel_softmax(
    logits: Tensor,
    cfg: GumbelConfig,
    rng: RngState | None = None,
    training: bool = True,
) -> Tensor:
    """Soft Gumbel-Softmax over the last axis (Jang et al. 2016).

    Training mode adds fresh Gumbel noise to the logits before the tempered
    softmax; evaluation adds none, so routing traces are reproducible and a
    cached decode step routes each position as a full forward would.
    """
    if training:
        if rng is None:
            raise ConfigError("training-mode gumbel_softmax requires an rng stream")
        logits = logits + gumbel_noise(logits.shape, rng)
    return (logits * (1.0 / cfg.temperature)).softmax(axis=-1)


def _mixture(outputs: list, x_comb: Tensor, pi: Tensor) -> Tensor:
    """y = sum_i pi_i f_i(x) + pi_comb x_comb."""
    k = len(outputs)
    y = outputs[0] * pi[..., 0:1]
    for i in range(1, k):
        y = y + outputs[i] * pi[..., i : i + 1]
    return y + x_comb * pi[..., k : k + 1]


def _gumbel_forward(outputs, params, variant, cfg, rng, training, forced_pi, final) -> tuple:
    if params.variant != variant:
        raise ConfigError(f"gumbel_v{variant}_forward called with non-v{variant} params")
    cat = concat_paths(outputs)
    # a final layer outputs the concatenation itself, so x_comb is needed there
    # only as v1's router input
    x_comb = cat @ params.w_combine if variant == 1 or not final else None
    if forced_pi is None:
        logits = (x_comb if variant == 1 else cat) @ params.w_router
        pi = gumbel_softmax(logits, cfg, rng, training)
    else:
        pi = forced_pi
    y = cat if final else _mixture(outputs, x_comb, pi)
    return y, RoutingWeights(pi=pi)


def gumbel_v1_forward(
    outputs: list,
    params: GumbelParams,
    cfg: GumbelConfig,
    rng: RngState | None = None,
    training: bool = True,
    forced_pi: Tensor | None = None,
    final: bool = False,
) -> tuple:
    """Routing from the combined representation.

    x_comb = W_combine [f_1;...;f_k]; router logits come from x_comb.
    ``forced_pi`` bypasses the gate entirely (testing/analysis hook). With
    ``final=True`` the output is [f_1;...;f_k] and the mixture is skipped;
    pi is still computed and recorded.
    """
    return _gumbel_forward(outputs, params, 1, cfg, rng, training, forced_pi, final)


def gumbel_v2_forward(
    outputs: list,
    params: GumbelParams,
    cfg: GumbelConfig,
    rng: RngState | None = None,
    training: bool = True,
    forced_pi: Tensor | None = None,
    final: bool = False,
) -> tuple:
    """Routing scored directly from the concatenated path outputs.

    With ``final=True`` the output is [f_1;...;f_k]; neither the mixture nor
    x_comb is built, and pi is still computed and recorded.
    """
    return _gumbel_forward(outputs, params, 2, cfg, rng, training, forced_pi, final)


@dataclass
class DominanceRecord:
    """Per-layer share_linear record: path outputs and the combined output."""

    path_outputs: list
    combined: Tensor


def parallel_layer_forward(
    x: Tensor,
    params: ParallelLayerParams,
    cfg: GumbelConfig,
    rng: RngState | None = None,
    training: bool = True,
    max_seq_len: int | None = None,
    cache: KVCache | None = None,
    last_row: bool = False,
) -> tuple:
    """One parallel layer: run paths, then fuse with the layer's connection.

    Inter-layer output stays at width d'; a ``params.final`` layer restores
    the full width d. Gumbel routing weights are computed and recorded at
    every layer, for the auxiliary losses and routing traces. ``cache`` and
    ``last_row`` are passed to every path block; with ``last_row`` the paths
    return the last position only, so output and records cover that row.
    """
    outputs = run_paths(x, params.paths, max_seq_len, cache, last_row)
    conn = params.connection
    if isinstance(conn, ShareLinearParams):
        y = concat_paths(outputs) @ conn.w  # y = W [f_1 ; ... ; f_k]
        return y, DominanceRecord(path_outputs=outputs, combined=y)
    gumbel_forward = gumbel_v1_forward if conn.variant == 1 else gumbel_v2_forward
    return gumbel_forward(outputs, conn, cfg, rng, training, final=params.final)
