"""Merge independently pretrained path models into one parallel model.

Each path checkpoint contributes its layer-block weights verbatim to the
matching path slot of the target's parallel layers. Embeddings are
concatenated per token along the feature axis (path 1 occupies dims
[0, d_path)), and the output projections are concatenated along their input
axis, so the composite's logits start as the sum of the paths' logits.
Everything else — down-projection, connection/router weights, outer layer
blocks, final norm — is freshly initialized with the standard build policy.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from papaformer.checkpoint import load_checkpoint, read_manifest
from papaformer.model import ModelConfig, PaPaformerModel, build, init_weights
from papaformer.tensor import RngState


class CompositionError(ValueError):
    """The plan or its source checkpoints cannot produce a valid composite."""


@dataclass
class CompositionPlan:
    path_checkpoints: list  # checkpoint file paths, in path-slot order
    target_config: ModelConfig | Callable  # or a function of the paths' vocab size that makes it; see validate_plan


def provenance_tag(name: str) -> str:
    """Where a composed parameter comes from: 'concatenated', 'reused' or 'fresh'."""
    if name in ("embed", "lm_head"):
        return "concatenated"
    if name.startswith("parallel") and ".path" in name:
        return "reused"
    return "fresh"


def composition_provenance(model: PaPaformerModel) -> dict:
    """Provenance tag per parameter name of a composed model."""
    return {name: provenance_tag(name) for name in model.named_params()}


def weight_source(name: str, tag: str) -> str:
    """Where a composed parameter's initial value comes from, given its provenance tag."""
    if tag == "reused":
        layer, slot, param = name.split(".", 2)
        return f"path {int(slot.removeprefix('path')) + 1} block_before{layer.removeprefix('parallel')}.{param}"
    if tag == "concatenated":
        return f"all paths {name}"
    return "init policy"


def validate_plan(plan: CompositionPlan) -> list:
    """Conflicts between the plan and its path manifests, touching no weights; empty when valid.

    A ``target_config`` given as a function is called with the vocab size the
    paths' manifests agree on, and the plan keeps the config it returns, so a
    caller whose target takes the data's vocab reads no manifest itself.
    """
    conflicts = []
    configs = []
    for i, path in enumerate(plan.path_checkpoints):
        try:
            configs.append(ModelConfig.from_dict(read_manifest(path)["model_config"]))
        except (OSError, KeyError, ValueError) as e:
            conflicts.append(f"path {i + 1}: unreadable checkpoint ({e})")
            configs.append(None)
    vocabs = {c.vocab_size for c in configs if c is not None}
    if callable(plan.target_config):
        if len(vocabs) != 1:
            if len(vocabs) > 1 or not conflicts:
                conflicts.append(f"vocab_size: paths {sorted(vocabs)} must all match")
            return conflicts
        plan.target_config = plan.target_config(vocabs.pop())
    target = plan.target_config
    if target.connection_kind == "none":
        return ["target_config: connection_kind 'none' has no path slots"]
    if len(plan.path_checkpoints) != target.k_paths:
        conflicts.append(
            f"path_checkpoints: got {len(plan.path_checkpoints)} checkpoints for k_paths={target.k_paths}"
        )
    if len(vocabs) > 1 or (vocabs and vocabs != {target.vocab_size}):
        conflicts.append(
            f"vocab_size: paths {sorted(vocabs)} vs target {target.vocab_size} must all match"
        )
    for i, c in enumerate(configs):
        if c is None:
            continue
        for mine, theirs in (("d_model", "d_path"), ("ff_layer", "ff_path"), ("heads_layer", "heads_path")):
            if getattr(c, mine) != getattr(target, theirs):
                conflicts.append(
                    f"path {i + 1}: {mine}={getattr(c, mine)} != target {theirs}={getattr(target, theirs)}"
                )
        if c.n_layer_blocks != target.n_parallel_layers:
            conflicts.append(
                f"path {i + 1}: {c.n_layer_blocks} layer blocks != target "
                f"n_parallel_layers={target.n_parallel_layers}"
            )
        if c.connection_kind != "none":
            conflicts.append(f"path {i + 1}: source must be a plain stack, not parallel")
    return conflicts


def compose(plan: CompositionPlan, rng: RngState) -> PaPaformerModel:
    """Build the composite model; deterministic given (plan, rng seed).

    The target's skeleton gets only its fresh weights drawn, each from the
    stream position a full seeded build would draw it at; the reused and
    concatenated ones are filled from the paths, and ``rng`` ends where that
    build would leave it.
    """
    conflicts = validate_plan(plan)
    if conflicts:
        raise CompositionError("; ".join(conflicts))
    target = plan.target_config
    paths = [load_checkpoint(p).model for p in plan.path_checkpoints]
    model = build(target, None)
    init_weights(model, rng, skip={n for n in model.named_params() if provenance_tag(n) != "fresh"})

    model.embed.data = np.concatenate([p.embed.data for p in paths], axis=1)
    model.lm_head.data = np.concatenate([p.lm_head.data for p in paths], axis=0)
    for j, layer in enumerate(model.parallel_layers):
        for dst_block, src in zip(layer.paths, paths):
            src_params = src.blocks_before[j].named_params()
            for name, t in dst_block.named_params().items():
                t.data = src_params[name].data
    return model
