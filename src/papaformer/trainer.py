"""Deterministic training loop and the two-phase path/composite regimen.

One logical optimizer step accumulates gradients over ``grad_accum_steps``
micro-batches (each micro loss scaled by 1/accum so accumulation equals one
big batch), then applies a decoupled-weight-decay Adam update at the cosine
annealed learning rate. All randomness flows through two RngState streams:
data order, planned from ``cfg.seed`` by every run, and model noise, saved in
epoch checkpoints; so identical seeds reproduce loss trajectories bit-exactly
and epoch-boundary checkpoints resume without divergence.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, asdict

import numpy as np

from papaformer.blocks import ConfigError, read_config
from papaformer.checkpoint import CheckpointError, save_checkpoint
from papaformer.data import PATH_CORPORA, ROLES, ChunkStore, DataError, make_batches
from papaformer.losses import DEFAULT_LAMBDA, cross_entropy, total_loss
from papaformer.model import ModelConfig, PaPaformerModel, _claim_cpus, _usable_cpus, build, forward
from papaformer.parallel import GumbelParams
from papaformer.tensor import NonFiniteError, RngState, add_grads


def check_seed(seed: int, name: str) -> None:
    """NumPy's generators take only non-negative seeds."""
    if seed < 0:
        raise ConfigError(f"{name}: must be >= 0, got {seed}")


@dataclass
class TrainConfig:
    lr: float = 5e-4
    batch_size: int = 32
    epochs: int = 2
    grad_accum_steps: int = 8
    weight_decay: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.95
    adam_eps: float = 1e-5
    seed: int = 42
    lambda_entropy: float = DEFAULT_LAMBDA
    lambda_load: float = DEFAULT_LAMBDA
    warmup_steps: int = 0
    grad_clip: float = 0.0  # 0 disables clipping
    max_steps: int | None = None  # cap on logical steps, for smoke runs

    RETIRED = {"sign_entropy": 1, "sign_load": 1}  # see blocks.read_config

    def __post_init__(self):
        if self.lr <= 0 or self.batch_size < 1 or self.epochs < 1 or self.grad_accum_steps < 1:
            raise ConfigError("lr/batch_size/epochs/grad_accum_steps must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ConfigError("adam betas must lie in (0, 1)")
        if self.weight_decay < 0 or self.adam_eps <= 0:
            raise ConfigError("weight_decay must be >= 0 and adam_eps > 0")
        if self.lambda_entropy < 0 or self.lambda_load < 0:
            raise ConfigError("lambda_entropy/lambda_load: loss weights must be >= 0")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError("max_steps: must be >= 1, or null for no cap")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps: must be >= 0")
        if self.grad_clip < 0:
            raise ConfigError("grad_clip: must be >= 0 (0 disables clipping)")
        check_seed(self.seed, "seed")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return read_config(cls, d, "train.")


@dataclass
class OptimizerState:
    m: dict = field(default_factory=dict)  # name -> first moment
    v: dict = field(default_factory=dict)  # name -> second moment
    step: int = 0  # optimizer steps taken: the one step counter of a run

    @classmethod
    def init(cls, params: dict) -> "OptimizerState":
        return cls(
            m={n: np.zeros_like(p.data) for n, p in params.items()},
            v={n: np.zeros_like(p.data) for n, p in params.items()},
        )

    def tensors(self) -> dict:
        out = {f"m.{n}": a for n, a in self.m.items()}
        out.update({f"v.{n}": a for n, a in self.v.items()})
        return out

    @classmethod
    def from_tensors(cls, tensors: dict, step: int) -> "OptimizerState":
        m = {n[2:]: a for n, a in tensors.items() if n.startswith("m.")}
        v = {n[2:]: a for n, a in tensors.items() if n.startswith("v.")}
        return cls(m=m, v=v, step=step)


def adamw_step(params: dict, state: OptimizerState, lr_t: float, cfg: TrainConfig) -> None:
    """In-place decoupled AdamW update.

    A non-finite gradient raises NonFiniteError before any tensor changes.

    Per tensor, with scalars taking the parameter's dtype:
    m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g,
    p -= (lr (m / bc1)) / (sqrt(v / bc2) + eps), then p -= (lr wd) p.
    Each product and quotient runs in that order through two scratch
    buffers, so the update is the same bit for bit as the expression
    evaluated with temporaries.
    """
    for name, p in params.items():
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise NonFiniteError(f"non-finite gradient for {name}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m = state.m[name]
        v = state.v[name]
        step, denom = np.empty_like(p.data), np.empty_like(p.data)
        m *= cfg.beta1
        m += np.multiply(g, 1.0 - cfg.beta1, out=step)
        v *= cfg.beta2
        np.multiply(g, 1.0 - cfg.beta2, out=step)
        step *= g
        v += step
        np.divide(m, bc1, out=step)
        step *= lr_t
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += cfg.adam_eps
        step /= denom
        p.data -= step
        if cfg.weight_decay > 0:
            p.data -= np.multiply(p.data, lr_t * cfg.weight_decay, out=step)


def cosine_lr(step: int, total_steps: int, lr_max: float, warmup_steps: int = 0) -> float:
    """Cosine annealing from lr_max at step 0 to 0 at total_steps."""
    if not (0 <= step <= total_steps):
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if warmup_steps and step < warmup_steps:
        return lr_max * (step + 1) / warmup_steps
    span = max(total_steps - warmup_steps, 1)
    progress = (step - warmup_steps) / span
    return 0.5 * lr_max * (1.0 + math.cos(math.pi * progress))


def clip_gradients(params: dict, max_norm: float) -> float:
    total = math.sqrt(sum(float(np.sum(p.grad.astype(np.float64) ** 2)) for p in params.values() if p.grad is not None))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * np.asarray(scale, dtype=p.grad.dtype)
    return total


@dataclass
class TrainState:
    """What a run cannot recompute: the AdamW moments and step count, and the model-noise stream."""

    opt: OptimizerState
    model_rng: RngState


@dataclass
class TrainReport:
    steps: list = field(default_factory=list)  # per-step scalar dicts
    consumed: list = field(default_factory=list)  # (corpus, sub, epoch, start) per consumed chunk
    planned: list = field(default_factory=list)  # same, for the full batch plan
    checkpoints: list = field(default_factory=list)

    @property
    def losses(self) -> list:
        return [s["total"] for s in self.steps]


def _micro_step(model: PaPaformerModel, batch: list, rng: RngState, cfg: TrainConfig, step: int) -> tuple:
    """One micro-batch: forward, loss, and the backward of loss/accum into a fresh sink.

    Returns (loss scalars, {leaf: gradient}, tokens). It writes no state that
    another micro-batch reads, so micro-batches may run on separate threads.
    """
    tokens = np.stack([c.tokens for c in batch]).astype(np.int64)
    x, y = tokens[:, :-1], tokens[:, 1:]
    logits, records = forward(model, x, rng=rng, training=True)
    ce = cross_entropy(logits, y)
    del logits  # no backward reads the [N, V] logits, so they go before the walk
    breakdown = total_loss(ce, records, cfg.lambda_entropy, cfg.lambda_load)
    del records  # nor a share_linear record's path outputs
    if not np.isfinite(breakdown.total.data):
        raise NonFiniteError(f"non-finite loss at step {step}; last-good checkpoint retained")
    sink = {}
    (breakdown.total * (1.0 / cfg.grad_accum_steps)).backward(sink)
    return breakdown.scalars(), sink, x.size


def train(
    model: PaPaformerModel,
    chunks: list,
    cfg: TrainConfig,
    state: TrainState | None = None,
    checkpoint_path: str | None = None,
    log_file=None,
) -> TrainReport:
    """Train ``model`` on the given chunks; deterministic under cfg.seed.

    Epoch e trains on the chunks whose ``epoch`` is e; an epoch that none of
    them belongs to raises DataError. Every epoch's batches are planned up
    front from ``RngState(cfg.seed)`` and cut into optimizer steps of
    ``grad_accum_steps`` micro-batches each; the steps of all epochs form one
    list, cut to ``max_steps``, whose length is the lr schedule's horizon. An
    epoch checkpoint is written after the last step of each epoch in the
    list, with ``extra={"global_step": n}``, to ``checkpoint_path``: a
    ``str.format`` template, whose ``{epoch}`` field names the epoch.

    Resuming: pass the ``TrainState`` that ``state_from_checkpoint`` rebuilds
    from an epoch checkpoint; planning replays the seeded batch order and the
    run starts at the step its optimizer has taken, so resumed training under
    the same ``cfg`` is bit-identical to an uninterrupted run.

    A step's micro-batches run on up to one thread per usable CPU, each on
    its own tape. Micro-batch j draws its Gumbel noise from the stream
    position the serial loop would reach it at, and its gradients are added
    into ``.grad`` in micro-batch order as results arrive, so the result is
    the same bit for bit at any worker count.
    """
    if state is None:
        state = TrainState(opt=OptimizerState.init(model.named_params()), model_rng=RngState(cfg.seed + 1))
    opt = state.opt
    data_rng = RngState(cfg.seed)
    params = model.named_params()
    report = TrainReport()

    accum = cfg.grad_accum_steps
    steps = []  # (epoch, micro-batches) per optimizer step
    for epoch in range(1, cfg.epochs + 1):
        pool = [c for c in chunks if c.epoch == epoch]
        if not pool:
            raise DataError(f"epoch {epoch}: none of the {len(chunks)} chunks given belongs to it")
        plan = make_batches([pool], cfg.batch_size, data_rng)
        report.planned.extend((c.corpus, c.sub_collection, c.epoch, c.start) for batch in plan for c in batch)
        steps.extend((epoch, plan[i : i + accum]) for i in range(0, len(plan) - accum + 1, accum))
    steps = steps[: cfg.max_steps]
    if not steps:
        raise ConfigError("not enough batches for a single optimizer step")

    # a training forward draws once per Gumbel layer and nowhere else
    draws = sum(isinstance(layer.connection, GumbelParams) for layer in model.parallel_layers)
    workers = min(accum, _usable_cpus()) if _claim_cpus() else 1
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for epoch, micro in steps[opt.step :]:
            lr_t = cosine_lr(opt.step, len(steps), cfg.lr, cfg.warmup_steps)
            t0 = time.perf_counter()
            acc = {"ce": 0.0, "entropy": 0.0, "load": 0.0, "total": 0.0}
            n_tokens = 0
            start = state.model_rng.position
            rngs = [RngState(state.model_rng.seed, start + j * draws) for j in range(len(micro))]
            results = run(lambda batch, rng: _micro_step(model, batch, rng, cfg, opt.step), micro, rngs)
            for j, (batch, rng, (scalars, sink, tokens)) in enumerate(zip(micro, rngs, results)):
                if rng.position != start + (j + 1) * draws:
                    raise RuntimeError(
                        f"a training forward drew {rng.position - start - j * draws} times, not {draws}: "
                        "micro-batches would not draw the serial loop's noise"
                    )
                add_grads(sink)
                for k in acc:
                    acc[k] += scalars[k] / accum
                n_tokens += tokens
                report.consumed.extend((c.corpus, c.sub_collection, c.epoch, c.start) for c in batch)
            state.model_rng.position = start + len(micro) * draws
            if cfg.grad_clip > 0:
                clip_gradients(params, cfg.grad_clip)
            adamw_step(params, opt, lr_t, cfg)
            model.zero_grad()
            dt = time.perf_counter() - t0
            entry = {"step": opt.step, "lr": lr_t, **acc, "tokens_per_sec": n_tokens / dt}
            report.steps.append(entry)
            if log_file is not None:
                log_file.write(
                    "step={step} lr={lr:.6g} ce={ce:.6f} entropy={entropy:.6f} "
                    "load={load:.6f} total={total:.6f} tokens_per_sec={tokens_per_sec:.0f}\n".format(**entry)
                )
            if checkpoint_path is not None and (opt.step == len(steps) or steps[opt.step][0] != epoch):
                ckpt_path = checkpoint_path.format(epoch=epoch)
                save_checkpoint(
                    ckpt_path,
                    model,
                    provenance={n: "trained" for n in params},
                    train_config=cfg.to_dict(),
                    rng=state.model_rng,
                    opt_tensors=opt.tensors(),
                    extra={"global_step": opt.step},
                )
                report.checkpoints.append(ckpt_path)
    return report


def state_from_checkpoint(ckpt) -> TrainState:
    """The TrainState an epoch checkpoint resumes from: its ``extra["global_step"]``, AdamW moments and ``rng``.

    Older checkpoints' ``opt_step``, ``epochs_done`` and ``data_rng`` extras are
    ignored: a resumed run plans its batches from its own ``cfg.seed``. A
    checkpoint without the step count or the moments raises CheckpointError.
    """
    lacks = [] if "global_step" in ckpt.extra else ['extra["global_step"]']
    lacks += [f"{k}.{n}" for n in ckpt.model.named_params() for k in "mv" if f"{k}.{n}" not in ckpt.opt_tensors]
    if lacks:
        more = f" and {len(lacks) - 3} more" if len(lacks) > 3 else ""
        raise CheckpointError(f"no training state to resume: missing {', '.join(lacks[:3])}{more}; an epoch checkpoint "
                              "of train holds it, and load_checkpoint(path, moments=True) reads the moments")
    return TrainState(OptimizerState.from_tensors(ckpt.opt_tensors, ckpt.extra["global_step"]), ckpt.rng.clone())


# -- two-phase regimen -----------------------------------------------------


def run_phase2(
    store: ChunkStore,
    path_config: ModelConfig,
    target_configs: dict,
    cfg: TrainConfig,
    out_dir: str,
    build_seed: int = 0,
) -> tuple:
    """Pretrain paths on their corpora's 60% sub-collections, compose, train on the 40%.

    ``target_configs`` maps run names to parallel ModelConfigs; each target's
    paths must have as many layer blocks as the target has parallel layers,
    so path models are trained per distinct depth. Returns (checkpoint paths,
    train reports) keyed by run name.
    """
    from papaformer.composer import CompositionPlan, compose, composition_provenance

    os.makedirs(out_dir, exist_ok=True)
    artifacts = {}
    reports = {}
    depths = sorted({t.n_parallel_layers for t in target_configs.values()})
    path_ckpts = {}
    for depth in depths:
        pc = ModelConfig.from_dict({**path_config.to_dict(), "n_layer_blocks": depth})
        for i in range(1, len(PATH_CORPORA) + 1):
            name = f"path{i}_d{depth}"
            model = build(pc, RngState(build_seed))
            ckpt_path = os.path.join(out_dir, f"{name}.ppck")
            reports[name] = train(model, store.select(**ROLES[f"path{i}"]), cfg, checkpoint_path=ckpt_path)
            path_ckpts.setdefault(depth, []).append(ckpt_path)
            artifacts[name] = ckpt_path
    sub40 = store.select(**ROLES["composite"])
    for run_name, target in target_configs.items():
        plan = CompositionPlan(path_checkpoints=path_ckpts[target.n_parallel_layers], target_config=target)
        composite = compose(plan, RngState(build_seed + 1))
        composed_path = os.path.join(out_dir, f"{run_name}_composed.ppck")
        save_checkpoint(composed_path, composite, provenance=composition_provenance(composite))
        artifacts[f"{run_name}_composed"] = composed_path
        ckpt_path = os.path.join(out_dir, f"{run_name}.ppck")
        reports[run_name] = train(composite, sub40, cfg, checkpoint_path=ckpt_path)
        artifacts[run_name] = ckpt_path
    return artifacts, reports
