"""Command-line front-end tying the pipeline together.

Verbs: pretokenize, train, compose, analyze, generate, count-params,
inspect-checkpoint. Configs are YAML files with ``model:`` and ``train:``
sections (unknown keys rejected); the packaged presets under ``configs/``
can be named directly. A seed comes from --seed, or for train from --seed
over the config's train.seed; it must be >= 0. The retired PAPA_SEED
environment variable makes train, compose and generate exit with a config
error. Exit codes: 0 success, 2 config error, 3 data error, 4 numerical abort,
5 composition conflict.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import math
import os
import sys
from collections import Counter

import yaml

from papaformer.analysis import (
    AnalysisError,
    format_generation,
    format_utilization,
    generate,
    trace_dominance,
    trace_records,
    trace_routing,
    utilization,
)
from papaformer.blocks import ConfigError
from papaformer.checkpoint import CheckpointError, load_checkpoint, read_manifest, save_checkpoint
from papaformer.composer import CompositionError, CompositionPlan, compose, composition_provenance, weight_source
from papaformer.data import (
    COMPOSITE_SUB,
    PATH_SUB,
    ROLES,
    ChunkStore,
    DataError,
    build_chunk_store,
    load_corpus_file,
    read_text,
    replacing,
    synthetic_math_corpus,
    synthetic_story_corpus,
)
from papaformer.model import ModelConfig, build, count_params
from papaformer.tensor import NonFiniteError, RngState
from papaformer.trainer import TrainConfig, check_seed, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4
EXIT_COMPOSITION = 5

_CONFIG_SECTIONS = ("model", "train")

def _preset_path(name: str):
    res = importlib.resources.files("papaformer") / "configs" / f"{name}.yaml"
    return res if res.is_file() else None


def load_config(ref: str) -> dict:
    """Parse a YAML config file or packaged preset name; strict on keys."""
    if os.path.exists(ref):
        text = read_text(ref, ConfigError)
    else:
        preset = _preset_path(ref)
        if preset is None:
            raise ConfigError(f"config {ref!r}: no such file or preset")
        text = preset.read_text(encoding="utf-8")
    raw = yaml.safe_load(text)
    if not isinstance(raw, dict):
        raise ConfigError(f"config {ref!r}: expected a mapping at the top level")
    unknown = set(raw) - set(_CONFIG_SECTIONS)
    if unknown:
        raise ConfigError(f"config {ref!r}: unknown sections {sorted(unknown)}")
    for name in _CONFIG_SECTIONS:
        if not isinstance(raw.get(name) or {}, dict):
            raise ConfigError(f"config {ref!r}: section {name!r} must be a mapping")
    return raw


def model_config_from(raw: dict, vocab_size: int | None = None) -> ModelConfig:
    """The config's model section; ``vocab_size`` is the data's vocab, which replaces the config's."""
    section = dict(raw.get("model") or {})
    pinned = section.get("vocab_size")
    if vocab_size is not None and (pinned in (None, "auto") or type(pinned) is int):
        if pinned not in (None, "auto", vocab_size):
            print(f"vocab_size: the config's {pinned} replaced by the data's {vocab_size}", file=sys.stderr)
        section["vocab_size"] = vocab_size
    elif pinned in (None, "auto"):
        raise ConfigError("vocab_size: set explicitly or provide a chunk store to infer from")
    return ModelConfig.from_dict(section)


def _load_corpora(args) -> list:
    corpora = []
    for spec in args.corpus or []:
        tag, _, path = spec.partition("=")
        if not path:
            raise ConfigError(f"--corpus {spec!r}: expected TAG=PATH")
        corpora.append(load_corpus_file(path, tag))
    if args.synthetic < 0:
        raise ConfigError(f"--synthetic: must be at least 0, got {args.synthetic}")
    if args.synthetic:
        corpora.append(synthetic_story_corpus(args.synthetic, seed=args.seed))
        corpora.append(synthetic_math_corpus(args.synthetic, seed=args.seed + 1))
    if not corpora:
        raise DataError("no corpora given; use --corpus TAG=PATH or --synthetic N")
    return corpora


def cmd_pretokenize(args) -> int:
    corpora = _load_corpora(args)
    store = build_chunk_store(corpora, seq_len=args.seq_len, seed=args.seed)
    store.save(args.out)
    print(f"wrote {args.out}: vocab={store.tokenizer.vocab_size} seq_len={store.seq_len}")
    counts = Counter((c.corpus, c.sub_collection, c.epoch) for c in store.chunks)
    for tag in sorted({tag for tag, _, _ in counts}):
        for sub in (PATH_SUB, COMPOSITE_SUB):
            for epoch in (1, 2):
                n = counts[tag, sub, epoch]
                print(f"  {tag} sub{sub} epoch{epoch}: {n} chunks ({n * store.seq_len} tokens)")
    return EXIT_OK


def cmd_train(args) -> int:
    raw = load_config(args.config)
    store = ChunkStore.load(args.data)
    cfg = TrainConfig.from_dict(raw.get("train") or {})
    if args.seed is not None:
        cfg.seed = args.seed
    model_cfg = model_config_from(raw, vocab_size=store.tokenizer.vocab_size)
    chunks = store.select(**ROLES[args.role])
    if not chunks:
        raise DataError(f"role {args.role!r}: chunk store has no matching chunks")
    if args.init:
        model = load_checkpoint(args.init).model
        if model.config != model_cfg:
            raise ConfigError(f"--init checkpoint config does not match {args.config!r}")
    else:
        model = build(model_cfg, RngState(cfg.seed))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    log_path = args.log or args.out + ".log"
    with replacing(log_path) as f, open(f.fileno(), "w", encoding="utf-8", closefd=False) as log:
        # train() formats its checkpoint path with {epoch}; --out is written as given
        literal = args.out.replace("{", "{{").replace("}", "}}")
        report = train(model, chunks, cfg, checkpoint_path=literal, log_file=log)
    print(f"trained {len(report.steps)} steps; final total loss {report.losses[-1]:.4f}")
    print(f"checkpoint: {args.out}")
    print(f"log: {log_path}")
    return EXIT_OK


def cmd_compose(args) -> int:
    raw = load_config(args.config)
    # the composite takes the paths' vocab, which validate_plan reads from their manifests
    plan = CompositionPlan(list(args.paths), target_config=lambda vocab: model_config_from(raw, vocab_size=vocab))
    model = compose(plan, RngState(args.seed))
    provenance = composition_provenance(model)
    save_checkpoint(args.out, model, provenance=provenance)
    with replacing(args.out + ".provenance.json") as f:
        f.write(json.dumps(provenance, indent=2, sort_keys=True).encode("utf-8"))
    for name, tag in provenance.items():
        print(f"{tag:<13} {name} <- {weight_source(name, tag)}")
    print(f"composite checkpoint: {args.out}")
    return EXIT_OK


def _read_prompts(path: str) -> list:
    prompts = []
    for i, line in enumerate(read_text(path, DataError).split("\n"), start=1):
        if not line.strip():
            continue
        domain, sep, text = line.partition("\t")
        if not sep:
            raise DataError(f"{path}:{i}: expected 'domain<TAB>prompt'")
        prompts.append((domain.strip(), text.strip()))
    if not prompts:
        raise DataError(f"{path}: no prompts")
    return prompts


def _model_and_store(args) -> tuple:
    """The checkpoint's model and the chunk store whose tokenizer reads its prompts; their vocabs must match."""
    model, store = load_checkpoint(args.checkpoint).model, ChunkStore.load(args.data)
    if store.tokenizer.vocab_size != model.config.vocab_size:
        sizes = f"{store.tokenizer.vocab_size} words, the checkpoint's model {model.config.vocab_size}"
        raise DataError(f"{args.data}: the chunk store's vocab has {sizes}")
    return model, store


def cmd_analyze(args) -> int:
    model, store = _model_and_store(args)
    prompts = _read_prompts(args.prompts)
    kind = model.config.connection_kind
    if kind == "none":
        raise AnalysisError("baseline models have no parallel layers to analyze")
    tracer = trace_dominance if kind == "share_linear" else trace_routing
    traces = [tracer(model, store.tokenizer.tokenize(text)) for _, text in prompts]
    domains = [domain for domain, _ in prompts]
    report = utilization(traces, domains)  # raises on an unknown domain before anything is printed
    for rec in trace_records(traces, domains):
        print(f"prompt={rec['prompt']} domain={rec['domain']} layer={rec['layer']} selection={rec['selection']}")
    print(format_utilization(report))
    return EXIT_OK


def cmd_generate(args) -> int:
    model, store = _model_and_store(args)
    tokens = store.tokenizer.tokenize(args.prompt)
    result = generate(model, tokens, args.max_new_tokens, args.temperature, args.top_n, RngState(args.seed))
    print(f"prompt: {args.prompt}")
    print(f"continuation: {result.text(store.tokenizer)}")
    print("next token predictions:")
    print(format_generation(result, store.tokenizer))
    return EXIT_OK


def cmd_count_params(args) -> int:
    raw = load_config(args.config)
    cfg = model_config_from(raw)
    total, breakdown = count_params(build(cfg, None))
    for name in sorted(breakdown):
        print(f"{breakdown[name]:>12,}  {name}")
    print(f"{total:>12,}  total")
    return EXIT_OK


def cmd_inspect_checkpoint(args) -> int:
    manifest = read_manifest(args.checkpoint)
    cfg = manifest["model_config"]  # a mapping; its keys are ModelConfig's to check, which inspecting skips
    print(f"format version {manifest['format_version']}")
    print(f"model: d_model={cfg.get('d_model')} connection={cfg.get('connection_kind')} vocab={cfg.get('vocab_size')}")
    if manifest.get("rng"):
        print(f"rng: seed={manifest['rng']['seed']} position={manifest['rng']['position']}")
    total = 0
    for e in manifest["tensors"]:
        n = math.prod(e["shape"])
        total += n
        print(f"{n:>12,}  {e['name']} {tuple(e['shape'])} [{e['provenance']}]")
    print(f"{total:>12,}  total scalars")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="papaformer", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("pretokenize", help="tokenize corpora into a chunk store")
    s.add_argument("--corpus", action="append", metavar="TAG=PATH")
    s.add_argument("--synthetic", type=int, default=0, metavar="N", help="add N synthetic docs per domain")
    s.add_argument("--seq-len", type=int, default=256)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_pretokenize)

    s = sub.add_parser("train", help="train a model on a chunk store")
    s.add_argument("--config", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--role", choices=sorted(ROLES), default="baseline")
    s.add_argument("--init", default=None, metavar="CKPT", help="start from this checkpoint instead of a fresh build")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--log", default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("compose", help="merge path checkpoints into a parallel model")
    s.add_argument("paths", nargs="+", metavar="PATH_CKPT")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_compose)

    s = sub.add_parser("analyze", help="routing/dominance utilization report")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--prompts", required=True, help="file of 'domain<TAB>prompt' lines")
    s.set_defaults(func=cmd_analyze)

    s = sub.add_parser("generate", help="continue a prompt")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--prompt", required=True)
    s.add_argument("--max-new-tokens", type=int, default=20)
    s.add_argument("--temperature", type=float, default=0.0, help="0 (the default) decodes greedily; above 0 samples")
    s.add_argument("--top-n", type=int, default=5)
    s.add_argument("--seed", type=int, default=42)
    s.set_defaults(func=cmd_generate)

    s = sub.add_parser("count-params", help="itemized parameter count for a config")
    s.add_argument("--config", required=True)
    s.set_defaults(func=cmd_count_params)

    s = sub.add_parser("inspect-checkpoint", help="print a checkpoint manifest")
    s.add_argument("checkpoint")
    s.set_defaults(func=cmd_inspect_checkpoint)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("train", "compose", "generate") and "PAPA_SEED" in os.environ:
            # the verbs it used to reseed fail, so an old script cannot change seeds silently
            raise ConfigError("PAPA_SEED: retired; give the seed with --seed")
        if getattr(args, "seed", None) is not None:
            check_seed(args.seed, "--seed")
        return args.func(args)
    except (ConfigError, yaml.YAMLError) as e:
        print(f"error: config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, CheckpointError, AnalysisError, OSError) as e:
        print(f"error: data: {e}", file=sys.stderr)
        return EXIT_DATA
    except NonFiniteError as e:
        print(f"error: numerical: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CompositionError as e:
        print(f"error: composition: {e}", file=sys.stderr)
        return EXIT_COMPOSITION


if __name__ == "__main__":
    sys.exit(main())
