"""Acceptance suite: one pass/fail line per criterion.

Each criterion prints "[ACCEPTANCE n] <name>: PASS/FAIL" so the run log
doubles as the acceptance report. The heavyweight end-to-end smoke run is a
module-scoped fixture shared by the training, analysis, and determinism
criteria.
"""

import contextlib

import numpy as np
import pytest

from papaformer.blocks import LayerBlockParams, layer_block, rmsnorm, swiglu_ffn
from papaformer.checkpoint import load_checkpoint, save_checkpoint
from papaformer.cli import load_config, model_config_from
from papaformer.composer import CompositionPlan, compose
from papaformer.data import build_chunk_store, build_stream, synthetic_math_corpus, synthetic_story_corpus
from papaformer.analysis import format_generation, format_utilization, generate, trace_dominance, trace_routing, utilization
from papaformer.losses import cross_entropy, entropy_loss, load_balance_loss, total_loss
from papaformer.model import ModelConfig, build, count_params, forward
from papaformer.parallel import (
    GumbelConfig,
    GumbelParams,
    gumbel_softmax,
    gumbel_v1_forward,
    gumbel_v2_forward,
    run_paths,
)
from papaformer.tensor import RngState, Tensor, cosine_similarity, embedding
from papaformer.trainer import TrainConfig, run_phase2, state_from_checkpoint, train

from fdcheck import check_grad


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_criterion_lines(capsys):
    """Route the verdict lines past output capture so they show in any run."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _emit(line):
    with _CAPSYS.disabled() if _CAPSYS is not None else contextlib.nullcontext():
        print(line)


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        _emit(f"\n[ACCEPTANCE {num}] {name}: FAIL")
        raise
    _emit(f"\n[ACCEPTANCE {num}] {name}: PASS")


# -- shared smoke run ------------------------------------------------------

SMOKE_SEQ_LEN = 64
SMOKE_TRAIN = dict(lr=8e-3, batch_size=8, grad_accum_steps=2, epochs=2, seed=42, max_steps=70)


def smoke_model_config(vocab, kind, n_parallel):
    return ModelConfig.from_dict(
        dict(
            vocab_size=vocab,
            d_model=64,
            d_path=32,
            n_layer_blocks=2,
            n_parallel_layers=n_parallel,
            k_paths=2,
            heads_layer=4,
            heads_path=2,
            ff_layer=256,
            ff_path=128,
            max_seq_len=SMOKE_SEQ_LEN,
            connection_kind=kind,
        )
    )


def smoke_baseline_config(vocab):
    return ModelConfig.from_dict(
        dict(vocab_size=vocab, d_model=64, n_layer_blocks=3, heads_layer=4, ff_layer=256, max_seq_len=SMOKE_SEQ_LEN)
    )


def smoke_path_config(vocab):
    return ModelConfig.from_dict(
        dict(vocab_size=vocab, d_model=32, n_layer_blocks=3, heads_layer=2, ff_layer=128, max_seq_len=SMOKE_SEQ_LEN)
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Full two-phase desk run: paths, baseline, and all parallel variants."""
    out = tmp_path_factory.mktemp("smoke")
    corpora = [synthetic_story_corpus(1200, seed=1), synthetic_math_corpus(1200, seed=2)]
    store = build_chunk_store(corpora, seq_len=SMOKE_SEQ_LEN, seed=42)
    vocab = store.tokenizer.vocab_size
    cfg = TrainConfig(**SMOKE_TRAIN)
    targets = {
        "parallel_gumbel_v1": smoke_model_config(vocab, "gumbel_v1", 3),
        "parallel_gumbel_v2": smoke_model_config(vocab, "gumbel_v2", 3),
        "parallel_share_linear": smoke_model_config(vocab, "share_linear", 2),
    }
    artifacts, reports = run_phase2(store, smoke_path_config(vocab), targets, cfg, str(out))
    baseline = build(smoke_baseline_config(vocab), RngState(0))
    reports["baseline"] = train(baseline, store.chunks, cfg, checkpoint_path=str(out / "baseline.ppck"))
    artifacts["baseline"] = str(out / "baseline.ppck")
    return {"store": store, "cfg": cfg, "targets": targets, "artifacts": artifacts, "reports": reports, "dir": out}


# -- 1: parameter counts ---------------------------------------------------


def test_1_parameter_counts():
    with criterion(1, "parameter counts"):
        targets = {
            "base_256": 32e6,
            "base_192": 22.5e6,
            "path": 13.5e6,
            "parallel_gumbel_v1": 28.5e6,
            "parallel_gumbel_v2": 28.5e6,
            "parallel_share_linear": 28.5e6,
        }
        totals = {}
        for preset, expect in targets.items():
            cfg = model_config_from(load_config(preset))
            assert cfg.vocab_size == 50257
            total, _ = count_params(build(cfg, RngState(0)))
            totals[preset] = total
            assert abs(total - expect) / expect < 0.10, f"{preset}: {total} not within 10% of {expect:.0f}"
        for parallel in ("parallel_gumbel_v1", "parallel_gumbel_v2", "parallel_share_linear"):
            assert totals[parallel] < totals["base_256"]


# -- 2: gradient suite -----------------------------------------------------

OP_CASES = {
    "add": lambda x, c: (x + c).sum(),
    "sub": lambda x, c: (c - x).sum(),
    "mul": lambda x, c: (x * c).sum(),
    "div": lambda x, c: (x / (c * c + 1.0)).mean(),
    "matmul": lambda x, c: (x @ c.transpose()).sum(),
    "exp": lambda x, c: (x.exp() * c).sum(),
    "log": lambda x, c: ((x * x + 1.0).log() * c).sum(),
    "sqrt": lambda x, c: ((x * x + 1.0).sqrt() * c).sum(),
    "silu": lambda x, c: (x.silu() * c).sum(),
    "maximum": lambda x, c: x.maximum(c).sum(),
    "softmax": lambda x, c: (x.softmax(axis=-1) * c).sum(),
    "getitem": lambda x, c: (x[1:, :2] * c[1:, :2]).sum(),
    "reshape_transpose": lambda x, c: (x.reshape(x.shape[1], x.shape[0]).transpose() * c).sum(),
    "mean": lambda x, c: (x.mean(axis=-1, keepdims=True) * c).sum(),
    "rmsnorm": lambda x, c: (rmsnorm(x, Tensor(np.ones(x.shape[-1], dtype=x.data.dtype))) * c).sum(),
    "cosine_similarity": lambda x, c: cosine_similarity(x, c).sum(),
}


def _full_model_directional(kind, seed, tol=1e-3):
    """Directional FD over all parameters with frozen Gumbel noise."""
    rng = np.random.default_rng(seed)
    config = ModelConfig.from_dict(
        dict(
            vocab_size=23,
            d_model=16,
            d_path=8,
            n_layer_blocks=1,
            n_parallel_layers=2,
            k_paths=2,
            heads_layer=2,
            heads_path=2,
            ff_layer=24,
            ff_path=16,
            max_seq_len=8,
            connection_kind=kind,
        )
    )
    model = build(config, RngState(seed))
    tokens = rng.integers(0, config.vocab_size, size=(2, 8))
    x, y = tokens[:, :-1], tokens[:, 1:]

    def loss_value():
        logits, recs = forward(model, x, rng=RngState(seed + 99), training=True)
        return total_loss(cross_entropy(logits, y), recs).total

    out = loss_value()
    out.backward()
    params = model.named_params()
    vs = {n: rng.normal(size=p.shape) for n, p in params.items()}
    analytic = sum(
        float(np.sum(p.grad.astype(np.float64) * vs[n])) for n, p in params.items() if p.grad is not None
    )
    orig64 = {n: p.data.astype(np.float64) for n, p in params.items()}
    h = 1e-5  # forward at f64 admits a small step

    def eval_at(sign):
        for n, p in params.items():
            p.data = orig64[n] + sign * h * vs[n]
        return float(loss_value().data)

    numeric = (eval_at(+1) - eval_at(-1)) / (2 * h)
    for n, p in params.items():
        p.data = orig64[n].astype(np.float32)
    rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
    assert rel < tol, f"{kind} seed {seed}: directional rel err {rel:.2e}"


def test_2_gradient_suite():
    with criterion(2, "gradient suite"):
        for name, op in OP_CASES.items():
            for seed in range(5):
                rng = np.random.default_rng(1000 + seed)
                c = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
                check_grad(lambda x, op=op, c=c: op(x, c), rng.normal(size=(3, 4)))
        for seed in range(5):
            rng = np.random.default_rng(2000 + seed)
            block = LayerBlockParams.init(8, 2, 12, RngState(seed))
            probe = Tensor(rng.normal(size=(1, 4, 8)).astype(np.float32))
            check_grad(lambda x: (layer_block(x, block, 8) * probe).sum(), rng.normal(size=(1, 4, 8)))
            check_grad(lambda x: (swiglu_ffn(x, block) * probe).sum(), rng.normal(size=(1, 4, 8)))
            logits = rng.normal(size=(2, 3, 4)).astype(np.float32)
            check_grad(lambda x: entropy_loss(x.softmax(axis=-1)), logits)
            check_grad(lambda x: load_balance_loss(x.softmax(axis=-1)), logits)
            targets = rng.integers(0, 6, size=4)
            check_grad(lambda x: cross_entropy(x, targets), rng.normal(size=(4, 6)))
            table = rng.normal(size=(7, 5))
            ids = rng.integers(0, 7, size=(2, 3))
            check_grad(lambda t: (embedding(t, ids) * Tensor(np.ones((2, 3, 5), dtype=t.data.dtype))).sum(), table)
        for kind in ("share_linear", "gumbel_v1", "gumbel_v2"):
            for seed in range(5):
                _full_model_directional(kind, seed)


# -- 3: routing invariants -------------------------------------------------


def test_3_routing_invariants():
    with criterion(3, "routing invariants"):
        rng = np.random.default_rng(0)
        draws = RngState(7)
        n = 0
        for batch in range(100):
            tau = float(rng.uniform(0.1, 5.0))
            logits = Tensor(rng.normal(size=(100, 3)).astype(np.float32) * 3)
            pi = gumbel_softmax(logits, GumbelConfig(temperature=tau), rng=draws, training=True).data
            assert np.all(pi >= 0)
            np.testing.assert_allclose(pi.sum(axis=-1), 1.0, atol=1e-5)
            n += pi.shape[0]
        assert n == 10_000

        # degenerate one-hot routing reproduces the selected slot exactly
        params = GumbelParams.init(1, 2, 4, RngState(3))
        x = Tensor(rng.normal(size=(1, 5, 4)).astype(np.float32))
        paths = [LayerBlockParams.init(4, 2, 8, RngState(s)) for s in (1, 2)]
        outputs = run_paths(x, paths, 8)
        for slot in range(3):
            forced = np.zeros((1, 5, 3), dtype=np.float32)
            forced[..., slot] = 1.0
            for fwd in (gumbel_v1_forward, gumbel_v2_forward):
                p = params if fwd is gumbel_v1_forward else GumbelParams.init(2, 2, 4, RngState(3))
                y, rec = fwd(outputs, p, GumbelConfig(), rng=None, training=False, forced_pi=Tensor(forced))
                if slot < 2:
                    expect = outputs[slot].data
                else:
                    from papaformer.parallel import concat_paths

                    expect = (concat_paths(outputs) @ p.w_combine).data
                np.testing.assert_allclose(y.data, expect, atol=1e-6)

        # tau annealing with frozen noise: argmax stable, max pi monotone
        logits = Tensor(rng.normal(size=(50, 3)).astype(np.float32))
        noise_seed = 11
        prev_max = None
        prev_arg = None
        for tau in (4.0, 2.0, 1.0, 0.5, 0.25, 0.1):
            pi = gumbel_softmax(
                logits, GumbelConfig(temperature=tau), rng=RngState(noise_seed), training=True
            ).data
            arg = np.argmax(pi, axis=-1)
            mx = pi.max(axis=-1)
            if prev_arg is not None:
                assert np.array_equal(arg, prev_arg)
                assert np.all(mx >= prev_max - 1e-6)
            prev_arg, prev_max = arg, mx


# -- 4: loss oracles -------------------------------------------------------


def test_4_loss_oracles():
    with criterion(4, "loss oracle values"):
        pi3 = Tensor(np.full((2, 5, 3), 1 / 3, dtype=np.float32))
        assert abs(float(entropy_loss(pi3).data) - np.log(3)) < 1e-6
        assert abs(float(load_balance_loss(pi3).data) - np.log(3)) < 1e-6

        rng = np.random.default_rng(4)
        for _ in range(1000):
            pi = Tensor(rng.dirichlet(np.ones(3), size=(2, 4)).astype(np.float32))
            ent = float(entropy_loss(pi).data)
            load = float(load_balance_loss(pi).data)
            assert -1e-6 <= ent <= np.log(3) + 1e-6
            assert -1e-6 <= load <= np.log(3) + 1e-6
            assert load >= ent - 1e-5  # Jensen

        from papaformer.parallel import RoutingWeights

        recs = [RoutingWeights(pi=Tensor(rng.dirichlet(np.ones(3), size=(2, 4)).astype(np.float32))) for _ in range(2)]
        ce = Tensor(2.0)
        out = total_loss(ce, recs)
        assert out.lambda_entropy == 0.01 and out.lambda_load == 0.01
        expect = 2.0 + 0.01 * float(out.entropy.data) + 0.01 * float(out.load.data)
        assert abs(float(out.total.data) - expect) < 1e-6


# -- 5: composer equivalence -----------------------------------------------


def test_5_composer_equivalence(tmp_path):
    with criterion(5, "composer equivalence"):
        vocab, d_path = 30, 16
        path_cfg = ModelConfig.from_dict(
            dict(vocab_size=vocab, d_model=d_path, n_layer_blocks=2, heads_layer=2, ff_layer=32, max_seq_len=16)
        )
        target = ModelConfig.from_dict(
            dict(
                vocab_size=vocab,
                d_model=2 * d_path,
                d_path=d_path,
                n_layer_blocks=2,
                n_parallel_layers=2,
                k_paths=2,
                heads_layer=2,
                heads_path=2,
                ff_layer=64,
                ff_path=32,
                max_seq_len=16,
                connection_kind="gumbel_v1",
            )
        )
        ckpts = []
        sources = []
        for i in (1, 2):
            m = build(path_cfg, RngState(i))
            p = str(tmp_path / f"p{i}.ppck")
            save_checkpoint(p, m)
            ckpts.append(p)
            sources.append(m)
        model = compose(CompositionPlan(ckpts, target), RngState(0))

        assert np.array_equal(model.embed.data, np.concatenate([s.embed.data for s in sources], axis=1))
        assert np.array_equal(model.lm_head.data, np.concatenate([s.lm_head.data for s in sources], axis=0))
        for j, layer in enumerate(model.parallel_layers):
            for i, src in enumerate(sources):
                for name, t in layer.paths[i].named_params().items():
                    assert np.array_equal(t.data, src.blocks_before[j].named_params()[name].data)

        # pass-through oracle: identity outer blocks, selector projection,
        # one-hot routing on path 1 reproduces Path_1's block outputs
        for block in model.blocks_before + model.blocks_after:
            block.wo.data[:] = 0.0
            block.w_down.data[:] = 0.0
        tokens = np.array([[3, 1, 4, 1, 5, 9]])
        forced = np.zeros((1, tokens.shape[1], 3), dtype=np.float32)
        forced[..., 0] = 1.0
        x = embedding(model.embed, tokens)
        for block in model.blocks_before:
            x = layer_block(x, block, 16)
        sel = np.zeros((2 * d_path, d_path), dtype=np.float32)
        sel[:d_path] = np.eye(d_path, dtype=np.float32)
        x = x @ Tensor(sel)
        for j, layer in enumerate(model.parallel_layers):
            outputs = run_paths(x, layer.paths, 16)
            if j == len(model.parallel_layers) - 1:
                composite_out = outputs[0]
            x, _ = gumbel_v1_forward(
                outputs, layer.connection, GumbelConfig(), rng=None, training=False, forced_pi=Tensor(forced)
            )
        ref = embedding(sources[0].embed, tokens)
        for block in sources[0].blocks_before:
            ref = layer_block(ref, block, 16)
        np.testing.assert_allclose(composite_out.data, ref.data, atol=1e-5)


# -- 6: data protocol ------------------------------------------------------


def test_6_data_protocol(smoke):
    with criterion(6, "data protocol invariants"):
        corpora = [synthetic_story_corpus(400, seed=1), synthetic_math_corpus(400, seed=2)]
        store = build_chunk_store(corpora, seq_len=256, seed=42)
        assert all(len(c.tokens) == 256 for c in store.chunks)
        streams = {c.domain_tag: build_stream(c, store.tokenizer) for c in corpora}
        for tag in ("story", "math"):
            chunks = store.select(corpus=tag)
            spans1 = {c.span for c in chunks if c.epoch == 1}
            spans2 = {c.span for c in chunks if c.epoch == 2}
            assert spans1 and spans2 and not (spans1 & spans2)
            sub60 = {id(c) for c in store.select(corpus=tag, sub=60)}
            sub40 = {id(c) for c in store.select(corpus=tag, sub=40)}
            assert sub60.isdisjoint(sub40)
            assert sub60 | sub40 == {id(c) for c in chunks}
            for c in chunks:
                assert np.array_equal(c.tokens, streams[tag][c.start : c.start + 256])

        # composite phase consumed only sub-40 chunks; baseline planned all
        reports = smoke["reports"]
        for name in ("parallel_gumbel_v1", "parallel_gumbel_v2", "parallel_share_linear"):
            assert reports[name].consumed, name
            assert all(sub == 40 for (_, sub, _, _) in reports[name].consumed), name
        baseline_planned = {(c, s, e, st) for (c, s, e, st) in reports["baseline"].planned}
        all_chunks = {(c.corpus, c.sub_collection, c.epoch, c.start) for c in smoke["store"].chunks}
        missing = all_chunks - baseline_planned
        # shuffled batching drops only the final partial batch per epoch
        assert len(missing) < 2 * TrainConfig(**SMOKE_TRAIN).batch_size


# -- 7: end-to-end smoke ---------------------------------------------------


def test_7_phase2_smoke(smoke):
    with criterion(7, "end-to-end phase-2 smoke"):
        reports = smoke["reports"]
        for name, report in reports.items():
            ces = [s["ce"] for s in report.steps]
            assert all(np.isfinite(s["total"]) for s in report.steps), name
            assert ces[-1] < 0.7 * ces[0], f"{name}: CE {ces[0]:.3f} -> {ces[-1]:.3f}"

        # seed-42 rerun reproduces trajectories bit-exactly
        store, cfg = smoke["store"], smoke["cfg"]
        vocab = store.tokenizer.vocab_size
        rerun_baseline = train(build(smoke_baseline_config(vocab), RngState(0)), store.chunks, cfg)
        assert rerun_baseline.losses == reports["baseline"].losses
        composed = load_checkpoint(str(smoke["dir"] / "parallel_gumbel_v1_composed.ppck"))
        rerun_composite = train(composed.model, store.select(sub=40), cfg)
        assert rerun_composite.losses == reports["parallel_gumbel_v1"].losses


# -- 8: analysis pipeline --------------------------------------------------

PROMPTS = [
    ("story", "Once upon a time there was a little one named Lily ."),
    ("story", "Mia went to the park with a kite ."),
    ("story", "Tom laughed and played all day ."),
    ("math", "Solve this problem : what is 3 plus 4 ?"),
    ("math", "Compute the value step by step ."),
    ("math", "The answer is 7 ."),
]


def test_8_analysis_pipeline(smoke):
    with criterion(8, "analysis pipeline"):
        store = smoke["store"]
        tok = store.tokenizer
        gumbel = load_checkpoint(smoke["artifacts"]["parallel_gumbel_v1"]).model
        share = load_checkpoint(smoke["artifacts"]["parallel_share_linear"]).model

        traces, domains = [], []
        for domain, text in PROMPTS:
            t = trace_routing(gumbel, tok.tokenize(text))
            assert len(t.selections) == 3  # three parallel layers per Gumbel model
            traces.append(t)
            domains.append(domain)
        report = utilization(traces, domains)
        assert abs(sum(report.shares()) - 100.0) <= 0.1
        assert 0.0 <= report.accuracy <= 100.0
        brute_correct = brute_total = 0
        for t, d in zip(traces, domains):
            for s in t.selections:
                brute_total += 1
                brute_correct += (d == "story" and s == 0) or (d == "math" and s == 1)
        assert report.accuracy == pytest.approx(100.0 * brute_correct / brute_total, abs=1e-9)
        assert "accuracy" in format_utilization(report)

        for domain, text in PROMPTS:
            t = trace_dominance(share, tok.tokenize(text))
            assert len(t.dominant) == 2  # two parallel layers for share_linear


# -- 9: determinism & persistence ------------------------------------------


def test_9_determinism_persistence(smoke, tmp_path):
    with criterion(9, "determinism and persistence"):
        # checkpoint save -> load -> save is byte-identical
        src = smoke["artifacts"]["parallel_gumbel_v1"]
        ckpt = load_checkpoint(src, moments=True)
        resaved = str(tmp_path / "resaved.ppck")
        save_checkpoint(
            resaved,
            ckpt.model,
            provenance=ckpt.provenance,
            train_config=ckpt.train_config,
            rng=ckpt.rng,
            opt_tensors=ckpt.opt_tensors,
            extra=ckpt.extra,
        )
        assert open(src, "rb").read() == open(resaved, "rb").read()

        # epoch-boundary resume equals uninterrupted training bit-exactly
        store = smoke["store"]
        vocab = store.tokenizer.vocab_size
        cfg = TrainConfig(lr=1e-3, batch_size=4, grad_accum_steps=2, epochs=2, seed=42, max_steps=8)
        chunks = (
            store.select(corpus="story", sub=60, epoch=1)[:32]
            + store.select(corpus="story", sub=60, epoch=2)[:32]
        )
        model_a = build(smoke_model_config(vocab, "gumbel_v1", 2), RngState(0))
        full = train(model_a, chunks, cfg, checkpoint_path=str(tmp_path / "ep{epoch}.ppck"))
        mid = load_checkpoint(str(tmp_path / "ep1.ppck"), moments=True)
        resumed = train(mid.model, chunks, cfg, state=state_from_checkpoint(mid))
        assert resumed.losses == full.losses[-len(resumed.steps) :]
        for name, p in model_a.named_params().items():
            assert np.array_equal(p.data, mid.model.named_params()[name].data), name

        # same-seed pipeline reruns emit identical report files
        def pipeline_reports():
            corpora = [synthetic_story_corpus(150, seed=5), synthetic_math_corpus(150, seed=6)]
            s = build_chunk_store(corpora, seq_len=32, seed=42)
            m = build(
                ModelConfig.from_dict(
                    dict(
                        vocab_size=s.tokenizer.vocab_size,
                        d_model=32,
                        d_path=16,
                        n_layer_blocks=1,
                        n_parallel_layers=2,
                        k_paths=2,
                        heads_layer=2,
                        heads_path=2,
                        ff_layer=64,
                        ff_path=32,
                        max_seq_len=32,
                        connection_kind="gumbel_v1",
                    )
                ),
                RngState(42),
            )
            train(m, s.chunks, TrainConfig(lr=1e-3, batch_size=4, grad_accum_steps=2, epochs=1, seed=42, max_steps=4))
            traces = [trace_routing(m, s.tokenizer.tokenize(t)) for _, t in PROMPTS]
            util = format_utilization(utilization(traces, [d for d, _ in PROMPTS]))
            gen = format_generation(
                generate(m, s.tokenizer.tokenize("Once upon a time"), 5), s.tokenizer
            )
            return util + "\n" + gen

        assert pipeline_reports() == pipeline_reports()
