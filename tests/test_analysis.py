import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from papaformer.analysis import (
    AnalysisError,
    _softmax,
    DominanceTrace,
    RoutingTrace,
    format_generation,
    format_utilization,
    generate,
    trace_dominance,
    trace_records,
    trace_routing,
    utilization,
)
from papaformer.blocks import ConfigError
from papaformer.data import ToyTokenizer, synthetic_math_corpus, synthetic_story_corpus
from papaformer.model import CONNECTION_KINDS, ModelConfig, build, forward, trunk
from papaformer.tensor import RngState, Tensor, cosine_similarity, no_grad

VOCAB = 30


def model_config(kind, n_parallel=2, **overrides):
    base = dict(
        vocab_size=VOCAB,
        d_model=32,
        d_path=16,
        n_layer_blocks=1,
        n_parallel_layers=n_parallel,
        k_paths=2,
        heads_layer=2,
        heads_path=2,
        ff_layer=64,
        ff_path=32,
        max_seq_len=16,
        connection_kind=kind,
    )
    base.update(overrides)
    return ModelConfig.from_dict(base)


@pytest.fixture
def gumbel_model():
    return build(model_config("gumbel_v1", n_parallel=3), RngState(0))


@pytest.fixture
def share_model():
    return build(model_config("share_linear", n_parallel=2), RngState(1))


PROMPT = np.array([3, 1, 4, 1, 5])


class TestRoutingTrace:
    def test_one_selection_per_parallel_layer(self, gumbel_model):
        trace = trace_routing(gumbel_model, PROMPT)
        assert len(trace.selections) == 3
        assert len(trace.pis) == 3

    def test_selection_is_argmax_of_recorded_pi(self, gumbel_model):
        trace = trace_routing(gumbel_model, PROMPT)
        for s, pi in zip(trace.selections, trace.pis):
            assert s == int(np.argmax(pi))
            assert pi.shape == (3,)
            assert pi.sum() == pytest.approx(1.0, abs=1e-5)

    def test_deterministic(self, gumbel_model):
        a = trace_routing(gumbel_model, PROMPT)
        b = trace_routing(gumbel_model, PROMPT)
        assert a.selections == b.selections
        for pa, pb in zip(a.pis, b.pis):
            assert np.array_equal(pa, pb)

    def test_zeroed_router_ties_break_to_lowest_index(self, gumbel_model):
        for layer in gumbel_model.parallel_layers:
            layer.connection.w_router.data[:] = 0.0
        trace = trace_routing(gumbel_model, PROMPT)
        assert trace.selections == [0, 0, 0]
        assert trace.labels() == ["path_1", "path_1", "path_1"]

    def test_rejects_share_linear(self, share_model):
        with pytest.raises(AnalysisError, match="trace_dominance"):
            trace_routing(share_model, PROMPT)

    def test_truncation_warns_once_under_default_filter(self, gumbel_model):
        # a 4-token prompt at max_seq_len 16 truncates on 11 of 24 steps
        for action, count in (("always", 11), ("default", 1)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                generate(gumbel_model, PROMPT[:4], 24)
            assert [str(w.message) for w in caught] == ["context truncated to the last 16 tokens"] * count

    def test_empty_prompt(self, gumbel_model):
        with pytest.raises(AnalysisError, match="empty prompt"):
            trace_routing(gumbel_model, np.array([], dtype=np.int64))

    @pytest.mark.parametrize("kind", ["gumbel_v1", "gumbel_v2"])
    def test_pis_match_taped_full_forward(self, kind):
        # two layer blocks put one after the parallel core, which the trace skips
        m = build(model_config(kind, n_parallel=3, n_layer_blocks=2), RngState(7))
        prompt = np.random.default_rng(3).integers(0, VOCAB, size=11)
        _, records = forward(m, prompt[None, :])
        for pos in (0, 4, 10):
            trace = trace_routing(m, prompt[: pos + 1])
            assert [p.tobytes() for p in trace.pis] == [rec.pi.data[0, pos].tobytes() for rec in records]

    def test_prompt_past_max_seq_len(self, gumbel_model):
        with pytest.raises(ConfigError, match="17 exceeds max_seq_len 16"):
            trace_routing(gumbel_model, np.zeros(17, dtype=np.int64))

    @pytest.mark.parametrize("kind", ["gumbel_v1", "gumbel_v2"])
    def test_interior_probe_is_trace_of_cut_prompt(self, kind):
        # routing is causal: the trace of a prompt's first pos + 1 tokens probes position pos
        m = build(model_config(kind, n_parallel=3, n_layer_blocks=2), RngState(8))
        prompt = np.random.default_rng(4).integers(0, VOCAB, size=12)
        with no_grad():
            _, records = trunk(m, prompt)
        for pos in (0, 5, 11):
            trace = trace_routing(m, prompt[: pos + 1])
            assert trace.selections == [int(np.argmax(rec.pi.data[0, pos])) for rec in records]
            for pi, rec in zip(trace.pis, records):
                np.testing.assert_allclose(pi, rec.pi.data[0, pos], rtol=0, atol=1e-6)

    def test_combined_label(self):
        t = RoutingTrace(selections=[2, 0], pis=[], k=2)
        assert t.labels() == ["combined", "path_1"]


class TestDominanceTrace:
    def test_two_layers_for_share_linear(self, share_model):
        trace = trace_dominance(share_model, PROMPT)
        assert len(trace.dominant) == 2
        assert all(len(c) == 2 for c in trace.cosines)

    def test_passthrough_combiner_gives_path1_cosine_one(self, share_model):
        w = np.zeros((32, 16), dtype=np.float32)
        w[:16] = np.eye(16, dtype=np.float32)
        share_model.parallel_layers[0].connection.w.data = w
        trace = trace_dominance(share_model, PROMPT)
        assert trace.dominant[0] == 0
        assert trace.cosines[0][0] == pytest.approx(1.0, abs=1e-5)

    def test_dominant_is_argmax(self, share_model):
        trace = trace_dominance(share_model, PROMPT)
        for d, scores in zip(trace.dominant, trace.cosines):
            assert d == int(np.argmax(scores))

    def test_cosines_match_taped_full_forward(self):
        m = build(model_config("share_linear", n_parallel=3, n_layer_blocks=2), RngState(8))
        prompt = np.random.default_rng(4).integers(0, VOCAB, size=9)
        _, records = forward(m, prompt[None, :])
        d_path = m.config.d_path
        want = []
        for rec, layer in zip(records, m.parallel_layers):
            y = rec.combined.data[0]
            reps = [f.data[0] for f in rec.path_outputs]
            if layer.final:
                reps = [r @ layer.connection.w.data[i * d_path : (i + 1) * d_path] for i, r in enumerate(reps)]
            want.append([float(np.mean(cosine_similarity(Tensor(r), Tensor(y)).data)) for r in reps])
        assert trace_dominance(m, prompt).cosines == want

    def test_prompt_past_max_seq_len(self, share_model):
        with pytest.raises(ConfigError, match="exceeds max_seq_len"):
            trace_dominance(share_model, np.zeros(17, dtype=np.int64))

    def test_rejects_gumbel(self, gumbel_model):
        with pytest.raises(AnalysisError, match="share_linear"):
            trace_dominance(gumbel_model, PROMPT)

    def test_empty_prompt(self, share_model):
        with pytest.raises(AnalysisError, match="empty prompt"):
            trace_dominance(share_model, [])

    def test_cosine_scale_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 8))
        b = rng.normal(size=(5, 8))
        np.testing.assert_allclose(
            cosine_similarity(Tensor(a), Tensor(b)).data, cosine_similarity(Tensor(a), Tensor(7.5 * b)).data, rtol=1e-12
        )


def routing(selections, k=2):
    return RoutingTrace(selections=selections, pis=[], k=k)


class TestUtilization:
    def test_all_correct_is_100(self):
        report = utilization([routing([0, 0]), routing([1, 1])], ["story", "math"])
        assert report.accuracy == pytest.approx(100.0)
        assert report.path_shares == pytest.approx([50.0, 50.0])
        assert report.combined_share == pytest.approx(0.0)

    def test_shares_sum_to_100(self):
        report = utilization([routing([0, 1, 2]), routing([2, 2, 0])], ["story", "story"])
        assert sum(report.shares()) == pytest.approx(100.0, abs=0.1)

    def test_combined_counts_as_incorrect(self):
        report = utilization([routing([2, 2])], ["story"])
        assert report.accuracy == pytest.approx(0.0)
        assert report.combined_share == pytest.approx(100.0)

    def test_accuracy_matches_brute_force_recount(self):
        rng = np.random.default_rng(7)
        traces, domains = [], []
        for _ in range(40):
            traces.append(routing(list(rng.integers(0, 3, size=3))))
            domains.append(rng.choice(["story", "math"]))
        report = utilization(traces, domains)
        correct = total = 0
        for t, d in zip(traces, domains):
            for s in t.selections:
                total += 1
                correct += (d == "story" and s == 0) or (d == "math" and s == 1)
        assert report.accuracy == pytest.approx(100.0 * correct / total, abs=1e-9)
        assert report.cells == total

    def test_dominance_traces_aggregate_too(self):
        traces = [DominanceTrace(dominant=[0, 0], cosines=[[0.9, 0.1], [0.8, 0.2]])]
        report = utilization(traces, ["story"])
        assert report.accuracy == pytest.approx(100.0)
        assert report.combined_share == pytest.approx(0.0)

    def test_mismatched_lengths(self):
        with pytest.raises(AnalysisError):
            utilization([routing([0])], [])

    def test_unknown_domain(self):
        with pytest.raises(AnalysisError, match="domain"):
            utilization([routing([0])], ["news"])

    def test_format_and_records(self):
        report = utilization([routing([0, 2]), routing([1, 1])], ["story", "math"])
        text = format_utilization(report)
        assert "path_1" in text and "combined" in text and "accuracy" in text
        recs = trace_records([routing([0, 2])], ["story"])
        assert recs == [
            {"prompt": 0, "domain": "story", "layer": 0, "selection": "path_1"},
            {"prompt": 0, "domain": "story", "layer": 1, "selection": "combined"},
        ]


class TestGenerate:
    def test_greedy_deterministic(self, gumbel_model):
        a = generate(gumbel_model, PROMPT, 5)
        b = generate(gumbel_model, PROMPT, 5)
        assert a.new_tokens == b.new_tokens
        assert len(a.new_tokens) == 5
        assert list(a.tokens[: len(PROMPT)]) == list(PROMPT)

    def test_zero_temperature_equals_greedy(self, gumbel_model):
        greedy = generate(gumbel_model, PROMPT, 4)
        cold = generate(gumbel_model, PROMPT, 4, temperature=0.0, rng=RngState(0))
        assert greedy.new_tokens == cold.new_tokens

    def test_nan_temperature_decodes_greedily(self, gumbel_model):
        greedy = generate(gumbel_model, PROMPT, 4)
        nan = generate(gumbel_model, PROMPT, 4, temperature=float("nan"), rng=RngState(0))
        assert nan.new_tokens == greedy.new_tokens

    @pytest.mark.parametrize("temperature", [1e-40, 1e-300, 5e-324])
    def test_tiny_temperature_samples_the_greedy_tokens(self, gumbel_model, temperature):
        greedy = generate(gumbel_model, PROMPT, 6)
        assert any(greedy.new_tokens)  # id 0 everywhere would not tell the two apart
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cold = generate(gumbel_model, PROMPT, 6, temperature=temperature, rng=RngState(0))
        assert cold.new_tokens == greedy.new_tokens

    def test_step_probabilities_normalized(self, gumbel_model):
        result = generate(gumbel_model, PROMPT, 3, top_n=4)
        for step in result.steps:
            assert step.probability_mass == pytest.approx(1.0, abs=1e-4)
            assert len(step.top_tokens) == 4
            probs = [p for _, p in step.top_tokens]
            assert probs == sorted(probs, reverse=True)
            assert step.top_tokens[0][0] == step.token

    def test_sampling_needs_rng(self, gumbel_model):
        with pytest.raises(AnalysisError, match="rng"):
            generate(gumbel_model, PROMPT, 1, temperature=1.0)

    def test_sampling_deterministic_under_seed(self, gumbel_model):
        a = generate(gumbel_model, PROMPT, 4, temperature=1.5, rng=RngState(5))
        b = generate(gumbel_model, PROMPT, 4, temperature=1.5, rng=RngState(5))
        assert a.new_tokens == b.new_tokens

    def test_context_overflow_truncates_from_left(self, gumbel_model):
        long_prompt = np.ones(20, dtype=np.int64)
        with pytest.warns(UserWarning, match="truncated"):
            result = generate(gumbel_model, long_prompt, 1)
        assert len(result.new_tokens) == 1

    def test_empty_prompt(self, gumbel_model):
        with pytest.raises(AnalysisError, match="empty prompt"):
            generate(gumbel_model, [], 3)

    @pytest.mark.parametrize("counts", [dict(top_n=0), dict(top_n=-1), dict(max_new_tokens=-3)])
    def test_bad_counts(self, gumbel_model, counts):
        args = dict(max_new_tokens=2, top_n=5) | counts
        (name,) = counts
        with pytest.raises(ConfigError, match=name):
            generate(gumbel_model, PROMPT, **args)

    def test_zero_new_tokens(self, gumbel_model):
        result = generate(gumbel_model, PROMPT, 0)
        assert result.new_tokens == [] and list(result.tokens) == list(PROMPT)

    def test_text_report(self, gumbel_model):
        corpora = [synthetic_story_corpus(10, seed=1), synthetic_math_corpus(10, seed=2)]
        tok = ToyTokenizer.build(corpora)
        small = build(model_config("gumbel_v1", vocab_size=tok.vocab_size), RngState(2))
        result = generate(small, tok.tokenize("Once upon a time"), 2)
        text = format_generation(result, tok)
        assert text.count("\n") == 1
        assert "%" in text


# the decoding modes the tests run, as the temperature that selects each
TEMPERATURES = {"greedy": 0.0, "sample": 1.3}


def uncached_generate(model, prompt, n, temperature, rng):
    """generate's decoding rule with a fresh full-window forward at every step."""
    tokens, steps = list(prompt), []
    limit = model.config.max_seq_len
    for _ in range(n):
        logits, _ = forward(model, np.asarray(tokens[-limit:], dtype=np.int64))
        probs = _softmax(logits.data[-1])
        order = np.argsort(-probs)
        if temperature <= 0:
            nxt = int(order[0])
        else:
            nxt = int(np.searchsorted(np.cumsum(_softmax(logits.data[-1], temperature)), float(rng.uniform(()))))
        steps.append((nxt, [float(probs[t]) for t in order[:5]]))
        tokens.append(nxt)
    return steps


class TestCachedGenerate:
    """The K/V-cached loop against a fresh full-window forward at every step."""

    @pytest.mark.parametrize("kind", CONNECTION_KINDS)
    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    @pytest.mark.parametrize("prompt_len", [5, 16, 21])
    def test_matches_full_window_forward(self, kind, mode, prompt_len):
        m = build(model_config(kind, n_parallel=0 if kind == "none" else 2, n_layer_blocks=2), RngState(6))
        prompt = np.random.default_rng(prompt_len).integers(0, VOCAB, size=prompt_len)
        n = 6
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = generate(m, prompt, n, TEMPERATURES[mode], rng=RngState(9))
        want = uncached_generate(m, prompt, n, TEMPERATURES[mode], RngState(9))
        assert result.new_tokens == [t for t, _ in want]
        for step, (_, probs) in zip(result.steps, want):
            np.testing.assert_allclose([p for _, p in step.top_tokens], probs, atol=1e-6)
        limit = m.config.max_seq_len
        truncated = sum("truncated" in str(w.message) for w in caught)
        assert truncated == sum(prompt_len + i > limit for i in range(n))

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_model_without_attention_runs_one_token_per_step(self, mode, monkeypatch):
        # a baseline with no block has nothing to extend the cache, which still counts the positions run
        import papaformer.analysis as analysis

        m = build(model_config("none", n_parallel=0, n_layer_blocks=0), RngState(6))
        prompt = np.random.default_rng(1).integers(0, VOCAB, size=5)
        ran = []

        def counting_forward(model, tokens, **kwargs):
            ran.append(len(tokens))
            return forward(model, tokens, **kwargs)

        monkeypatch.setattr(analysis, "forward", counting_forward)
        result = generate(m, prompt, 6, TEMPERATURES[mode], rng=RngState(9))
        assert ran == [5, 1, 1, 1, 1, 1]
        want = uncached_generate(m, prompt, 6, TEMPERATURES[mode], RngState(9))
        assert result.new_tokens == [t for t, _ in want]
        for step, (_, probs) in zip(result.steps, want):
            np.testing.assert_allclose([p for _, p in step.top_tokens], probs, atol=1e-6)


def loaded_generate_probs(path) -> str:
    """Every top-n probability of 6 greedy steps from the checkpoint at ``path``, as text.

    The process builds nothing before this: only the load can pin the BLAS threads.
    """
    from papaformer.checkpoint import load_checkpoint

    result = generate(load_checkpoint(str(path)).model, np.arange(1, 40), 6)
    return repr([step.top_tokens for step in result.steps])


class TestLoadedModelBlasThreads:
    def test_generate_bits_do_not_depend_on_blas_threads(self, tmp_path):
        # float32 [1, 128] @ [128, 5000], the LM head of a cached step, changes its
        # last bits between one and two OpenBLAS threads unless the load pins one
        from papaformer.checkpoint import save_checkpoint
        from papaformer.cli import load_config

        path = tmp_path / "path.ppck"
        save_checkpoint(str(path), build(ModelConfig.from_dict({**load_config("path")["model"], "vocab_size": 5000}),
                                         RngState(0)))
        tests = Path(__file__).resolve().parent
        child = (
            "import sys\n"
            f"sys.path[:0] = [{str(tests.parent / 'src')!r}, {str(tests)!r}]\n"
            "from test_analysis import loaded_generate_probs\n"
            f"print(loaded_generate_probs({str(path)!r}))\n"
        )
        probs = {}
        for n in (1, 2):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(n), "OMP_NUM_THREADS": str(n), "MKL_NUM_THREADS": str(n)}
            probs[n] = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True,
                                      check=True).stdout
        assert probs[1] == probs[2]


class TestNoTape:
    """Evaluation runs under no_grad, so no tensor it makes keeps a backward closure."""

    @pytest.mark.parametrize("verb", ["trace_routing", "trace_dominance", "generate"])
    def test_no_backward_closures(self, verb, gumbel_model, share_model, monkeypatch):
        closures = []
        real_init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            closures.append(self._node is not None)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # generate's truncation warning
            {
                "trace_routing": lambda: trace_routing(gumbel_model, PROMPT),
                "trace_dominance": lambda: trace_dominance(share_model, PROMPT),
                # sampled, and past max_seq_len 16
                "generate": lambda: generate(gumbel_model, PROMPT, 14, temperature=1.0, rng=RngState(3)),
            }[verb]()
        assert closures and not any(closures)
