"""Routing/dominance inspection, utilization tables, and text generation.

Gumbel models are probed by recording the routing distribution at the last
prompt position of every parallel layer and taking its argmax. Share-linear
models have no router, so dominance is read off the combiner instead: each
path's contribution is compared to the combined output by cosine similarity,
averaged over prompt positions. Utilization aggregates many traces into the
per-path selection shares and a domain accuracy where combined selections
count as incorrect.

Every forward here runs under ``no_grad``: nothing is backpropagated, so no
tape is recorded. The traces run the model only up to its last parallel
layer (``model.trunk``), where their records are complete. Routing traces and
``generate`` read one position, so their forwards pass ``last_row``: after
the keys and values, the last attention layer runs that position alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from papaformer.blocks import ConfigError, KVCache
from papaformer.data import PATH_CORPORA
from papaformer.model import PaPaformerModel, forward, trunk
from papaformer.tensor import RngState, Tensor, cosine_similarity, no_grad

COMBINED = "combined"
DOMAIN_PATHS = {corpus: i for i, corpus in enumerate(PATH_CORPORA)}  # the path pretrained on each domain


class AnalysisError(ValueError):
    """Analysis invoked on a model kind or a prompt it does not apply to."""


def _prompt_array(prompt_tokens) -> np.ndarray:
    """The prompt as a flat id array; an empty prompt has no position to run."""
    tokens = np.asarray(prompt_tokens).reshape(-1)
    if tokens.size == 0:
        raise AnalysisError("empty prompt: it tokenizes to no tokens")
    return tokens


@dataclass
class RoutingTrace:
    selections: list  # per parallel layer: path index in [0, k) or k for combined
    pis: list  # per parallel layer: the full routing distribution at the last prompt position
    k: int

    def labels(self) -> list:
        return [COMBINED if s == self.k else f"path_{s + 1}" for s in self.selections]


@dataclass
class DominanceTrace:
    dominant: list  # per parallel layer: path index in [0, k)
    cosines: list  # per parallel layer: mean per-token cosine per path

    def labels(self) -> list:
        return [f"path_{i + 1}" for i in self.dominant]


@dataclass
class UtilizationReport:
    path_shares: list  # percentage per path
    combined_share: float
    accuracy: float  # percent of (prompt, layer) cells selecting the domain's path
    cells: int

    def shares(self) -> list:
        return self.path_shares + [self.combined_share]


def trace_routing(model: PaPaformerModel, prompt_tokens: np.ndarray) -> RoutingTrace:
    """Argmax routing per parallel layer at the last prompt position.

    The trunk's last parallel layer runs at that position only (``last_row``).
    """
    kind = model.config.connection_kind
    if kind not in ("gumbel_v1", "gumbel_v2"):
        raise AnalysisError(
            f"routing traces need a Gumbel model, got {kind!r}; use trace_dominance for share_linear"
        )
    with no_grad():
        _, records = trunk(model, _prompt_array(prompt_tokens), last_row=True)
    pis = [rec.pi.data[0, -1].copy() for rec in records]
    selections = [int(np.argmax(pi)) for pi in pis]  # np.argmax breaks ties at the lowest index
    return RoutingTrace(selections=selections, pis=pis, k=model.config.k_paths)


def trace_dominance(model: PaPaformerModel, prompt_tokens: np.ndarray) -> DominanceTrace:
    """Per-layer dominant path of a share_linear model by cosine to the mix.

    The expanding final layer changes width, so there each path is represented
    by its contribution through its slice of the combiner; on every other
    layer the raw path output is compared directly.
    """
    if model.config.connection_kind != "share_linear":
        raise AnalysisError(
            f"dominance traces need a share_linear model, got {model.config.connection_kind!r}"
        )
    d_path = model.config.d_path
    dominant, cosines = [], []
    with no_grad():
        _, records = trunk(model, _prompt_array(prompt_tokens))
        for rec, layer in zip(records, model.parallel_layers):
            y = rec.combined.data[0]  # [T, d_out]
            scores = []
            for i, f in enumerate(rec.path_outputs):
                fi = f.data[0]
                rep = fi @ layer.connection.w.data[i * d_path : (i + 1) * d_path] if layer.final else fi
                scores.append(float(np.mean(cosine_similarity(Tensor(rep), Tensor(y)).data)))
            dominant.append(int(np.argmax(scores)))
            cosines.append(scores)
    return DominanceTrace(dominant=dominant, cosines=cosines)


def utilization(traces: list, domains: list) -> UtilizationReport:
    """Selection shares and domain accuracy over all (prompt, layer) cells."""
    if len(traces) != len(domains):
        raise AnalysisError("each trace needs a domain label")
    if not traces:
        raise AnalysisError("no traces to aggregate")
    k = max(t.k if isinstance(t, RoutingTrace) else len(t.cosines[0]) for t in traces)
    counts = np.zeros(k + 1, dtype=np.int64)
    correct = 0
    cells = 0
    for trace, domain in zip(traces, domains):
        if domain not in DOMAIN_PATHS:
            raise AnalysisError(f"unknown domain {domain!r}")
        want = DOMAIN_PATHS[domain]
        selections = trace.selections if isinstance(trace, RoutingTrace) else trace.dominant
        for s in selections:
            counts[s] += 1
            correct += s == want
            cells += 1
    shares = 100.0 * counts / cells
    return UtilizationReport(
        path_shares=[float(s) for s in shares[:k]],
        combined_share=float(shares[k]),
        accuracy=100.0 * correct / cells,
        cells=cells,
    )


def format_utilization(report: UtilizationReport) -> str:
    lines = [
        f"path_{i + 1:<9} {share:6.1f}%" for i, share in enumerate(report.path_shares)
    ]
    lines.append(f"{COMBINED:<11} {report.combined_share:6.1f}%")
    lines.append(f"{'accuracy':<11} {report.accuracy:6.1f}%")
    return "\n".join(lines)


def trace_records(traces: list, domains: list) -> list:
    """One structured record per prompt x layer cell for downstream tooling."""
    out = []
    for p, (trace, domain) in enumerate(zip(traces, domains)):
        for layer, label in enumerate(trace.labels()):
            out.append({"prompt": p, "domain": domain, "layer": layer, "selection": label})
    return out


# -- generation ------------------------------------------------------------


@dataclass
class GenerationStep:
    token: int
    top_tokens: list  # (token id, probability), highest first
    probability_mass: float  # softmax total, ~1 by construction


@dataclass
class GenerationResult:
    tokens: np.ndarray  # prompt + continuation
    new_tokens: list
    steps: list

    def text(self, tokenizer) -> str:
        return tokenizer.detokenize(np.asarray(self.tokens, dtype=np.uint32))


def _softmax(z: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """softmax(z / temperature) in float64; the max goes first, so a tiny temperature leaves one at the argmax."""
    with np.errstate(over="ignore"):  # a gap over a tiny temperature overflows to -inf, whose exp is the 0 wanted
        e = np.exp((z.astype(np.float64) - z.max()) / temperature)
    return e / e.sum()


def generate(
    model: PaPaformerModel,
    prompt_tokens: np.ndarray,
    max_new_tokens: int,
    temperature: float = 0.0,
    top_n: int = 5,
    rng: RngState | None = None,
) -> GenerationResult:
    """Continue a prompt, with per-step top-n probabilities.

    A temperature above 0 samples from the softmax of logits / temperature,
    taken in float64 after the max logit is subtracted, so a temperature too
    small to divide by in float32 picks the likeliest token; sampling needs an
    ``rng``. Any other temperature (0, below 0, NaN) decodes greedily. The
    prompt runs through the model once, filling a K/V cache; each later step
    runs only the token just picked. Contexts longer than max_seq_len are
    truncated from the left with a warning, keeping the most recent tokens
    visible to the model; since that shifts every position, each such step
    drops the cache and runs the whole window. Every forward reads only the
    last position's logits, so each runs with ``last_row``. ``top_n`` below 1
    or ``max_new_tokens`` below 0 raises ConfigError.
    """
    if top_n < 1:
        raise ConfigError(f"top_n: must be at least 1, got {top_n}")
    if max_new_tokens < 0:
        raise ConfigError(f"max_new_tokens: must be at least 0, got {max_new_tokens}")
    if temperature > 0 and rng is None:
        raise AnalysisError("temperature sampling needs an rng")
    tokens = list(_prompt_array(prompt_tokens))
    limit = model.config.max_seq_len
    cache = KVCache()
    steps = []
    for _ in range(max_new_tokens):
        if len(tokens) > limit:
            # the text is the same at every step, so the default warning filter shows it once
            warnings.warn(f"context truncated to the last {limit} tokens")
            cache, fresh = None, tokens[-limit:]
        else:
            fresh = tokens[cache.length :]
        with no_grad():
            logits, _ = forward(model, np.asarray(fresh, dtype=np.int64), cache=cache, last_row=True)
        probs = _softmax(logits.data[-1])
        order = np.argsort(-probs)
        if temperature > 0:
            scaled = _softmax(logits.data[-1], temperature)
            u = float(rng.uniform(()))
            nxt = int(np.searchsorted(np.cumsum(scaled), u))
        else:
            nxt = int(order[0])
        steps.append(
            GenerationStep(
                token=nxt,
                top_tokens=[(int(t), float(probs[t])) for t in order[:top_n]],
                probability_mass=float(probs.sum()),
            )
        )
        tokens.append(nxt)
    return GenerationResult(np.asarray(tokens, dtype=np.int64), [s.token for s in steps], steps)


def format_generation(result: GenerationResult, tokenizer) -> str:
    """Per-step next-token report: predicted token with top-n percentages."""
    inv = tokenizer.id_to_token()
    lines = []
    for step in result.steps:
        tops = ", ".join(f"{inv[t]} — {100 * p:.1f}%" for t, p in step.top_tokens)
        lines.append(f"{inv[step.token]}: {tops}")
    return "\n".join(lines)
