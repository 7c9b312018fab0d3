"""Span tracing of the papaformer layers, installed from outside the package.

The tracer replaces each traced function with a wrapper that records a span
(name, start, end, parent, phase). A function is replaced under every name
the package looks it up by: ``from x import f`` copies the function object
into the importing module, so each module's globals are scanned for the
original object. Tensor construction is counted per phase (tape nodes, nodes
carrying a backward closure, float64 nodes) through a wrapped
``Tensor.__init__``. Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name); "Class.method" attributes patch the class
TRACED = [
    ("data", "synthetic_story_corpus", "data.corpus"),
    ("data", "synthetic_math_corpus", "data.corpus"),
    ("data", "ToyTokenizer.build", "data.tokenizer_build"),
    ("data", "build_stream", "data.chunking"),
    ("data", "two_epoch_chunks", "data.chunking"),
    ("data", "split_collections", "data.chunking"),
    ("data", "ChunkStore.save", "data.store_save"),
    ("data", "ChunkStore.load", "data.store_load"),
    ("tensor", "Tensor.backward", "tensor.backward"),
    ("blocks", "rmsnorm", "blocks.rmsnorm"),
    ("blocks", "rope", "blocks.rope"),
    ("blocks", "causal_mha", "blocks.attn"),
    ("blocks", "swiglu_ffn", "blocks.swiglu"),
    ("blocks", "layer_block", "blocks.layer_block"),
    ("parallel", "run_paths", "parallel.paths"),
    ("parallel", "gumbel_v1_forward", "parallel.connection"),
    ("parallel", "gumbel_v2_forward", "parallel.connection"),
    ("parallel", "parallel_layer_forward", "parallel.layer"),
    ("model", "build", "model.build"),
    ("model", "forward", "model.forward"),
    ("losses", "cross_entropy", "losses.ce"),
    ("losses", "total_loss", "losses.total_loss"),
    ("trainer", "train", "trainer.train"),
    ("trainer", "adamw_step", "trainer.adamw"),
    ("composer", "validate_plan", "composer.validate"),
    ("composer", "composition_provenance", "composer.provenance"),
    ("composer", "compose", "composer.compose"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("checkpoint", "read_manifest", "checkpoint.read_manifest"),
    ("analysis", "trace_routing", "analysis.trace_routing"),
    ("analysis", "generate", "analysis.generate"),
    ("cli", "cmd_pretokenize", "cli.pretokenize"),
    ("cli", "cmd_compose", "cli.compose"),
]

MODULES = ("tensor", "blocks", "parallel", "model", "losses", "data", "checkpoint", "trainer", "composer", "analysis", "cli")


class Tracer:
    """In-memory spans plus per-phase tape counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, phase]
        self._stack = []
        self.phase = "none"
        self.counts = {}  # phase -> [nodes, closures, float64 nodes]

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.phase])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def in_phase(self, phase: str, tag: str = ""):
        """A benchmark-level span; spans and counts inside it belong to ``phase``."""
        outer = self.phase
        self.phase = phase
        idx = self._open(f"phase.{phase}{tag}")
        try:
            yield
        finally:
            self._close(idx)
            self.phase = outer

    def wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every traced function of the package; lasts for the process."""
        import importlib

        mods = {m: importlib.import_module(f"papaformer.{m}") for m in MODULES}
        for mod_name, attr, span in TRACED:
            owner = mods[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(raw.__func__, span)))
                else:
                    setattr(cls, meth, self.wrap(raw, span))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, span)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        self._count_tensors(mods["tensor"].Tensor)

    def _count_tensors(self, tensor_cls) -> None:
        init = tensor_cls.__init__
        counts = self.counts
        tracer = self

        def counted_init(t, data, requires_grad=False, _parents=(), _backward=None):
            init(t, data, requires_grad, _parents, _backward)
            c = counts.get(tracer.phase)
            if c is None:
                c = counts[tracer.phase] = [0, 0, 0]
            c[0] += 1
            c[1] += _backward is not None
            c[2] += t.data.dtype == np.float64

        tensor_cls.__init__ = counted_init

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "phase"], "spans": self.spans, "counts": self.counts}, f)


class SpanTable:
    """Aggregates over finished spans: inclusive and self time, counts."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.counts = tracer.counts
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.self_time = [s[2] - s[1] - c for s, c in zip(self.spans, child_time)]

    def _select(self, name: str, phases, parent_name: str | None = None):
        for i, (n, _, _, parent, phase) in enumerate(self.spans):
            if n != name or (phases is not None and phase not in phases):
                continue
            if parent_name is not None and (parent < 0 or self.spans[parent][0] != parent_name):
                continue
            yield i

    def incl(self, name: str, phases=None, parent_name: str | None = None) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self._select(name, phases, parent_name))

    def self_(self, name: str, phases=None) -> float:
        return sum(self.self_time[i] for i in self._select(name, phases))

    def calls(self, name: str, phases=None) -> int:
        return sum(1 for _ in self._select(name, phases))

    def within(self, name: str, ancestor: str, phases=None) -> float:
        """Inclusive time of ``name`` spans nested anywhere under an ``ancestor`` span."""
        total = 0.0
        for i in self._select(name, phases):
            p = self.spans[i][3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            if p >= 0:
                total += self.spans[i][2] - self.spans[i][1]
        return total

    def tape(self, phases) -> tuple:
        """(nodes, closures, float64 nodes) created in the given phases."""
        tot = [0, 0, 0]
        for ph in phases:
            for j, v in enumerate(self.counts.get(ph, (0, 0, 0))):
                tot[j] += v
        return tuple(tot)
