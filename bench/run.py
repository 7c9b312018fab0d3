#!/usr/bin/env python3
"""papaformer pipeline benchmark.

    python3 bench/run.py --workload {train,decode} --seed N --seconds S --trace {0,1}

Each workload is a closed loop in one process: every call is issued after the
previous one returns. A round runs the whole pipeline once (pretokenize verb,
two path trainings with their epoch checkpoints, compose verb, checkpoint load
and save, a load of a truncated checkpoint, composite training, routing traces,
greedy generation); workloads differ only in how much work each stage gets.
Rounds repeat until about ``--seconds`` have passed. Every call is timed in
reference seconds (``clock.py``), and each stage reports medians over the
run's calls. With ``--trace 0`` the last stdout line is a JSON object holding
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run. Without ``--workload`` every workload runs in its own process in turn.
``--tiny`` shrinks every stage so the benchmark's smoke test runs in seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, replace

# BLAS threads are fixed before numpy loads; one thread keeps runs on a shared
# two-CPU machine repeatable and never exceeds nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("PAPA_SEED", None)  # the seed comes from --seed only

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)


SEQ_LEN = 256
ACCUM = 2
TRAIN_STEPS = 1  # optimizer steps per train() call
# calls per round, so that the short, noisy calls get several timed samples in a
# run of two or three rounds; each train() call is repeated from the same initial model
TRAIN_REPS = 2
PRETOK_REPS = 6
COMPOSE_REPS = 2
CKPT_REPS = 10
EVAL_CHUNKS_PER_DOMAIN = 2
ROUTE_LENGTHS = (8, 16, 32, 64, 128)
SETUP_REPEATS = 3
FIRST_CE_TOLERANCE = 0.25


@dataclass(frozen=True)
class Profile:
    """How much work each pipeline stage gets in one round."""

    store_docs: int  # synthetic documents per domain in the in-process store
    pretok_docs: int  # documents per domain given to the pretokenize verb
    batch: int  # micro-batch size; every step accumulates ACCUM micro-batches
    route_prompts: int
    gen_contexts: tuple  # context lengths of the greedy generate calls
    gen_new: int  # new tokens per generate call


WORKLOADS = {
    # the tape's forward, backward and AdamW: training at B=2 takes the largest share of a round
    "train": Profile(store_docs=1000, pretok_docs=3000, batch=2, route_prompts=10, gen_contexts=(16, 64, 248),
                     gen_new=12),
    # the forward pass alone: greedy generation past max_seq_len and routing traces
    # take the largest share of a round, training runs at B=1
    "decode": Profile(store_docs=1000, pretok_docs=3000, batch=1, route_prompts=20, gen_contexts=(16, 64, 240),
                      gen_new=20),
}
TINY = dict(store_docs=300, pretok_docs=300, batch=1, route_prompts=2, gen_contexts=(16, 250), gen_new=8)


def gen_bucket(context_len: int) -> str:
    return "ctx16" if context_len <= 16 else "ctx64" if context_len <= 64 else "ctx256"


class Bench:
    def __init__(self, prof: Profile, seed: int, work: str, tracer):
        self.prof, self.seed, self.work, self.tracer = prof, seed, work, tracer
        self.check = checks.Checker()
        self.attempted = 0
        self.failed = 0
        self.fail_notes = set()
        self.clock = clock.Clock()
        # stage -> operation key -> reference seconds of each call; a key names one
        # operation of a round, so its calls are alike and their median is robust
        self.times = {k: {} for k in ("setup", "pretokenize", "path_train", "compose", "ckpt_load", "ckpt_save",
                                      "composite_train", "route", "generate")}
        self.wall = {k: 0.0 for k in self.times}  # wall seconds per stage, for the stderr report
        self.tokens = {k: 0 for k in ("path_train", "composite_train", "route", "generate")}
        self.units = {k: 0 for k in ("path_micro", "composite_micro", "steps", "train_calls", "truncated_steps",
                                     "rounds")}
        self.gen_tokens = {}  # context bucket -> new tokens
        self.digests = {}  # output name -> sha256 of the first round's output
        self.eval_ce = None
        self.ckpt_bytes = 0

    # -- helpers ---------------------------------------------------------

    def phase(self, name: str, tag: str = ""):
        """Enter a stage with the garbage of the previous stage collected, so the
        collector's triggers in a timed call do not depend on what ran before."""
        gc.collect()
        return self.tracer.in_phase(name, tag) if self.tracer else contextlib.nullcontext()

    def timed(self, stage: str, key: str, fn):
        """Run ``fn()`` on the reference clock and record its time under ``stage``/``key``."""
        out, ref_s, wall = self.clock.time(fn)
        self.times[stage].setdefault(key, []).append(ref_s)
        self.wall[stage] += wall
        return out

    def stage_s(self, stage: str) -> float:
        """Reference seconds of one pass of a stage: the sum over its operations of the
        median of each operation's calls."""
        return sum(statistics.median(v) for v in self.times[stage].values())

    def calls(self, stage: str) -> int:
        return sum(len(v) for v in self.times[stage].values())

    def passes(self, stage: str) -> int:
        """Calls of each of a stage's operations (all of a stage's operations run equally often)."""
        return len(next(iter(self.times[stage].values())))

    def attempt(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note not in self.fail_notes:
                self.fail_notes.add(note)
                print(f"operation failed: {note}", file=sys.stderr)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def verb(self, argv: list) -> tuple:
        """Run a CLI verb in-process: (exit code, traceback or '')."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                return cli.main(argv), ""
            except Exception:  # the interpreter would print this and exit 1
                return 1, traceback.format_exc()

    def settle(self, *paths: str) -> None:
        """Flush written files to disk outside the timed calls, so that one call's dirty
        pages do not throttle the writes of the next."""
        for path in paths:
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def same_as_first_round(self, key: str, path: str) -> None:
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        self.check.expect(self.digests.setdefault(key, digest) == digest, f"{key}: output differs between rounds")

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        p, s = self.prof, self.seed
        corpora = [data.synthetic_story_corpus(p.store_docs, s), data.synthetic_math_corpus(p.store_docs, s + 1)]
        store = data.build_chunk_store(corpora, seq_len=SEQ_LEN, seed=s)
        store.save(self.path("store.ppch"))
        self.store = data.ChunkStore.load(self.path("store.ppch"))
        vocab = self.store.tokenizer.vocab_size
        self.path_cfg = preset_config("path", vocab)
        self.comp_cfg = preset_config("parallel_gumbel_v1", vocab)
        # the presets pin vocab 50257 and the compose verb keeps it, so composing paths at
        # the store's vocab needs a config whose vocab follows the path checkpoints
        with open(self.path("composite_auto.yaml"), "w", encoding="utf-8") as f:
            json.dump({"model": {**cli.load_config("parallel_gumbel_v1")["model"], "vocab_size": "auto"}}, f)
        # warm-up: one path training step, one composite forward, one generated token
        warm = model.build(self.path_cfg, RngState(s))
        trainer.train(warm, self.store.select(corpus="story", sub=60),
                      trainer.TrainConfig(batch_size=1, grad_accum_steps=1, epochs=1, max_steps=1, seed=s))
        comp = model.build(self.comp_cfg, RngState(s))
        model.forward(comp, self.store.chunks[0].tokens[:64].astype(np.int64))
        analysis.generate(comp, self.store.chunks[0].tokens[:16].astype(np.int64), 1)
        self.prompts = self.make_prompts()
        self.contexts = self.make_contexts()
        held = [ch for c in ("story", "math") for ch in self.store.select(corpus=c, sub=40, epoch=2)[:EVAL_CHUNKS_PER_DOMAIN]]
        self.held = np.stack([ch.tokens for ch in held]).astype(np.int64)

    def make_prompts(self) -> list:
        """Fixed story/math prompts of 8-128 tokens cut from the held-out epoch-2 chunks."""
        pools = {c: self.store.select(corpus=c, sub=40, epoch=2) for c in ("story", "math")}
        out = []
        for i in range(self.prof.route_prompts):
            domain = ("story", "math")[i % 2]
            chunk = pools[domain][(i // 2) % len(pools[domain])]
            out.append((domain, chunk.tokens[: ROUTE_LENGTHS[i % len(ROUTE_LENGTHS)]].astype(np.int64)))
        return out

    def make_contexts(self) -> list:
        pools = [self.store.select(corpus=c, sub=40, epoch=2) for c in ("story", "math")]
        return [pools[i % 2][-1 - i].tokens[:n].astype(np.int64) for i, n in enumerate(self.prof.gen_contexts)]

    # -- one round ---------------------------------------------------------

    def round(self, first: bool) -> None:
        self.pretokenize(first)
        for rep in range(TRAIN_REPS):
            path_ckpts = self.train_paths(first and rep == 0)
        composed = self.compose_verb(path_ckpts, self.path("composite_auto.yaml"), first)
        self.checkpoint_ops(composed)
        self.truncated_load(composed)
        for rep in range(TRAIN_REPS):
            comp = self.last_composite = self.train_composite(path_ckpts, first and rep == 0)
        self.route(comp)
        self.generate(comp, first)
        self.units["rounds"] += 1

    def pretokenize(self, first: bool) -> None:
        out = self.path("pretok.ppch")
        argv = ["pretokenize", "--synthetic", str(self.prof.pretok_docs), "--seq-len", str(SEQ_LEN),
                "--seed", str(self.seed), "--out", out]
        for _ in range(PRETOK_REPS):
            with self.phase("pretokenize"):
                code, tb = self.timed("pretokenize", "verb", lambda: self.verb(argv))
            self.attempt(code == 0, f"pretokenize exit {code} {tb}")
            self.settle(out)
        with self.phase("checks"):
            if first:
                self.check_store(out)
            self.same_as_first_round("pretokenize", out)

    def check_store(self, path: str) -> None:
        c = self.check
        seq_len, tokens, prov = checks.read_ppch(path)
        store = data.ChunkStore.load(path)
        c.expect(seq_len == SEQ_LEN and store.seq_len == SEQ_LEN, "store: seq_len is not 256")
        c.expect(all(len(ch.tokens) == SEQ_LEN for ch in store.chunks), "store: a chunk is not 256 tokens long")
        c.expect(len(store.chunks) == tokens.shape[0]
                 and np.array_equal(np.stack([ch.tokens for ch in store.chunks]), tokens),
                 "store: loaded tokens differ from the file")
        c.expect([(ch.corpus, ch.sub_collection, ch.epoch, ch.start) for ch in store.chunks]
                 == [(m["corpus"], m["sub"], m["epoch"], m["start"]) for m in prov["chunks"]],
                 "store: loaded chunk metadata differs from the file")
        fp = checks.vocab_fingerprint(prov["tokenizer"]["vocab"])
        c.expect(fp == prov["tokenizer_fingerprint"] == store.tokenizer.fingerprint(),
                 "store: tokenizer fingerprint not preserved")
        for corpus in ("story", "math"):
            metas = [m for m in prov["chunks"] if m["corpus"] == corpus]
            offsets = [{m["start"] % SEQ_LEN for m in metas if m["epoch"] == e} for e in (1, 2)]
            c.expect(len(offsets[0]) == 1 and len(offsets[1]) == 1 and offsets[0] != offsets[1],
                     f"store: {corpus} epochs do not use two distinct offsets")
            n60 = sum(m["sub"] == 60 for m in metas)
            c.expect(n60 == round(0.6 * len(metas)) and all(m["sub"] in (40, 60) for m in metas),
                     f"store: {corpus} 60% share is {n60} of {len(metas)}")
        resaved = path + ".resaved"
        store.save(resaved)
        self.settle(resaved)
        with open(path, "rb") as a, open(resaved, "rb") as b:
            c.expect(a.read() == b.read(), "store: save(load(store)) changes the bytes")
        docs = (data.synthetic_story_corpus(20, self.seed).documents
                + data.synthetic_math_corpus(20, self.seed + 1).documents)
        tok = store.tokenizer
        c.expect(all(tok.detokenize(tok.tokenize(d)) == d for d in docs), "store: detokenize(tokenize(doc)) != doc")

    def train_paths(self, first: bool) -> list:
        p = self.prof
        out = []
        for i, (role, corpus) in enumerate((("path1", "story"), ("path2", "math"))):
            ckpt = self.path(f"{role}.ppck")
            m = model.build(self.path_cfg, RngState(self.seed + 10 + i))
            cfg = trainer.TrainConfig(batch_size=p.batch, grad_accum_steps=ACCUM, epochs=1,
                                      max_steps=TRAIN_STEPS, seed=self.seed + i)
            chunks = self.store.select(corpus=corpus, sub=60)
            with self.phase("path_train"):
                report = self.timed("path_train", role, lambda: trainer.train(m, chunks, cfg, checkpoint_path=ckpt))
            self.record_training("path_train", report)
            self.settle(ckpt)
            first_ce = report.steps[0]["ce"]
            # initial logits have std ~ sqrt(d) * 0.02 ~ 0.23, and the offsets of the
            # frequent targets do not average out, so ln V holds to about 0.16 nats
            self.check.expect(abs(first_ce - math.log(self.path_cfg.vocab_size)) < FIRST_CE_TOLERANCE,
                              f"{role}: first-step CE {first_ce:.4f} is not within {FIRST_CE_TOLERANCE} of ln V")
            if first:
                init = model.build(self.path_cfg, RngState(self.seed + 10 + i))
                pool = [c for c in chunks if c.epoch == 1]
                plan = data.make_batches([pool], p.batch, RngState(cfg.seed))[:ACCUM]
                ref = statistics.fmean(ce_of(init, np.stack([c.tokens for c in b]).astype(np.int64)) for b in plan)
                self.check.expect(abs(first_ce - ref) < 1e-4 * ref,
                                  f"{role}: first-step CE {first_ce:.6f} != float64 reference {ref:.6f}")
            self.last_path_model = m
            out.append(ckpt)
        return out

    def record_training(self, kind: str, report) -> None:
        p = self.prof
        steps = len(report.steps)
        self.attempt(steps == TRAIN_STEPS and all(math.isfinite(s["total"]) for s in report.steps),
                     f"{kind}: {steps} steps, losses {report.losses}")
        self.check.expect(all(math.isfinite(s["total"]) for s in report.steps), f"{kind}: non-finite loss")
        self.tokens[kind] += steps * ACCUM * p.batch * (SEQ_LEN - 1)
        self.units["path_micro" if kind == "path_train" else "composite_micro"] += steps * ACCUM
        self.units["steps"] += steps
        self.units["train_calls"] += 1

    def compose_verb(self, sources: list, config: str, first: bool) -> str:
        out = self.path("composite.ppck")
        argv = ["compose", *sources, "--config", config, "--seed", str(self.seed), "--out", out]
        for _ in range(COMPOSE_REPS):
            with self.phase("compose"):
                code, tb = self.timed("compose", "verb", lambda: self.verb(argv))
            self.attempt(code == 0, f"compose exit {code} {tb}")
            self.settle(out, out + ".provenance.json")
            with self.phase("checks"):
                self.same_as_first_round("compose", out)
        if first:
            with self.phase("checks"):
                self.check_composite(out, sources)
        return out

    def check_composite(self, path: str, sources: list) -> None:
        c = self.check
        manifest, mlen, arrays = checks.read_ppck(path)
        srcs = [checks.read_ppck(s)[2] for s in sources]
        for name, arr in arrays.items():
            parts = name.split(".")
            if len(parts) == 3 and parts[1].startswith("path"):  # parallel{j}.path{i}.{weight}
                src = srcs[int(parts[1][4:])][f"block_before{int(parts[0][8:])}.{parts[2]}"]
                c.expect(arr.tobytes() == src.tobytes(), f"compose: {name} is not its source bit for bit")
        c.expect(np.array_equal(arrays["embed"], np.concatenate([s["embed"] for s in srcs], axis=1)),
                 "compose: embed is not the concatenation of the path embeddings")
        c.expect(np.array_equal(arrays["lm_head"], np.concatenate([s["lm_head"] for s in srcs], axis=0)),
                 "compose: lm_head is not the concatenation of the path heads")
        scalars = sum(a.size for a in arrays.values())
        c.expect(scalars == checks.param_total(manifest["model_config"]),
                 f"compose: {scalars} parameters, closed form says {checks.param_total(manifest['model_config'])}")
        c.expect(os.path.getsize(path) == struct.calcsize(checks.CKPT_HEADER) + mlen + 4 * scalars,
                 "compose: file size is not header + manifest + 4 bytes per scalar")
        self.ckpt_bytes = os.path.getsize(path)

    def checkpoint_ops(self, composed: str) -> None:
        saved = self.path("resaved.ppck")
        with open(composed, "rb") as f:
            original = f.read()
        for _ in range(CKPT_REPS):
            with self.phase("ckpt_load"):
                ck = self.timed("ckpt_load", "load", lambda: checkpoint.load_checkpoint(composed))
            if os.path.exists(saved):
                os.remove(saved)
            with self.phase("ckpt_save"):
                self.timed("ckpt_save", "save",
                           lambda: checkpoint.save_checkpoint(saved, ck.model, provenance=ck.provenance))
            self.settle(saved)
            self.attempted += 2
            with self.phase("checks"), open(saved, "rb") as f:
                self.check.expect(f.read() == original, "checkpoint: save -> load -> save changes the bytes")
            del ck

    def truncated_load(self, composed: str) -> None:
        """The documented result of a truncated checkpoint is CheckpointError and exit code 3."""
        with open(composed, "rb") as f:
            head = f.read(struct.calcsize(checks.CKPT_HEADER))
            mlen = struct.unpack(checks.CKPT_HEADER, head)[2]
            body = f.read(mlen // 2)
        trunc = self.path("truncated.ppck")
        with open(trunc, "wb") as f:
            f.write(head + body)
        with self.phase("truncated"):
            try:
                checkpoint.load_checkpoint(trunc)
                raised = "nothing"
            except checkpoint.CheckpointError:
                raised = "CheckpointError"
            except Exception as e:  # the fault under test escapes as another type
                raised = type(e).__name__
            code, _ = self.verb(["inspect-checkpoint", trunc])
        self.attempt(raised == "CheckpointError" and code == cli.EXIT_DATA,
                     f"truncated checkpoint: load_checkpoint raised {raised}, inspect-checkpoint exited {code}")

    def train_composite(self, path_ckpts: list, first: bool):
        p = self.prof
        comp = composer.compose(composer.CompositionPlan(path_ckpts, self.comp_cfg), RngState(self.seed + 20))
        if first:
            with self.phase("eval"):
                self.ce_before = ce_of(comp, self.held)
        cfg = trainer.TrainConfig(batch_size=p.batch, grad_accum_steps=ACCUM, epochs=1,
                                  max_steps=TRAIN_STEPS, seed=self.seed + 3)
        chunks, ckpt = self.store.select(sub=40), self.path("composite_trained.ppck")
        with self.phase("composite_train"):
            report = self.timed("composite_train", "composite",
                                lambda: trainer.train(comp, chunks, cfg, checkpoint_path=ckpt))
        self.record_training("composite_train", report)
        self.settle(self.path("composite_trained.ppck"))
        with self.phase("eval"):
            self.evaluate(comp, first)
        return comp

    def evaluate(self, comp, first: bool) -> None:
        """eval_ce: float64 log-softmax of the logits, not losses.cross_entropy, which is checked against it."""
        logits, _ = model.forward(comp, self.held[:, :-1])
        ce = checks.ce64(logits.data, self.held[:, 1:])
        c = self.check
        # compared on the same held-out chunks: a one-step run's first training batch is too
        # small a sample to rank against them
        c.expect(ce < self.ce_before, f"eval_ce {ce:.4f} is not below the held-out CE before training {self.ce_before:.4f}")
        c.expect(self.eval_ce is None or self.eval_ce == ce, "eval_ce differs between rounds of one seed")
        self.eval_ce = ce
        if first:
            program_ce = float(losses.cross_entropy(logits, self.held[:, 1:]).data)
            c.expect(abs(program_ce - ce) < 1e-4 * max(1.0, ce), f"cross_entropy {program_ce} != reference {ce}")
            rng = np.random.default_rng(self.seed)
            for blk, d in ((self.last_path_model.blocks_before[0], self.path_cfg.d_model),
                           (comp.blocks_before[0], self.comp_cfg.d_model)):
                x = rng.standard_normal((self.prof.batch, SEQ_LEN - 1, d)).astype(np.float32)
                got = blocks.layer_block(Tensor(x), blk, SEQ_LEN).data
                weights = {k: v.data for k, v in blk.named_params().items()}
                c.expect(checks.close(got, checks.ref_layer_block(x, weights, blk.heads), 1e-4, 1e-4),
                         f"layer_block at d={d} differs from the float64 reference")

    def route(self, comp) -> None:
        c = self.check
        traces, domains = [], []
        for i, (domain, toks) in enumerate(self.prompts):
            with self.phase("route"):
                tr = self.timed("route", f"prompt{i}", lambda: analysis.trace_routing(comp, toks))
            self.tokens["route"] += len(toks)
            ok = len(tr.pis) == self.comp_cfg.n_parallel_layers
            for pi, sel in zip(tr.pis, tr.selections):
                ok &= bool(np.all(pi >= 0)) and abs(float(np.sum(pi, dtype=np.float64)) - 1.0) < 1e-5
                ok &= sel == int(np.argmax(pi))
            self.attempted += 1
            c.expect(ok, "trace_routing: a pi row is off the simplex or a selection is not its argmax")
            traces.append(tr)
            domains.append(domain)
        util = analysis.utilization(traces, domains)
        c.expect(abs(sum(util.shares()) - 100.0) < 1e-9, "utilization shares do not sum to 100")

    def generate(self, comp, first: bool) -> None:
        for i, ctx in enumerate(self.contexts):
            bucket = gen_bucket(len(ctx))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with self.phase("generate", "." + bucket):
                    res = self.timed("generate", f"context{i}",
                                     lambda: analysis.generate(comp, ctx, self.prof.gen_new, top_n=5))
            self.tokens["generate"] += len(res.new_tokens)
            self.gen_tokens[bucket] = self.gen_tokens.get(bucket, 0) + len(res.new_tokens)
            self.units["truncated_steps"] += sum("truncated" in str(w.message) for w in caught)
            self.attempt(len(res.new_tokens) == self.prof.gen_new, "generate: wrong number of new tokens")
            with self.phase("checks"):
                key = f"generate{i}"
                self.check.expect(self.digests.setdefault(key, res.new_tokens) == res.new_tokens,
                                  "generate: continuation differs between rounds")
                if first:
                    self.check_generation(comp, ctx, res)

    def check_generation(self, comp, ctx, res) -> None:
        """Each greedy pick is the argmax of a fresh full-window forward of the final sequence."""
        c = self.check
        limit = comp.config.max_seq_len
        final = np.asarray(res.tokens, dtype=np.int64)
        windows = {}
        for i, step in enumerate(res.steps):
            end = len(ctx) + i  # the step predicted final[end] from final[:end]
            start = max(0, end - limit)
            if start not in windows:
                window = final[start : start + limit] if start == 0 else final[start:end]
                windows[start] = np.exp(checks.log_softmax64(model.forward(comp, window)[0].data))
            probs = windows[start][end - 1 - start]
            c.expect(step.token == final[end] and probs.max() - probs[step.token] <= 1e-5,
                     f"generate: step {i} token {step.token} is not the window argmax")
            tops = [pr for _, pr in step.top_tokens]
            c.expect(all(a >= b for a, b in zip(tops, tops[1:])), "generate: top-n list not sorted")
            c.expect(abs(step.probability_mass - 1.0) <= 1e-6, "generate: probability mass is not 1")

    # -- traced extras ---------------------------------------------------------

    def isolated_backward(self, comp) -> dict:
        """Backward ms of single layer calls at the training shapes (median of 3)."""
        b, t = self.prof.batch, SEQ_LEN - 1
        rng = np.random.default_rng(self.seed)
        blk = self.last_path_model.blocks_before[0]
        d = blk.wq.shape[0]
        conn = comp.parallel_layers[0].connection

        def leaf(*shape):
            return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)

        cases = {
            "rope": lambda: blocks.rope(leaf(b, t, blk.heads, d // blk.heads), np.arange(t)),
            "attn": lambda: blocks.causal_mha(leaf(b, t, d), blk, SEQ_LEN),
            "swiglu": lambda: blocks.swiglu_ffn(leaf(b, t, d), blk),
            "connection": lambda: parallel.gumbel_v1_forward(
                [leaf(b, t, d), leaf(b, t, d)], conn, comp.config.gumbel, RngState(self.seed), True)[0],
            "ce": lambda: losses.cross_entropy(leaf(b, t, comp.config.vocab_size),
                                               rng.integers(0, comp.config.vocab_size, (b, t))),
        }
        out = {}
        for name, fn in cases.items():
            samples = []
            for _ in range(3):
                y = fn()
                loss = y if y.size == 1 else (y * Tensor(rng.standard_normal(y.shape).astype(np.float32))).sum()
                t0 = time.perf_counter()
                loss.backward()
                samples.append(time.perf_counter() - t0)
                self.last_path_model.zero_grad()
                comp.zero_grad()
            out[name] = 1000 * statistics.median(samples)
        return out

    # -- results ---------------------------------------------------------------

    def end_to_end(self) -> dict:
        """Rates are one pass's tokens over one pass's reference seconds of the stage; every
        pass trains, routes or generates the same number of tokens."""
        s = self.stage_s
        per_pass = {k: v / self.passes(k) for k, v in self.tokens.items()}
        return {
            "setup_s": (s("setup"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "path_train_tok_s": (per_pass["path_train"] / s("path_train"), "tok/s"),
            "composite_train_tok_s": (per_pass["composite_train"] / s("composite_train"), "tok/s"),
            "eval_ce": (self.eval_ce, "nats"),
            "gen_tok_s": (per_pass["generate"] / s("generate"), "tok/s"),
            "route_tok_s": (per_pass["route"] / s("route"), "tok/s"),
            "pretokenize_s": (s("pretokenize"), "s"),
            "compose_s": (s("compose"), "s"),
            "ckpt_save_s": (s("ckpt_save"), "s"),
            "ckpt_load_s": (s("ckpt_load"), "s"),
        }

    def wall_report(self) -> str:
        """Wall-clock seconds per stage and the reference kernel's median, for stderr."""
        kernel_ms = 1000 * statistics.median(self.clock.bursts)
        stages = ", ".join(f"{k} {v:.3f} s/{self.calls(k)} calls" for k, v in self.wall.items())
        return (f"wall clock: {self.units['rounds']} rounds; {stages}; "
                f"reference kernel median {kernel_ms:.2f} ms (reference {1000 * clock.REF_BURST_S:.0f} ms)")

    def per_layer(self, table, iso: dict) -> dict:
        u, r = self.units, self.units["rounds"]
        train = ("path_train", "composite_train")
        micro = u["path_micro"] + u["composite_micro"]
        n_pretok = self.calls("pretokenize")
        n_compose = self.calls("compose")
        n_load = self.calls("ckpt_load")
        new_tokens = self.tokens["generate"]
        comp_train, comp_micro = ("composite_train",), u["composite_micro"]
        train_nodes, _, f64 = table.tape(train)
        _, gen_closures, _ = table.tape(("generate",))
        build_calls = table.calls("model.build", ("compose",)) / n_compose + table.calls("model.build", ("ckpt_load",)) / n_load
        build_s = table.incl("model.build", ("compose",)) / n_compose + table.incl("model.build", ("ckpt_load",)) / n_load
        train_s = table.incl("trainer.train", train)
        epoch_save = table.within("checkpoint.save", "trainer.train", train)
        gen = {b: 1000 * table.incl("analysis.generate", ("generate",), f"phase.generate.{b}") / n
               for b, n in self.gen_tokens.items()}
        m = {
            "data.corpus_s": (table.incl("data.corpus", ("pretokenize",)) / n_pretok, "s"),
            "data.tokenizer_build_s": (table.incl("data.tokenizer_build", ("pretokenize",)) / n_pretok, "s"),
            "data.chunking_s": (table.incl("data.chunking", ("pretokenize",)) / n_pretok, "s"),
            "data.store_save_s": (table.incl("data.store_save", ("pretokenize",)) / n_pretok, "s"),
            "data.store_load_s": (table.incl("data.store_load", ("setup",)) / self.calls("setup"), "s"),
            "tensor.backward_ms": (1000 * table.incl("tensor.backward", train) / micro, "ms"),
            "tensor.nodes_per_microbatch": (train_nodes / micro, "count"),
            "tensor.f64_node_share": (f64 / train_nodes, "share"),
            "tensor.closures_per_gen_token": (gen_closures / new_tokens, "count"),
            "blocks.attn_fwd_ms": (1000 * table.self_("blocks.attn", train) / micro, "ms"),
            "blocks.rope_fwd_ms": (1000 * table.self_("blocks.rope", train) / micro, "ms"),
            "blocks.swiglu_fwd_ms": (1000 * table.self_("blocks.swiglu", train) / micro, "ms"),
            "blocks.rmsnorm_fwd_ms": (1000 * table.self_("blocks.rmsnorm", train) / micro, "ms"),
            "blocks.attn_bwd_ms": (iso["attn"], "ms"),
            "blocks.rope_bwd_ms": (iso["rope"], "ms"),
            "blocks.swiglu_bwd_ms": (iso["swiglu"], "ms"),
            "parallel.paths_fwd_ms": (1000 * table.incl("parallel.paths", comp_train) / comp_micro, "ms"),
            "parallel.connection_fwd_ms": (1000 * table.incl("parallel.connection", comp_train) / comp_micro, "ms"),
            "parallel.connection_bwd_ms": (iso["connection"], "ms"),
            "model.forward_ms": (1000 * table.incl("model.forward", train) / micro, "ms"),
            "model.build_s": (build_s, "s"),
            "model.build_calls": (build_calls, "count"),
            "losses.ce_fwd_ms": (1000 * table.incl("losses.ce", train) / micro, "ms"),
            "losses.ce_bwd_ms": (iso["ce"], "ms"),
            "losses.aux_fwd_ms": (1000 * table.incl("losses.total_loss", comp_train) / comp_micro, "ms"),
            "trainer.step_s": ((train_s - epoch_save) / u["steps"], "s"),
            "trainer.adamw_ms": (1000 * table.incl("trainer.adamw", train) / u["steps"], "ms"),
            "trainer.epoch_save_ms": (1000 * epoch_save / u["train_calls"], "ms"),
            "composer.validate_s": (table.incl("composer.validate", ("compose",)) / n_compose, "s"),
            "composer.provenance_s": (table.incl("composer.provenance", ("compose",)) / n_compose, "s"),
            "composer.provenance_calls": (table.calls("composer.provenance", ("compose",)) / n_compose, "count"),
            "composer.compose_s": (table.incl("composer.compose", ("compose",)) / n_compose, "s"),
            "checkpoint.save_s": (table.incl("checkpoint.save", ("ckpt_save",)) / self.calls("ckpt_save"), "s"),
            "checkpoint.load_s": (table.incl("checkpoint.load", ("ckpt_load",)) / n_load, "s"),
            "checkpoint.read_manifest_ms": (1000 * table.incl("checkpoint.read_manifest") / max(table.calls("checkpoint.read_manifest"), 1), "ms"),
            "checkpoint.bytes": (self.ckpt_bytes, "bytes"),
            "analysis.trace_routing_ms": (1000 * table.incl("analysis.trace_routing", ("route",)) / self.calls("route"), "ms"),
            "analysis.gen_ms_per_tok.ctx16": (gen.get("ctx16", 0.0), "ms"),
            "analysis.gen_ms_per_tok.ctx64": (gen.get("ctx64", 0.0), "ms"),
            "analysis.gen_ms_per_tok.ctx256": (gen.get("ctx256", 0.0), "ms"),
            "analysis.truncated_steps": (u["truncated_steps"] / r, "count"),
            "cli.compose_self_s": (table.self_("cli.compose", ("compose",)) / n_compose, "s"),
            "cli.pretokenize_self_s": (table.self_("cli.pretokenize", ("pretokenize",)) / n_pretok, "s"),
        }
        return m


def ce_of(m, tokens) -> float:
    """Float64 next-token cross-entropy of a [B, T+1] token batch under model ``m``."""
    return checks.ce64(model.forward(m, tokens[:, :-1])[0].data, tokens[:, 1:])


def preset_config(name: str, vocab: int):
    """A packaged preset's model shape at the given vocab."""
    return model.ModelConfig.from_dict({**cli.load_config(name)["model"], "vocab_size": vocab})


def run_workload(args) -> int:
    prof = WORKLOADS[args.workload]
    if args.tiny:
        prof = replace(prof, **TINY)
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    bench = Bench(prof, args.seed, work, tracer)
    try:
        for _ in range(SETUP_REPEATS):
            with bench.phase("setup"):
                bench.timed("setup", "setup", bench.setup)
        # whole rounds, until --seconds is nearer to the end of the last one than to
        # the projected end of another
        start = time.perf_counter()
        last = 0.0
        while bench.units["rounds"] == 0 or time.perf_counter() - start + last / 2 < args.seconds:
            t0 = time.perf_counter()
            bench.round(first=bench.units["rounds"] == 0)
            last = time.perf_counter() - t0
        metrics = bench.end_to_end()
        print(bench.wall_report(), file=sys.stderr)
        if tracer:
            with bench.phase("isolated"):
                iso = bench.isolated_backward(bench.last_composite)
            print("traced end-to-end: " + json.dumps({k: round(v, 6) for k, (v, _) in metrics.items()}))
            metrics = bench.per_layer(tracing.SpanTable(tracer), iso)
            tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in bench.check.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not bench.check.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            code = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<32} {v['value']:>14.6g} {v['unit']}")
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every stage for the smoke test")
    args = p.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    try:
        import numpy as np

        import checks
        import clock
        import tracing
        from papaformer import analysis, blocks, checkpoint, cli, composer, data, losses, model, parallel, trainer
        from papaformer.tensor import RngState, Tensor
    except ImportError as e:
        print(f"cannot import the program from {SRC}: {e}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"papaformer was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
