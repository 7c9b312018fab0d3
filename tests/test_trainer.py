import hashlib
import math
import os
import platform
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from papaformer import trainer
from papaformer.blocks import ConfigError
from papaformer.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from papaformer.data import DataError, build_chunk_store, synthetic_math_corpus, synthetic_story_corpus
from papaformer.losses import cross_entropy
from papaformer.model import ModelConfig, build, forward
from papaformer.tensor import NonFiniteError, RngState, Tensor
from papaformer.trainer import (
    OptimizerState,
    TrainConfig,
    adamw_step,
    clip_gradients,
    cosine_lr,
    run_phase2,
    state_from_checkpoint,
    train,
)
from test_checkpoint import rewrite_manifest


def tiny_cfg(**overrides):
    base = dict(
        lr=1e-2,
        batch_size=2,
        epochs=2,
        grad_accum_steps=2,
        weight_decay=0.1,
        adam_eps=1e-5,
        seed=42,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def store():
    corpora = [synthetic_story_corpus(60, seed=1), synthetic_math_corpus(60, seed=2)]
    return build_chunk_store(corpora, seq_len=16, seed=42)


def small_model_config(vocab, **overrides):
    base = dict(
        vocab_size=vocab,
        d_model=32,
        d_path=16,
        n_layer_blocks=1,
        n_parallel_layers=2,
        k_paths=2,
        heads_layer=2,
        heads_path=2,
        ff_layer=64,
        ff_path=32,
        max_seq_len=16,
        connection_kind="gumbel_v1",
    )
    base.update(overrides)
    return ModelConfig.from_dict(base)


def subset(store, n_per_epoch):
    picked = []
    for epoch in (1, 2):
        pool = [c for c in store.chunks if c.corpus == "story" and c.epoch == epoch]
        picked.extend(pool[:n_per_epoch])
    return picked


class TestAdamW:
    def one_param(self, value, grad):
        p = Tensor(np.full((2,), value, dtype=np.float32), requires_grad=True)
        p.grad = np.full((2,), grad, dtype=np.float32)
        return {"w": p}

    def test_single_step_matches_closed_form(self):
        cfg = tiny_cfg(weight_decay=0.0)
        params = self.one_param(1.0, 1.0)
        state = OptimizerState.init(params)
        adamw_step(params, state, lr_t=cfg.lr, cfg=cfg)
        # bias-corrected m_hat = v_hat = 1 after the first unit-gradient step
        expected = 1.0 - cfg.lr * 1.0 / (1.0 + cfg.adam_eps)
        assert params["w"].data[0] == pytest.approx(expected, abs=1e-7)
        assert state.step == 1

    def test_zero_grad_zero_decay_leaves_params(self):
        cfg = tiny_cfg(weight_decay=0.0)
        params = self.one_param(0.7, 0.0)
        adamw_step(params, OptimizerState.init(params), lr_t=cfg.lr, cfg=cfg)
        assert params["w"].data[0] == pytest.approx(0.7)

    def test_decay_is_decoupled(self):
        cfg = tiny_cfg(weight_decay=0.5)
        params = self.one_param(2.0, 0.0)
        adamw_step(params, OptimizerState.init(params), lr_t=cfg.lr, cfg=cfg)
        assert params["w"].data[0] == pytest.approx(2.0 * (1 - cfg.lr * 0.5), abs=1e-7)

    def test_two_steps_track_numpy_oracle(self):
        cfg = tiny_cfg(weight_decay=0.0)
        params = self.one_param(0.5, 0.0)
        state = OptimizerState.init(params)
        theta, m, v = 0.5, 0.0, 0.0
        for t, g in ((1, 0.3), (2, -0.2)):
            params["w"].grad = np.full((2,), g, dtype=np.float32)
            adamw_step(params, state, lr_t=cfg.lr, cfg=cfg)
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            m_hat = m / (1 - cfg.beta1**t)
            v_hat = v / (1 - cfg.beta2**t)
            theta -= cfg.lr * m_hat / (math.sqrt(v_hat) + cfg.adam_eps)
        assert params["w"].data[0] == pytest.approx(theta, abs=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_expression_with_temporaries(self, dtype):
        cfg = tiny_cfg(weight_decay=0.1)
        rng = np.random.default_rng(7)
        params = {n: Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                  for n, s in (("w", (6, 5)), ("b", (5,)), ("t", (2, 3, 4)))}
        ref = {n: p.data.copy() for n, p in params.items()}
        state = OptimizerState.init(params)
        ref_m = {n: np.zeros_like(a) for n, a in ref.items()}
        ref_v = {n: np.zeros_like(a) for n, a in ref.items()}
        for t in range(1, 5):
            lr_t = cosine_lr(t - 1, 4, cfg.lr, warmup_steps=1)
            for p in params.values():
                p.zero_grad()
                for _ in range(2):  # two accumulated micro-batches
                    (p * Tensor(rng.normal(size=p.shape).astype(dtype) * 10.0 ** rng.uniform(-4, 1))).sum().backward()
            adamw_step(params, state, lr_t, cfg)
            for n, p in params.items():
                g, m, v, w = p.grad, ref_m[n], ref_v[n], ref[n]
                m *= cfg.beta1
                m += (1.0 - cfg.beta1) * g
                v *= cfg.beta2
                v += (1.0 - cfg.beta2) * g * g
                m_hat = m / (1.0 - cfg.beta1**t)
                v_hat = v / (1.0 - cfg.beta2**t)
                w -= np.asarray(lr_t * m_hat / (np.sqrt(v_hat) + cfg.adam_eps), dtype=w.dtype)
                w -= np.asarray(lr_t * cfg.weight_decay * w, dtype=w.dtype)
                assert p.data.tobytes() == w.tobytes(), (n, t)
                assert state.m[n].tobytes() == m.tobytes() and state.v[n].tobytes() == v.tobytes(), (n, t)

    def test_nan_gradient_aborts(self):
        params = self.one_param(1.0, float("nan"))
        with pytest.raises(NonFiniteError):
            adamw_step(params, OptimizerState.init(params), lr_t=1e-3, cfg=tiny_cfg())

    def test_nan_gradient_leaves_every_tensor_untouched(self):
        params = {**self.one_param(1.0, 1.0), "z": self.one_param(1.0, float("nan"))["w"]}
        state = OptimizerState.init(params)
        with pytest.raises(NonFiniteError, match="for z"):
            adamw_step(params, state, lr_t=1e-3, cfg=tiny_cfg())
        assert state.step == 0
        np.testing.assert_array_equal(params["w"].data, 1.0)
        np.testing.assert_array_equal(state.m["w"], 0.0)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(beta2=1.0)
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"lr": 1e-3, "nope": 1})
        for bad in ({"lambda_entropy": -0.1}, {"lambda_load": -1}, {"max_steps": 0}, {"max_steps": -1},
                    {"warmup_steps": -1}, {"seed": -1}):
            with pytest.raises(ConfigError, match=next(iter(bad))):
                TrainConfig(**bad)

    def test_retired_loss_signs(self):
        # older configs and manifests carry both keys at +1, which still parse
        assert TrainConfig.from_dict({"sign_entropy": 1, "sign_load": 1}) == TrainConfig()
        assert "sign_entropy" not in TrainConfig().to_dict()
        for bad in ({"sign_entropy": -1}, {"sign_load": 0}, {"sign_entropy": True}):
            with pytest.raises(ConfigError, match=f"train.{next(iter(bad))}: retired"):
                TrainConfig.from_dict(bad)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 5e-4) == pytest.approx(5e-4)
        assert cosine_lr(100, 100, 5e-4) == pytest.approx(0.0, abs=1e-12)
        assert cosine_lr(50, 100, 5e-4) == pytest.approx(2.5e-4)

    def test_monotone_decreasing(self):
        values = [cosine_lr(s, 40, 1.0) for s in range(41)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_warmup_ramp(self):
        assert cosine_lr(0, 100, 1.0, warmup_steps=10) == pytest.approx(0.1)
        assert cosine_lr(9, 100, 1.0, warmup_steps=10) == pytest.approx(1.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(5, 4, 1.0)


def test_clip_gradients_scales_to_max_norm():
    p = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    p.grad = np.full(4, 3.0, dtype=np.float32)  # norm 6
    norm = clip_gradients({"w": p}, 1.5)
    assert norm == pytest.approx(6.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.5, rel=1e-5)


class TestAccumulationEquivalence:
    def test_two_micro_batches_equal_one_big_batch(self, store):
        cfg = small_model_config(store.tokenizer.vocab_size)
        model = build(cfg, RngState(5))
        chunks = [c for c in store.chunks if c.corpus == "math"][:4]
        tokens = np.stack([c.tokens for c in chunks]).astype(np.int64)
        x, y = tokens[:, :-1], tokens[:, 1:]

        logits, _ = forward(model, x)
        cross_entropy(logits, y).backward()
        # the final layer's router does not touch this loss, so skip ungraded params
        big = {n: p.grad.copy() for n, p in model.named_params().items() if p.grad is not None}
        model.zero_grad()

        for half in (slice(0, 2), slice(2, 4)):
            logits, _ = forward(model, x[half])
            (cross_entropy(logits, y[half]) * 0.5).backward()
        assert big
        for name, p in model.named_params().items():
            if name not in big:
                assert p.grad is None
                continue
            np.testing.assert_allclose(p.grad, big[name], rtol=2e-4, atol=2e-6, err_msg=name)


class TestTrainLoop:
    def run(self, store, seed=42, **cfg_overrides):
        cfg = tiny_cfg(seed=seed, **cfg_overrides)
        model = build(small_model_config(store.tokenizer.vocab_size), RngState(0))
        report = train(model, subset(store, 8), cfg)
        return model, report

    def test_loss_decreases(self, store):
        _, report = self.run(store)
        assert report.steps
        assert report.losses[-1] < report.losses[0]

    def test_log_entries_well_formed(self, store):
        _, report = self.run(store)
        for i, entry in enumerate(report.steps, start=1):
            assert entry["step"] == i
            assert entry["lr"] > 0 and entry["tokens_per_sec"] > 0
            assert entry["total"] == pytest.approx(
                entry["ce"] + 0.01 * entry["entropy"] + 0.01 * entry["load"], abs=1e-5
            )

    def test_lr_follows_cosine(self, store):
        _, report = self.run(store)
        n = len(report.steps)
        for i, entry in enumerate(report.steps):
            assert entry["lr"] == pytest.approx(cosine_lr(i, n, 1e-2))

    def test_deterministic_under_seed(self, store):
        _, r1 = self.run(store)
        _, r2 = self.run(store)
        assert r1.losses == r2.losses
        assert r1.consumed == r2.consumed

    def test_seed_changes_trajectory(self, store):
        _, r1 = self.run(store, seed=42)
        _, r2 = self.run(store, seed=43)
        assert r1.losses != r2.losses

    def test_planned_covers_consumed(self, store):
        _, report = self.run(store)
        assert report.consumed == report.planned[: len(report.consumed)]

    def test_max_steps_caps_run(self, store):
        _, report = self.run(store, max_steps=3)
        assert len(report.steps) == 3

    def test_not_enough_data(self, store):
        cfg = tiny_cfg(batch_size=64, grad_accum_steps=64)
        model = build(small_model_config(store.tokenizer.vocab_size), RngState(0))
        with pytest.raises(ConfigError):
            train(model, subset(store, 4), cfg)

    def test_an_epoch_without_chunks_raises_naming_it(self, store):
        model = build(small_model_config(store.tokenizer.vocab_size), RngState(0))
        with pytest.raises(DataError, match="epoch 2"):
            train(model, store.select(epoch=1), tiny_cfg(epochs=2))

    def test_grad_clip_bounds_every_steps_gradient(self, store, monkeypatch):
        norms = []
        real = trainer.adamw_step

        def spying(params, state, lr_t, cfg):
            grads = [p.grad.astype(np.float64) for p in params.values() if p.grad is not None]
            norms.append(math.sqrt(sum(float(np.sum(g * g)) for g in grads)))
            return real(params, state, lr_t, cfg)

        monkeypatch.setattr(trainer, "adamw_step", spying)
        _, free = self.run(store)
        unclipped, norms[:] = list(norms), []
        clip = min(unclipped) / 2
        _, report = self.run(store, grad_clip=clip)
        assert len(norms) == len(report.steps) == len(free.steps)
        assert max(norms) <= clip * (1 + 1e-5)
        assert norms[0] == pytest.approx(clip, rel=1e-5)  # the first step's gradient was cut to the bound

    def test_share_linear_records_are_gone_when_backward_starts(self, store, monkeypatch):
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 1)
        refs, alive = [], []
        real_forward, real_backward = trainer.forward, Tensor.backward

        def recording(*args, **kwargs):
            logits, records = real_forward(*args, **kwargs)
            refs.extend(weakref.ref(r.path_outputs[0].data) for r in records)
            return logits, records

        def checking(self, sink=None):
            alive.append([ref() is not None for ref in refs])
            return real_backward(self, sink)

        monkeypatch.setattr(trainer, "forward", recording)
        monkeypatch.setattr(Tensor, "backward", checking)
        model = build(small_model_config(store.tokenizer.vocab_size, connection_kind="share_linear"), RngState(0))
        train(model, subset(store, 8), tiny_cfg(max_steps=1, grad_accum_steps=1))
        assert len(refs) == 2 and alive == [[False, False]]  # no backward reads a path layer's outputs

    def test_log_file_lines(self, store, tmp_path):
        cfg = tiny_cfg(max_steps=2)
        model = build(small_model_config(store.tokenizer.vocab_size), RngState(0))
        with open(tmp_path / "log.txt", "w") as f:
            train(model, subset(store, 8), cfg, log_file=f)
        lines = (tmp_path / "log.txt").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("step=1 lr=")


class TestResume:
    def test_epoch_checkpoint_resume_is_bit_exact(self, store, tmp_path):
        cfg = tiny_cfg()
        chunks = subset(store, 8)

        model_a = build(small_model_config(store.tokenizer.vocab_size), RngState(0))
        full = train(model_a, chunks, cfg, checkpoint_path=str(tmp_path / "ep{epoch}.ppck"))
        assert len(full.checkpoints) == 2

        ckpt = load_checkpoint(str(tmp_path / "ep1.ppck"), moments=True)
        state = state_from_checkpoint(ckpt)
        assert ckpt.extra == {"global_step": 2} and state.opt.step == 2
        for key, moment in state.opt.tensors().items():
            assert np.shares_memory(moment, ckpt.opt_tensors[key]), key  # the loaded arrays, not copies
        resumed = train(ckpt.model, chunks, cfg, state=state)

        n_ep2 = len(resumed.steps)
        assert [s["total"] for s in full.steps[-n_ep2:]] == resumed.losses
        for name, p in model_a.named_params().items():
            assert np.array_equal(p.data, ckpt.model.named_params()[name].data), name

    def test_max_steps_cutting_epoch_two_checkpoints_both_epochs(self, store, tmp_path):
        # 8 chunks per epoch at batch 2 and accum 2 make 2 steps per epoch; 3 steps cut epoch 2
        cfg = tiny_cfg(max_steps=3)
        chunks = subset(store, 8)
        model = build(small_model_config(store.tokenizer.vocab_size), RngState(0))
        full = train(model, chunks, cfg, checkpoint_path=str(tmp_path / "ep{epoch}.ppck"))
        assert full.checkpoints == [str(tmp_path / "ep1.ppck"), str(tmp_path / "ep2.ppck")]
        assert len(full.steps) == 3
        first, last = (load_checkpoint(p, moments=True) for p in full.checkpoints)
        assert first.extra == {"global_step": 2}
        assert last.extra == {"global_step": 3}

        resumed = train(first.model, chunks, cfg, state=state_from_checkpoint(first),
                        checkpoint_path=str(tmp_path / "resumed{epoch}.ppck"))
        assert resumed.checkpoints == [str(tmp_path / "resumed2.ppck")]
        assert resumed.losses == full.losses[2:]
        assert (tmp_path / "resumed2.ppck").read_bytes() == (tmp_path / "ep2.ppck").read_bytes()

    def test_epoch_without_a_step_writes_no_checkpoint(self, store, tmp_path):
        # epoch 1 holds one batch, fewer than grad_accum_steps: its steps list is empty
        story = [c for c in store.chunks if c.corpus == "story"]
        chunks = [c for c in story if c.epoch == 1][:2] + [c for c in story if c.epoch == 2][:8]
        model = build(small_model_config(store.tokenizer.vocab_size), RngState(0))
        report = train(model, chunks, tiny_cfg(), checkpoint_path=str(tmp_path / "ep{epoch}.ppck"))
        assert len(report.steps) == 2
        assert {c[2] for c in report.consumed} == {2}
        assert report.checkpoints == [str(tmp_path / "ep2.ppck")]
        assert not (tmp_path / "ep1.ppck").exists()

    def test_final_checkpoint_matches_model(self, store, tmp_path):
        cfg = tiny_cfg()
        model = build(small_model_config(store.tokenizer.vocab_size), RngState(0))
        train(model, subset(store, 8), cfg, checkpoint_path=str(tmp_path / "last.ppck"))
        ckpt = load_checkpoint(str(tmp_path / "last.ppck"), moments=True)
        for name, p in model.named_params().items():
            assert np.array_equal(p.data, ckpt.model.named_params()[name].data)
        assert ckpt.extra == {"global_step": 4}
        assert any(n.startswith("m.") for n in ckpt.opt_tensors)

    def test_checkpoint_with_the_older_extra_keys_resumes_bit_exactly(self, store, tmp_path):
        # epoch checkpoints written before the step counter was unified carried these extras too
        cfg = tiny_cfg()
        chunks = subset(store, 8)
        full = train(build(small_model_config(store.tokenizer.vocab_size), RngState(0)), chunks, cfg,
                     checkpoint_path=str(tmp_path / "ep{epoch}.ppck"))
        older = {"opt_step": 2, "epochs_done": 1, "data_rng": {"seed": cfg.seed, "position": 2}}
        rewrite_manifest(tmp_path / "ep1.ppck", lambda man: man["extra"].update(older))
        ckpt = load_checkpoint(str(tmp_path / "ep1.ppck"), moments=True)
        assert ckpt.extra == {"global_step": 2, **older}

        resumed = train(ckpt.model, chunks, cfg, state=state_from_checkpoint(ckpt),
                        checkpoint_path=str(tmp_path / "resumed{epoch}.ppck"))
        assert resumed.losses == full.losses[2:]
        assert (tmp_path / "resumed2.ppck").read_bytes() == (tmp_path / "ep2.ppck").read_bytes()

    def test_checkpoint_without_a_step_count_raises_at_the_call(self, store, tmp_path):
        model = build(small_model_config(store.tokenizer.vocab_size), RngState(0))
        save_checkpoint(str(tmp_path / "plain.ppck"), model)
        ckpt = load_checkpoint(str(tmp_path / "plain.ppck"), moments=True)
        with pytest.raises(CheckpointError, match=r'missing extra\["global_step"\], m\.embed, v\.embed and \d+ more'):
            state_from_checkpoint(ckpt)

    def test_checkpoint_loaded_without_moments_raises_at_the_call(self, store, tmp_path):
        model = build(small_model_config(store.tokenizer.vocab_size), RngState(0))
        train(model, subset(store, 8), tiny_cfg(), checkpoint_path=str(tmp_path / "last.ppck"))
        ckpt = load_checkpoint(str(tmp_path / "last.ppck"))
        with pytest.raises(CheckpointError, match=r"missing m\.embed, .*load_checkpoint\(path, moments=True\)"):
            state_from_checkpoint(ckpt)


def composite_checkpoint(path) -> bytes:
    """Bytes of the checkpoint a seeded 2-step composite run writes to ``path``."""
    corpora = [synthetic_story_corpus(60, seed=1), synthetic_math_corpus(60, seed=2)]
    store = build_chunk_store(corpora, seq_len=16, seed=42)
    model = build(small_model_config(store.tokenizer.vocab_size, n_layer_blocks=2), RngState(0))
    chunks = [c for c in store.chunks if c.corpus == "story"][:8]
    train(model, chunks, tiny_cfg(epochs=1, max_steps=2), checkpoint_path=str(path))
    return Path(path).read_bytes()


def numpy_platform() -> dict:
    """What float32 results depend on besides the code: NumPy, its BLAS build and the CPU's SIMD set."""
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "simd": " ".join(cfg["SIMD Extensions"]["found"]),
    }


# sha256 of composite_checkpoint, taken with one BLAS thread on this platform:
# the weights of before backward freed the graph as it walked, under a manifest
# whose train_config has no retired loss-sign keys and whose extra holds only
# global_step. OpenBLAS picks its kernels per
# CPU and may split a GEMM per thread, so elsewhere the bits may differ.
PINNED_DIGEST = "172f7d3e16425d161553aeeaf05e093600dfbc673caed5dd045e1cf4063ab2c5"
PINNED_PLATFORM = {
    "machine": "x86_64",
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "simd": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
}
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class TestCheckpointBytes:
    def test_seeded_composite_steps_are_reproducible(self, tmp_path):
        assert composite_checkpoint(tmp_path / "a.ppck") == composite_checkpoint(tmp_path / "b.ppck")

    def test_seeded_composite_steps_match_pinned_digest(self, tmp_path):
        # training arithmetic must not have moved by a single bit
        here = numpy_platform()
        if here != PINNED_PLATFORM:
            pytest.skip(f"digest pinned on {PINNED_PLATFORM}, this is {here}")
        tests = Path(__file__).resolve().parent
        child = (
            "import hashlib, sys\n"
            f"sys.path[:0] = [{str(tests.parent / 'src')!r}, {str(tests)!r}]\n"
            "from test_trainer import composite_checkpoint\n"
            f"print(hashlib.sha256(composite_checkpoint({str(tmp_path / 'c.ppck')!r})).hexdigest())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", child], env={**os.environ, **ONE_BLAS_THREAD},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == PINNED_DIGEST


def bench_shape_checkpoint(path) -> bytes:
    """Bytes of the checkpoint 2 seeded steps write at the benchmark's composite shape (B=2, T=255, accum 2).

    Its weight-gradient GEMMs reduce over 510 rows, which multithreaded
    OpenBLAS splits, so its bits depend on the BLAS thread count unless
    training pins it.
    """
    from papaformer.cli import load_config

    corpora = [synthetic_story_corpus(200, seed=1), synthetic_math_corpus(200, seed=2)]
    store = build_chunk_store(corpora, seq_len=256, seed=1)
    shape = {**load_config("parallel_gumbel_v1")["model"], "vocab_size": store.tokenizer.vocab_size}
    model = build(ModelConfig.from_dict(shape), RngState(0))
    chunks = store.select(corpus="story", sub=60)
    train(model, chunks, tiny_cfg(epochs=1, max_steps=2), checkpoint_path=str(path))
    return Path(path).read_bytes()


def checkpoint_digest_in_child(fn_name: str, path, env: dict) -> str:
    """sha256 of the checkpoint ``fn_name`` writes, computed in a fresh interpreter with ``env`` added."""
    tests = Path(__file__).resolve().parent
    child = (
        "import hashlib, sys\n"
        f"sys.path[:0] = [{str(tests.parent / 'src')!r}, {str(tests)!r}]\n"
        f"from test_trainer import {fn_name}\n"
        f"print(hashlib.sha256({fn_name}({str(path)!r})).hexdigest())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", child], env={**os.environ, **env}, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


class TestBlasThreads:
    def test_bench_shape_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        digests = {
            n: checkpoint_digest_in_child("bench_shape_checkpoint", tmp_path / f"t{n}.ppck", {
                "OPENBLAS_NUM_THREADS": str(n), "OMP_NUM_THREADS": str(n), "MKL_NUM_THREADS": str(n),
            })
            for n in (1, 2)
        }
        assert digests[1] == digests[2]


def force_workers(monkeypatch, n: int) -> None:
    """Make ``train`` run up to ``n`` micro-batches at once, whatever the CPU count."""
    monkeypatch.setattr(trainer, "_usable_cpus", lambda: n)


KIND_CONFIGS = {
    "path": dict(connection_kind="none", n_parallel_layers=0),
    "share_linear": dict(connection_kind="share_linear"),
    "gumbel_v1": dict(connection_kind="gumbel_v1"),
    "gumbel_v2": dict(connection_kind="gumbel_v2"),
}


class TestWorkers:
    def run(self, store, tmp_path, monkeypatch, workers, kind="gumbel_v1", accum=2):
        force_workers(monkeypatch, workers)
        model = build(small_model_config(store.tokenizer.vocab_size, **KIND_CONFIGS[kind]), RngState(0))
        path = tmp_path / f"{kind}-{accum}-{workers}.ppck"
        report = train(model, subset(store, 8), tiny_cfg(grad_accum_steps=accum, max_steps=2),
                       checkpoint_path=str(path))
        return report, path.read_bytes()

    @pytest.mark.parametrize("accum", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(KIND_CONFIGS))
    def test_one_and_two_workers_are_bit_identical(self, store, tmp_path, monkeypatch, kind, accum):
        serial, serial_bytes = self.run(store, tmp_path, monkeypatch, 1, kind, accum)
        threaded, threaded_bytes = self.run(store, tmp_path, monkeypatch, 2, kind, accum)
        assert len(serial.steps) == 2
        assert threaded.losses == serial.losses
        assert threaded.consumed == serial.consumed
        assert threaded_bytes == serial_bytes

    def test_more_micro_batches_than_workers_with_an_odd_remainder(self, store, tmp_path, monkeypatch):
        # five micro-batches a step on two workers: more micro-batches than workers, and an odd one over
        runs = []
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            model = build(small_model_config(store.tokenizer.vocab_size), RngState(0))
            path = tmp_path / f"accum5-{workers}.ppck"
            report = train(model, subset(store, 10), tiny_cfg(grad_accum_steps=5), checkpoint_path=str(path))
            runs.append((report.losses, report.consumed, path.read_bytes()))
        assert len(runs[0][0]) == 2
        assert runs[1] == runs[0]

    def test_more_workers_than_cpus_under_fast_switching(self, store, tmp_path, monkeypatch):
        # four workers on at most two CPUs, switching threads every microsecond:
        # a gradient added by two workers at once would change the bytes
        _, serial_bytes = self.run(store, tmp_path, monkeypatch, 1, accum=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, threaded_bytes = self.run(store, tmp_path, monkeypatch, 4, accum=4)
        finally:
            sys.setswitchinterval(interval)
        assert threaded_bytes == serial_bytes

    def test_no_thread_outlives_train(self, store, tmp_path, monkeypatch):
        before = threading.active_count()
        self.run(store, tmp_path, monkeypatch, 2)
        assert threading.active_count() == before

    def test_non_finite_loss_in_a_worker_names_the_step(self, store, monkeypatch):
        force_workers(monkeypatch, 2)
        model = build(small_model_config(store.tokenizer.vocab_size), RngState(0))
        model.lm_head.data[0, 0] = np.nan
        before = threading.active_count()
        with pytest.raises(NonFiniteError, match="non-finite loss at step 0"):
            train(model, subset(store, 8), tiny_cfg())
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_extra_draw_in_the_forward_is_caught(self, store, monkeypatch, workers):
        force_workers(monkeypatch, workers)

        def drawing_forward(model, x, rng=None, training=False):
            rng.uniform(())
            return forward(model, x, rng=rng, training=training)

        monkeypatch.setattr(trainer, "forward", drawing_forward)
        model = build(small_model_config(store.tokenizer.vocab_size), RngState(0))
        with pytest.raises(RuntimeError, match="drew 3 times, not 2"):
            train(model, subset(store, 8), tiny_cfg())


class TestPhase2:
    def test_artifacts_and_provenance(self, store, tmp_path):
        path_cfg = ModelConfig.from_dict(
            dict(
                vocab_size=store.tokenizer.vocab_size,
                d_model=16,
                n_layer_blocks=1,
                heads_layer=2,
                ff_layer=32,
                max_seq_len=16,
            )
        )
        target = small_model_config(store.tokenizer.vocab_size, d_model=32, d_path=16, n_parallel_layers=1)
        cfg = tiny_cfg(epochs=1, max_steps=2)
        artifacts, reports = run_phase2(store, path_cfg, {"parallel_gumbel_v1": target}, cfg, str(tmp_path))
        assert set(reports) == {"path1_d1", "path2_d1", "parallel_gumbel_v1"}
        assert all(r.steps for r in reports.values())
        assert set(artifacts) == {
            "path1_d1",
            "path2_d1",
            "parallel_gumbel_v1_composed",
            "parallel_gumbel_v1",
        }
        composite = load_checkpoint(artifacts["parallel_gumbel_v1"])
        assert composite.model.config.n_parallel_layers == 1
