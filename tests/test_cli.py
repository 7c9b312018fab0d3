import errno
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from papaformer import cli, composer, data, trainer
from papaformer.checkpoint import read_manifest, save_checkpoint
from papaformer.cli import (
    EXIT_COMPOSITION,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERICAL,
    load_config,
    main,
    model_config_from,
)
from papaformer.data import ChunkStore
from papaformer.model import ModelConfig, build
from papaformer.parallel import GumbelConfig
from papaformer.tensor import RngState
from papaformer.trainer import TrainConfig
from test_checkpoint import promise_a_huge_vocab, rewrite_manifest

TINY_MODEL = """
model:
  d_model: 32
  d_path: 16
  n_layer_blocks: 1
  n_parallel_layers: {n_parallel}
  k_paths: 2
  heads_layer: 2
  heads_path: 2
  ff_layer: 64
  ff_path: 32
  max_seq_len: 16
  connection_kind: {kind}
train:
  lr: 0.001
  batch_size: 2
  grad_accum_steps: 2
  epochs: 1
  max_steps: 2
"""

TINY_PATH = """
model:
  d_model: 16
  n_layer_blocks: 1
  heads_layer: 2
  ff_layer: 32
  max_seq_len: 16
train:
  lr: 0.001
  batch_size: 2
  grad_accum_steps: 2
  epochs: 1
  max_steps: 2
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert main(["pretokenize", "--synthetic", "40", "--seq-len", "16", "--seed", "7", "--out", str(d / "store.ppch")]) == 0
    (d / "gumbel.yaml").write_text(TINY_MODEL.format(n_parallel=1, kind="gumbel_v1"))
    (d / "path.yaml").write_text(TINY_PATH)
    (d / "prompts.tsv").write_text("story\tOnce upon a time\nmath\t3 + 4 =\n")
    return d


@pytest.fixture(scope="module")
def path_ckpts(workdir):
    """path1.ppck and path2.ppck in ``workdir``, trained through ``main`` on first use."""
    out = workdir / "path1.ppck", workdir / "path2.ppck"
    for role, ckpt in zip(("path1", "path2"), out):
        assert main(["train", "--config", str(workdir / "path.yaml"), "--data", str(workdir / "store.ppch"),
                     "--role", role, "--seed", "11", "--out", str(ckpt)]) == 0
    return tuple(map(str, out))


@pytest.fixture(scope="module")
def composite_ckpt(workdir, path_ckpts):
    """composite.ppck and its provenance file in ``workdir``, composed through ``main`` on first use."""
    out = str(workdir / "composite.ppck")
    assert main(["compose", *path_ckpts, "--config", str(workdir / "gumbel.yaml"), "--out", out]) == 0
    return out


class TestPretokenize:
    def test_reports_four_sub_collections(self, workdir, capsys):
        assert main(["pretokenize", "--synthetic", "30", "--seq-len", "16", "--out", str(workdir / "s2.ppch")]) == 0
        out = capsys.readouterr().out
        for line in ("story sub60", "story sub40", "math sub60", "math sub40"):
            assert line in out

    def test_same_seed_byte_identical(self, workdir):
        a, b = workdir / "det_a.ppch", workdir / "det_b.ppch"
        for p in (a, b):
            assert main(["pretokenize", "--synthetic", "25", "--seq-len", "16", "--seed", "3", "--out", str(p)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("seq_len", ["1", "0", "-3"])
    def test_seq_len_below_two_exits_config(self, workdir, capsys, seq_len):
        out = workdir / "bad_seq_len.ppch"
        assert main(["pretokenize", "--synthetic", "10", "--seq-len", seq_len, "--out", str(out)]) == EXIT_CONFIG
        assert "seq_len" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_synthetic_count_exits_config(self, workdir, capsys):
        out = workdir / "bad_synthetic.ppch"
        assert main(["pretokenize", "--synthetic", "-5", "--seq-len", "16", "--out", str(out)]) == EXIT_CONFIG
        assert "--synthetic" in capsys.readouterr().err
        assert not out.exists()

    def test_token_counts_match_chunk_math(self, workdir, capsys):
        main(["pretokenize", "--synthetic", "30", "--seq-len", "16", "--out", str(workdir / "s3.ppch")])
        out = capsys.readouterr().out
        for line in out.splitlines():
            if "epoch" in line:
                n = int(line.split(":")[1].split()[0])
                tokens = int(line.split("(")[1].split()[0])
                assert tokens == n * 16

    def test_retired_byte_fallback_flag_exits_config(self, workdir, capsys):
        out = workdir / "byte_fallback.ppch"
        with pytest.raises(SystemExit) as e:
            main(["pretokenize", "--synthetic", "5", "--seq-len", "16", "--byte-fallback", "--out", str(out)])
        assert e.value.code == EXIT_CONFIG
        assert "--byte-fallback" in capsys.readouterr().err
        assert not out.exists()

    def test_a_corpus_too_short_to_chunk_is_named(self, workdir, tmp_path, capsys):
        short = tmp_path / "short.txt"
        short.write_text("a b c\n")
        out = tmp_path / "short.ppch"
        rc = main(["pretokenize", "--corpus", f"tiny={short}", "--synthetic", "20", "--out", str(out)])
        assert rc == EXIT_DATA
        assert "corpus 'tiny'" in capsys.readouterr().err
        assert not out.exists()

    def test_no_corpora(self, workdir, capsys):
        assert main(["pretokenize", "--out", str(workdir / "x.ppch")]) == EXIT_DATA
        assert "error: data" in capsys.readouterr().err


class TestTrain:
    def test_path1_trains_and_logs(self, workdir, capsys):
        out = str(workdir / "path1.ppck")
        rc = main([
            "train", "--config", str(workdir / "path.yaml"), "--data", str(workdir / "store.ppch"),
            "--role", "path1", "--seed", "11", "--out", out,
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "trained 2 steps" in stdout
        log_lines = (workdir / "path1.ppck.log").read_text().splitlines()
        assert len(log_lines) == 2
        assert log_lines[0].startswith("step=1 ")

    def test_train_path2(self, workdir):
        rc = main([
            "train", "--config", str(workdir / "path.yaml"), "--data", str(workdir / "store.ppch"),
            "--role", "path2", "--seed", "11", "--out", str(workdir / "path2.ppck"),
        ])
        assert rc == 0

    @pytest.mark.parametrize("name", ["run{1}.ppck", "ep{epoch}.ppck"])
    def test_out_is_a_literal_path(self, workdir, tmp_path, capsys, name):
        out = tmp_path / name
        rc = main(["train", "--config", str(workdir / "path.yaml"), "--data", str(workdir / "store.ppch"),
                   "--role", "path1", "--seed", "11", "--out", str(out)])
        assert rc == 0
        assert f"checkpoint: {out}\n" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == [name, name + ".log"]
        assert read_manifest(str(out))["extra"] == {"global_step": 2}

    def test_an_epoch_without_chunks_exits_data_naming_it(self, workdir, capsys):
        three = workdir / "three_epochs.yaml"
        three.write_text(TINY_PATH.replace("epochs: 1", "epochs: 3"))
        out = workdir / "three_epochs.ppck"
        rc = main(["train", "--config", str(three), "--data", str(workdir / "store.ppch"), "--role", "path1",
                   "--out", str(out)])
        assert rc == EXIT_DATA
        assert "epoch 3" in capsys.readouterr().err
        assert not out.exists()

    def test_a_failed_run_keeps_the_previous_log(self, workdir, tmp_path):
        three = tmp_path / "three_epochs.yaml"
        three.write_text(TINY_PATH.replace("epochs: 1", "epochs: 3"))
        out, log = tmp_path / "logt.ppck", tmp_path / "logt.ppck.log"
        rest = ["--data", str(workdir / "store.ppch"), "--role", "path1", "--out", str(out)]
        assert main(["train", "--config", str(workdir / "path.yaml"), *rest]) == 0
        before = log.read_bytes()
        assert len(before.splitlines()) == 2
        assert main(["train", "--config", str(three), *rest]) == EXIT_DATA
        assert log.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["logt.ppck", "logt.ppck.log", "three_epochs.yaml"]

    def test_config_vocab_below_store_vocab(self, workdir, capsys):
        small = workdir / "small_vocab.yaml"
        small.write_text(TINY_PATH.replace("model:\n", "model:\n  vocab_size: 10\n"))
        rc = main(["train", "--config", str(small), "--data", str(workdir / "store.ppch"), "--role", "path1",
                   "--out", str(workdir / "small.ppck")])
        assert rc == 0
        store_vocab = ChunkStore.load(str(workdir / "store.ppch")).tokenizer.vocab_size
        assert store_vocab > 10
        assert read_manifest(str(workdir / "small.ppck"))["model_config"]["vocab_size"] == store_vocab
        err = capsys.readouterr().err
        assert "config's 10" in err and f"data's {store_vocab}" in err

    @pytest.mark.parametrize(
        "entry", ["sign_entropy: 2", "lambda_load: -1", "grad_clip: abc", "max_steps: 0", "max_steps: -1",
                  "warmup_steps: -1", "lr: .inf", "lambda_entropy: .nan", "seed: -1", "grad_clip: -1.0",
                  f"lr: {10**316}", f"lambda_load: {10**316}"],
        ids=lambda entry: entry if len(entry) < 40 else entry.split(":")[0] + ": 10**316",
    )
    def test_bad_train_value_exits_config(self, workdir, capsys, entry):
        bad = workdir / "bad_train.yaml"
        bad.write_text(TINY_PATH + f"  {entry}\n")
        out = workdir / "bad_train.ppck"
        rc = main(["train", "--config", str(bad), "--data", str(workdir / "store.ppch"), "--role", "path1",
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert entry.split(":")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_nan_weight_exits_numerical_from_a_worker(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)  # the config accumulates 2 micro-batches
        store = ChunkStore.load(str(workdir / "store.ppch"))
        shape = model_config_from(load_config(str(workdir / "path.yaml")), vocab_size=store.tokenizer.vocab_size)
        model = build(shape, RngState(0))
        model.lm_head.data[0, 0] = np.nan
        save_checkpoint(str(workdir / "nan.ppck"), model)
        out = workdir / "nan_trained.ppck"
        before = threading.active_count()
        rc = main(["train", "--config", str(workdir / "path.yaml"), "--data", str(workdir / "store.ppch"),
                   "--role", "path1", "--init", str(workdir / "nan.ppck"), "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert "non-finite loss at step 0" in capsys.readouterr().err
        assert threading.active_count() == before
        assert not out.exists()

    def test_missing_config(self, workdir, capsys):
        rc = main(["train", "--config", "nope", "--data", str(workdir / "store.ppch"), "--out", str(workdir / "x.ppck")])
        assert rc == EXIT_CONFIG
        assert "error: config" in capsys.readouterr().err

    def test_missing_data(self, workdir, capsys):
        rc = main(["train", "--config", str(workdir / "path.yaml"), "--data", str(workdir / "no.ppch"), "--out", str(workdir / "x.ppck")])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("keep", [10, 100, -50])
    def test_truncated_data_exits_data(self, workdir, capsys, keep):
        store = (workdir / "store.ppch").read_bytes()
        cut = workdir / "cut.ppch"
        cut.write_bytes(store[:keep])
        rc = main(["train", "--config", str(workdir / "path.yaml"), "--data", str(cut), "--out", str(workdir / "x.ppck")])
        assert rc == EXIT_DATA
        assert f"error: data: {cut}: " in capsys.readouterr().err

    def test_seed_flag_overrides_config_seed(self, workdir):
        seeded = workdir / "seeded.yaml"
        seeded.write_text(TINY_PATH + "  seed: 11\n")
        common = ["--data", str(workdir / "store.ppch"), "--role", "path1"]
        assert main(["train", "--config", str(seeded), *common, "--out", str(workdir / "cfg11.ppck")]) == 0
        assert main(["train", "--config", str(workdir / "path.yaml"), *common, "--seed", "11",
                     "--out", str(workdir / "flag11.ppck")]) == 0
        assert main(["train", "--config", str(seeded), *common, "--seed", "12",
                     "--out", str(workdir / "flag12.ppck")]) == 0
        assert (workdir / "cfg11.ppck").read_bytes() == (workdir / "flag11.ppck").read_bytes()
        assert read_manifest(str(workdir / "flag12.ppck"))["train_config"]["seed"] == 12

    def test_unindexable_width_exits_config(self, workdir, capsys):
        wide = workdir / "wide.yaml"
        wide.write_text((workdir / "path.yaml").read_text().replace("d_model: 16\n", "d_model: 1000000000000\n"))
        rc = main(["train", "--config", str(wide), "--data", str(workdir / "store.ppch"), "--role", "path1",
                   "--out", str(workdir / "wide.ppck")])
        assert rc == EXIT_CONFIG
        assert "d_model: must be from 1 to" in capsys.readouterr().err
        assert not (workdir / "wide.ppck").exists()

    def test_noisy_evaluation_routing_rejected(self, workdir, capsys):
        noisy = workdir / "noisy.yaml"
        noisy.write_text(TINY_MODEL.format(n_parallel=1, kind="gumbel_v1").replace(
            "  connection_kind: gumbel_v1\n", "  connection_kind: gumbel_v1\n  gumbel:\n    eval_deterministic: false\n"
        ))
        rc = main(["train", "--config", str(noisy), "--data", str(workdir / "store.ppch"), "--role", "composite",
                   "--out", str(workdir / "noisy.ppck")])
        assert rc == EXIT_CONFIG
        assert "gumbel.eval_deterministic" in capsys.readouterr().err
        assert not (workdir / "noisy.ppck").exists()


def seed_argv(workdir, verb: str, seed: str) -> list:
    """``verb``'s command line on the shared artifacts with ``--seed seed``, writing any output to badseed.*."""
    store = str(workdir / "store.ppch")
    return {
        "pretokenize": ["pretokenize", "--synthetic", "5", "--seq-len", "16", "--out", str(workdir / "badseed.ppch")],
        "train": ["train", "--config", str(workdir / "path.yaml"), "--data", store, "--role", "path1",
                  "--out", str(workdir / "badseed.ppck")],
        "compose": ["compose", str(workdir / "path1.ppck"), str(workdir / "path2.ppck"),
                    "--config", str(workdir / "gumbel.yaml"), "--out", str(workdir / "badseed.ppck")],
        "generate": ["generate", "--checkpoint", str(workdir / "composite.ppck"), "--data", store,
                     "--prompt", "Once upon a time"],
    }[verb] + ["--seed", seed]


class TestCompose:
    def test_compose_then_analyze_and_generate(self, workdir, path_ckpts, capsys):
        composite = str(workdir / "composite.ppck")
        rc = main([
            "compose", *path_ckpts,
            "--config", str(workdir / "gumbel.yaml"), "--out", composite,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "concatenated" in out and "reused" in out and "fresh" in out
        assert (workdir / "composite.ppck.provenance.json").exists()

        rc = main(["analyze", "--checkpoint", composite, "--data", str(workdir / "store.ppch"), "--prompts", str(workdir / "prompts.tsv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "selection=" in out

        rc = main([
            "generate", "--checkpoint", composite, "--data", str(workdir / "store.ppch"),
            "--prompt", "Once upon a time", "--max-new-tokens", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "next token predictions" in out and "%" in out

    def test_empty_prompts_exit_data(self, workdir, composite_ckpt, capsys):
        store = str(workdir / "store.ppch")
        rc = main(["generate", "--checkpoint", composite_ckpt, "--data", store, "--prompt", ""])
        assert rc == EXIT_DATA
        assert "empty prompt" in capsys.readouterr().err
        (workdir / "empty_prompt.tsv").write_text("story\tOnce upon a time\nmath\t \n")
        rc = main(["analyze", "--checkpoint", composite_ckpt, "--data", store, "--prompts", str(workdir / "empty_prompt.tsv")])
        assert rc == EXIT_DATA
        assert "empty prompt" in capsys.readouterr().err

    def test_unknown_domain_exits_data_before_printing(self, workdir, composite_ckpt, capsys):
        (workdir / "legal_prompt.tsv").write_text("story\tOnce upon a time\nlegal\t3 + 4 =\n")
        rc = main(["analyze", "--checkpoint", composite_ckpt, "--data", str(workdir / "store.ppch"),
                   "--prompts", str(workdir / "legal_prompt.tsv")])
        out, err = capsys.readouterr()
        assert (rc, out) == (EXIT_DATA, "")
        assert "unknown domain 'legal'" in err

    @pytest.mark.parametrize("flag,value", [("--top-n", "0"), ("--top-n", "-1"), ("--max-new-tokens", "-3")])
    def test_bad_generate_counts_exit_config(self, workdir, composite_ckpt, capsys, flag, value):
        rc = main(["generate", "--checkpoint", composite_ckpt, "--data", str(workdir / "store.ppch"),
                   "--prompt", "Once upon a time", flag, value])
        assert rc == EXIT_CONFIG
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    @pytest.mark.parametrize("store_args", [["--synthetic", "5"], ["--synthetic", "40", "--corpus"]],
                             ids=["smaller", "larger"])
    def test_store_vocab_other_than_the_models_exits_data(self, workdir, composite_ckpt, capsys, store_args):
        if store_args[-1] == "--corpus":  # the shared store's corpora plus words they never use
            extra = workdir / "extra_words.txt"
            extra.write_text("".join(f"word{i} " * 4 + "\n" for i in range(20)))
            store_args = [*store_args, f"extra={extra}"]
        store = str(workdir / f"other_vocab_{len(store_args)}.ppch")
        assert main(["pretokenize", *store_args, "--seq-len", "16", "--seed", "7", "--out", store]) == 0
        have = ChunkStore.load(store).tokenizer.vocab_size
        want = read_manifest(composite_ckpt)["model_config"]["vocab_size"]
        assert have != want
        capsys.readouterr()
        verbs = (["generate", "--prompt", "Once upon a time"], ["analyze", "--prompts", str(workdir / "prompts.tsv")])
        for verb in verbs:
            assert main([*verb, "--checkpoint", composite_ckpt, "--data", store]) == EXIT_DATA
            out, err = capsys.readouterr()
            assert out == "" and f"vocab has {have} words, the checkpoint's model {want}" in err

    @pytest.mark.parametrize("verb", ["train", "generate"])
    def test_store_written_with_byte_fallback_exits_data(self, workdir, composite_ckpt, capsys, verb):
        store = workdir / "byte_fallback_store.ppch"
        saved = (workdir / "store.ppch").read_bytes()
        assert saved.count(b'"byte_fallback": false') == 1
        store.write_bytes(saved.replace(b'"byte_fallback": false', b'"byte_fallback": true'))
        argv = {
            "train": ["train", "--config", str(workdir / "path.yaml"), "--role", "path1",
                      "--out", str(workdir / "byte_fallback.ppck")],
            "generate": ["generate", "--checkpoint", composite_ckpt, "--prompt", "Once upon a time"],
        }[verb]
        assert main([*argv, "--data", str(store)]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{store}: retired byte_fallback True; rerun pretokenize without --byte-fallback" in err
        assert "malformed" not in err
        assert not (workdir / "byte_fallback.ppck").exists()

    def test_plan_validated_once(self, workdir, path_ckpts, monkeypatch):
        calls = []
        real = composer.validate_plan

        def counting(plan):
            calls.append(plan)
            return real(plan)

        monkeypatch.setattr(composer, "validate_plan", counting)
        monkeypatch.setattr(cli, "validate_plan", counting, raising=False)  # in case the verb imports it by name
        rc = main([
            "compose", *path_ckpts,
            "--config", str(workdir / "gumbel.yaml"), "--out", str(workdir / "once.ppck"),
        ])
        assert rc == 0
        assert len(calls) == 1

    def test_pinned_vocab_follows_path_checkpoints(self, workdir, path_ckpts, capsys):
        pinned = workdir / "gumbel_pinned.yaml"
        pinned.write_text(TINY_MODEL.format(n_parallel=1, kind="gumbel_v1").replace("model:\n", "model:\n  vocab_size: 50257\n"))
        out = str(workdir / "pinned.ppck")
        assert main(["compose", *path_ckpts, "--config", str(pinned), "--out", out]) == 0
        path_vocab = read_manifest(path_ckpts[0])["model_config"]["vocab_size"]
        assert read_manifest(out)["model_config"]["vocab_size"] == path_vocab
        err = capsys.readouterr().err
        assert "config's 50257" in err and f"data's {path_vocab}" in err

    @pytest.mark.parametrize("verb", ["train", "compose", "generate"])
    def test_non_integer_env_seed(self, workdir, monkeypatch, capsys, verb):
        store = str(workdir / "store.ppch")
        argv = {
            "train": ["train", "--config", str(workdir / "path.yaml"), "--data", store, "--role", "path1",
                      "--seed", "3", "--out", str(workdir / "badseed.ppck")],
            "compose": ["compose", str(workdir / "path1.ppck"), str(workdir / "path2.ppck"),
                        "--config", str(workdir / "gumbel.yaml"), "--out", str(workdir / "badseed.ppck")],
            "generate": ["generate", "--checkpoint", str(workdir / "composite.ppck"), "--data", store,
                         "--prompt", "Once upon a time"],
        }[verb]
        monkeypatch.setenv("PAPA_SEED", "abc")
        assert main(argv) == EXIT_CONFIG
        assert "PAPA_SEED" in capsys.readouterr().err
        assert not (workdir / "badseed.ppck").exists()

    @pytest.mark.parametrize("verb", ["train", "compose", "generate"])
    def test_retired_env_seed_exits_config(self, workdir, monkeypatch, capsys, verb):
        monkeypatch.setenv("PAPA_SEED", "5")
        assert main(seed_argv(workdir, verb, "5")) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and "PAPA_SEED: retired; give the seed with --seed" in err
        assert not (workdir / "badseed.ppck").exists()

    @pytest.mark.parametrize("verb", ["pretokenize", "train", "compose", "generate"])
    def test_negative_seed_exits_config(self, workdir, capsys, verb):
        assert main(seed_argv(workdir, verb, "-1")) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and "--seed: must be >= 0, got -1" in err
        assert not (workdir / "badseed.ppck").exists() and not (workdir / "badseed.ppch").exists()

    def test_provenance_file_matches_checkpoint(self, composite_ckpt):
        provenance = json.loads(Path(composite_ckpt + ".provenance.json").read_text())
        manifest = read_manifest(composite_ckpt)
        assert provenance == {e["name"]: e["provenance"] for e in manifest["tensors"]}
        assert set(provenance.values()) == {"concatenated", "reused", "fresh"}

    def test_finetune_from_composed_checkpoint(self, workdir, composite_ckpt, capsys):
        rc = main([
            "train", "--config", str(workdir / "gumbel.yaml"), "--data", str(workdir / "store.ppch"),
            "--role", "composite", "--init", composite_ckpt,
            "--out", str(workdir / "final.ppck"),
        ])
        assert rc == 0
        assert "trained 2 steps" in capsys.readouterr().out

    def test_init_config_mismatch(self, workdir, composite_ckpt, capsys):
        rc = main([
            "train", "--config", str(workdir / "path.yaml"), "--data", str(workdir / "store.ppch"),
            "--init", composite_ckpt, "--out", str(workdir / "x.ppck"),
        ])
        assert rc == EXIT_CONFIG
        assert "does not match" in capsys.readouterr().err

    def test_unreadable_path_checkpoint_exits_composition_in_any_position(self, workdir, path_ckpts, capsys):
        bad = workdir / "nope.ppck"
        bad.write_bytes(b"NOPE" + b"\x00" * 64)
        good = path_ckpts[0]
        for i, paths in enumerate(([str(bad), good], [good, str(bad)]), start=1):
            out = workdir / f"nope-composite{i}.ppck"
            argv = ["compose", *paths, "--config", str(workdir / "gumbel.yaml"), "--out", str(out)]
            assert main(argv) == EXIT_COMPOSITION
            assert f"path {i}: unreadable checkpoint" in capsys.readouterr().err
            assert not out.exists()

    def test_wrong_checkpoint_count(self, workdir, path_ckpts, capsys):
        rc = main([
            "compose", path_ckpts[0],
            "--config", str(workdir / "gumbel.yaml"), "--out", str(workdir / "bad.ppck"),
        ])
        assert rc == EXIT_COMPOSITION
        assert "error: composition" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, target_key", [("ff_layer", 48, "ff_path"), ("heads_layer", 4, "heads_path")])
    def test_paths_of_another_ffn_width_or_head_count_exit_composition(self, workdir, capsys, key, value, target_key):
        paths = []
        for i in (1, 2):
            paths.append(str(workdir / f"{key}-path{i}.ppck"))
            save_checkpoint(paths[-1], path_model(workdir, i, **{key: value}))
        out = workdir / f"{key}-composite.ppck"
        argv = ["compose", *paths, "--config", str(workdir / "gumbel.yaml"), "--out", str(out)]
        assert main(argv) == EXIT_COMPOSITION
        assert f"path 2: {key}={value} != target {target_key}=" in capsys.readouterr().err
        assert not list(workdir.glob(f"{key}-composite*"))

    def test_inspect_checkpoint(self, composite_ckpt, capsys):
        rc = main(["inspect-checkpoint", composite_ckpt])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total scalars" in out and "[concatenated]" in out


class HalfWrittenFile:
    """A binary file whose first write stores half its bytes and then fails, as a full disk would."""

    def __init__(self, f):
        self.f = f

    def write(self, b):
        b = memoryview(b).cast("B")
        self.f.write(b[: len(b) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, lines):
        for b in lines:
            self.write(b)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def artifact_writer(workdir, path_ckpts, out, suffix: str) -> tuple:
    """The argv of the verb that writes the artifact with ``suffix`` into ``out``, and its path."""
    pretokenize = ["pretokenize", "--synthetic", "20", "--seq-len", "16", "--out", str(out / "s.ppch")]
    compose = ["compose", *path_ckpts,
               "--config", str(workdir / "gumbel.yaml"), "--out", str(out / "c.ppck")]
    return {
        ".ppch": (pretokenize, out / "s.ppch"),
        ".ppck": (compose, out / "c.ppck"),
        ".provenance.json": (compose, out / "c.ppck.provenance.json"),
    }[suffix]


class TestArtifactsReplacedNotTruncated:
    """A write that fails midway leaves the last good file byte for byte, and no temp file."""

    @pytest.mark.parametrize("suffix", [".ppch", ".ppck", ".provenance.json"])
    def test_failed_write_keeps_old_file(self, workdir, path_ckpts, monkeypatch, capsys, suffix):
        out = workdir / "replaced"
        out.mkdir(exist_ok=True)
        argv, target = artifact_writer(workdir, path_ckpts, out, suffix)
        assert main([*argv, "--seed", "3"]) == 0
        old = target.read_bytes()
        real_open = open

        def failing_open(path, mode="r", *args, **kwargs):
            f = real_open(path, mode, *args, **kwargs)
            return HalfWrittenFile(f) if "w" in mode and str(path).removesuffix(".tmp").endswith(suffix) else f

        monkeypatch.setattr(data, "open", failing_open, raising=False)
        assert main([*argv, "--seed", "4"]) == EXIT_DATA
        assert "No space left on device" in capsys.readouterr().err
        assert target.read_bytes() == old
        assert not list(out.glob("*.tmp"))

    @pytest.mark.parametrize("suffix", [".ppch", ".ppck", ".provenance.json"])
    def test_rewrite_keeps_the_old_mode_and_a_new_file_gets_the_umask_default(self, workdir, path_ckpts, suffix):
        out = workdir / f"modes{suffix}"
        out.mkdir()
        argv, target = artifact_writer(workdir, path_ckpts, out, suffix)
        umask = os.umask(0)
        os.umask(umask)
        assert main(argv) == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
        target.chmod(0o600)
        assert main(argv) == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o600


def path_model(workdir, seed: int, **overrides):
    """A path model of ``path.yaml``'s shape, with ``overrides``, at the store's vocab."""
    vocab = ChunkStore.load(str(workdir / "store.ppch")).tokenizer.vocab_size
    raw = load_config(str(workdir / "path.yaml"))
    return build(model_config_from({"model": {**raw["model"], **overrides}}, vocab_size=vocab), RngState(seed))


GENERATE = ["generate", "--prompt", "Once upon", "--max-new-tokens", "1", "--data"]


class TestCutCheckpoint:
    def test_generate_from_a_cut_payload_exits_data(self, workdir, capsys):
        model = path_model(workdir, 2)
        whole, cut = workdir / "whole.ppck", workdir / "cut.ppck"
        save_checkpoint(str(whole), model)
        raw = whole.read_bytes()
        start = len(raw) - 4 * sum(t.size for t in model.named_params().values())
        argv = [*GENERATE, str(workdir / "store.ppch")]
        assert main([*argv, "--checkpoint", str(whole)]) == 0
        capsys.readouterr()
        for n in (start, start + 1, (start + len(raw)) // 2, len(raw) - 1):
            cut.write_bytes(raw[:n])
            assert main([*argv, "--checkpoint", str(cut)]) == EXIT_DATA
            assert f"{cut}: payload ends inside tensor" in capsys.readouterr().err

    def test_generate_from_a_cut_header_exits_data(self, workdir, capsys):
        whole, cut = workdir / "whole-h.ppck", workdir / "cut-h.ppck"
        save_checkpoint(str(whole), path_model(workdir, 2))
        for n in (0, 1, 4, 15):
            cut.write_bytes(whole.read_bytes()[:n])
            assert main([*GENERATE, str(workdir / "store.ppch"), "--checkpoint", str(cut)]) == EXIT_DATA
            assert f"{cut}: truncated file ({n} bytes, the header needs 16)" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["generate", "inspect-checkpoint"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.write_bytes(p.read_bytes()[:-100]), "payload ends inside tensor 'lm_head'"),
            (lambda p: p.write_bytes(p.read_bytes() + b"\0"), "the file runs 1 bytes past the"),
            (lambda p: rewrite_manifest(str(p), promise_a_huge_vocab), "payload ends inside tensor 'embed'"),
        ],
        ids=["cut-100-bytes", "one-byte-more", "terabyte-manifest"],
    )
    def test_file_size_other_than_the_manifest_lists_exits_data(self, workdir, capsys, verb, edit, message):
        p = workdir / f"edited-{verb}.ppck"
        save_checkpoint(str(p), path_model(workdir, 3))
        edit(p)
        generate = [*GENERATE, str(workdir / "store.ppch"), "--checkpoint", str(p)]
        assert main(generate if verb == "generate" else [verb, str(p)]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == "" and f"error: data: {p}: {message}" in err

    @pytest.mark.parametrize("verb", ["generate", "inspect-checkpoint"])
    def test_manifest_without_a_key_exits_data(self, workdir, capsys, verb):
        p = workdir / f"no-offset-{verb}.ppck"
        save_checkpoint(str(p), path_model(workdir, 3))
        rewrite_manifest(str(p), lambda man: man["tensors"][2].pop("offset"))
        generate = [*GENERATE, str(workdir / "store.ppch"), "--checkpoint", str(p)]
        assert main(generate if verb == "generate" else [verb, str(p)]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == "" and f"error: data: {p}: malformed tensor entry 2 (KeyError: 'offset')" in err


class TestCountParams:
    @pytest.mark.parametrize(
        "preset,digest",
        [
            ("base_192", "e5e79d2f8d6a3628"),
            ("base_256", "df5ef1858d8723e9"),
            ("path", "1b2999afe1ab0233"),
            ("parallel_share_linear", "76960bfbacbfa225"),
            ("parallel_gumbel_v1", "5dba803a15ebb3f4"),
            ("parallel_gumbel_v2", "3c0b0faf561c5cf7"),
        ],
    )
    def test_stdout_is_pinned(self, preset, digest, capsys):
        # counts read a skeleton's shapes; a skeleton leaf that reported another size would move these
        assert main(["count-params", "--config", preset]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest

    def test_base_256_preset_is_32m_class(self, capsys):
        assert main(["count-params", "--config", "base_256"]) == 0
        total = int(capsys.readouterr().out.splitlines()[-1].split()[0].replace(",", ""))
        assert 29e6 < total < 36e6

    def test_parallel_presets_parse(self, capsys):
        for preset in ("base_192", "path", "parallel_share_linear", "parallel_gumbel_v1", "parallel_gumbel_v2"):
            assert main(["count-params", "--config", preset]) == 0
        capsys.readouterr()

    def test_unknown_preset(self, capsys):
        assert main(["count-params", "--config", "base_999"]) == EXIT_CONFIG


class TestConfigLoading:
    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("model: {}\nmystery: 1\n")
        rc = main(["count-params", "--config", str(p)])
        assert rc == EXIT_CONFIG

    def test_unknown_model_key_rejected(self, tmp_path, capsys):
        p = tmp_path / "bad2.yaml"
        p.write_text("model:\n  vocab_size: 10\n  d_modell: 64\n")
        assert main(["count-params", "--config", str(p)]) == EXIT_CONFIG
        assert "d_modell" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ("model:\n  vocab_size: 10\n  gumbel: {temprature: 0.5}\n", "gumbel.temprature"),
            ("model:\n  vocab_size: 10\n  d_model: abc\n", "d_model"),
            ("model:\n  vocab_size: 10\n  gumbel: 3\n", "gumbel"),
            ("model: 3\n", "'model' must be a mapping"),
            ("model:\n  vocab_size: 10\n  n_before: 1\n", "n_before"),
            ("model:\n  vocab_size: 10\n  dropout_path: 0.1\n", "dropout_path"),
            ("model:\n  vocab_size: 10\n  gumbel: {hard: true}\n", "gumbel.hard"),
            ("model:\n  vocab_size: 10\n  gumbel: {hard: 0}\n", "gumbel.hard"),
            ("model:\n  vocab_size: 10\n  heads_layer: 0\n", "heads_layer"),
            ("model:\n  vocab_size: 10\n  d_model: -8\n", "d_model"),
            ("model:\n  vocab_size: 0\n", "vocab_size"),
            ("model:\n  vocab_size: 10\n  max_seq_len: 0\n", "max_seq_len"),
            ("model:\n  vocab_size: 10\n  ff_layer: 0\n", "ff_layer"),
            ("model:\n  vocab_size: 10\n  n_layer_blocks: -1\n", "n_layer_blocks"),
            ("model:\n  vocab_size: 10\n  d_model: 1000000000000\n", "d_model: must be from 1 to 3037000499"),
            ("model:\n  vocab_size: 10\n  gumbel: {temperature: .nan}\n", "gumbel.temperature"),
        ],
        ids=[
            "gumbel-key-typo", "non-integer-size", "non-mapping-gumbel", "non-mapping-section",
            "retired-n_before", "retired-dropout_path", "retired-gumbel-hard-true", "retired-gumbel-hard-0",
            "zero-heads", "negative-width", "zero-vocab", "zero-max-seq-len", "zero-ffn", "negative-layer-count",
            "unindexable-width", "nan-temperature",
        ],
    )
    def test_malformed_model_config_exits_config(self, tmp_path, capsys, text, key):
        p = tmp_path / "bad.yaml"
        p.write_text(text)
        assert main(["count-params", "--config", str(p)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, code",
        [("count-params", EXIT_CONFIG), ("analyze", EXIT_DATA), ("pretokenize", EXIT_DATA)],
    )
    def test_text_that_is_not_utf8_names_the_byte(self, workdir, tmp_path, capsys, verb, code):
        bad = tmp_path / "bad.txt"
        if verb == "count-params":
            bad.write_bytes(b"model:\n  vocab_size: 10 \xff\n")
            argv = ["--config", str(bad)]
        elif verb == "analyze":
            composite = tmp_path / "composite.ppck"
            vocab = ChunkStore.load(str(workdir / "store.ppch")).tokenizer.vocab_size
            target = model_config_from(load_config(str(workdir / "gumbel.yaml")), vocab_size=vocab)
            save_checkpoint(str(composite), build(target, None))
            bad.write_bytes(b"story\tOnce upon a time\nstory\tOnce \xff\n")
            argv = ["--checkpoint", str(composite), "--data", str(workdir / "store.ppch"), "--prompts", str(bad)]
        else:
            bad.write_bytes(b"one two three\n" * 1000 + b"four \xff five\n")
            argv = ["--corpus", f"story={bad}", "--out", str(tmp_path / "s.ppch")]
        offset = bad.read_bytes().index(b"\xff")
        assert main([verb, *argv]) == code
        assert f"{bad}: not UTF-8 at byte {offset}" in capsys.readouterr().err

    def test_preset_loads_as_mapping(self):
        raw = load_config("base_256")
        assert raw["model"]["d_model"] == 256

    def test_config_and_prompt_readers_close_their_files(self, tmp_path):
        config, prompts = tmp_path / "tiny.yaml", tmp_path / "prompts.tsv"
        config.write_text("model:\n  vocab_size: 10\n")
        prompts.write_text("story\tOnce upon a time\nmath\t3 + 4 =\n")
        src = Path(cli.__file__).resolve().parents[1]
        child = (
            f"import sys; sys.path.insert(0, {str(src)!r})\n"
            "from papaformer.cli import _read_prompts, load_config\n"
            f"load_config({str(config)!r})\n"
            f"_read_prompts({str(prompts)!r})\n"
        )
        # a file left open warns when it is collected; the warning is hidden unless -X dev
        out = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", child],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert "ResourceWarning" not in out.stderr

    def test_readme_lists_exactly_the_retired_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| accepted value |", 1)[1].split("\n\n", 1)[0]
        rows = re.findall(r"^\| `(\S+)` +\| `(\S+)` +\|$", table, re.MULTILINE)
        retired = {
            prefix + key: json.dumps(value)
            for cls, prefix in ((ModelConfig, ""), (GumbelConfig, "gumbel."), (TrainConfig, "train."))
            for key, value in cls.RETIRED.items()
        }
        assert len(rows) == len(retired) and dict(rows) == retired
