import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papaformer.checkpoint import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
)
from papaformer.blocks import ConfigError
from papaformer.cli import main
from papaformer import checkpoint, composer
from papaformer.composer import composition_provenance
from papaformer.model import CONNECTION_KINDS, ModelConfig, build
from papaformer.tensor import RngState, default_dtype, set_default_dtype
from test_composer import path_config, target_config


def small_config(**overrides):
    base = dict(
        vocab_size=40,
        d_model=32,
        d_path=16,
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
    base.update(overrides)
    return ModelConfig.from_dict(base)


@pytest.fixture
def model():
    return build(small_config(), RngState(9))


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, model, tmp_path):
        p1, p2 = str(tmp_path / "a.ppck"), str(tmp_path / "b.ppck")
        save_checkpoint(p1, model, rng=RngState(3, 17), train_config={"lr": 5e-4}, extra={"step": 7})
        ckpt = load_checkpoint(p1)
        save_checkpoint(
            p2,
            ckpt.model,
            provenance=ckpt.provenance,
            train_config=ckpt.train_config,
            rng=ckpt.rng,
            opt_tensors=ckpt.opt_tensors,
            extra=ckpt.extra,
        )
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_tensor_values_bit_exact(self, model, tmp_path):
        p = str(tmp_path / "c.ppck")
        save_checkpoint(p, model)
        again = load_checkpoint(p).model
        for name, t in model.named_params().items():
            assert np.array_equal(t.data, again.named_params()[name].data), name

    def test_rng_and_configs_round_trip(self, model, tmp_path):
        p = str(tmp_path / "d.ppck")
        save_checkpoint(p, model, rng=RngState(42, 5), train_config={"lr": 1e-3, "epochs": 2})
        ckpt = load_checkpoint(p)
        assert (ckpt.rng.seed, ckpt.rng.position) == (42, 5)
        assert ckpt.train_config == {"lr": 1e-3, "epochs": 2}
        assert ckpt.model.config == model.config

    def test_optimizer_tensors_round_trip(self, model, tmp_path):
        p = str(tmp_path / "e.ppck")
        opt = {"m.embed": np.arange(6, dtype=np.float32).reshape(2, 3)}
        save_checkpoint(p, model, opt_tensors=opt)
        ckpt = load_checkpoint(p, moments=True)
        assert np.array_equal(ckpt.opt_tensors["m.embed"], opt["m.embed"])

    def test_provenance_round_trip_and_default(self, model, tmp_path):
        p = str(tmp_path / "f.ppck")
        save_checkpoint(p, model, provenance={"embed": "reused"})
        ckpt = load_checkpoint(p)
        assert ckpt.provenance["embed"] == "reused"
        assert ckpt.provenance["lm_head"] == "fresh"

    def test_parent_manifest_with_retired_keys_loads(self, model, tmp_path):
        # manifests written before the retired options were removed carry each at its one accepted value
        p = str(tmp_path / "old.ppck")
        save_checkpoint(p, model)

        def add_retired(man):
            man["model_config"].update(n_before=None, dropout_path=0.0)
            man["model_config"]["gumbel"] = {"temperature": 1.0, "hard": False, "eval_deterministic": True}

        rewrite_manifest(p, add_retired)
        again = load_checkpoint(p).model
        assert again.config == model.config == small_config()
        for name, t in model.named_params().items():
            assert t.data.tobytes() == again.named_params()[name].data.tobytes(), name


class TestManifest:
    def test_read_manifest_lists_all_tensors(self, model, tmp_path):
        p = str(tmp_path / "g.ppck")
        save_checkpoint(p, model)
        manifest = read_manifest(p)
        names = {e["name"] for e in manifest["tensors"]}
        assert names == set(model.named_params())
        assert manifest["model_config"]["d_model"] == 32

    def test_offsets_contiguous(self, model, tmp_path):
        p = str(tmp_path / "h.ppck")
        save_checkpoint(p, model)
        expect = 0
        for e in read_manifest(p)["tensors"]:
            assert e["offset"] == expect
            expect += 4 * int(np.prod(e["shape"]))


def rewrite_manifest(path, mutate):
    raw = open(path, "rb").read()
    head = struct.calcsize("<4sIQ")
    magic, version, mlen = struct.unpack_from("<4sIQ", raw, 0)
    manifest = json.loads(raw[head : head + mlen])
    mutate(manifest)
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(struct.pack("<4sIQ", magic, version, len(blob)))
        f.write(blob)
        f.write(raw[head + mlen :])


def promise_a_huge_vocab(man):
    """Edit a manifest to describe a model with 10^11 words: terabytes of embedding and head the file does not hold."""
    vocab, man["model_config"]["vocab_size"] = man["model_config"]["vocab_size"], 10**11
    offset = 0
    for e in man["tensors"]:
        if e["name"] in ("embed", "lm_head"):
            e["shape"] = [10**11 if n == vocab else n for n in e["shape"]]
        e["offset"] = offset
        offset += 4 * int(np.prod(e["shape"], dtype=np.int64))


class TestErrors:
    def test_every_cut_inside_the_header_raises(self, model, tmp_path):
        whole, cut = tmp_path / "whole.ppck", tmp_path / "cut.ppck"
        save_checkpoint(str(whole), model)
        raw = whole.read_bytes()
        for n in range(struct.calcsize("<4sIQ")):
            cut.write_bytes(raw[:n])
            for read in (load_checkpoint, read_manifest):
                with pytest.raises(CheckpointError, match=re.escape(f"{cut}: truncated file ({n} bytes")):
                    read(str(cut))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ppck"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(p))
        with pytest.raises(CheckpointError):
            read_manifest(str(p))

    def test_manifest_length_past_the_end_reads_only_the_file(self, model, tmp_path):
        p = tmp_path / "long-manifest.ppck"
        save_checkpoint(str(p), model)
        raw = bytearray(p.read_bytes())
        struct.pack_into("<Q", raw, 8, 17_000_000_000_000)  # the manifest length field, about 1.7e13
        p.write_bytes(bytes(raw))
        for read in (load_checkpoint, read_manifest):
            with pytest.raises(ValueError):  # the manifest does not decode; no MemoryError
                read(str(p))

    def test_bad_version(self, model, tmp_path):
        p = str(tmp_path / "v.ppck")
        save_checkpoint(p, model)
        raw = bytearray(open(p, "rb").read())
        struct.pack_into("<I", raw, len(CHECKPOINT_MAGIC), 99)
        open(p, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(p)

    def test_missing_tensor(self, model, tmp_path):
        p = str(tmp_path / "m.ppck")
        save_checkpoint(p, model)
        rewrite_manifest(p, lambda man: man["tensors"].pop())
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(p)

    def test_shape_mismatch(self, model, tmp_path):
        p = str(tmp_path / "s.ppck")
        save_checkpoint(p, model)

        def flip(man):
            man["tensors"][0]["shape"] = list(reversed(man["tensors"][0]["shape"]))

        rewrite_manifest(p, flip)
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(p)

    def test_unknown_tensor_name(self, model, tmp_path):
        p = str(tmp_path / "u.ppck")
        save_checkpoint(p, model)

        def rename(man):
            man["tensors"][0]["name"] = "not_a_real_param"

        rewrite_manifest(p, rename)
        with pytest.raises(CheckpointError, match="not present"):
            load_checkpoint(p)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda man: man.pop("tensors"), "malformed manifest (KeyError: 'tensors')"),
            (lambda man: man.pop("model_config"), "malformed manifest (KeyError: 'model_config')"),
            (lambda man: man["tensors"][1].pop("offset"), "malformed tensor entry 1 (KeyError: 'offset')"),
            (lambda man: man["tensors"][0].update(shape="ab"), "malformed tensor entry 0 (TypeError: "),
            (lambda man: man.update(tensors=3), "malformed manifest (TypeError: "),
        ],
        ids=["no-tensors", "no-model-config", "no-offset", "string-shape", "tensors-not-a-list"],
    )
    def test_manifest_key_or_type_fault_raises(self, model, tmp_path, edit, message):
        p = str(tmp_path / "k.ppck")
        save_checkpoint(p, model)
        rewrite_manifest(p, edit)
        for read in (load_checkpoint, read_manifest):
            with pytest.raises(CheckpointError, match=re.escape(f"{p}: {message}")):
                read(p)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda man: man.update(rng=3),
            lambda man: man.update(rng={"seed": "7", "position": 0}),
            lambda man: man.update(extra=[]),
            lambda man: man.update(model_config=[]),
            lambda man: man["tensors"][0].pop("provenance"),
            lambda man: man["tensors"][0].update(name=7),
            lambda man: man["tensors"][0].update(shape=[2.0, 16]),
            lambda man: man["tensors"][0].update(shape=[-40, -32]),
            lambda man: man["tensors"].__setitem__(0, "embed"),
        ],
        ids=["rng-int", "rng-seed-str", "extra-list", "config-list", "no-provenance", "int-name", "float-size",
             "negative-sizes", "string-entry"],
    )
    def test_every_key_a_reader_indexes_is_checked(self, model, tmp_path, edit):
        p = str(tmp_path / "t.ppck")
        save_checkpoint(p, model)
        rewrite_manifest(p, edit)
        for read in (load_checkpoint, read_manifest):
            with pytest.raises(CheckpointError, match="malformed"):
                read(p)

    def test_model_config_without_a_required_key_raises_config_error(self, model, tmp_path):
        p = str(tmp_path / "c.ppck")
        save_checkpoint(p, model)
        rewrite_manifest(p, lambda man: man["model_config"].pop("vocab_size"))
        with pytest.raises(ConfigError, match=re.escape("missing config keys: ['vocab_size']")):
            load_checkpoint(p)

    def test_noisy_evaluation_routing_rejected(self, model, tmp_path):
        p = str(tmp_path / "noisy.ppck")
        save_checkpoint(p, model)
        rewrite_manifest(p, lambda man: man["model_config"]["gumbel"].update(eval_deterministic=False))
        with pytest.raises(ConfigError, match="eval_deterministic"):
            load_checkpoint(p)


@pytest.fixture
def no_draws(monkeypatch):
    """Any RngState draw fails the test."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("unexpected RngState draw")

    for method in ("normal", "uniform", "integers", "permutation"):
        monkeypatch.setattr(RngState, method, refuse)


class TestNoThrowawayBuild:
    def test_load_checkpoint_makes_no_draws(self, model, tmp_path, no_draws):
        p = str(tmp_path / "m.ppck")
        save_checkpoint(p, model)
        loaded = load_checkpoint(p).model.named_params()
        for name, t in model.named_params().items():
            np.testing.assert_array_equal(loaded[name].data, t.data)
            assert loaded[name].data.flags.writeable and loaded[name].data.flags.owndata

    def test_composition_provenance_makes_no_draws(self, no_draws, monkeypatch):
        # it reads the names of the composed model it is given, and builds nothing
        model = build(small_config(), None)
        monkeypatch.setattr(composer, "build", lambda *a, **k: pytest.fail("composition_provenance built a model"))
        tags = composition_provenance(model)
        assert list(tags) == list(model.named_params())

    def test_count_params_verb_makes_no_draws(self, no_draws, capsys):
        assert main(["count-params", "--config", "parallel_gumbel_v1"]) == 0
        assert "total" in capsys.readouterr().out


def micro_config(kind: str, vocab_size: int = 5) -> ModelConfig:
    """A model small enough that a test can cut its checkpoint at every payload byte."""
    return small_config(
        vocab_size=vocab_size, d_model=4, d_path=2, n_parallel_layers=int(kind != "none"), heads_layer=1, heads_path=1,
        ff_layer=4, ff_path=2, max_seq_len=4, connection_kind=kind,
    )


def moments(model, seed: int) -> dict:
    """Optimizer-state tensors shaped like a trainer's: first and second moments per parameter."""
    gen = np.random.default_rng(seed)
    return {
        f"{m}.{name}": gen.standard_normal(t.shape).astype(np.float32)
        for m in ("m", "v")
        for name, t in model.named_params().items()
    }


def payload_start(raw: bytes) -> int:
    head = struct.calcsize("<4sIQ")
    return head + struct.unpack_from("<4sIQ", raw, 0)[2]


class TestLoad:
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(CONNECTION_KINDS),
        vocab=st.integers(2, 12),
        seed=st.integers(0, 2**16),
        with_opt=st.booleans(),
    )
    def test_save_load_save_is_byte_identical(self, kind, vocab, seed, with_opt):
        model = build(micro_config(kind, vocab), RngState(seed))
        opt = moments(model, seed) if with_opt else None
        with tempfile.TemporaryDirectory() as d:
            p1, p2 = str(Path(d) / "a.ppck"), str(Path(d) / "b.ppck")
            save_checkpoint(p1, model, rng=RngState(seed, 3), opt_tensors=opt, extra={"step": seed})
            ck = load_checkpoint(p1, moments=True)
            assert sorted(ck.opt_tensors) == sorted(opt or {})
            save_checkpoint(p2, ck.model, provenance=ck.provenance, rng=ck.rng, opt_tensors=ck.opt_tensors,
                            extra=ck.extra)
            assert Path(p1).read_bytes() == Path(p2).read_bytes()

    @pytest.mark.parametrize("kind", CONNECTION_KINDS)
    def test_every_cut_inside_the_payload_raises(self, kind, tmp_path):
        model = build(micro_config(kind), RngState(4))
        whole, cut = tmp_path / "whole.ppck", tmp_path / "cut.ppck"
        save_checkpoint(str(whole), model, opt_tensors={"m.embed": np.ones(model.embed.shape, np.float32)})
        raw = whole.read_bytes()
        for n in range(payload_start(raw), len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(CheckpointError, match=re.escape(f"{cut}: payload ends inside tensor")):
                load_checkpoint(str(cut))

    def test_tensor_past_the_end_of_the_file_raises_before_allocating(self, model, tmp_path, monkeypatch):
        p = tmp_path / "huge.ppck"
        save_checkpoint(str(p), model)
        rewrite_manifest(str(p), promise_a_huge_vocab)
        monkeypatch.setattr(checkpoint, "build", lambda *a: pytest.fail("built a model the file cannot hold"))
        monkeypatch.setattr(checkpoint.np, "empty", lambda *a: pytest.fail("allocated a tensor the file cannot hold"))
        for read in (load_checkpoint, read_manifest):
            with pytest.raises(CheckpointError, match=re.escape(f"{p}: payload ends inside tensor 'embed'")):
                read(str(p))

    def test_bytes_after_the_payload_raise(self, model, tmp_path):
        p = tmp_path / "long.ppck"
        save_checkpoint(str(p), model)
        p.write_bytes(p.read_bytes() + b"\0")
        for read in (load_checkpoint, read_manifest):
            with pytest.raises(CheckpointError, match="runs 1 bytes past the"):
                read(str(p))

    def test_offset_out_of_order_raises(self, model, tmp_path):
        p = str(tmp_path / "o.ppck")
        save_checkpoint(p, model)
        rewrite_manifest(p, lambda man: man["tensors"][1].update(offset=man["tensors"][1]["offset"] + 4))
        with pytest.raises(CheckpointError, match="offset"):
            load_checkpoint(p)


@pytest.fixture
def reads(monkeypatch) -> list:
    """What each tensor read of ``load_checkpoint`` names, in order."""
    names = []
    read_into = checkpoint.read_into

    def recording(f, arr, path, what, error):
        names.append(what)
        read_into(f, arr, path, what, error)

    monkeypatch.setattr(checkpoint, "read_into", recording)
    return names


class TestMoments:
    def test_read_only_when_asked(self, model, tmp_path, reads):
        p = str(tmp_path / "m.ppck")
        opt = moments(model, 0)
        save_checkpoint(p, model, opt_tensors=opt)
        plain = load_checkpoint(p)
        assert plain.opt_tensors == {} and reads and not any("'opt." in what for what in reads)
        full = load_checkpoint(p, moments=True)
        assert sorted(full.opt_tensors) == sorted(opt)
        for name, t in plain.model.named_params().items():
            assert t.data.tobytes() == full.model.named_params()[name].data.tobytes(), name

    def test_compose_reads_no_moments(self, tmp_path, reads):
        paths = []
        for i in (1, 2):
            path = build(path_config(), RngState(i))
            paths.append(str(tmp_path / f"p{i}.ppck"))
            save_checkpoint(paths[-1], path, opt_tensors=moments(path, i))
        composer.compose(composer.CompositionPlan(paths, target_config()), RngState(0))
        assert reads and not any("'opt." in what for what in reads)


class TestLoadedArraysOwnTheirMemory:
    def test_params_and_moments_are_separate_writable_arrays(self, model, tmp_path):
        p = str(tmp_path / "own.ppck")
        save_checkpoint(p, model, opt_tensors=moments(model, 0))
        ck = load_checkpoint(p, moments=True)
        params = [t.data for t in ck.model.named_params().values()]
        for a in params:
            assert a.flags.c_contiguous and a.flags.writeable and a.dtype == default_dtype()
        arrays = params + list(ck.opt_tensors.values())
        for i, a in enumerate(params):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)

    def test_float32_checkpoint_loads_as_float64(self, model, tmp_path):
        p = str(tmp_path / "f32.ppck")
        save_checkpoint(p, model)
        set_default_dtype(np.float64)
        try:
            loaded = load_checkpoint(p).model.named_params()
        finally:
            set_default_dtype(np.float32)
        for name, t in model.named_params().items():
            a = loaded[name].data
            assert a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable, name
            np.testing.assert_array_equal(a, t.data)
