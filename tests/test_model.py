import hashlib
import threading

import numpy as np
import pytest

import papaformer.model as M
import papaformer.tensor as T
from papaformer.blocks import ConfigError, KVCache, layer_block, rmsnorm
from papaformer.model import CONNECTION_KINDS, ModelConfig, build, count_params, forward, trunk
from papaformer.tensor import RngState

FULL_VOCAB = 50257


def tiny_config(kind="none", **kw):
    base = dict(
        vocab_size=13,
        d_model=8,
        d_path=4,
        n_layer_blocks=2,
        n_parallel_layers=0 if kind == "none" else 2,
        k_paths=2,
        heads_layer=2,
        heads_path=2,
        ff_layer=12,
        ff_path=6,
        max_seq_len=16,
        connection_kind=kind,
    )
    base.update(kw)
    return ModelConfig(**base)


def reference_config(name):
    if name == "base_256":
        return ModelConfig(vocab_size=FULL_VOCAB, d_model=256, n_layer_blocks=8, heads_layer=8, ff_layer=1024)
    if name == "base_192":
        return ModelConfig(vocab_size=FULL_VOCAB, d_model=192, n_layer_blocks=8, heads_layer=6, ff_layer=728)
    if name == "path":
        return ModelConfig(vocab_size=FULL_VOCAB, d_model=128, n_layer_blocks=3, heads_layer=4, ff_layer=512)
    if name.startswith("parallel"):
        kind = {"parallel_v1": "gumbel_v1", "parallel_v2": "gumbel_v2", "parallel_share": "share_linear"}[name]
        n_parallel = 2 if kind == "share_linear" else 3
        n_blocks = 3 if kind == "share_linear" else 2
        return ModelConfig(
            vocab_size=FULL_VOCAB,
            d_model=256,
            d_path=128,
            n_layer_blocks=n_blocks,
            n_parallel_layers=n_parallel,
            k_paths=2,
            heads_layer=8,
            heads_path=4,
            ff_layer=1024,
            ff_path=512,
            connection_kind=kind,
        )
    raise ValueError(name)


class TestConfigValidation:
    def test_baseline_needs_no_parallel_layers(self):
        with pytest.raises(ConfigError, match="n_parallel_layers"):
            tiny_config("none", n_parallel_layers=2)

    def test_path_width_times_k_must_match(self):
        with pytest.raises(ConfigError, match="d_path"):
            tiny_config("gumbel_v1", d_path=3)

    def test_heads_must_divide_width(self):
        with pytest.raises(ConfigError, match="heads_layer"):
            tiny_config("none", heads_layer=3)

    def test_unknown_connection_kind(self):
        with pytest.raises(ConfigError, match="connection_kind"):
            tiny_config("magic")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ModelConfig.from_dict({"vocab_size": 10, "d_modle": 8})

    @pytest.mark.parametrize(
        "entry, key",
        [
            ({"d_model": "abc"}, "d_model"),
            ({"d_model": True}, "d_model"),
            ({"d_model": 8.0}, "d_model"),
            ({"n_before": "1"}, "n_before"),
            ({"gumbel": 3}, "gumbel"),
            ({"gumbel": {"temprature": 0.5}}, "gumbel.temprature"),
            ({"gumbel": {"hard": 1}}, "gumbel.hard"),
        ],
    )
    def test_from_dict_rejects_mistyped_values(self, entry, key):
        with pytest.raises(ConfigError, match=key):
            ModelConfig.from_dict({"vocab_size": 10, **entry})

    def test_from_dict_accepts_null_optional_and_int_float(self):
        cfg = ModelConfig.from_dict({"vocab_size": 10, "n_before": None, "dropout_path": 0, "gumbel": {"temperature": 2}})
        assert cfg.gumbel.temperature == 2

    def test_eval_deterministic_true_is_the_default(self):
        cfg = ModelConfig.from_dict({"vocab_size": 10, "gumbel": {"eval_deterministic": True}})
        assert cfg == ModelConfig(vocab_size=10)

    def test_eval_deterministic_false_rejected(self):
        with pytest.raises(ConfigError, match="gumbel.eval_deterministic"):
            ModelConfig.from_dict({"vocab_size": 10, "gumbel": {"eval_deterministic": False}})

    def test_round_trip_dict(self):
        cfg = tiny_config("gumbel_v2")
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg


class TestBuild:
    def test_baseline_has_no_connection_modules(self):
        m = build(tiny_config("none"), RngState(0))
        assert m.down_proj is None and not m.parallel_layers
        assert len(m.blocks_before) == 2 and not m.blocks_after

    def test_parallel_builds_with_reference_dims(self):
        m = build(reference_config("parallel_v1"), RngState(0))
        assert m.down_proj.shape == (256, 128)
        assert len(m.parallel_layers) == 3
        assert len(m.parallel_layers[0].paths) == 2

    def test_rebuild_determinism(self):
        a = build(tiny_config("gumbel_v1"), RngState(42))
        b = build(tiny_config("gumbel_v1"), RngState(42))
        for (na, pa), (nb, pb) in zip(a.named_params().items(), b.named_params().items()):
            assert na == nb
            assert pa.data.tobytes() == pb.data.tobytes()

    @pytest.mark.parametrize("kind", ["share_linear", "gumbel_v1", "gumbel_v2"])
    def test_only_the_last_parallel_layer_is_final(self, kind):
        for rng in (None, RngState(0)):
            m = build(tiny_config(kind, n_parallel_layers=3), rng)
            assert [layer.final for layer in m.parallel_layers] == [False, False, True]

    def test_last_share_linear_connection_expands(self):
        c = tiny_config("share_linear")
        m = build(c, RngState(0))
        first, last = m.parallel_layers[0].connection.w, m.parallel_layers[-1].connection.w
        assert first.shape == (c.k_paths * c.d_path, c.d_path)
        assert last.shape == (c.k_paths * c.d_path, c.d_model)
        assert m.named_params()[f"parallel{c.n_parallel_layers - 1}.final.w"] is last
        assert m.named_params()["parallel0.conn.w"] is first

    def test_block_split_defaults(self):
        assert tiny_config("gumbel_v1").split_blocks() == (1, 1)
        assert tiny_config("share_linear", n_layer_blocks=3).split_blocks() == (2, 1)


class TestForward:
    @pytest.mark.parametrize("kind", ["none", "share_linear", "gumbel_v1", "gumbel_v2"])
    def test_logits_shape(self, kind):
        m = build(tiny_config(kind), RngState(1))
        logits, records = forward(m, np.array([1, 2, 3, 4]))
        assert logits.shape == (4, 13)
        if kind.startswith("gumbel"):
            assert len(records) == 2

    def test_batched_tokens(self):
        m = build(tiny_config("gumbel_v1"), RngState(1))
        logits, _ = forward(m, np.array([[1, 2, 3], [4, 5, 6]]))
        assert logits.shape == (2, 3, 13)

    def test_out_of_range_token(self):
        m = build(tiny_config("none"), RngState(1))
        with pytest.raises(IndexError):
            forward(m, np.array([13]))

    def test_over_long_sequence(self):
        m = build(tiny_config("none"), RngState(1))
        with pytest.raises(ConfigError):
            forward(m, np.zeros(17, dtype=np.int64))

    def test_cache_past_max_seq_len(self):
        m = build(tiny_config("gumbel_v1"), RngState(1))
        cache = KVCache()
        forward(m, np.zeros(10, dtype=np.int64), cache=cache)
        forward(m, np.zeros(6, dtype=np.int64), cache=cache)
        assert cache.length == 16
        with pytest.raises(ConfigError, match="17 exceeds"):
            forward(m, np.zeros(1, dtype=np.int64), cache=cache)

    @pytest.mark.parametrize("kind", CONNECTION_KINDS)
    def test_cached_chunks_match_full_forward(self, kind):
        m = build(tiny_config(kind), RngState(4))
        toks = np.random.default_rng(1).integers(0, 13, size=(2, 12))
        full, full_records = forward(m, toks)
        cache = KVCache()
        parts = [forward(m, toks[:, a:b], cache=cache) for a, b in ((0, 7), (7, 8), (8, 12))]
        np.testing.assert_allclose(np.concatenate([lg.data for lg, _ in parts], axis=1), full.data, atol=1e-5)
        if kind.startswith("gumbel"):
            for i, rec in enumerate(full_records):
                pis = np.concatenate([recs[i].pi.data for _, recs in parts], axis=1)
                np.testing.assert_allclose(pis, rec.pi.data, atol=1e-6)

    @pytest.mark.parametrize("kind", ["none", "gumbel_v2"])
    def test_causality_end_to_end(self, kind):
        m = build(tiny_config(kind), RngState(2))
        rng = np.random.default_rng(0)
        toks = rng.integers(0, 13, size=10)
        base, _ = forward(m, toks)
        edited = toks.copy()
        edited[6:] = rng.integers(0, 13, size=4)
        out, _ = forward(m, edited)
        assert np.max(np.abs(out.data[:6] - base.data[:6])) < 1e-5

    def test_interface_parity_and_eval_purity(self):
        toks = np.array([1, 2, 3])
        for kind in ("none", "gumbel_v1"):
            m = build(tiny_config(kind), RngState(3))
            a, _ = forward(m, toks)
            b, _ = forward(m, toks)
            assert a.data.tobytes() == b.data.tobytes()

    def test_training_mode_gumbel_noise_changes_output(self):
        m = build(tiny_config("gumbel_v1"), RngState(4))
        toks = np.array([1, 2, 3])
        det, _ = forward(m, toks)
        noisy, _ = forward(m, toks, rng=RngState(5), training=True)
        assert not np.array_equal(det.data, noisy.data)


def record_bytes(records) -> list:
    """Every array a forward's routing records hold, as bytes."""
    out = []
    for rec in records:
        tensors = [rec.pi] if hasattr(rec, "pi") else [*rec.path_outputs, rec.combined]
        out.extend(t.data.tobytes() for t in tensors)
    return out


class TestTrunk:
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
    @pytest.mark.parametrize("kind", CONNECTION_KINDS)
    def test_trunk_then_head_is_forward(self, kind, training):
        m = build(tiny_config(kind, n_layer_blocks=3), RngState(6))
        toks = np.random.default_rng(2).integers(0, 13, size=(2, 9))
        rng = (lambda: RngState(5)) if training else (lambda: None)
        x, records = trunk(m, toks, rng(), training)
        for b in m.blocks_after:
            x = layer_block(x, b, m.config.max_seq_len)
        logits = rmsnorm(x, m.final_norm_scale) @ m.lm_head
        ref, ref_records = forward(m, toks, rng(), training)
        assert logits.data.tobytes() == ref.data.tobytes()
        assert len(records) == m.config.n_parallel_layers
        assert record_bytes(records) == record_bytes(ref_records)

    def test_one_dimensional_tokens_run_as_one_row(self):
        m = build(tiny_config("gumbel_v1"), RngState(1))
        x, records = trunk(m, np.array([1, 2, 3]))
        assert x.shape == (1, 3, 8)
        assert records[0].pi.shape == (1, 3, 3)

    def test_over_long_sequence(self):
        m = build(tiny_config("gumbel_v2"), RngState(1))
        with pytest.raises(ConfigError, match="17 exceeds"):
            trunk(m, np.zeros(17, dtype=np.int64))


# (connection kind, n_layer_blocks): the last attention layer is a block after the
# parallel core, the last parallel layer's paths, a baseline's last block, or none
LAST_ROW_SHAPES = [(kind, 2) for kind in CONNECTION_KINDS] + [
    ("gumbel_v1", 1), ("share_linear", 1), ("gumbel_v2", 0), ("none", 1), ("none", 0),
]


class ConcatCache:
    """A K/V cache that concatenates every step's keys and values onto copies of the old ones."""

    def __init__(self):
        self.kv = {}
        self.length = 0  # positions run, which the model's forward sets

    def start(self, params) -> int:
        kv = self.kv.get(id(params))
        return 0 if kv is None else kv[0].shape[2]

    def extend(self, params, k, v, max_seq_len) -> tuple:
        kv = tuple(z.transpose(0, 2, 1, 3) for z in (k, v))
        old = self.kv.get(id(params))
        if old is not None:
            kv = tuple(np.concatenate((a, z), axis=2) for a, z in zip(old, kv))
        self.kv[id(params)] = kv
        return kv


class TestLastRow:
    @pytest.mark.parametrize("kind,n_blocks", LAST_ROW_SHAPES)
    def test_logits_are_last_row_of_full_forward(self, kind, n_blocks, each_default_dtype):
        tol = 1e-6 if each_default_dtype == np.float32 else 1e-13
        m = build(tiny_config(kind, n_layer_blocks=n_blocks), RngState(5))
        toks = np.random.default_rng(2).integers(0, 13, size=(2, 12))
        full, _ = forward(m, toks)
        last, _ = forward(m, toks, last_row=True)
        assert last.shape == (2, 1, 13) and last.data.dtype == each_default_dtype
        np.testing.assert_allclose(last.data, full.data[:, -1:], rtol=0, atol=tol)
        one, _ = forward(m, toks[0], last_row=True)
        assert one.shape == (1, 13)
        # through a cache: a prompt, a two-token chunk, then one token
        cache, ref = KVCache(), KVCache()
        for a, b in ((0, 7), (7, 9), (9, 10)):
            got, _ = forward(m, toks[:, a:b], cache=cache, last_row=True)
            want, _ = forward(m, toks[:, a:b], cache=ref)
            np.testing.assert_allclose(got.data, want.data[:, -1:], rtol=0, atol=tol)
            np.testing.assert_allclose(got.data, full.data[:, b - 1 : b], rtol=0, atol=10 * tol)
        assert cache.length == 10  # positions run, with or without an attention block

    @pytest.mark.parametrize("kind", CONNECTION_KINDS)
    def test_trunk_records_cover_the_last_row(self, kind):
        m = build(tiny_config(kind, n_layer_blocks=1), RngState(6))
        toks = np.random.default_rng(3).integers(0, 13, size=(2, 9))
        x, records = trunk(m, toks)
        last, last_records = trunk(m, toks, last_row=True)
        assert last.shape == (2, 1, x.shape[2])
        np.testing.assert_allclose(last.data, x.data[:, -1:], atol=1e-6)
        for rec, full in zip(last_records[:-1], records[:-1]):
            assert record_bytes([rec]) == record_bytes([full])  # only the last parallel layer is cut
        if kind.startswith("gumbel"):
            assert last_records[-1].pi.shape == (2, 1, 3)
            np.testing.assert_allclose(last_records[-1].pi.data, records[-1].pi.data[:, -1:], atol=1e-6)

    @pytest.mark.parametrize("kind", CONNECTION_KINDS)
    def test_cached_steps_are_bit_identical_to_a_concatenating_cache(self, kind):
        m = build(tiny_config(kind, d_model=64, d_path=32, ff_layer=96, ff_path=48, max_seq_len=64), RngState(7))
        toks = np.random.default_rng(4).integers(0, 13, size=30)
        inplace, concat = KVCache(), ConcatCache()
        for a, b in [(0, 21)] + [(i, i + 1) for i in range(21, 30)]:
            got, _ = forward(m, toks[a:b], cache=inplace, last_row=True)
            want, _ = forward(m, toks[a:b], cache=concat, last_row=True)
            assert got.data.tobytes() == want.data.tobytes()


class TestCountParams:
    def test_base_256_in_32m_class(self):
        total, _ = count_params(build(reference_config("base_256"), RngState(0)))
        assert abs(total - 32e6) / 32e6 < 0.10

    def test_base_192_in_22_5m_class(self):
        total, _ = count_params(build(reference_config("base_192"), RngState(0)))
        assert abs(total - 22.5e6) / 22.5e6 < 0.10

    def test_path_in_13_5m_class(self):
        total, _ = count_params(build(reference_config("path"), RngState(0)))
        assert abs(total - 13.5e6) / 13.5e6 < 0.10

    @pytest.mark.parametrize("name", ["parallel_v1", "parallel_v2", "parallel_share"])
    def test_parallel_in_28_5m_class(self, name):
        total, _ = count_params(build(reference_config(name), RngState(0)))
        assert abs(total - 28.5e6) / 28.5e6 < 0.10

    def test_parallel_smaller_than_base(self):
        parallel, _ = count_params(build(reference_config("parallel_v1"), RngState(0)))
        base, _ = count_params(build(reference_config("base_256"), RngState(0)))
        assert parallel < base

    def test_breakdown_sums_to_total(self):
        total, breakdown = count_params(build(tiny_config("gumbel_v2"), RngState(0)))
        assert total == sum(breakdown.values())


@pytest.fixture(params=[np.float32, np.float64], ids=["float32", "float64"])
def each_default_dtype(request):
    T.set_default_dtype(request.param)
    try:
        yield request.param
    finally:
        T.set_default_dtype(np.float32)


class TestSkeleton:
    @pytest.mark.parametrize("kind", CONNECTION_KINDS)
    def test_same_layout_as_fresh_build_without_draws(self, kind, each_default_dtype, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("skeleton build drew from the rng")

        cfg = tiny_config(kind)
        monkeypatch.setattr(RngState, "normal", refuse)
        skeleton = build(cfg, None).named_params()
        monkeypatch.undo()
        fresh = build(cfg, RngState(5)).named_params()
        assert list(skeleton) == list(fresh)
        for name, leaf in skeleton.items():
            assert leaf.shape == fresh[name].shape
            assert leaf.data.dtype == fresh[name].data.dtype == each_default_dtype
            assert leaf.requires_grad
            if "norm" in name:
                # norm scales start at one in every build; they are not drawn
                np.testing.assert_array_equal(leaf.data, fresh[name].data)
            else:
                assert not leaf.data.any(), name

    @pytest.mark.parametrize("kind", CONNECTION_KINDS)
    def test_weight_leaves_are_read_only_zero_views(self, kind, each_default_dtype):
        # a skeleton allocates no weight memory, and a write before the weight is filled raises
        for name, leaf in build(tiny_config(kind), None).named_params().items():
            if "norm" in name:
                continue
            assert not leaf.data.flags.writeable, name
            assert leaf.data.strides == (0,) * leaf.ndim, name
            with pytest.raises(ValueError, match="read-only"):
                leaf.data += 1

    @pytest.mark.parametrize(
        "kind,position,digest",
        [
            ("none", 16, "37d09e74fac10ee6"),
            ("share_linear", 47, "175bf55ba624e706"),
            ("gumbel_v1", 49, "84a5792645611e8e"),
            ("gumbel_v2", 49, "a65457dc5c271904"),
        ],
    )
    def test_seeded_build_draws_are_pinned(self, kind, position, digest):
        # seeded builds are bit-exact: a changed draw order or count changes the
        # digest (so would a change to NumPy's PCG64 normal stream)
        rng = RngState(0)
        h = hashlib.sha256()
        for name, t in build(tiny_config(kind), rng).named_params().items():
            h.update(name.encode())
            h.update(t.data.tobytes())
        assert (rng.position, h.hexdigest()[:16]) == (position, digest)


def force_draw_workers(monkeypatch, n: int) -> None:
    """Make weight draws run on up to ``n`` threads, whatever the CPU count."""
    monkeypatch.setattr(M, "_claim_cpus", lambda: True)
    monkeypatch.setattr(M, "_usable_cpus", lambda: n)


def seeded_build_bytes(kind):
    rng = RngState(3, 1)
    params = build(tiny_config(kind), rng).named_params()
    return rng.position, [(name, t.data.tobytes()) for name, t in params.items()]


class TestDrawThreads:
    @pytest.mark.parametrize("kind", CONNECTION_KINDS)
    def test_bytes_do_not_depend_on_worker_count(self, kind, monkeypatch):
        out = []
        for n in (1, 2):
            force_draw_workers(monkeypatch, n)
            out.append(seeded_build_bytes(kind))
        assert out[0] == out[1]

    def test_no_draw_thread_outlives_build(self, monkeypatch):
        force_draw_workers(monkeypatch, 2)
        before = threading.active_count()
        build(tiny_config("gumbel_v1"), RngState(0))
        assert threading.active_count() == before

    def test_failed_draw_propagates_and_leaves_no_thread(self, monkeypatch):
        calls = []
        normal = RngState.normal

        def failing(self, shape=(), std=1.0):
            calls.append(shape)
            if len(calls) == 5:
                raise FloatingPointError("draw failed")
            return normal(self, shape, std)

        force_draw_workers(monkeypatch, 2)
        monkeypatch.setattr(RngState, "normal", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="draw failed"):
            build(tiny_config("gumbel_v2"), RngState(0))
        assert threading.active_count() == before

    def test_cpus_are_claimed_before_the_first_draw_thread(self, monkeypatch):
        # a thread started before the one-arena setting keeps its own malloc
        # arena, which later micro-batch workers reuse; no test reads memory
        # use, so the order is checked directly
        events = []

        class RecordingPool(M.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                events.append(("pool", threading.active_count()))
                super().__init__(*args, **kwargs)

        def claim():
            events.append(("claim", threading.active_count()))
            return True

        before = threading.active_count()
        monkeypatch.setattr(M, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(M, "_claim_cpus", claim)
        monkeypatch.setattr(M, "_usable_cpus", lambda: 2)
        build(tiny_config("share_linear"), RngState(0))
        assert events == [("claim", before), ("pool", before)]

    def test_skeleton_build_claims_cpus(self, monkeypatch):
        # loading a checkpoint builds a skeleton; its forwards then run at one BLAS thread too
        calls = []
        monkeypatch.setattr(M, "_claim_cpus", lambda: calls.append(1) or True)
        build(tiny_config("gumbel_v2"), None)
        assert calls == [1]

    def test_draws_stay_serial_when_cpus_cannot_be_claimed(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a draw thread started without the CPU claim")

        expected = seeded_build_bytes("gumbel_v1")
        monkeypatch.setattr(M, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(M, "_claim_cpus", lambda: False)
        monkeypatch.setattr(M, "_usable_cpus", lambda: 2)
        assert seeded_build_bytes("gumbel_v1") == expected
