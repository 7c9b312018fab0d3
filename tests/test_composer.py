import threading

import numpy as np
import pytest

import papaformer.model as M
import papaformer.tensor as T
from papaformer.checkpoint import load_checkpoint, save_checkpoint
from papaformer.composer import (
    CompositionError,
    CompositionPlan,
    compose,
    composition_provenance,
    validate_plan,
    weight_source,
)
from papaformer.model import ModelConfig, build
from papaformer.parallel import GumbelConfig, gumbel_v1_forward, run_paths
from papaformer.tensor import RngState, Tensor

VOCAB = 30
D_PATH = 16
N_LAYERS = 2


def path_config(**overrides):
    base = dict(
        vocab_size=VOCAB,
        d_model=D_PATH,
        n_layer_blocks=N_LAYERS,
        heads_layer=2,
        ff_layer=32,
        max_seq_len=16,
    )
    base.update(overrides)
    return ModelConfig.from_dict(base)


def target_config(**overrides):
    base = dict(
        vocab_size=VOCAB,
        d_model=2 * D_PATH,
        d_path=D_PATH,
        n_layer_blocks=2,
        n_parallel_layers=N_LAYERS,
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
def path_ckpts(tmp_path):
    out = []
    for i in (1, 2):
        model = build(path_config(), RngState(i))
        p = str(tmp_path / f"path{i}.ppck")
        save_checkpoint(p, model)
        out.append(p)
    return out


@pytest.fixture
def plan(path_ckpts):
    return CompositionPlan(path_checkpoints=path_ckpts, target_config=target_config())


PARALLEL_KINDS = ("share_linear", "gumbel_v1", "gumbel_v2")


def kind_plan(path_ckpts, kind):
    return CompositionPlan(path_checkpoints=path_ckpts, target_config=target_config(connection_kind=kind))


def param_bytes(model):
    return [(name, t.data.dtype.str, t.data.tobytes()) for name, t in model.named_params().items()]


def full_build_then_overwrite(plan, rng):
    """Reference composite: a full seeded target build, then the reused and concatenated weights overwritten."""
    paths = [load_checkpoint(p).model for p in plan.path_checkpoints]
    model = build(plan.target_config, rng)
    model.embed.data = np.concatenate([p.embed.data for p in paths], axis=1)
    model.lm_head.data = np.concatenate([p.lm_head.data for p in paths], axis=0)
    for j, layer in enumerate(model.parallel_layers):
        for dst_block, src in zip(layer.paths, paths):
            src_params = src.blocks_before[j].named_params()
            for name, t in dst_block.named_params().items():
                t.data = src_params[name].data
    return model


def force_draw_workers(monkeypatch, n: int) -> None:
    """Make weight draws run on up to ``n`` threads, whatever the CPU count."""
    monkeypatch.setattr(M, "_claim_cpus", lambda: True)
    monkeypatch.setattr(M, "_usable_cpus", lambda: n)


@pytest.fixture(params=[np.float32, np.float64], ids=["float32", "float64"])
def each_default_dtype(request):
    T.set_default_dtype(request.param)
    try:
        yield request.param
    finally:
        T.set_default_dtype(np.float32)


class TestValidatePlan:
    def test_well_formed_plan_has_no_conflicts(self, plan):
        assert validate_plan(plan) == []

    def test_width_mismatch_named(self, tmp_path, path_ckpts):
        narrow = build(path_config(d_model=8, heads_layer=2), RngState(5))
        p = str(tmp_path / "narrow.ppck")
        save_checkpoint(p, narrow)
        conflicts = validate_plan(CompositionPlan([path_ckpts[0], p], target_config()))
        assert any("d_path" in c for c in conflicts)

    @pytest.mark.parametrize("key, value, target_key, target_value", [("ff_layer", 48, "ff_path", 32),
                                                                      ("heads_layer", 4, "heads_path", 2)])
    def test_ffn_width_and_head_count_mismatch_named(self, tmp_path, path_ckpts, key, value, target_key, target_value):
        # a reused path block computes what its source did only at the source's FFN width and head split
        other = build(path_config(**{key: value}), RngState(8))
        p = str(tmp_path / "other.ppck")
        save_checkpoint(p, other)
        conflicts = validate_plan(CompositionPlan([path_ckpts[0], p], target_config()))
        assert conflicts == [f"path 2: {key}={value} != target {target_key}={target_value}"]

    def test_vocab_mismatch_named(self, tmp_path, path_ckpts):
        other = build(path_config(vocab_size=40), RngState(6))
        p = str(tmp_path / "othervocab.ppck")
        save_checkpoint(p, other)
        conflicts = validate_plan(CompositionPlan([path_ckpts[0], p], target_config()))
        assert any("vocab" in c for c in conflicts)

    def test_depth_mismatch_named(self, tmp_path, path_ckpts):
        shallow = build(path_config(n_layer_blocks=1), RngState(7))
        p = str(tmp_path / "shallow.ppck")
        save_checkpoint(p, shallow)
        conflicts = validate_plan(CompositionPlan([path_ckpts[0], p], target_config()))
        assert any("layer blocks" in c for c in conflicts)

    def test_wrong_checkpoint_count(self, path_ckpts):
        conflicts = validate_plan(CompositionPlan(path_ckpts[:1], target_config()))
        assert any("k_paths" in c for c in conflicts)


class TestCompose:
    def test_embedding_rows_are_exact_concatenation(self, plan):
        model = compose(plan, RngState(0))
        sources = [load_checkpoint(p).model for p in plan.path_checkpoints]
        for t in (0, 7, VOCAB - 1):
            row = np.concatenate([s.embed.data[t] for s in sources])
            assert np.array_equal(model.embed.data[t], row)

    def test_lm_head_concatenated_on_input_axis(self, plan):
        model = compose(plan, RngState(0))
        sources = [load_checkpoint(p).model for p in plan.path_checkpoints]
        assert np.array_equal(model.lm_head.data[:D_PATH], sources[0].lm_head.data)
        assert np.array_equal(model.lm_head.data[D_PATH:], sources[1].lm_head.data)

    def test_path_weights_bit_equal_sources(self, plan):
        model = compose(plan, RngState(0))
        sources = [load_checkpoint(p).model for p in plan.path_checkpoints]
        for j, layer in enumerate(model.parallel_layers):
            for i, src in enumerate(sources):
                for name, t in layer.paths[i].named_params().items():
                    assert np.array_equal(t.data, src.blocks_before[j].named_params()[name].data), (
                        j,
                        i,
                        name,
                    )

    def test_deterministic(self, plan):
        a = compose(plan, RngState(3)).named_params()
        b = compose(plan, RngState(3)).named_params()
        for name in a:
            assert np.array_equal(a[name].data, b[name].data)

    def test_fresh_parts_follow_build_policy(self, plan):
        model = compose(plan, RngState(3))
        fresh = build(plan.target_config, RngState(3))
        assert np.array_equal(model.down_proj.data, fresh.down_proj.data)
        assert np.array_equal(model.final_norm_scale.data, fresh.final_norm_scale.data)

    def test_draws_exactly_one_target_build(self, plan):
        rng, ref = RngState(11), RngState(11)
        compose(plan, rng)
        build(plan.target_config, ref)
        assert rng.position == ref.position

    def test_invalid_plan_raises(self, path_ckpts):
        with pytest.raises(CompositionError, match="k_paths"):
            compose(CompositionPlan(path_ckpts[:1], target_config()), RngState(0))

    def test_provenance_tags(self, plan):
        model = compose(plan, RngState(0))
        tags = composition_provenance(model)
        assert tags["embed"] == "concatenated"
        assert tags["lm_head"] == "concatenated"
        assert tags["parallel0.path1.wq"] == "reused"
        assert tags["parallel0.conn.w_combine"] == "fresh"
        assert tags["down_proj"] == "fresh"
        # round-trips through the checkpoint format
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            p = f"{d}/composed.ppck"
            save_checkpoint(p, model, provenance=tags)
            assert load_checkpoint(p).provenance == tags

    def test_provenance_covers_every_target_parameter(self, plan):
        tags = composition_provenance(compose(plan, RngState(0)))
        assert list(tags) == list(build(plan.target_config, None).named_params())
        assert all(isinstance(weight_source(name, tag), str) for name, tag in tags.items())
        assert weight_source("parallel1.path0.w_up", tags["parallel1.path0.w_up"]) == "path 1 block_before1.w_up"
        assert weight_source("lm_head", tags["lm_head"]) == "all paths lm_head"
        assert weight_source("down_proj", tags["down_proj"]) == "init policy"


class TestDrawsOnlyFreshWeights:
    @pytest.mark.parametrize("kind", PARALLEL_KINDS)
    def test_equals_full_build_then_overwrite(self, path_ckpts, kind, each_default_dtype):
        plan = kind_plan(path_ckpts, kind)
        rng, ref = RngState(5, 2), RngState(5, 2)
        assert param_bytes(compose(plan, rng)) == param_bytes(full_build_then_overwrite(plan, ref))
        assert rng.position == ref.position

    @pytest.mark.parametrize("kind", PARALLEL_KINDS)
    def test_draws_only_the_fresh_weights(self, path_ckpts, kind, monkeypatch):
        drawn = []
        normal = RngState.normal

        def counted(self, shape=(), std=1.0):
            drawn.append(int(np.prod(shape)))
            return normal(self, shape, std)

        plan = kind_plan(path_ckpts, kind)
        monkeypatch.setattr(RngState, "normal", counted)
        model = compose(plan, RngState(0))
        params = model.named_params()
        fresh = [n for n, tag in composition_provenance(model).items() if tag == "fresh"]
        assert sum(drawn) == sum(params[n].size for n in fresh if params[n].data.ndim == 2)

    @pytest.mark.parametrize("kind", PARALLEL_KINDS)
    def test_bytes_do_not_depend_on_draw_threads(self, path_ckpts, kind, monkeypatch):
        out = []
        for n in (1, 2):
            force_draw_workers(monkeypatch, n)
            out.append(param_bytes(compose(kind_plan(path_ckpts, kind), RngState(9))))
        assert out[0] == out[1]

    def test_no_draw_thread_outlives_compose(self, plan, monkeypatch):
        force_draw_workers(monkeypatch, 2)
        before = threading.active_count()
        compose(plan, RngState(0))
        assert threading.active_count() == before

    def test_failed_draw_propagates_and_leaves_no_thread(self, plan, monkeypatch):
        calls = []
        normal = RngState.normal

        def failing(self, shape=(), std=1.0):
            calls.append(shape)
            if len(calls) == 3:
                raise FloatingPointError("draw failed")
            return normal(self, shape, std)

        force_draw_workers(monkeypatch, 2)
        monkeypatch.setattr(RngState, "normal", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="draw failed"):
            compose(plan, RngState(0))
        assert threading.active_count() == before


class TestPassThroughOracle:
    def test_forced_path1_routing_reproduces_path1_blocks(self, plan):
        """With identity outer blocks, a selector down-projection, and routing
        forced one-hot on path 1, the composite's parallel core output slice
        [0, d_path) must equal Path_1's own block outputs."""
        from papaformer.blocks import layer_block
        from papaformer.tensor import embedding

        model = compose(plan, RngState(0))
        path1 = load_checkpoint(plan.path_checkpoints[0]).model
        d = plan.target_config.d_model

        # outer blocks -> identity (zero the residual branches)
        for block in model.blocks_before + model.blocks_after:
            block.wo.data[:] = 0.0
            block.w_down.data[:] = 0.0
        # down-projection -> select the first d_path features
        sel = np.zeros((d, D_PATH), dtype=np.float32)
        sel[:D_PATH] = np.eye(D_PATH, dtype=np.float32)
        model.down_proj.data = sel

        tokens = np.array([[3, 1, 4, 1, 5, 9, 2, 6]])
        forced = np.zeros((1, tokens.shape[1], 3), dtype=np.float32)
        forced[..., 0] = 1.0

        x = embedding(model.embed, tokens)
        for block in model.blocks_before:
            x = layer_block(x, block, model.config.max_seq_len)
        x = x @ Tensor(model.down_proj.data)
        cfg = GumbelConfig()
        for j, layer in enumerate(model.parallel_layers):
            outputs = run_paths(x, layer.paths, model.config.max_seq_len)
            if j == len(model.parallel_layers) - 1:
                composite_out = outputs[0]  # concat slice [0, d_path) is path 1's output
            x, _ = gumbel_v1_forward(
                outputs, layer.connection, cfg, rng=None, training=False, forced_pi=Tensor(forced)
            )

        ref = embedding(path1.embed, tokens)
        for block in path1.blocks_before:
            ref = layer_block(ref, block, path1.config.max_seq_len)
        np.testing.assert_allclose(composite_out.data, ref.data, atol=1e-5)
