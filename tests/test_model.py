import numpy as np
import pytest

from denseil.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from denseil.imageops import RunningStatsError
from denseil.model import build_model, forward_batch, load_model, save_model
from denseil.rng import stream
from micro import micro_corpus, micro_run_config


def random_clips(cfg, b=3, seed=17):
    rng = stream(seed, 0)
    shape = (b, cfg.sampling.chunks, 3, cfg.data.height, cfg.data.width)
    return rng.uniform(0.0, 1.0, shape).astype(cfg.np_dtype())


def test_build_model_has_every_component():
    cfg = micro_run_config()
    model = build_model(cfg)
    names = set(model.params)
    assert "encoder.block1.conv1.w" in names
    assert "adapter.block1.w" in names
    assert "adapter.block2.w" in names
    assert "decoder.block1.selfattn.wq" in names
    assert "decoder.block1.dense.wq" in names
    assert "decoder.final_ln.gamma" in names
    assert "head.cls.w" in names
    assert model.params["adapter.block2.w"].data.shape == (12, 12)
    assert model.params["head.cls.w"].data.shape == (12, 4)
    for p in model.params.values():
        assert p.data.dtype == np.float32
    assert set(model.states) == {"encoder.block1.bn1", "encoder.block1.bn2",
                                 "encoder.block2.bn1", "encoder.block2.bn2",
                                 "head.bn"}


def test_forward_batch_shapes_and_state():
    cfg = micro_run_config()
    model = build_model(cfg)
    logits, embeddings, state = forward_batch(model, random_clips(cfg),
                                              training=True)
    assert logits.shape == (3, 4)
    assert embeddings.shape == (3, 12)
    assert len(state.hidden) == cfg.decoder.R
    assert state.dense_attn[0] is not None


def test_forward_deterministic_across_builds():
    cfg = micro_run_config()
    clips = random_clips(cfg)
    a = forward_batch(build_model(cfg), clips, training=True)[0]
    b = forward_batch(build_model(cfg), clips, training=True)[0]
    assert np.array_equal(a.data, b.data)


def test_batched_forward_equals_single_clip_calls():
    cfg = micro_run_config(dtype="float64")
    model = build_model(cfg)
    clips = random_clips(cfg)
    forward_batch(model, clips, training=True)  # running stats for eval mode
    logits, embeddings, state = forward_batch(model, clips, training=False)
    for k in range(3):
        one = forward_batch(model, clips[k:k + 1], training=False)
        assert np.abs(logits.data[k] - one[0].data[0]).max() <= 1e-12
        assert np.abs(embeddings.data[k] - one[1].data[0]).max() <= 1e-12
        for got, want in zip(state.dense_attn, one[2].dense_attn):
            assert np.abs(got[k] - want[0]).max() <= 1e-12


def test_eval_mode_requires_trained_stats():
    cfg = micro_run_config()
    model = build_model(cfg)
    with pytest.raises(RunningStatsError):
        forward_batch(model, random_clips(cfg), training=False)


def test_save_load_roundtrip(tmp_path):
    cfg = micro_run_config()
    model = build_model(cfg)
    forward_batch(model, random_clips(cfg), training=True)  # warm BN stats
    p1 = tmp_path / "a.dil1"
    save_model(p1, model)
    back = load_model(p1, cfg)
    for name, param in model.params.items():
        assert np.array_equal(back.params[name].data, param.data)
    for name, st in model.states.items():
        assert np.array_equal(back.states[name].running_mean, st.running_mean)
        assert np.array_equal(back.states[name].running_var, st.running_var)
        assert back.states[name].num_batches == st.num_batches
    p2 = tmp_path / "b.dil1"
    save_model(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_model_reproduces_outputs(tmp_path):
    cfg = micro_run_config()
    model = build_model(cfg)
    clips = random_clips(cfg)
    forward_batch(model, clips, training=True)
    save_model(tmp_path / "m.dil1", model)
    back = load_model(tmp_path / "m.dil1", cfg)
    a = forward_batch(model, clips, training=False)[1]
    b = forward_batch(back, clips, training=False)[1]
    assert np.array_equal(a.data, b.data)


def test_load_rejects_wrong_architecture(tmp_path):
    cfg = micro_run_config()
    save_model(tmp_path / "m.dil1", build_model(cfg))
    wider = micro_run_config(decoder={"R": 1, "d": 16, "heads": 2})
    with pytest.raises(CheckpointError):
        load_model(tmp_path / "m.dil1", wider)


def test_load_rejects_missing_and_extra_records(tmp_path):
    cfg = micro_run_config()
    save_model(tmp_path / "m.dil1", build_model(cfg))
    records = load_checkpoint(tmp_path / "m.dil1")

    short = dict(records)
    short.pop("head.cls.w")
    save_checkpoint(tmp_path / "short.dil1", short)
    with pytest.raises(CheckpointError, match="missing"):
        load_model(tmp_path / "short.dil1", cfg)

    extra = dict(records)
    extra["head.cls.w2"] = np.zeros(3, dtype=np.float32)
    save_checkpoint(tmp_path / "extra.dil1", extra)
    with pytest.raises(CheckpointError, match="unexpected"):
        load_model(tmp_path / "extra.dil1", cfg)


def test_float64_model_survives_float32_storage(tmp_path):
    cfg = micro_run_config(dtype="float64")
    model = build_model(cfg)
    forward_batch(model, random_clips(cfg), training=True)
    p1 = tmp_path / "a.dil1"
    save_model(p1, model)
    back = load_model(p1, cfg)
    assert back.params["head.cls.w"].data.dtype == np.float64
    p2 = tmp_path / "b.dil1"
    save_model(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_micro_corpus_feeds_forward():
    cfg = micro_run_config()
    corpus = micro_corpus()
    frames = corpus.train[0].frames[:cfg.sampling.chunks]
    clips = frames[None].astype(cfg.np_dtype())
    logits, _, _ = forward_batch(build_model(cfg), clips, training=True)
    assert logits.shape == (1, 4)
