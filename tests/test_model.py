import pathlib
import sys
import tracemalloc

import numpy as np
import pytest

from denseil import imageops
from denseil import model as model_module
from denseil.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from denseil.config import run_config_from_dict
from denseil.imageops import RunningStatsError
from denseil.losses import total_loss
from denseil.model import build_model, forward_batch, load_model, save_model
from denseil.optim import Adam
from denseil.rng import stream
from denseil.tensor import NumericError, backward, no_grad
from micro import micro_corpus, micro_run_config
from test_imageops import fresh_state

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def random_clips(cfg, b=3, seed=17):
    rng = stream(seed, 0)
    shape = (b, cfg.sampling.chunks, 3, cfg.data.height, cfg.data.width)
    return rng.uniform(0.0, 1.0, shape).astype(cfg.np_dtype())


def test_build_model_has_every_component():
    cfg = micro_run_config()
    model = build_model(cfg)
    names = set(model.params)
    assert "encoder.block1.conv1.w" in names
    assert "adapter.block1.w" not in names  # DenseIL reads blocks 2..L
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


FOUR_BLOCKS = {"channels": [4, 6, 8, 12]}

# decoder settings, and the encoder blocks whose adapters each one builds
ADAPTER_SETS = [({}, {2, 3, 4}),
                ({"dense_sources": [1, 2, 3, 4]}, {1, 2, 3, 4}),
                ({"dense_sources": [4]}, {4}),
                ({"dense_sources": []}, {4}),
                ({"R": 0}, {4})]


def test_build_model_builds_only_the_adapters_the_decoder_reads():
    concat = ({"fusion": "concatenation", "dense_sources": [1, 3]}, {1, 3, 4})
    for decoder, blocks in ADAPTER_SETS + [concat]:
        model = build_model(micro_run_config(encoder=FOUR_BLOCKS,
                                             decoder=decoder))
        built = {name for name in model.params if name.startswith("adapter.")}
        assert built == {"adapter.block%d.w" % l for l in blocks}, decoder
        assert [w is not None for w in model.adapter_weights()] == [
            l in blocks for l in range(1, 5)]


FUSIONS = [{"fusion": "summation"}, {"fusion": "concatenation"}]
DENSE_ATTENTION = ("wq", "wk", "wv", "wo", "ln.gamma", "ln.beta")


def test_every_parameter_receives_a_gradient():
    labels = np.array([0, 0, 1, 1])
    for decoder in [d for d, _ in ADAPTER_SETS] + FUSIONS:
        cfg = micro_run_config(encoder=FOUR_BLOCKS, decoder=decoder)
        model = build_model(cfg)
        for p in model.params.values():
            p.grad = None
        logits, embeddings, _ = forward_batch(model, random_clips(cfg, b=4),
                                              training=True)
        loss, _, _ = total_loss(logits, embeddings, labels, 1.0)
        backward(loss)
        idle = sorted(n for n, p in model.params.items() if p.grad is None)
        assert not idle, (decoder, idle)


def test_skipped_adapters_leave_other_initial_weights_unchanged():
    base = build_model(micro_run_config(encoder=FOUR_BLOCKS))
    every = build_model(micro_run_config(
        encoder=FOUR_BLOCKS, decoder={"dense_sources": [1, 2, 3, 4]}))
    assert set(every.params) - set(base.params) == {"adapter.block1.w"}
    for name, param in base.params.items():
        assert np.array_equal(param.data, every.params[name].data), name


def test_interaction_attention_weights_are_built_only_for_attention_fusion():
    attention = build_model(micro_run_config())
    dense = {"decoder.block1.dense." + w for w in DENSE_ATTENTION}
    assert dense <= set(attention.params)
    for decoder in FUSIONS:
        model = build_model(micro_run_config(decoder=decoder))
        assert not dense & set(model.params), decoder
        assert ("decoder.block1.dense.wcat" in model.params) == (
            decoder["fusion"] == "concatenation")
    # the unread weights are still drawn, so every other weight is unchanged
    summation = build_model(micro_run_config(decoder=FUSIONS[0]))
    assert set(attention.params) - set(summation.params) == dense
    for name, param in summation.params.items():
        assert np.array_equal(param.data, attention.params[name].data), name


def test_forward_batch_shapes_and_state():
    cfg = micro_run_config()
    model = build_model(cfg)
    logits, embeddings, dense_attn = forward_batch(model, random_clips(cfg),
                                                   training=True)
    assert logits.shape == (3, 4)
    assert embeddings.shape == (3, 12)
    assert len(dense_attn) == cfg.decoder.R
    assert dense_attn[0] is not None


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
    logits, embeddings, dense_attn = forward_batch(model, clips,
                                                   training=False)
    for k in range(3):
        one = forward_batch(model, clips[k:k + 1], training=False)
        assert np.abs(logits.data[k] - one[0].data[0]).max() <= 1e-12
        assert np.abs(embeddings.data[k] - one[1].data[0]).max() <= 1e-12
        for got, want in zip(dense_attn, one[2]):
            assert np.abs(got[k] - want[0]).max() <= 1e-12


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_forward_batch_gives_the_encoder_the_transposed_frames_byte_for_byte(
        monkeypatch, dtype):
    cfg = micro_run_config(dtype=dtype)
    clips = random_clips(cfg)
    seen = []
    encode_clip = model_module.encode_clip

    def capture(x, *args):
        seen.append(x.data)
        return encode_clip(x, *args)

    monkeypatch.setattr(model_module, "encode_clip", capture)
    forward_batch(build_model(cfg), clips, training=True)
    frames = clips.reshape((-1,) + clips.shape[2:])
    want = np.ascontiguousarray(frames.transpose(0, 2, 3, 1))
    (got,) = seen
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_forward_batch_casts_frames_into_the_run_dtype_byte_for_byte():
    # float32 frames into a float64 run: the layout copy does the cast
    cfg = micro_run_config(dtype="float64")
    frames = random_clips(cfg).astype(np.float32)
    logits, embeddings, dense_attn = forward_batch(build_model(cfg), frames,
                                                   training=True)
    want = forward_batch(build_model(cfg), frames.astype(np.float64),
                         training=True)
    assert logits.data.dtype == embeddings.data.dtype == np.float64
    assert logits.data.tobytes() == want[0].data.tobytes()
    assert embeddings.data.tobytes() == want[1].data.tobytes()
    assert len(dense_attn) == len(want[2]) == cfg.decoder.R
    for got, expected in zip(dense_attn, want[2]):
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()


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


def test_load_rejects_a_negative_variance(tmp_path):
    cfg = micro_run_config()
    save_model(tmp_path / "m.dil1", build_model(cfg))
    records = load_checkpoint(tmp_path / "m.dil1")
    key = "bnstate.head.bn.var"
    save_checkpoint(tmp_path / "bad.dil1", dict(records, **{key: -records[key]}))
    with pytest.raises(CheckpointError, match="%r has a negative variance" % key):
        load_model(tmp_path / "bad.dil1", cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_save_refuses_a_finite_value_beyond_float32_and_keeps_the_file(
        tmp_path):
    # a float64 run's statistics can be finite yet overflow the float32 cast
    cfg = micro_run_config(dtype="float64")
    model = build_model(cfg)
    path = tmp_path / "m.dil1"
    save_model(path, model)
    good = path.read_bytes()
    name = "encoder.block1.bn1"
    state = model.states[name]
    var = state.running_var.copy()
    var[0] = 1e39
    state.set(state.running_mean, var)
    for over in ("warn", "raise"):
        with np.errstate(over=over), pytest.raises(
                NumericError, match=r"'bnstate\.%s\.var'" % name):
            save_model(path, model)
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["m.dil1"]


def test_load_rejects_unread_adapter_records(tmp_path):
    # a record for a block the decoder does not read is not this model's
    cfg = micro_run_config(encoder=FOUR_BLOCKS, decoder={"dense_sources": [4]})
    save_model(tmp_path / "m.dil1", build_model(cfg))
    records = load_checkpoint(tmp_path / "m.dil1")
    for l, c in ((1, 4), (2, 6), (3, 8), (5, 12)):
        name = "adapter.block%d.w" % l
        save_checkpoint(tmp_path / "extra.dil1", dict(
            records, **{name: np.ones((c, 12), dtype=np.float32)}))
        with pytest.raises(CheckpointError,
                           match="unexpected record '%s'" % name):
            load_model(tmp_path / "extra.dil1", cfg)


def test_eval_after_loading_another_checkpoint_matches_fresh_states(tmp_path):
    cfg = micro_run_config()
    clips = random_clips(cfg)
    paths = []
    for seed in (1, 2):  # two checkpoints with other running statistics
        model = build_model(cfg)
        rng = stream(seed, 0)
        for st in model.states.values():
            c = st.running_mean.size
            st.update(rng.normal(size=c), rng.uniform(0.5, 2.0, c))
        paths.append(tmp_path / ("m%d.dil1" % seed))
        save_model(str(paths[-1]), model)
    def embed(model):
        with no_grad():
            return forward_batch(model, clips, training=False)[1].data.tobytes()

    outputs = []
    for path in paths:
        model = load_model(str(path), cfg)
        got = embed(model)
        assert embed(model) == got  # from the constants the first call kept
        for name, st in model.states.items():
            model.states[name] = fresh_state(st)
        assert embed(model) == got
        outputs.append(got)
        del model
    assert outputs[0] != outputs[1]


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


def test_load_rejects_unread_interaction_attention_records(tmp_path):
    # only fusion "attention" has interaction attention weights
    for decoder in FUSIONS:
        cfg = micro_run_config(decoder=decoder)
        save_model(tmp_path / "m.dil1", build_model(cfg))
        records = load_checkpoint(tmp_path / "m.dil1")
        for w in DENSE_ATTENTION:
            name = "decoder.block1.dense." + w
            shape = (12, 12) if w.startswith("w") else (12,)
            save_checkpoint(tmp_path / "extra.dil1", dict(
                records, **{name: np.ones(shape, np.float32)}))
            with pytest.raises(CheckpointError,
                               match="unexpected record '%s'" % name):
                load_model(tmp_path / "extra.dil1", cfg)


def kernels(model):
    """The model's conv kernels, by name."""
    return {n: p for n, p in model.params.items() if p.data.ndim == 4}


def in_gemm_layout(w):
    """Whether kernel ``w`` [Cout, C, kh, kw] lies in [Cout, kh, kw, C]
    memory, the layout of conv's GEMM weight matrix."""
    return w.transpose(0, 2, 3, 1).flags.c_contiguous


def test_kernels_are_built_loaded_and_stepped_in_the_gemm_layout():
    for dtype in ("float32", "float64"):
        cfg = micro_run_config(dtype=dtype)
        built = build_model(cfg)
        for model in (built, load_model(GOLDEN / "final.dil1", cfg)):
            assert len(kernels(model)) == 4, dtype
            for name, w in kernels(model).items():
                assert in_gemm_layout(w.data) and not w.data.flags.c_contiguous, name
        opt = Adam(built.params)
        logits, embeddings, _ = forward_batch(built, random_clips(cfg, b=4),
                                              training=True)
        backward(total_loss(logits, embeddings, np.array([0, 0, 1, 1]),
                            1.0)[0])
        opt.step(1e-3)
        for name, w in kernels(built).items():
            assert w.grad.strides == w.data.strides, name
            assert opt.m[name].strides == opt.v[name].strides == w.data.strides, name
            assert in_gemm_layout(w.data), name


def _weight_matrix_bytes(model, clip):
    """A B=1 eval forward's embedding, and the bytes that conv's weight
    matrices hold on return under tracemalloc, one total per call."""
    code, starts, held = imageops.__file__, [], []

    def profile(frame, event, arg):
        if (frame.f_code.co_name != "weight_matrix"
                or frame.f_code.co_filename != code):
            return
        if event == "call":
            starts.append(tracemalloc.get_traced_memory()[0])
        elif event == "return":
            held.append(tracemalloc.get_traced_memory()[0] - starts.pop())

    tracemalloc.start()
    sys.setprofile(profile)
    try:
        with no_grad():
            emb = forward_batch(model, clip, training=False)[1].data
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    return emb, held


def test_an_eval_forward_copies_no_kernel():
    # A conv's peak memory mostly falls in its im2col, not at the GEMM, so
    # what is measured is what each weight matrix allocates. The same
    # weights in C-contiguous kernels cost one kernel copy per conv.
    cfg = run_config_from_dict({})
    model = build_model(cfg)
    for st in model.states.values():
        st.num_batches = 1  # unit running statistics
    clip = random_clips(cfg, b=1)
    emb, held = _weight_matrix_bytes(model, clip)
    nbytes = [w.data.nbytes for w in kernels(model).values()]
    for w in kernels(model).values():
        w.data = np.ascontiguousarray(w.data)
    emb_c, held_c = _weight_matrix_bytes(model, clip)
    assert np.array_equal(emb, emb_c)
    assert len(held) == len(held_c) == len(nbytes) == 8
    assert max(held) < 1024 < min(nbytes)
    assert sum(held_c) >= sum(nbytes)
