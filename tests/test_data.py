import dataclasses
import hashlib
import os
import struct
import sys

import numpy as np
import pytest

from denseil import data, tensor as tn
from denseil.data import (NUM_BANDS, Corpus, CorpusError, SynthConfig,
                          Tracklet, TrackletFormatError, _body_box,
                          _draw_figures, _glyph_size,
                          _render_tracklet, generate_dataset, load_corpus,
                          pk_batches, read_tracklet, restricted_sample,
                          write_corpus, write_tracklet)
from denseil.encoder import EncoderConfig, encode_clip
from denseil.model import draw_params, encoder_table
from denseil.partition import band_heights, ppool
from denseil.rng import stream
from oracles import nhwc, render_tracklet_ref, restricted_sample_ref


def index_tracklet(t_full):
    """Frames whose every pixel equals the frame index, for probing picks."""
    frames = np.arange(t_full, dtype=np.float32).reshape(t_full, 1, 1, 1)
    return Tracklet(np.broadcast_to(frames, (t_full, 1, 2, 2)).copy(), 0, 0, 0)


# ---------------------------------------------------------------- sampling

def test_restricted_sample_chunk_arithmetic():
    tr = index_tracklet(16)
    for seed in range(20):
        picks = restricted_sample(tr, 8, stream(seed, 0))[:, 0, 0, 0]
        assert picks.shape[0] == 8
        for k, i in enumerate(picks):
            assert i in (2 * k, 2 * k + 1)
        assert np.all(np.diff(picks) > 0)


def test_restricted_sample_all_frames_when_equal():
    tr = index_tracklet(8)
    picks = restricted_sample(tr, 8, stream(3, 0))[:, 0, 0, 0]
    assert np.array_equal(picks, np.arange(8))


def test_restricted_sample_single_chunk():
    tr = index_tracklet(12)
    seen = set()
    for seed in range(50):
        picks = restricted_sample(tr, 1, stream(seed, 0))[:, 0, 0, 0]
        assert picks.shape == (1,)
        assert 0 <= picks[0] < 12
        seen.add(int(picks[0]))
    assert len(seen) >= 4


def test_restricted_sample_uneven_chunks_stay_inside():
    tr = index_tracklet(13)
    bounds = [(0, 3), (3, 6), (6, 9), (9, 11), (11, 13)]
    for seed in range(20):
        picks = restricted_sample(tr, 5, stream(seed, 0))[:, 0, 0, 0]
        for (lo, hi), i in zip(bounds, picks):
            assert lo <= i < hi
        assert np.all(np.diff(picks) > 0)


@pytest.mark.parametrize("t_full, chunks", [(7, 3), (33, 8), (1000, 17)])
def test_restricted_sample_reads_its_stream_as_the_per_chunk_loop(t_full,
                                                                  chunks):
    tr = index_tracklet(t_full)
    for seed in range(20):
        got_rng, want_rng = stream(seed, 0), stream(seed, 0)
        got = restricted_sample(tr, chunks, got_rng)
        want = restricted_sample_ref(tr, chunks, want_rng)
        assert got.tobytes() == want.tobytes()
        # the next 32-bit and 64-bit draws: the stream is left as it was
        assert got_rng.integers(2 ** 32) == want_rng.integers(2 ** 32)
        assert got_rng.random() == want_rng.random()


def test_restricted_sample_too_few_frames():
    tr = index_tracklet(4)
    with pytest.raises(CorpusError):
        restricted_sample(tr, 5, stream(0, 0))


# ---------------------------------------------------------------- corpus

SMALL = SynthConfig(num_identities=4, tracklets_per_identity=4,
                    frames_per_tracklet=8, seed=11)


def corpus_fingerprint(corpus):
    out = []
    for split, tracklets in corpus.splits():
        for tr in tracklets:
            out.append((split, tr.identity, tr.camera, tr.tracklet_id,
                        tr.frames.tobytes()))
    return out


def test_corpus_bit_identical_for_same_seed():
    assert corpus_fingerprint(generate_dataset(SMALL)) == \
        corpus_fingerprint(generate_dataset(SMALL))


def test_corpus_changes_with_seed():
    a = generate_dataset(SMALL)
    b = generate_dataset(SynthConfig(num_identities=4,
                                     tracklets_per_identity=4,
                                     frames_per_tracklet=8, seed=12))
    assert a.train[0].frames.tobytes() != b.train[0].frames.tobytes()


def test_static_frames_without_jitter_or_occlusion():
    cfg = SynthConfig(num_identities=2, tracklets_per_identity=3,
                      frames_per_tracklet=6, occlusion_prob=0.0, jitter=0,
                      seed=5)
    corpus = generate_dataset(cfg)
    for _, tracklets in corpus.splits():
        for tr in tracklets:
            assert np.array_equal(tr.frames, np.broadcast_to(
                tr.frames[0], tr.frames.shape))


RENDER_CASES = {
    "desk defaults": {},
    "retrieval shape": dict(num_identities=8, tracklets_per_identity=3,
                            frames_per_tracklet=16),
    "no jitter": dict(jitter=0, frames_per_tracklet=8),
    "jitter wraps the height": dict(height=8, width=8, jitter=11),
    "never occluded": dict(occlusion_prob=0.0, frames_per_tracklet=8),
    "always occluded": dict(occlusion_prob=1.0, frames_per_tracklet=8),
    "half similar": dict(similarity=0.5, frames_per_tracklet=8),
    "odd height and width": dict(height=7, width=5, jitter=3, seed=9),
}


@pytest.mark.parametrize("overrides", RENDER_CASES.values(),
                         ids=list(RENDER_CASES))
def test_rendered_tracklets_match_the_frame_by_frame_oracle(overrides):
    cfg = SynthConfig(**overrides)
    gains, offsets, figures = _draw_figures(cfg)
    corpus = generate_dataset(cfg)
    count = 0
    for _, tracklets in corpus.splits():
        for tr in tracklets:
            rng = stream(cfg.seed, tr.identity * cfg.tracklets_per_identity
                         + tr.tracklet_id)
            want = render_tracklet_ref(
                cfg, figures[tr.identity],
                gains[tr.camera], offsets[tr.camera], rng)
            assert tr.frames.dtype == np.float32
            assert tr.frames.flags.c_contiguous
            assert tr.frames.shape == want.shape
            assert tr.frames.tobytes() == want.tobytes()
            count += 1
    assert count == cfg.num_identities * cfg.tracklets_per_identity


CORPUS_SHA256 = {
    "desk defaults":
        "f97bffcd3818b6ac0333e3bb3086a171393b845ee5a4520f7ce7ee38dc17c0c7",
    "retrieval shape":
        "527dbf32049fa1d3aeb33e0205df5d0d76d12d825f980b7579db6ac8248aab58",
    "no jitter":
        "d4bf0983a8dc785c9bffd46fb4a49f213e2044a70b094514a7b981e000915fdc",
    "jitter wraps the height":
        "1a17df33b8300bffb6199c5a29fb65c4506dbc762618648dfe0cc59517a6c698",
    "never occluded":
        "f4dc98701992e9089d763a504f27351eb183850fa782b55c4ff688de5ec59c2c",
    "always occluded":
        "651878cf4da0de7726d2805b796dcf38a10541834b6ad0992158bf9b463730a2",
    "half similar":
        "89288e8a98080abd7f9a2610d232bb44a0d808954f8f2ec3cd47b7907e1c084e",
    "odd height and width":
        "79b8ae68d7a5c9612e96f6a053ee82c0c0c3440a7e84942f4215a677bda95103",
}


def corpus_sha256(corpus):
    """sha256 over every tracklet in corpus order: its identity, camera
    and tracklet id as little-endian u32s, then its frame bytes."""
    h = hashlib.sha256()
    for _, tracklets in corpus.splits():
        for tr in tracklets:
            h.update(struct.pack("<3I", tr.identity, tr.camera,
                                 tr.tracklet_id))
            h.update(tr.frames.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(RENDER_CASES))
def test_rendered_corpus_bytes_are_pinned(name):
    corpus = generate_dataset(SynthConfig(**RENDER_CASES[name]))
    assert corpus_sha256(corpus) == CORPUS_SHA256[name]


@pytest.mark.parametrize("seed", [0, 3])
def test_rendering_is_prefix_stable_in_the_identity_count(seed):
    # the open split renders 16 + N identities and trains on the first 16
    def first(keep, n):
        corpus = generate_dataset(SynthConfig(num_identities=n, seed=seed))
        return [(split, tr.identity, tr.camera, tr.tracklet_id,
                 tr.frames.tobytes())
                for split, tracklets in corpus.splits()
                for tr in tracklets if tr.identity < keep]

    for n in (15, 17, 64):
        keep = min(n, 16)
        assert first(keep, n) == first(keep, 16), n


def test_rendering_lights_each_tracklet_once_and_never_rolls(monkeypatch):
    per_tracklet = []  # the numpy Python frames each render entered

    def profiled(*args):
        calls = []

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and "numpy" in code.co_filename:
                calls.append((os.path.basename(code.co_filename), code.co_name))

        sys.setprofile(profile)
        try:
            return _render_tracklet(*args)
        finally:
            sys.setprofile(None)
            per_tracklet.append(calls)

    monkeypatch.setattr("denseil.data._render_tracklet", profiled)
    corpus = generate_dataset(SMALL)
    assert len(per_tracklet) == sum(len(trs) for _, trs in corpus.splits())
    for calls in per_tracklet:
        assert ("numeric.py", "roll") not in calls
        assert calls.count(("_methods.py", "_clip")) <= 1  # every clip's path


def test_split_sizes_and_disjointness():
    corpus = generate_dataset(SMALL)
    assert len(corpus.train) == 4 * 2
    assert len(corpus.query) == 4
    assert len(corpus.gallery) == 4
    triples = set()
    for _, tracklets in corpus.splits():
        for tr in tracklets:
            triples.add((tr.identity, tr.camera, tr.tracklet_id))
    assert len(triples) == 4 * 4
    for q, g in zip(corpus.query, corpus.gallery):
        assert q.identity == g.identity
        assert q.camera != g.camera
    for _, tracklets in corpus.splits():
        for tr in tracklets:
            assert tr.frames.dtype == np.float32
            assert tr.frames.min() >= 0.0 and tr.frames.max() <= 1.0


def test_impossible_splits_rejected():
    with pytest.raises(CorpusError):
        generate_dataset(SynthConfig(num_identities=2,
                                     tracklets_per_identity=2))
    with pytest.raises(CorpusError):
        generate_dataset(SynthConfig(num_identities=2, cameras=1))


def test_bad_config_values_rejected():
    with pytest.raises(CorpusError):
        SynthConfig(occlusion_prob=1.5)
    with pytest.raises(CorpusError):
        SynthConfig(num_identities=0)
    with pytest.raises(CorpusError):
        SynthConfig(jitter=-1)


def test_corpus_size_limit_is_inclusive(monkeypatch):
    values = 16 * 4 * 32 * 3 * 32 * 16  # the desk corpus, 3.1M values
    monkeypatch.setattr("denseil.data.MAX_CORPUS_VALUES", values)
    SynthConfig()
    monkeypatch.setattr("denseil.data.MAX_CORPUS_VALUES", values - 1)
    with pytest.raises(CorpusError, match="3145728 pixel values, more than"):
        SynthConfig()


def test_every_accepted_frame_size_fits_bands_and_glyph():
    # the figure box needs a row per band; once it has them, the glyph
    # always fits its band and the body, at every height and width
    rejected = []
    for size in range(1, 2049):
        try:
            # one frame keeps a 2048 x 2048 corpus under MAX_CORPUS_VALUES
            cfg = SynthConfig(height=size, width=size, frames_per_tracklet=1)
        except CorpusError as err:
            assert "data.height=%d" % size in str(err)
            rejected.append(size)
            continue
        top, bot, left, right = _body_box(cfg)
        gh, gw = _glyph_size(cfg)
        assert min(band_heights(bot - top, NUM_BANDS)) >= gh
        assert right - left >= gw
    assert rejected == [1, 2, 3, 5]


def clean_pair():
    """One confusable pair, no nuisances, both observed by camera 1."""
    cfg = SynthConfig(num_identities=2, tracklets_per_identity=3,
                      frames_per_tracklet=4, occlusion_prob=0.0, jitter=0,
                      seed=7)
    corpus = generate_dataset(cfg)
    a = corpus.query[0]      # identity 0, tracklet 1, camera 1
    b = corpus.train[1]      # identity 1, tracklet 0, camera 1
    assert (a.identity, a.camera) == (0, 1)
    assert (b.identity, b.camera) == (1, 1)
    return a, b


def test_confusable_pair_differs_only_at_glyphs():
    a, b = clean_pair()
    diff = np.any(a.frames[0] != b.frames[0], axis=0)
    assert 0 < diff.sum() <= 8  # two 2x2 glyph sites


def test_lower_similarity_spreads_the_difference():
    cfg = SynthConfig(num_identities=2, tracklets_per_identity=3,
                      frames_per_tracklet=4, occlusion_prob=0.0, jitter=0,
                      similarity=0.3, seed=7)
    corpus = generate_dataset(cfg)
    a, b = corpus.query[0], corpus.train[1]
    diff = np.any(a.frames[0] != b.frames[0], axis=0)
    assert diff.sum() > 8


def test_coarse_pooling_hides_the_confusable_pair():
    a, b = clean_pair()
    cfg = EncoderConfig(channels=(8, 16))
    params, states = draw_params(encoder_table(cfg.channels), stream(0, 999))
    tokens = {}
    for name, tr in (("a", a), ("b", b)):
        clip = tn.Tensor(nhwc(tr.frames.astype(np.float64)))
        block = encode_clip(clip, cfg, params, states, training=True)[-1]
        tokens[name] = {p: ppool(block, p).data for p in (1, 4)}
    d1 = np.linalg.norm(tokens["a"][1] - tokens["b"][1])
    d4 = np.linalg.norm(tokens["a"][4] - tokens["b"][4])
    assert d1 < 0.75 * d4


# ---------------------------------------------------------------- file format

def test_tracklet_roundtrip_is_byte_identical(tmp_path):
    tr = generate_dataset(SMALL).train[3]
    p1, p2 = tmp_path / "a.dilt", tmp_path / "b.dilt"
    write_tracklet(p1, tr)
    back = read_tracklet(p1)
    assert (back.identity, back.camera, back.tracklet_id) == \
        (tr.identity, tr.camera, tr.tracklet_id)
    assert back.frames.dtype == np.float32
    assert np.array_equal(back.frames, tr.frames)
    write_tracklet(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_tracklet_rejects_bad_magic(tmp_path):
    p = tmp_path / "x.dilt"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(TrackletFormatError):
        read_tracklet(p)


def test_read_tracklet_rejects_truncation(tmp_path):
    tr = generate_dataset(SMALL).query[0]
    p = tmp_path / "x.dilt"
    write_tracklet(p, tr)
    blob = p.read_bytes()
    p.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(TrackletFormatError):
        read_tracklet(p)


def test_read_tracklet_rejects_unrepresentable_extents(tmp_path):
    p = tmp_path / "x.dilt"
    p.write_bytes(b"DILT" + struct.pack("<7I", 0, 0, 0, 0, *[2 ** 32 - 1] * 3))
    with pytest.raises(TrackletFormatError):
        read_tracklet(p)


def test_read_tracklet_rejects_non_finite_pixels(tmp_path):
    tr = generate_dataset(SMALL).query[0]
    p = tmp_path / "x.dilt"
    for bad in (np.nan, -np.inf):
        frames = tr.frames.copy()
        frames[1, 2, 3, 4] = bad
        write_tracklet(p, Tracklet(frames, tr.identity, tr.camera,
                                   tr.tracklet_id))
        with pytest.raises(TrackletFormatError, match="non-finite"):
            read_tracklet(p)


def test_read_tracklet_rejects_pixels_outside_unit_range(tmp_path):
    tr = generate_dataset(SMALL).query[0]
    p = tmp_path / "x.dilt"
    for bad in (1.5, 2.0 ** 100, -0.5):
        frames = tr.frames.copy()
        frames[1, 2, 3, 4] = bad
        write_tracklet(p, Tracklet(frames, tr.identity, tr.camera,
                                   tr.tracklet_id))
        with pytest.raises(TrackletFormatError, match=r"\[0, 1\]"):
            read_tracklet(p)
    frames = tr.frames.copy()
    frames[0, 0, 0, :2] = 0.0, 1.0  # both ends are in range
    write_tracklet(p, Tracklet(frames, tr.identity, tr.camera, tr.tracklet_id))
    assert np.array_equal(read_tracklet(p).frames, frames)


def test_corpus_roundtrip(tmp_path):
    corpus = generate_dataset(SMALL)
    write_corpus(corpus, tmp_path / "corpus")
    back = load_corpus(tmp_path / "corpus")
    assert corpus_fingerprint(back) == corpus_fingerprint(corpus)
    manifest = (tmp_path / "corpus" / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "filename,identity,camera,split"
    assert len(manifest) == 1 + 16


def test_corpus_roundtrip_keeps_generation_order_past_100_tracklets(
        tmp_path):
    # by filename, id000_t100 would sort between id000_t10 and id000_t11
    t = 104
    corpus = Corpus()
    for identity in range(2):
        for j in range(t):
            split = (corpus.train if j < t - 2
                     else corpus.query if j == t - 2 else corpus.gallery)
            split.append(Tracklet(np.zeros((1, 3, 8, 8), np.float32),
                                  identity, (identity + j) % 3, j))
    write_corpus(corpus, tmp_path)
    back = load_corpus(tmp_path)
    for (_, want), (_, got) in zip(corpus.splits(), back.splits()):
        assert ([(tr.identity, tr.tracklet_id) for tr in got]
                == [(tr.identity, tr.tracklet_id) for tr in want])


def test_write_corpus_refuses_two_tracklets_with_one_file_name(tmp_path):
    # the gallery's ones would overwrite the query's zeros, and the loaded
    # corpus would hold the ones twice
    zeros = np.zeros((1, 3, 8, 8), np.float32)
    corpus = Corpus(query=[Tracklet(zeros, 2, 1, 5)],
                    gallery=[Tracklet(zeros + 1, 2, 1, 5)])
    with pytest.raises(TrackletFormatError, match="id002_t05_cam1.dilt"):
        write_corpus(corpus, tmp_path / "corpus")
    assert not (tmp_path / "corpus").exists()


def test_a_failed_corpus_rewrite_leaves_the_previous_corpus_whole(
        tmp_path, monkeypatch):
    # a rewrite that stops at its 6th tracklet must not leave five new
    # tracklets under the old manifest, which loads as a mix of the two
    old = generate_dataset(SMALL)
    write_corpus(old, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    new = generate_dataset(dataclasses.replace(SMALL, seed=12))
    calls = []

    def failing(path, tracklet):
        calls.append(path)
        if len(calls) == 6:
            raise OSError("no space left on device")
        write_tracklet(path, tracklet)

    monkeypatch.setattr(data, "write_tracklet", failing)
    with pytest.raises(OSError, match="no space"):
        write_corpus(new, tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert corpus_fingerprint(load_corpus(tmp_path)) == corpus_fingerprint(old)
    assert corpus_fingerprint(new) != corpus_fingerprint(old)


def test_load_corpus_requires_manifest(tmp_path):
    with pytest.raises(TrackletFormatError):
        load_corpus(tmp_path)


@pytest.mark.parametrize("text", [
    b"\xff\xfe\x00garbage",                                  # not text
    b"filename,camera,split\nid000_t00_cam0.dilt,0,train\n",  # no identity
    b"filename,identity,camera,split\nid000_t00_cam0.dilt\n",  # short row
], ids=["not-text", "no-identity-column", "short-row"])
def test_load_corpus_rejects_malformed_manifest(tmp_path, text):
    write_corpus(generate_dataset(SMALL), tmp_path)
    (tmp_path / "manifest.csv").write_bytes(text)
    with pytest.raises(TrackletFormatError):
        load_corpus(tmp_path)


def test_load_corpus_rejects_a_tracklet_listed_twice(tmp_path):
    # the repeated gallery row would give evaluation one entry twice
    write_corpus(generate_dataset(SMALL), tmp_path)
    manifest = tmp_path / "manifest.csv"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines + lines[-1:]) + "\n")
    with pytest.raises(TrackletFormatError,
                       match=r"manifest.csv, row %d: a second tracklet"
                       % len(lines)):
        load_corpus(tmp_path)


@pytest.mark.parametrize("identity, tracklet_id, loads", [
    (0, 1023, True), (0, 1024, False),
    ((1 << 22) - 1, 0, True), (1 << 22, 0, False),
])
def test_load_corpus_keeps_eval_streams_apart(tmp_path, identity,
                                              tracklet_id, loads):
    # eval streams are EVAL_STREAM + identity * 1024 + tracklet id, so a
    # larger id would reach a neighbour's stream or the appearance stream
    frames = np.zeros((1, 3, 8, 8), np.float32)
    write_corpus(Corpus(query=[Tracklet(frames, identity, 0, tracklet_id)],
                        gallery=[Tracklet(frames, 1, 1, 0)]), tmp_path)
    if loads:
        assert load_corpus(tmp_path).query[0].tracklet_id == tracklet_id
    else:
        with pytest.raises(TrackletFormatError,
                           match="evaluation streams could collide"):
            load_corpus(tmp_path)


# ---------------------------------------------------------------- batching

def train_split():
    return generate_dataset(SynthConfig(num_identities=6,
                                        tracklets_per_identity=4,
                                        frames_per_tracklet=4,
                                        seed=3)).train


def test_pk_batches_layout():
    batches = list(pk_batches(train_split(), 2, 2, stream(0, 42)))
    assert len(batches) == 3
    covered = set()
    for batch in batches:
        assert len(batch) == 4
        ids = [tr.identity for tr in batch]
        assert len(set(ids)) == 2
        for identity in set(ids):
            assert ids.count(identity) == 2
        covered.update(ids)
    assert covered == set(range(6))


def test_pk_batches_deterministic():
    def fingerprint(seed):
        return [[(tr.identity, tr.tracklet_id) for tr in batch]
                for batch in pk_batches(train_split(), 2, 2, stream(seed, 0))]
    assert fingerprint(5) == fingerprint(5)
    assert fingerprint(5) != fingerprint(6)


def test_pk_batches_tops_up_short_final_group():
    data = [tr for tr in train_split() if tr.identity < 5]
    batches = list(pk_batches(data, 2, 2, stream(1, 0)))
    assert len(batches) == 3
    for batch in batches:
        assert len({tr.identity for tr in batch}) == 2
    assert {tr.identity for b in batches for tr in b} == set(range(5))


def test_pk_batches_samples_with_replacement_when_short():
    batch = next(pk_batches(train_split(), 2, 5, stream(2, 0)))
    assert len(batch) == 10
    ids = [tr.identity for tr in batch]
    for identity in set(ids):
        assert ids.count(identity) == 5  # only 2 tracklets per id available


def test_pk_batches_single_identity_passes_through():
    data = [tr for tr in train_split() if tr.identity == 0]
    batch = next(pk_batches(data, 1, 2, stream(0, 0)))
    assert len(batch) == 2
    assert {tr.identity for tr in batch} == {0}


def test_pk_batches_k_exceeds_identities():
    with pytest.raises(CorpusError):
        next(pk_batches(train_split(), 7, 2, stream(0, 0)))
