import numpy as np
import pytest

from denseil import tensor as tn
from denseil.data import (CorpusError, SynthConfig, Tracklet,
                          TrackletFormatError, generate_dataset, load_corpus,
                          pk_batches, read_tracklet, restricted_sample,
                          write_corpus, write_tracklet)
from denseil.encoder import EncoderConfig, encode_clip, init_encoder
from denseil.partition import ppool
from denseil.rng import stream


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
    params, states = init_encoder(cfg, 3, stream(0, 999))
    tokens = {}
    for name, tr in (("a", a), ("b", b)):
        clip = tn.Tensor(tr.frames.astype(np.float64))
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


def test_corpus_roundtrip(tmp_path):
    corpus = generate_dataset(SMALL)
    write_corpus(corpus, tmp_path / "corpus")
    back = load_corpus(tmp_path / "corpus")
    assert corpus_fingerprint(back) == corpus_fingerprint(corpus)
    manifest = (tmp_path / "corpus" / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "filename,identity,camera,split"
    assert len(manifest) == 1 + 16


def test_load_corpus_requires_manifest(tmp_path):
    with pytest.raises(TrackletFormatError):
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
