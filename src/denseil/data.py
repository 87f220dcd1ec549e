"""Synthetic video-identity corpus, on-disk tracklet format, and samplers.

Each identity is a parametric figure: a stack of colored body bands plus a
small glyph on one band. Identities come in confusable pairs that share band
colors and differ only in the glyph, so coarse pooling cannot tell them
apart. Tracklets render the identity with per-frame vertical jitter, a
camera-specific color shift, and gray occlusion bars on a random subset of
frames.
"""

import csv
import os
import struct
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .checkpoint import replacing
from .partition import band_heights
from .rng import APPEARANCE_STREAM, EVAL_IDENTITIES, TRACKLET_STRIDE, stream

CHANNELS = 3  # the renderer draws RGB frames
NUM_BANDS = 4
BODY_TOP_FRAC = 0.125
BODY_BOT_FRAC = 0.875
BODY_LEFT_FRAC = 0.25
BODY_RIGHT_FRAC = 0.75
BACKGROUND = 0.15
OCCLUDER_GRAY_LO = 0.1
OCCLUDER_GRAY_HI = 0.9
CAMERA_GAIN_LO = 0.85
CAMERA_GAIN_HI = 1.15
CAMERA_OFFSET = 0.05
GLYPH_DELTA = 0.6  # glyph brightness offset against its band, per channel

MAX_CORPUS_VALUES = 10 ** 9  # the most pixel values a config's corpus may hold

TRACKLET_MAGIC = b"DILT"
_HEADER = struct.Struct("<7I")


class CorpusError(ValueError):
    """Config or sampling request the corpus cannot satisfy."""


class TrackletFormatError(IOError):
    """Tracklet file is not valid."""


@dataclass(frozen=True)
class SynthConfig:
    num_identities: int = 16
    tracklets_per_identity: int = 4
    cameras: int = 3
    frames_per_tracklet: int = 32
    height: int = 32
    width: int = 16
    occlusion_prob: float = 0.3
    similarity: float = 1.0
    jitter: int = 2
    seed: int = 0

    def __post_init__(self):
        for name in ("num_identities", "tracklets_per_identity", "cameras",
                     "frames_per_tracklet", "height", "width"):
            if getattr(self, name) < 1:
                raise CorpusError("%s must be positive" % name)
        if not 0.0 <= self.occlusion_prob <= 1.0:
            raise CorpusError("occlusion_prob must lie in [0, 1]")
        if not 0.0 <= self.similarity <= 1.0:
            raise CorpusError("similarity must lie in [0, 1]")
        if self.jitter < 0:
            raise CorpusError("jitter must be nonnegative")
        if self.tracklets_per_identity < 3:
            raise CorpusError("need at least 3 tracklets per identity "
                              "(train + query + gallery)")
        if self.cameras < 2:
            raise CorpusError("query and gallery must span different cameras, "
                              "need at least 2")
        top, bot, _, _ = _body_box(self)
        if bot - top < NUM_BANDS:
            raise CorpusError("data.height=%d leaves %d figure rows for %d "
                              "body bands" % (self.height, bot - top, NUM_BANDS))
        values = (self.num_identities * self.tracklets_per_identity
                  * self.frames_per_tracklet * CHANNELS * self.height
                  * self.width)
        if values > MAX_CORPUS_VALUES:
            raise CorpusError("the corpus would hold %d pixel values, more "
                              "than the limit of %d"
                              % (values, MAX_CORPUS_VALUES))
        collide = "evaluation streams would collide"  # each its own, rng.py
        for name, most, why in (
                ("tracklets_per_identity", TRACKLET_STRIDE, collide),
                ("num_identities", EVAL_IDENTITIES, collide),
                ("cameras", MAX_CORPUS_VALUES // (2 * CHANNELS),
                 "its gain and offset tables pass the corpus limit"),
                ("jitter", 2 ** 63 - self.height,  # rows - shift, in int64
                 "a frame's shifted rows overflow int64")):
            if getattr(self, name) > most:
                raise CorpusError("%s=%d is more than %d, so %s"
                                  % (name, getattr(self, name), most, why))


@dataclass
class Tracklet:
    frames: np.ndarray  # [T_full, C, H, W] float32 in [0, 1]
    identity: int
    camera: int
    tracklet_id: int


@dataclass
class Corpus:
    train: list = field(default_factory=list)
    query: list = field(default_factory=list)
    gallery: list = field(default_factory=list)

    def splits(self):
        return (("train", self.train), ("query", self.query),
                ("gallery", self.gallery))


def _glyph_size(cfg):
    return max(1, cfg.height // 16), max(1, cfg.width // 8)


def _body_box(cfg):
    top = round(cfg.height * BODY_TOP_FRAC)
    bot = round(cfg.height * BODY_BOT_FRAC)
    left = round(cfg.width * BODY_LEFT_FRAC)
    right = round(cfg.width * BODY_RIGHT_FRAC)
    return top, bot, left, right


def _draw_figures(cfg):
    """Camera color shifts plus one static [3, H, W] figure per identity,
    float64 in [0, 1].

    Confusable pairing: identities (2k, 2k+1) share band colors up to a
    perturbation scaled by (1 - similarity); their glyphs always sit on
    different bands. Each figure is painted once its glyph is placed, and
    painting draws nothing, so identity i's draws follow those of 0..i-1.
    """
    rng = stream(cfg.seed, APPEARANCE_STREAM)
    gains = rng.uniform(CAMERA_GAIN_LO, CAMERA_GAIN_HI, (cfg.cameras, CHANNELS))
    offsets = rng.uniform(-CAMERA_OFFSET, CAMERA_OFFSET, (cfg.cameras, CHANNELS))

    top, bot, left, right = _body_box(cfg)
    heights = band_heights(bot - top, NUM_BANDS)
    band_tops = top + np.cumsum(heights) - heights
    gh, gw = _glyph_size(cfg)

    figures = []
    for pair in range((cfg.num_identities + 1) // 2):
        colors = rng.uniform(0.2, 0.9, (NUM_BANDS, CHANNELS))
        pert = rng.uniform(-0.3, 0.3, (NUM_BANDS, CHANNELS))
        twin = np.clip(colors + (1.0 - cfg.similarity) * pert, 0.0, 1.0)
        band_a = int(rng.integers(NUM_BANDS))
        band_b = (band_a + 1 + int(rng.integers(NUM_BANDS - 1))) % NUM_BANDS
        for colors_m, band in ((colors, band_a), (twin, band_b)):
            if len(figures) == cfg.num_identities:
                break
            r0 = band_tops[band] + int(rng.integers(heights[band] - gh + 1))
            c0 = left + int(rng.integers(right - left - gw + 1))
            img = np.full((CHANNELS, cfg.height, cfg.width), BACKGROUND)
            img[:, top:bot, left:right] = np.repeat(
                colors_m.T, heights, axis=1)[:, :, None]
            base = colors_m[band]
            img[:, r0:r0 + gh, c0:c0 + gw] = np.clip(
                np.where(base < 0.5, base + GLYPH_DELTA, base - GLYPH_DELTA),
                0.0, 1.0)[:, None, None]
            figures.append(img)
    return gains, offsets, figures


def _render_tracklet(cfg, base, gain, offset, rng):
    """[T, 3, H, W] float32 frames of ``base`` under a camera color shift.

    Only the draws run per frame: the figure is lit and clipped once, each
    frame is one row gather from it (its jitter, as np.roll), then gray bars
    go in, their level already inside [0, 1].
    """
    hi = cfg.height
    bar_lo = -(-hi // 4)  # ceil(0.25 H)
    bar_hi = hi // 2
    shifts = np.empty(cfg.frames_per_tracklet, dtype=np.intp)
    bars = []
    for i in range(cfg.frames_per_tracklet):
        shifts[i] = rng.integers(-cfg.jitter, cfg.jitter + 1)
        if rng.random() < cfg.occlusion_prob:
            bar = int(rng.integers(bar_lo, bar_hi + 1))
            bar_top = int(rng.integers(0, hi - bar + 1))
            # gray level varies per bar so occlusion perturbs pooled
            # features instead of shifting every clip the same way
            gray = float(rng.uniform(OCCLUDER_GRAY_LO, OCCLUDER_GRAY_HI))
            bars.append((i, bar_top, bar, gray))
    lit = np.clip(base * gain[:, None, None] + offset[:, None, None],
                  0.0, 1.0).astype(np.float32)
    rows = (np.arange(hi) - shifts[:, None]) % hi  # np.roll's rule, [T, H]
    frames = lit[np.arange(CHANNELS)[:, None], rows[:, None, :]]
    for i, bar_top, bar, gray in bars:
        frames[i, :, bar_top:bar_top + bar, :] = gray
    return frames


def generate_dataset(cfg: SynthConfig) -> Corpus:
    """Render the corpus and split it into train/query/gallery.

    Per identity: tracklets 0..T-3 train, T-2 query, T-1 gallery, with
    tracklet j shot by camera (identity + j) % cameras so each query's true
    gallery match sits on a different camera.
    """
    gains, offsets, figures = _draw_figures(cfg)
    corpus = Corpus()
    t = cfg.tracklets_per_identity
    for identity, base in enumerate(figures):
        for j in range(t):
            cam = (identity + j) % cfg.cameras
            rng = stream(cfg.seed, identity * t + j)
            frames = _render_tracklet(cfg, base, gains[cam], offsets[cam], rng)
            tr = Tracklet(frames, identity, cam, j)
            if j < t - 2:
                corpus.train.append(tr)
            elif j == t - 2:
                corpus.query.append(tr)
            else:
                corpus.gallery.append(tr)
    return corpus


def restricted_sample(tracklet: Tracklet, chunks: int, rng) -> np.ndarray:
    """Split the tracklet into `chunks` contiguous equal-as-possible
    segments and draw one frame uniformly from each, preserving order."""
    t_full = tracklet.frames.shape[0]
    if t_full < chunks:
        raise CorpusError(
            "tracklet has %d frames, cannot cut %d chunks" % (t_full, chunks))
    heights = band_heights(t_full, chunks)
    starts = [0, *accumulate(heights[:-1])]
    return tracklet.frames[starts + rng.integers(heights)]


def pk_batches(tracklets, k_ids: int, t_per_id: int, rng):
    """Yield one epoch of identity-grouped batches.

    Each batch holds k_ids distinct identities with t_per_id tracklets each
    (drawn with replacement when an identity has fewer). Every identity
    appears in at least one batch per epoch; a short final group is topped
    up with extra identities.
    """
    by_id = {}
    for tr in tracklets:
        by_id.setdefault(tr.identity, []).append(tr)
    ids = sorted(by_id)
    if k_ids > len(ids):
        raise CorpusError(
            "asked for %d identities per batch, corpus has %d"
            % (k_ids, len(ids)))
    order = [ids[i] for i in rng.permutation(len(ids))]
    for lo in range(0, len(order), k_ids):
        group = order[lo:lo + k_ids]
        if len(group) < k_ids:
            rest = [i for i in order if i not in group]
            extra = rng.choice(len(rest), k_ids - len(group), replace=False)
            group = group + [rest[e] for e in sorted(extra)]
        batch = []
        for identity in group:
            pool = by_id[identity]
            replace = len(pool) < t_per_id
            for p in rng.choice(len(pool), t_per_id, replace=replace):
                batch.append(pool[p])
        yield batch


def write_tracklet(path, tracklet: Tracklet):
    frames = np.asarray(tracklet.frames, dtype="<f4")
    if frames.ndim != 4:
        raise TrackletFormatError("frames must be [T, C, H, W]")
    with open(path, "wb") as f:
        f.write(TRACKLET_MAGIC)
        f.write(_HEADER.pack(tracklet.identity, tracklet.camera,
                             tracklet.tracklet_id, *frames.shape))
        f.write(frames.tobytes())


def read_tracklet(path) -> Tracklet:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != TRACKLET_MAGIC:
        raise TrackletFormatError("%s: bad magic" % path)
    if len(blob) < 4 + _HEADER.size:
        raise TrackletFormatError("%s: truncated header" % path)
    identity, camera, tracklet_id, t, c, h, w = _HEADER.unpack_from(blob, 4)
    if tracklet_id >= TRACKLET_STRIDE or identity >= EVAL_IDENTITIES:
        raise TrackletFormatError(
            "%s: identity %d and tracklet id %d must be below %d and %d, "
            "or evaluation streams could collide"
            % (path, identity, tracklet_id, EVAL_IDENTITIES, TRACKLET_STRIDE))
    body = blob[4 + _HEADER.size:]
    want = t * c * h * w * 4
    if len(body) != want:
        raise TrackletFormatError(
            "%s: expected %d payload bytes, found %d" % (path, want, len(body)))
    try:
        frames = np.frombuffer(body, dtype="<f4").reshape(t, c, h, w)
    except ValueError as err:  # extents numpy cannot represent
        raise TrackletFormatError("%s: %s" % (path, err))
    if frames.size and not (frames.min() >= 0 and frames.max() <= 1):
        raise TrackletFormatError("%s: non-finite pixel values or pixels "
                                  "outside [0, 1]" % path)
    return Tracklet(frames.copy(), identity, camera, tracklet_id)


def write_corpus(corpus: Corpus, outdir):
    """Write every tracklet plus a manifest.csv (filename, identity,
    camera, split) whose rows keep the corpus order, so a loaded corpus
    enumerates tracklets exactly like a fresh one. Two tracklets that
    would share a file name raise TrackletFormatError before any write.
    Every file is written beside its path and renamed into place once all
    are written, the manifest last, so a write that fails before the
    renames leaves the directory's previous corpus whole."""
    files, rows = {}, []
    for split, tracklets in corpus.splits():
        for tr in tracklets:
            name = "id%03d_t%02d_cam%d.dilt" % (tr.identity, tr.tracklet_id,
                                                tr.camera)
            if name in files:
                raise TrackletFormatError(
                    "%s: two tracklets share identity, tracklet id and camera" % name)
            files[name] = tr
            rows.append((name, tr.identity, tr.camera, split))
    os.makedirs(outdir, exist_ok=True)
    paths = [os.path.join(outdir, name) for name in [*files, "manifest.csv"]]
    with replacing(paths) as tmps:
        for tmp, tr in zip(tmps, files.values()):
            write_tracklet(tmp, tr)
        with open(tmps[-1], "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(("filename", "identity", "camera", "split"))
            w.writerows(rows)


def load_corpus(indir) -> Corpus:
    """Read a corpus written by ``write_corpus``; a malformed manifest or
    tracklet raises TrackletFormatError."""
    manifest = os.path.join(indir, "manifest.csv")
    if not os.path.exists(manifest):
        raise TrackletFormatError("%s: no manifest.csv" % indir)
    try:
        with open(manifest, newline="") as f:
            reader = csv.DictReader(f)
            rows = list(reader)
    except (UnicodeDecodeError, csv.Error) as err:
        raise TrackletFormatError("%s: not a CSV manifest (%s)" % (manifest, err))
    for column in ("filename", "identity", "camera", "split"):
        if column not in (reader.fieldnames or ()):
            raise TrackletFormatError("%s: no %s column" % (manifest, column))
    corpus, seen = Corpus(), set()
    for number, row in enumerate(rows, start=1):
        try:
            path = os.path.join(indir, row["filename"])
            if "\0" in row["filename"]:  # open() would raise ValueError
                raise ValueError("filename holds a NUL byte")
            identity, camera = int(row["identity"]), int(row["camera"])
            split = row["split"]
        except (TypeError, ValueError) as err:
            raise TrackletFormatError("%s, row %d: missing or malformed "
                                      "field: %s" % (manifest, number, err))
        tr = read_tracklet(path)
        if tr.identity != identity or tr.camera != camera:
            raise TrackletFormatError(
                "%s: header disagrees with manifest" % row["filename"])
        if split not in ("train", "query", "gallery"):
            raise TrackletFormatError("unknown split %r" % split)
        key = tr.identity, tr.tracklet_id, tr.camera
        if key in seen:  # the rule write_corpus keeps by file name
            raise TrackletFormatError(
                "%s, row %d: a second tracklet with identity %d, tracklet "
                "id %d and camera %d" % ((manifest, number) + key))
        seen.add(key)
        getattr(corpus, split).append(tr)
    return corpus
