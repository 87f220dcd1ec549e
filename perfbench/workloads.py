"""The benchmark's workloads, driven through the library's public functions.

Each workload runs ``ROUNDS`` rounds as a closed loop with one client. A
round sets up from scratch (timed as set-up), then measures a fixed number of
operations: training steps inside ``harness.train_run``, or
``harness.evaluate_model`` passes followed by single-tracklet queries against
the indexed gallery. The counts are fixed rather than timed so that a slow
host phase does not shrink the samples. Every round uses the same seed, so
each must reproduce the others' arithmetic bit for bit.

The host's speed changes by up to 1.7x for seconds to minutes at a time, as
other tenants load the shared cores, and a whole run can fall in a slow
phase. So every timed stretch (a set-up, a step, a pass, a query) is
followed by a short reference burst that runs no denseil code, and its time
is also reported at the reference speed: wall time x ``REF_MS`` / the mean of
the bursts on either side of it. A change to the library moves the stretch
but not the bursts.

Training is not re-implemented here: step boundaries come from a hook on
``optim.Adam.step`` and the loss from a hook on ``harness.total_loss``; a
round ends by raising ``RoundDone`` from the step hook.
"""

import gc
import hashlib
import os
import shutil
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

from denseil import harness, metrics, optim
from denseil.config import load_run_config, run_config_from_dict, write_run_config
from denseil.data import Corpus, generate_dataset, load_corpus, write_corpus
from denseil.model import load_model, save_model

from tracing import Tracer

# run_seconds in BENCHMARK.json: the fixed counts below make one run measure
# about this long on a 2-core host with one BLAS thread.
RUN_SECONDS = 30
ROUNDS = 4             # set-ups per run; setup_s is their median
WARMUP_STEPS = 2       # training steps counted as set-up
TRAIN_STEPS = 25       # measured per round: 100 a run leave ten beyond p90
DIGEST_STEPS = 10      # steps covered by the loss and parameter digests
RETRIEVAL_IDS = 128    # identities in the retrieval corpus, 1 query + 1 gallery each
RETRIEVAL_TRAIN_IDS = 16  # identities the retrieval model is briefly trained on
RETRIEVAL_FRAMES = 16  # frames per retrieval tracklet
INDEX_PASSES = 2       # evaluate_model passes per round
QUERIES = 100          # single-tracklet queries per round
REF_MS = 3.5           # one reference burst in a quiet phase of a 2.0 GHz Xeon host


class RoundDone(Exception):
    """Raised from the step hook when a training round has measured enough."""


class Reference:
    """A fixed burst of numpy and Python work, independent of denseil.

    Its mix follows the library's: a BLAS matmul, strided copies as in
    im2col, and many small numpy calls made from Python, as in the autodiff
    graph. The garbage collector is held off during a burst, so a collection
    the library's garbage makes due falls in the library's time.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((128, 128))
        self.x = rng.standard_normal((8, 16, 34, 18))
        self.w = rng.standard_normal((8, 8))

    def burst(self):
        """Seconds one burst takes now."""
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self.a @ self.a
        cols = np.stack([self.x[:, :, i:i + 32, j:j + 16]
                         for i in range(3) for j in range(3)], axis=1)
        np.maximum(cols, 0.0).sum()
        y = self.w
        for _ in range(150):
            y = np.tanh(y @ self.w * 0.1 + 0.5)
        seconds = time.perf_counter() - t0
        if collecting:
            gc.enable()
        return seconds


@dataclass
class Round:
    """One round's figures; times without ``wall`` are at the reference speed."""
    setup_s: float = 0.0
    setup_wall_s: float = 0.0
    op_s: list = field(default_factory=list)         # measured ops, untraced
    op_wall_s: list = field(default_factory=list)
    traced_op_s: list = field(default_factory=list)  # measured ops, traced
    clips: int = 0                              # clips put through, measured
    clips_s: float = 0.0                        # time those clips took
    clips_wall_s: float = 0.0
    ref_s: list = field(default_factory=list)   # reference bursts, in order
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    setup_parts: dict = field(default_factory=dict)


@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    tracer: Tracer = field(default_factory=Tracer)
    reference: Reference = field(default_factory=Reference)
    rounds: list = field(default_factory=list)
    op_check: str = ""   # what every operation is checked for
    notes: list = field(default_factory=list)
    cfg: object = None
    clips_per_op: int = 0

    def begin(self, rnd):
        """The burst before a round's set-up."""
        rnd.ref_s.append(self.reference.burst())

    def at_reference(self, rnd, seconds):
        """``seconds`` of the stretch just ended, at the reference speed.

        Runs the burst after the stretch and scales by the mean of it and
        the burst before the stretch.
        """
        burst = self.reference.burst()
        speed = (rnd.ref_s[-1] + burst) / 2.0
        rnd.ref_s.append(burst)
        return seconds * REF_MS / 1000.0 / speed

    def file_op(self, rnd, seconds):
        """Keep one measured op's time; when tracing, flip it for the next op.

        Traced and untraced ops alternate, so the tracing overhead is read
        from neighbouring ops that ran under the same host load.
        """
        at_ref = self.at_reference(rnd, seconds)
        if not self.tracer.recording:
            rnd.op_s.append(at_ref)
            rnd.op_wall_s.append(seconds)
            if self.trace:
                self.tracer.start()
        else:
            rnd.traced_op_s.append(at_ref)
            self.tracer.stop()


def _sha(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def _param_digest(params):
    return _sha(*(name.encode() + params[name].data.tobytes()
                  for name in sorted(params)))


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# training


def training_config(seed, encoder_only):
    """The desk config ``{}`` with the workload seed, optionally with R=0."""
    obj = {"seed": seed, "data": {"seed": seed}}
    if encoder_only:
        obj["decoder"] = {"R": 0}
    return obj


def _train_round(run, cfg_obj, rnd):
    losses = []
    loss_bytes = []
    state = {"measuring": False, "resume": 0.0, "params": ""}
    diverged = False
    with ExitStack() as patches:
        if run.trace:
            run.tracer.install(patches)
        total_loss = harness.total_loss
        adam_step = optim.Adam.step

        def loss_hook(*args, **kwargs):
            out = total_loss(*args, **kwargs)
            losses.append(float(out[0].data))
            if len(loss_bytes) < DIGEST_STEPS:
                loss_bytes.append(out[0].data.tobytes())
            return out

        def step_hook(opt, lr):
            adam_step(opt, lr)
            end = time.perf_counter()
            n = len(losses)
            if state["measuring"]:
                run.file_op(rnd, end - state["resume"])
            if n == DIGEST_STEPS:
                state["params"] = _param_digest(opt.params)
            if n == WARMUP_STEPS:
                rnd.setup_wall_s = end - t0
                rnd.setup_s = run.at_reference(rnd, rnd.setup_wall_s)
                state["measuring"] = True
            elif n == WARMUP_STEPS + TRAIN_STEPS:
                raise RoundDone
            state["resume"] = time.perf_counter()

        patches.enter_context(mock.patch.object(harness, "total_loss",
                                                loss_hook))
        patches.enter_context(mock.patch.object(optim.Adam, "step",
                                                step_hook))
        try:
            run.begin(rnd)
            t0 = time.perf_counter()
            cfg = run_config_from_dict(cfg_obj)
            corpus, rnd.setup_parts["data.generate_s"] = _timed(
                generate_dataset, cfg.data)
            harness.train_run(cfg, corpus)
        except RoundDone:
            pass
        except harness.TrainingDiverged as err:
            diverged = True
            run.notes.append("training diverged: %s" % err)
        finally:
            if run.tracer.recording:
                run.tracer.stop()
    rnd.attempted += len(losses)
    # checked here as well, so the check does not rest on the code under test
    rnd.failed += sum(not np.isfinite(v) for v in losses) or diverged
    batch = cfg.sampling.k_ids * cfg.sampling.t_per_id
    rnd.clips = batch * len(rnd.op_s)
    rnd.clips_s = sum(rnd.op_s)
    rnd.clips_wall_s = sum(rnd.op_wall_s)
    rnd.digest = "loss %s, params %s, mean loss %r" % (
        _sha(*loss_bytes), state["params"],
        float(np.mean(losses[:DIGEST_STEPS])))
    run.cfg = cfg
    run.clips_per_op = batch


def run_training(run, encoder_only):
    run.op_check = "every training step has a finite loss"
    cfg_obj = training_config(run.seed, encoder_only)
    for index in range(ROUNDS):
        gc.collect()
        rnd = Round()
        run.rounds.append(rnd)
        _train_round(run, cfg_obj, rnd)


# ---------------------------------------------------------------------------
# retrieval


def retrieval_config(seed):
    return {"seed": seed, "epochs": 1,
            "data": {"seed": seed, "num_identities": RETRIEVAL_IDS,
                     "tracklets_per_identity": 3,
                     "frames_per_tracklet": RETRIEVAL_FRAMES}}


def _first_match(cmc):
    """0-based rank of the first true match, from a full-length CMC curve."""
    return int(np.count_nonzero(cmc == 0))


def _rows_in_range(rows):
    values = dict(rows)
    ranks = [values["R-%d" % k] for k in (1, 5, 10, 20)]
    return (values["skipped_queries"] == 0
            and 0.0 <= values["mAP"] <= 1.0
            and all(0.0 <= r <= 1.0 for r in ranks)
            and ranks == sorted(ranks))


def _retrieval_setup(run, rnd, workdir):
    """Train briefly, save, and reload model and corpus from disk."""
    parts = rnd.setup_parts
    cfg = run_config_from_dict(retrieval_config(run.seed))
    corpus, parts["data.generate_s"] = _timed(generate_dataset, cfg.data)
    few = set(range(RETRIEVAL_TRAIN_IDS))
    small = Corpus(*([tr for tr in split if tr.identity in few]
                     for _, split in corpus.splits()))
    trained, _ = harness.train_run(cfg, small)
    cfg_path = os.path.join(workdir, "config.json")
    ckpt = os.path.join(workdir, "final.dil1")
    corpus_dir = os.path.join(workdir, "corpus")
    write_run_config(cfg, cfg_path)
    _, save_s = _timed(save_model, ckpt, trained)
    parts["model.save_ms"] = save_s * 1000.0
    write_corpus(Corpus(query=corpus.query, gallery=corpus.gallery),
                 corpus_dir)
    del trained, corpus, small
    cfg = load_run_config(cfg_path)
    model, load_s = _timed(load_model, ckpt, cfg)
    parts["model.load_ms"] = load_s * 1000.0
    corpus, parts["data.corpus_load_s"] = _timed(load_corpus, corpus_dir)
    for tr in corpus.query[:2]:
        harness.embed_tracklet(model, cfg, tr)
    return cfg, model, corpus


def _index(cfg, model, corpus):
    """evaluate_model, keeping the distance table and gallery it ranked."""
    seen = {}
    distances = harness.pairwise_distances
    cmc_and_map = harness.cmc_and_map

    def keep_gallery(q, g):
        seen["gallery"] = g
        return distances(q, g)

    def keep_table(table, *args, **kwargs):
        seen["table"] = table
        return cmc_and_map(table, *args, **kwargs)

    with mock.patch.object(harness, "pairwise_distances", keep_gallery), \
            mock.patch.object(harness, "cmc_and_map", keep_table):
        rows, index_s = _timed(harness.evaluate_model, model, cfg, corpus)
    return rows, index_s, seen["table"], seen["gallery"]


def _retrieval_round(run, rnd, workdir):
    with ExitStack() as patches:
        if run.trace:
            run.tracer.install(patches)
        try:
            _retrieval_measure(run, rnd, workdir)
        finally:
            if run.tracer.recording:
                run.tracer.stop()


def _retrieval_measure(run, rnd, workdir):
    run.begin(rnd)
    t0 = time.perf_counter()
    cfg, model, corpus = _retrieval_setup(run, rnd, workdir)
    rnd.setup_wall_s = time.perf_counter() - t0
    rnd.setup_s = run.at_reference(rnd, rnd.setup_wall_s)

    indexes = []
    for _ in range(INDEX_PASSES):
        rows, index_s, table, gallery = _index(cfg, model, corpus)
        rnd.clips += len(corpus.query) + len(corpus.gallery)
        rnd.clips_s += run.at_reference(rnd, index_s)
        rnd.clips_wall_s += index_s
        rnd.attempted += 1
        indexes.append(_sha(np.ascontiguousarray(gallery).tobytes(),
                            table.dist.tobytes()))
        if not _rows_in_range(rows) or indexes[-1] != indexes[0]:
            rnd.failed += 1
            run.notes.append("eval pass %d: rows %r, index %s"
                             % (len(indexes) - 1, rows, indexes[-1]))
    rnd.digest = "index %s" % indexes[0]
    g_count = len(corpus.gallery)
    expected = [_first_match(metrics.cmc_and_map(metrics.EvalTable(
        table.dist[qi:qi + 1], table.q_ids[qi:qi + 1],
        table.q_cams[qi:qi + 1], table.g_ids, table.g_cams),
        max_rank=g_count)[0]) for qi in range(len(corpus.query))]

    order = np.random.default_rng(run.seed).permutation(len(corpus.query))
    for i in range(QUERIES):
        qi = order[i % len(order)]
        tr = corpus.query[qi]
        t = time.perf_counter()
        emb = harness.embed_tracklet(model, cfg, tr)
        dist = metrics.pairwise_distances(emb[None], gallery)
        cmc, _, skipped = metrics.cmc_and_map(
            metrics.EvalTable(dist, [tr.identity], [tr.camera],
                              table.g_ids, table.g_cams),
            max_rank=g_count)
        run.file_op(rnd, time.perf_counter() - t)
        rnd.attempted += 1
        if skipped or _first_match(cmc) != expected[qi]:
            rnd.failed += 1
    run.cfg = cfg
    run.clips_per_op = 1


def run_retrieval(run, root):
    run.op_check = ("evaluate_model rows are in range with no skipped "
                    "queries, and each query's first-match rank agrees "
                    "with evaluate_model's table")
    os.makedirs(root, exist_ok=True)
    try:
        for index in range(ROUNDS):
            gc.collect()
            rnd = Round()
            run.rounds.append(rnd)
            workdir = tempfile.mkdtemp(prefix="retrieval-", dir=root)
            try:
                _retrieval_round(run, rnd, workdir)
            finally:
                shutil.rmtree(workdir)
    finally:
        try:
            os.rmdir(root)
        except OSError:   # another run is still using it
            pass


WORKLOADS = {
    "train_desk": lambda run, root: run_training(run, encoder_only=False),
    "train_encoder_only": lambda run, root: run_training(run, encoder_only=True),
    "retrieval": run_retrieval,
}
