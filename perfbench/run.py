"""Benchmark for denseil: training and retrieval, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload train_desk --seed 0
    python3 perfbench/run.py --workload all --trace 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. ``--workload all`` runs every workload in its own process.
``--seconds`` is part of the benchmark's calling convention and takes only
``workloads.RUN_SECONDS``: each run measures a fixed amount of work sized to
that length. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys

# Pin BLAS exactly as the denseil CLI does, before numpy is first imported:
# results taken under a different thread setting are not comparable.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import statistics
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

END_TO_END = {   # name -> unit; the names every workload reports
    "setup_s": "s",
    "clips_per_s": "clips/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# What op_* and clips_per_s stand for on each kind of workload.
READABLE = {
    "train": {"clips_per_s": "train_clips_per_s",
              "op_ms_p50": "train_step_ms_p50",
              "op_ms_p90": "train_step_ms_p90"},
    "retrieval": {"clips_per_s": "embed_clips_per_s",
                  "op_ms_p50": "query_ms_p50",
                  "op_ms_p90": "query_ms_p90"},
}


def import_library():
    """Import denseil from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "denseil", "__init__.py")):
        raise ImportError("no denseil package under %s" % SRC)
    sys.path.insert(0, SRC)
    import denseil
    if os.path.dirname(os.path.dirname(os.path.abspath(denseil.__file__))) != SRC:
        raise ImportError("denseil imported from %s, not %s"
                          % (denseil.__file__, SRC))


def machine():
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy before 1.26 only prints it
        blas = {}
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s (%s)" % (blas.get("name"), blas.get("version"),
                                " ".join(str(blas.get("openblas configuration",
                                                      "")).split())),
        "threads": {var: os.environ[var] for var in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
    }


def summarize(run):
    """End-to-end metrics from the untraced ops, plus readable lines.

    Times are at the reference speed (see ``workloads``); each readable
    line gives the wall-clock figure beside it.
    """
    import numpy as np
    from workloads import REF_MS

    kind = "retrieval" if run.workload == "retrieval" else "train"
    rounds = run.rounds
    clips = sum(r.clips for r in rounds)

    def figures(setup, ops, clips_s):
        ops = [t for r in rounds for t in ops(r)]
        return {
            "setup_s": statistics.median(setup(r) for r in rounds),
            "clips_per_s": clips / sum(clips_s(r) for r in rounds),
            "op_ms_p50": float(np.percentile(ops, 50)) * 1000.0,
            "op_ms_p90": float(np.percentile(ops, 90)) * 1000.0,
        }

    values = figures(lambda r: r.setup_s, lambda r: r.op_s,
                     lambda r: r.clips_s)
    wall = figures(lambda r: r.setup_wall_s, lambda r: r.op_wall_s,
                   lambda r: r.clips_wall_s)
    values["peak_rss_mb"] = wall["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = sum(len(r.op_s) for r in rounds)
    what = {
        "setup_s": "median of %d set-ups" % len(rounds),
        "clips_per_s": "%d clips in %d rounds" % (clips, len(rounds)),
        "op_ms_p50": "n=%d" % ops,
        "op_ms_p90": "n=%d" % ops,
        "peak_rss_mb": "whole process",
    }
    bursts = [t for r in rounds for t in r.ref_s]
    lines = ["host reference burst: median %.3f ms over %d bursts, %.3f ms "
             "at the reference speed; times below are at the reference "
             "speed, wall clock in brackets"
             % (statistics.median(bursts) * 1000.0, len(bursts), REF_MS)]
    for name, unit in END_TO_END.items():
        label = READABLE[kind].get(name, name)
        lines.append("metric %-20s %12.4f %-8s %s (%s; wall %.4f)"
                     % (label, values[name], unit, name, what[name],
                        wall[name]))
    return values, lines


def layer_summary(run):
    """Per-layer metrics from the traced ops, and the layer table."""
    from denseil.harness import decoder_flops
    from workloads import ROUNDS

    tr = run.tracer
    traced = [t for r in run.rounds for t in r.traced_op_s]
    ops = len(traced)
    layers = tr.layer_metrics(ops)
    cfg = run.cfg
    clips = run.clips_per_op
    est = decoder_flops(cfg)
    d, ids = cfg.decoder.d, cfg.data.num_identities
    expected = clips * (est["total"] + est["adapters"]) + clips * d * ids
    if run.workload != "retrieval" and cfg.loss.triplet_weight > 0:
        expected += clips * d * clips   # the Gram matrix of the triplet loss
    layers["flops.decoder_macs_analytic"] = clips * est["total"]
    layers["flops.adapter_macs_analytic"] = clips * est["adapters"]
    layers["flops.matmul_macs_unexplained"] = (layers["tensor.matmul_macs"]
                                               - expected)
    for part in ("data.generate_s", "data.corpus_load_s", "model.save_ms",
                 "model.load_ms"):
        layers[part] = statistics.median(
            r.setup_parts.get(part, 0.0) for r in run.rounds)
    layers["host.ref_burst_ms"] = statistics.median(
        t for r in run.rounds for t in r.ref_s) * 1000.0
    plain = [t for r in run.rounds for t in r.op_s]
    layers["trace.op_ms_untraced"] = statistics.median(plain) * 1000.0
    layers["trace.op_ms_traced"] = statistics.median(traced) * 1000.0
    # each traced op against the untraced op just before it
    layers["trace.recording_overhead_frac"] = statistics.median(
        t / u for r in run.rounds for u, t in zip(r.op_s, r.traced_op_s)) - 1.0

    g = layers.get
    unit, units = (("query", "queries") if run.workload == "retrieval"
                   else ("step", "steps"))
    table = [
        ("encoder forward", g("encoder.fwd_ms")),
        ("slice, pooling and adapters", g("partition.fwd_ms")
         + g("posemb.ms") + g("model.plumbing_fwd_ms")),
        ("decoder forward", g("decoder.fwd_ms")),
        ("head and loss", g("decoder.head_ms") + g("losses.ms")),
        ("backward (all layers)", g("tensor.backward_total_ms")),
        ("  encoder", g("encoder.bwd_ms")),
        ("    of which conv2d", g("imageops.conv2d_bwd_ms")),
        ("  slice, pooling and adapters",
         g("partition.bwd_ms") + g("model.plumbing_bwd_ms")),
        ("  decoder", g("decoder.bwd_ms")),
        ("  head and loss", g("decoder.head_bwd_ms") + g("losses.bwd_ms")),
        ("  engine (self time)", g("tensor.backward_ms")),
        ("Adam", g("optim.adam_ms")),
        ("data sampling", g("data.sample_ms")),
        ("embed tracklet", g("harness.embed_ms")),
        ("distances and ranking", g("metrics.rank_ms")),
    ]
    lines = ["layer table: ms per %s over %d traced %s in %d rounds"
             % (unit, ops, units, ROUNDS)]
    lines += ["  %-32s %10.2f" % row for row in table]
    lines.append("  %-32s %10.1f" % ("graph nodes per " + unit,
                                     g("tensor.nodes_per_step")))
    lines.append("  matmul MACs per %s: measured %d, analytic %d "
                 "(decoder %d + adapters %d + head%s)"
                 % (unit, g("tensor.matmul_macs"), expected,
                    g("flops.decoder_macs_analytic"),
                    g("flops.adapter_macs_analytic"),
                    "" if run.workload == "retrieval" else " + loss"))
    lines.append("  conv MACs per %s (from shapes): %d"
                 % (unit, g("imageops.conv_macs")))
    lines.append("  recording overhead over idle wrappers: %.4f, median over "
                 "neighbouring ops (p50 %s %.2f ms traced, %.2f ms untraced)"
                 % (g("trace.recording_overhead_frac"), unit,
                    g("trace.op_ms_traced"), g("trace.op_ms_untraced")))
    return layers, lines


def run_one(args):
    from workloads import WORKLOADS, Run

    run = Run(args.workload, args.seed, bool(args.trace))
    print("machine %s" % json.dumps(machine(), sort_keys=True))
    print("workload %s seed %d trace %d"
          % (args.workload, args.seed, args.trace))
    WORKLOADS[args.workload](run, WORK)

    digests = [r.digest for r in run.rounds]
    reproduced = len(set(digests)) == 1
    op_attempted = sum(r.attempted for r in run.rounds)
    op_failed = sum(r.failed for r in run.rounds)
    attempted = op_attempted + 1   # the reproduction check counts as one
    failed = op_failed + (not reproduced)
    for note in run.notes:
        print("note %s" % note)
    print("check %-4s %s (%d of %d failed)"
          % ("ok" if not op_failed else "FAIL", run.op_check, op_failed,
             op_attempted))
    print("check %-4s every round reproduces the first bit for bit"
          % ("ok" if reproduced else "FAIL"))
    for index, rnd in enumerate(run.rounds):
        print("digest round %d: %s (set-up %.4f s)"
              % (index, rnd.digest, rnd.setup_s))

    values, lines = summarize(run)
    print("\n".join(lines))
    print("metric %-20s %12.4f %-8s (%d failed of %d operations and checks)"
          % ("ops_failed_frac", failed / attempted, "fraction", failed,
             attempted))
    if run.trace:
        layers, lines = layer_summary(run)
        print("\n".join(lines))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args):
    """Every workload in a process of its own, so peak memory is its own."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"]["%s.%s" % (name, metric)] = value
        print()
    return total


def layer_unit(name):
    if name.endswith(("_macs", "_macs_analytic", "_unexplained", "calls",
                      "nodes_per_step")):
        return "count"
    if name.endswith("_frac"):
        return "fraction"
    return "s" if name.endswith("_s") else "ms"


def main(argv=None):
    try:
        import_library()
    except ImportError as err:
        print("perfbench: cannot import the library: %s" % err,
              file=sys.stderr)
        return 2
    from workloads import RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS,
                        choices=(RUN_SECONDS,))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
