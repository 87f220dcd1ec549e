"""Command-line entry point.

Exit codes: 0 success, 1 usage or bad-value error, 2 numeric failure,
3 I/O error.
"""

import argparse
import os
import sys

# Pin BLAS to one thread before numpy ever loads: reduction order inside a
# threaded GEMM is not fixed, and the run artifacts promise bit-identical
# repeats. Explicit user overrides win.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sibling_config(checkpoint_path):
    from .config import ConfigError, load_run_config
    path = os.path.join(os.path.dirname(os.path.abspath(checkpoint_path)),
                        "config.json")
    if not os.path.exists(path):
        raise ConfigError(
            "no config.json next to %s; checkpoints are read with the run "
            "config that produced them" % checkpoint_path)
    return load_run_config(path)


def cmd_gen_data(args):
    from .config import load_run_config
    from .data import generate_dataset, write_corpus
    cfg = load_run_config(args.config)
    corpus = generate_dataset(cfg.data)
    write_corpus(corpus, args.out)
    for split, tracklets in corpus.splits():
        print("%s: %d tracklets" % (split, len(tracklets)))
    print("wrote %s" % os.path.join(args.out, "manifest.csv"))
    return 0


def cmd_train(args):
    from .config import load_run_config
    from .data import load_corpus
    from .harness import train_run
    cfg = load_run_config(args.config)
    corpus = load_corpus(args.data)
    _, report = train_run(cfg, corpus, outdir=args.out, log=print)
    for name, value in report.metric_rows:
        print("%s,%s" % (name, value))
    print("artifacts in %s" % args.out)
    return 0


def cmd_eval(args):
    from .data import load_corpus
    from .harness import evaluate_model
    from .model import load_model
    cfg = _sibling_config(args.checkpoint)
    model = load_model(args.checkpoint, cfg)
    corpus = load_corpus(args.data)
    rows = evaluate_model(model, cfg, corpus)
    print("metric,value")
    for name, value in rows:
        print("%s,%s" % (name, value))
    return 0


def cmd_ablate(args):
    from .config import load_run_config
    from .data import load_corpus
    from .harness import ablate
    cfg = load_run_config(args.config)
    corpus = load_corpus(args.data)
    ablate(cfg, args.axis, corpus, outdir=args.out, log=print)
    print("wrote %s" % os.path.join(args.out,
                                    "ablation_%s.csv" % args.axis))
    return 0


def cmd_dump_attn(args):
    from .config import ConfigError
    from .data import read_tracklet
    from .decoder import dump_attention
    from .harness import _check_frame_shape, eval_clip
    from .model import forward_batch, load_model
    from .tensor import no_grad
    cfg = _sibling_config(args.checkpoint)
    dec = cfg.decoder
    for off, setting in ((dec.R == 0, "decoder.R is 0"),
                         (not dec.sources_for(cfg.encoder.num_blocks),
                          "decoder.dense_sources is empty"),
                         (dec.fusion != "attention",
                          "decoder.fusion is %s" % dec.fusion)):
        if off:
            raise ConfigError("%s, so the run has no interaction attention "
                              "to dump" % setting)
    model = load_model(args.checkpoint, cfg)
    tracklet = read_tracklet(args.tracklet)
    _check_frame_shape(cfg, [tracklet])
    with no_grad():
        _, _, dense_attn = forward_batch(model, eval_clip(cfg, tracklet),
                                         training=False)
    source_ids = cfg.decoder.sources_for(cfg.encoder.num_blocks)
    rows = dump_attention(dense_attn, cfg.sampling.chunks, cfg.partitions,
                          source_ids, args.out)
    print("wrote %d weights to %s" % (rows, args.out))
    return 0


def cmd_flops(args):
    from .config import load_run_config
    from .harness import decoder_flops
    cfg = load_run_config(args.config)
    print("component,multiply_adds")
    for key, macs in decoder_flops(cfg).items():
        print("%s,%d" % (key, macs))
    return 0


# name: (handler, help, required options), read by build_parser and main
_COMMANDS = {
    "gen-data": (cmd_gen_data, "render the synthetic corpus",
                 ("--config", "--out")),
    "train": (cmd_train, "train a model on a corpus",
              ("--config", "--data", "--out")),
    "eval": (cmd_eval, "score a checkpoint on the eval split",
             ("--checkpoint", "--data")),
    "ablate": (cmd_ablate, "sweep one axis, same seed and corpus",
               ("--config", "--axis", "--data", "--out")),
    "dump-attn": (cmd_dump_attn, "write interaction attention weights as CSV",
                  ("--checkpoint", "--tracklet", "--out")),
    "flops": (cmd_flops, "analytic decoder cost for a config", ("--config",)),
}


def build_parser():
    parser = _Parser(prog="denseil",
                     description="Video identity retrieval at desk scale.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(option, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required")
    except UsageError as err:
        print("denseil: error: %s" % err, file=sys.stderr)
        return 1

    import numpy as np

    try:
        # overflow and invalid operations fail the command; subnormal
        # results are ordinary in attention, so underflow stays quiet
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[args.command][0](args)
    except ArithmeticError as err:
        print("denseil: numeric failure: %s" % err, file=sys.stderr)
        return 2
    except ValueError as err:
        print("denseil: error: %s" % err, file=sys.stderr)
        return 1
    except OSError as err:
        print("denseil: i/o error: %s" % err, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
