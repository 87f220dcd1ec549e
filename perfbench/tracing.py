"""Per-layer spans for the denseil benchmark, recorded from outside the library.

While a ``Tracer`` is installed, the public functions of each module are
replaced by timing wrappers in the namespaces that call them, so the library
itself is unchanged. Every graph node created while a span is open has its
backward closure wrapped as well; its time is charged to that span and to
every span enclosing it. A span's self time is its duration minus the time
of the spans nested inside it.
"""

import time
from collections import Counter, defaultdict
from contextlib import ExitStack
from unittest import mock

from denseil import decoder, harness, imageops, metrics, model, optim, partition
from denseil import tensor as tn


def count_nodes(root):
    """Tensors reachable from ``root`` through the graph's parent links."""
    seen = {id(root)}
    todo = [root]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


class Tracer:
    """Accumulates span times, backward times and counts while recording."""

    def __init__(self):
        self._stack = []   # names of the open spans, innermost last
        self._child = []   # time of closed child spans, one per open span
        self.recording = False
        self.incl = defaultdict(float)   # seconds inside the span
        self.self = defaultdict(float)   # seconds inside, minus child spans
        self.bwd = defaultdict(float)    # backward seconds of nodes made inside
        self.bwd_total = 0.0             # backward seconds of every node
        self.calls = Counter()
        self.counts = Counter()

    def start(self):
        """Record spans, and count forward matmuls, until ``stop``."""
        self.recording = True
        self._scope = ExitStack()
        self._matmuls = self._scope.enter_context(tn.count_matmuls())

    def stop(self):
        self.recording = False
        self._scope.close()
        self.counts["matmul_macs"] += self._matmuls.macs

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self._stack.append(name)
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                child = self._child.pop()
                self.incl[name] += dt
                self.self[name] += dt - child
                self.calls[name] += 1
                if self._child:
                    self._child[-1] += dt
        return traced

    def _wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            step = self.wrap(name, next)
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item
        return traced

    def _charge(self, backward, names):
        def timed(g):
            t0 = time.perf_counter()
            out = backward(g)
            dt = time.perf_counter() - t0
            self.bwd_total += dt
            for name in names:
                self.bwd[name] += dt
            return out
        return timed

    def install(self, stack: ExitStack):
        """Put the wrappers in place until ``stack`` closes."""
        w = self.wrap

        def patch(owner, name, value):
            stack.enter_context(mock.patch.object(owner, name, value))

        init = tn.Tensor.__init__

        def traced_init(node, data, requires_grad=False, _parents=(),
                        _backward=None):
            init(node, data, requires_grad, _parents, _backward)
            if _backward is not None and self.recording:
                node._backward = self._charge(_backward, tuple(self._stack))

        conv = w("imageops.conv2d", imageops.conv2d)

        def traced_conv(x, wt, bias=None, stride=1):
            out = conv(x, wt, bias, stride)
            if not self.recording:
                return out
            n, cout, ho, wo = out.shape
            self.counts["conv_macs"] += (n * ho * wo * cout * wt.shape[1]
                                         * wt.shape[2] * wt.shape[3])
            return out

        backward = w("tensor.backward", tn.backward)

        def traced_backward(loss):
            if self.recording:
                self.counts["nodes"] += count_nodes(loss)
            return backward(loss)

        matmul = w("tensor.matmul", tn.matmul)
        batchnorm_rows = w("imageops.batchnorm", decoder.batchnorm_rows)
        cmc_and_map = w("metrics.rank", metrics.cmc_and_map)
        distances = w("metrics.rank", metrics.pairwise_distances)
        restricted_sample = w("data.sample", harness.restricted_sample)

        patch(tn.Tensor, "__init__", traced_init)
        patch(tn, "backward", traced_backward)
        patch(tn, "matmul", matmul)
        patch(partition, "matmul", matmul)
        patch(tn, "ffn", w("tensor.ffn", tn.ffn))
        patch(imageops, "conv2d", traced_conv)
        patch(imageops, "batchnorm_nchw",
              w("imageops.batchnorm", imageops.batchnorm_nchw))
        patch(decoder, "batchnorm_rows", batchnorm_rows)
        patch(harness, "forward_batch",
              w("model.forward_batch", harness.forward_batch))
        patch(model, "encode_clip",
              w("encoder.encode_clip", model.encode_clip))
        patch(model, "stack_partitions",
              w("partition.stack_partitions", model.stack_partitions))
        patch(model, "step_emb", w("posemb.step_emb", model.step_emb))
        patch(model, "decoder_forward",
              w("decoder.decoder_forward", model.decoder_forward))
        patch(model, "classify_head",
              w("decoder.classify_head", model.classify_head))
        for name in ("self_attention_block", "dense_attention",
                     "multi_head_attention"):
            patch(decoder, name, w("decoder." + name, getattr(decoder, name)))
        patch(harness, "total_loss",
              w("losses.total_loss", harness.total_loss))
        patch(optim.Adam, "step", w("optim.adam", optim.Adam.step))
        patch(harness, "pk_batches",
              self._wrap_generator("data.sample", harness.pk_batches))
        patch(harness, "restricted_sample", restricted_sample)
        patch(harness, "embed_tracklet",
              w("harness.embed_tracklet", harness.embed_tracklet))
        patch(harness, "pairwise_distances", distances)
        patch(harness, "cmc_and_map", cmc_and_map)
        patch(metrics, "pairwise_distances", distances)
        patch(metrics, "cmc_and_map", cmc_and_map)

    def layer_metrics(self, ops: int) -> dict:
        """Per-operation figures of everything recorded so far."""
        ms = 1000.0 / ops

        def fwd(name):
            return self.incl[name] * ms

        def bwd(name):
            return self.bwd[name] * ms

        return {
            "tensor.nodes_per_step": self.counts["nodes"] / ops,
            "tensor.backward_total_ms": fwd("tensor.backward"),
            "tensor.backward_ms":
                (self.incl["tensor.backward"] - self.bwd_total) * ms,
            "tensor.matmul_macs": self.counts["matmul_macs"] / ops,
            "tensor.matmul_ms": fwd("tensor.matmul"),
            "imageops.conv2d_fwd_ms": fwd("imageops.conv2d"),
            "imageops.conv2d_bwd_ms": bwd("imageops.conv2d"),
            "imageops.batchnorm_fwd_ms": fwd("imageops.batchnorm"),
            "imageops.batchnorm_bwd_ms": bwd("imageops.batchnorm"),
            "imageops.conv_macs": self.counts["conv_macs"] / ops,
            "encoder.fwd_ms": fwd("encoder.encode_clip"),
            "encoder.bwd_ms": bwd("encoder.encode_clip"),
            "model.plumbing_fwd_ms": self.self["model.forward_batch"] * ms,
            "model.plumbing_bwd_ms": (
                bwd("model.forward_batch") - bwd("encoder.encode_clip")
                - bwd("partition.stack_partitions")
                - bwd("decoder.decoder_forward")
                - bwd("decoder.classify_head")),
            "partition.fwd_ms": fwd("partition.stack_partitions"),
            "partition.bwd_ms": bwd("partition.stack_partitions"),
            "posemb.ms": fwd("posemb.step_emb"),
            "posemb.calls": self.calls["posemb.step_emb"] / ops,
            "decoder.fwd_ms": fwd("decoder.decoder_forward"),
            "decoder.bwd_ms": bwd("decoder.decoder_forward"),
            "decoder.calls": self.calls["decoder.decoder_forward"] / ops,
            "decoder.self_attn_ms": fwd("decoder.self_attention_block"),
            "decoder.dense_ms": fwd("decoder.dense_attention"),
            "decoder.ffn_ms": fwd("tensor.ffn"),
            "decoder.mha_calls":
                self.calls["decoder.multi_head_attention"] / ops,
            "decoder.head_ms": fwd("decoder.classify_head"),
            "decoder.head_bwd_ms": bwd("decoder.classify_head"),
            "losses.ms": fwd("losses.total_loss"),
            "losses.bwd_ms": bwd("losses.total_loss"),
            "optim.adam_ms": fwd("optim.adam"),
            "data.sample_ms": fwd("data.sample"),
            "harness.embed_ms": fwd("harness.embed_tracklet"),
            "metrics.rank_ms": fwd("metrics.rank"),
        }
