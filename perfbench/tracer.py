"""Spans and counters recorded from outside priorad.

The tracer replaces public functions at the names their callers look up
(``scoring.detect``, ``cli.detect``, ``PiModel.prior_attention``,
``Tape.backward`` ...) with wrappers that open a span around the call, and
puts every original back on ``restore``. Nothing inside ``src/`` is
changed. A span is ``[name, start_ns, end_ns, parent_index]``; spans and
counters stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import gc
import hashlib
from collections import defaultdict
from time import perf_counter_ns

from priorad import autodiff, cli, data, evaluation, model, scoring, training

MODEL_COMPONENTS = ("embed", "series_attention", "prior_fields",
                    "prior_attention")

# Tape ops whose backward functions are timed one by one; any other op
# name lands in ``other`` so the metric set stays fixed.
OPS = ("add", "sub", "mul", "div", "neg", "matmul", "transpose", "reshape",
       "getitem", "tsum", "exp", "log", "sqrt", "square", "cos", "relu",
       "sigmoid", "softplus", "clip", "masked_softmax_rows", "_concat_axis",
       "other")

LOSSES = ("loss_reconstruction", "loss_sym_kl", "loss_smoothness",
          "loss_hurst_distill", "loss_prior_score_l2")

# span name -> every (owner, attribute) through which callers reach it
SPANS = {
    "model.forward": [(model.PiModel, "forward")],
    "model.embed": [(model.PiModel, "embed_window")],
    "model.series_attention": [(model.PiModel, "series_attention")],
    "model.prior_fields": [(model.PiModel, "prior_fields")],
    "model.prior_attention": [(model.PiModel, "prior_attention")],
    "autodiff.backward": [(autodiff.Tape, "backward")],
    "autodiff.adam": [(autodiff.OptimizerState, "step")],
    "training.train": [(training, "train"), (cli, "train"),
                       (evaluation, "train")],
    "training.step": [(training, "minmax_step")],
    "training.validation": [(training, "validation_recon_loss")],
    "training.hurst_target": [(training, "dataset_hurst_target")],
    "training.load_checkpoint": [(training, "load_checkpoint"),
                                 (cli, "load_checkpoint")],
    **{f"training.{name}": [(training, name)] for name in LOSSES},
    "scoring.detect": [(scoring, "detect"), (cli, "detect"),
                       (evaluation, "detect")],
    "scoring.window_streams": [(scoring, "window_streams")],
    "scoring.mismatch": [(scoring, "mismatch_delta")],
    "scoring.fit_norm": [(scoring, "fit_norm_stats")],
    "scoring.score_series": [(scoring, "score_series")],
    "scoring.threshold": [(scoring, "threshold_and_label")],
    "scoring.write_csv": [(scoring, "write_score_csv"),
                          (cli, "write_score_csv")],
    "data.synth": [(data, "synth_generate"), (cli, "synth_generate"),
                   (evaluation, "synth_generate")],
    "data.read_csv": [(data, "_read_matrix"), (cli, "_read_matrix")],
    "data.windows": [(data, "windows"), (training, "windows"),
                     (scoring, "windows")],
    "data.standardize": [(data, "standardize"), (cli, "standardize"),
                         (evaluation, "standardize")],
    "evaluation.point_adjust": [(scoring, "point_adjust"),
                                (cli, "point_adjust"),
                                (evaluation, "point_adjust")],
    "evaluation.metrics": [(evaluation, "compute_metrics"),
                           (cli, "compute_metrics")],
    "cli.score": [(cli, "cmd_score")],
}


def replace(owner, attr, make_wrapper, undo: list):
    """Set ``owner.attr`` to ``make_wrapper(original)``; remember the undo."""
    original = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    undo.append((owner, attr, original))
    setattr(owner, attr, make_wrapper(original))


def restore(undo: list):
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


class Tracer:
    """Records spans and work counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counters = defaultdict(int)
        self._seen_series: set = set()
        self._undo: list = []

    # installation ----------------------------------------------------------

    def install(self):
        hooks = {"scoring.detect": self._on_detect,
                 "scoring.window_streams": self._on_window_streams,
                 "autodiff.backward": self._on_backward}
        for name, sites in SPANS.items():
            for owner, attr in sites:
                replace(owner, attr, functools.partial(
                    self._span_wrapper, name, hooks.get(name)), self._undo)
        replace(autodiff.Tape, "record", self._record_wrapper, self._undo)
        gc.callbacks.append(self._on_gc)

    def restore(self):
        gc.callbacks.remove(self._on_gc)
        restore(self._undo)

    # spans -----------------------------------------------------------------

    def _span_wrapper(self, name, hook, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            idx = len(spans)
            spans.append([name, perf_counter_ns(), 0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter_ns()
        return wrapper

    def _on_gc(self, phase, info):
        # a collection is a span of its own inside whatever it interrupted
        if phase == "start":
            self.stack.append(len(self.spans))
            self.spans.append(["python.gc", perf_counter_ns(), 0,
                               self.stack[-2] if len(self.stack) > 1 else -1])
        elif self.stack and self.spans[self.stack[-1]][0] == "python.gc":
            self.spans[self.stack.pop()][2] = perf_counter_ns()

    def _on_detect(self, *args, **kwargs):
        # redundant forwards are counted within one detect call
        self._seen_series = set()

    def _on_window_streams(self, model_, series, cfg, *args, **kwargs):
        n = max(len(series) - cfg.window_length + 1, 0)
        key = (id(model_), series.shape,
               hashlib.blake2b(series.tobytes(), digest_size=16).digest())
        self.counters["windows_forwarded"] += n
        if key not in self._seen_series:
            self.counters["windows_useful"] += n
            self._seen_series.add(key)

    def _on_backward(self, tape, loss, *args, **kwargs):
        self.counters["passes"] += 1
        self.counters["nodes"] += len(tape.nodes)
        self.counters["tape_bytes"] += sum(out.data.nbytes
                                           for out, _, _ in tape.nodes)

    # tape nodes ------------------------------------------------------------

    def _record_wrapper(self, record):
        spans, stack, counters = self.spans, self.stack, self.counters

        @functools.wraps(record)
        def wrapper(tape, out, inputs, backward_fn):
            # the span open while the node is recorded owns its backward time
            owner = spans[stack[-1]][0] if stack else "other"
            op = backward_fn.__qualname__.split(".")[0]
            if op not in OPS:
                op = "other"

            def timed_backward(g):
                t0 = perf_counter_ns()
                grads = backward_fn(g)
                t1 = perf_counter_ns()
                counters["op_ns." + op] += t1 - t0
                counters["bwd_ns." + owner] += t1 - t0
                for t, gr in zip(inputs, grads):
                    if gr is not None:
                        counters["grad_bytes"] += gr.nbytes
                        if not t.requires_grad:
                            counters["wasted_grad_bytes"] += gr.nbytes
                counters["counting_ns"] += perf_counter_ns() - t1
                return grads

            return record(tape, out, inputs, timed_backward)
        return wrapper

    # summaries -------------------------------------------------------------

    def totals_ms(self):
        """Total and self milliseconds per span name; 0 for absent names."""
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += (end - start) / 1e6
            if parent >= 0:
                child[self.spans[parent][0]] += (end - start) / 1e6
        selfs = defaultdict(float, {n: total[n] - child[n] for n in total})
        return total, selfs

    def total_under(self, name: str, ancestor: str) -> float:
        """Milliseconds in spans ``name`` whose parent is ``ancestor``."""
        return sum(end - start for n, start, end, parent in self.spans
                   if n == name and parent >= 0
                   and self.spans[parent][0] == ancestor) / 1e6

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def count_within(self, ancestor: str) -> int:
        """Number of spans opened inside a span named ``ancestor``."""
        inside = [False] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                inside[i] = inside[parent] or self.spans[parent][0] == ancestor
        return sum(inside)


def wrapper_costs_ns(n: int = 20000) -> dict:
    """Time added by one span, one recorded node and one timed backward.

    Each wrapper is timed around a no-op, less the bare no-op loop.
    """
    t = Tracer()

    def noop(*args):
        return ()

    def per_call(fn, *args):
        t0 = perf_counter_ns()
        for _ in range(n):
            fn(*args)
        return (perf_counter_ns() - t0) / n

    base = per_call(noop)
    timed = []
    record = t._record_wrapper(lambda tape, out, inputs, fn: timed.append(fn))
    record(None, None, (), noop)
    return {"span": per_call(t._span_wrapper("x", None, noop)) - base,
            "record": per_call(record, None, None, (), noop) - base,
            "backward": per_call(timed[0], None) - base}
