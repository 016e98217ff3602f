"""In-memory span tracer that instruments mmwsel from outside the package.

Each wrapper replaces a function on the module where its caller looks the
name up: ``selection`` calls ``kernels.scan_best``, ``cli`` calls the
``exhaustive_search`` it imported, ``cnn._forward`` calls the module-level
``conv2d_forward``.  A wrapper records a span (name, start, end, parent
span, run id) plus a few counters, and ``restore()`` puts every original
back.  Spans stay in memory until ``write_spans`` is called at the end of
a run.
"""

import csv
import inspect
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from mmwsel import cli, cnn, dataset, kernels

# conv1 reads the two real/imag input planes; conv2 reads conv1's filters.
INPUT_PLANES = 2

# Layer functions timed under their own name (conv layers are split below).
CNN_LAYERS = ("maxpool2x2_forward", "maxpool2x2_backward", "dense_forward",
              "dense_backward", "relu", "relu_backward", "dropout",
              "softmax_cross_entropy", "sgd_step")
CNN_TIMED = tuple(f"cnn.conv2d_{d}.conv{n}" for d in ("forward", "backward")
                  for n in (1, 2)) + tuple(f"cnn.{layer}" for layer in CNN_LAYERS)
SELECTION_METHODS = ("exhaustive_search", "greedy_select", "bpso_select")
MODULES = ("channel", "kernels", "selection", "dataset", "cnn")
COMMANDS = ("gen-dataset", "train", "eval-rate")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Span recorder; ``install`` wraps the program, ``restore`` unwraps it."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1, run id]
        self.counters = Counter()
        self.bpso_subsets = defaultdict(set)  # bpso span index -> subsets it rated
        self.net_cfg = None
        self.run_id = 0
        self._stack = []
        self._saved = []

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr, name, after=None):
        """Replace ``module.attr`` by a timed wrapper.

        ``name`` is a span name or a function of the call arguments;
        ``after(span_index, args, kwargs, result)`` updates counters.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            idx = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def install(self):
        counters = self.counters

        def arg(func, name):
            """Reads argument ``name`` of ``func`` from a call's args/kwargs."""
            pos = list(inspect.signature(func).parameters).index(name)
            return lambda args, kwargs: args[pos] if len(args) > pos else kwargs[name]

        def count_bytes(key, path_arg, suffixes=("",)):
            def after(idx, args, kwargs, result):
                path = path_arg(args, kwargs)
                counters[key] += sum(_file_size(f"{path}{s}") for s in suffixes)
            return after

        for module in (cli, dataset):
            self.wrap(module, "generate_channel_matrix", "channel.generate_channel_matrix")
            self.wrap(module, "exhaustive_search", "selection.exhaustive_search")
        self.wrap(cli, "greedy_select", "selection.greedy_select")
        self.wrap(cli, "bpso_select", "selection.bpso_select")

        combos_of = arg(kernels.scan_best, "combos")
        self.wrap(kernels, "scan_best", "kernels.scan_best",
                  after=lambda i, a, k, r: counters.update(
                      {"kernels.scan_best.subsets": len(combos_of(a, k))}))
        subset_of = arg(kernels.subset_rate, "idx")

        def subset_rate_seen(idx, args, kwargs, result):
            counters["kernels.subset_rate.rank_deficient"] += bool(result[2])
            parent = self.spans[idx][3]
            if parent >= 0 and self.spans[parent][0] == "selection.bpso_select":
                self.bpso_subsets[parent].add(tuple(np.asarray(subset_of(args, kwargs)).tolist()))

        self.wrap(kernels, "subset_rate", "kernels.subset_rate", after=subset_rate_seen)

        self.wrap(dataset, "build_dataset", "dataset.build_dataset",
                  after=count_bytes("dataset.build_dataset.bytes_written",
                                    arg(dataset.build_dataset, "path"), ("", ".manifest")))
        self.wrap(dataset, "load_split", "dataset.load_split",
                  after=count_bytes("dataset.load_split.bytes_read",
                                    arg(dataset.load_split, "path")))

        train_cfg_of = arg(cnn.train, "net_cfg")
        predict_cfg_of = arg(cnn.predict, "cfg")
        planes_of = arg(cnn.predict, "planes")

        def trained(idx, args, kwargs, result):
            self.net_cfg = train_cfg_of(args, kwargs)

        def predicted(idx, args, kwargs, result):
            self.net_cfg = predict_cfg_of(args, kwargs)
            planes = planes_of(args, kwargs)
            counters["cnn.predict.samples"] += 1 if planes.ndim == 3 else planes.shape[0]

        self.wrap(cnn, "train", "cnn.train", after=trained)
        self.wrap(cnn, "predict", "cnn.predict", after=predicted)
        self.wrap(cnn, "accuracy", "cnn.accuracy")
        self.wrap(cnn, "save_checkpoint", "cnn.save_checkpoint",
                  after=count_bytes("cnn.save_checkpoint.bytes_written",
                                    arg(cnn.save_checkpoint, "path")))
        self.wrap(cnn, "load_checkpoint", "cnn.load_checkpoint",
                  after=count_bytes("cnn.load_checkpoint.bytes_read",
                                    arg(cnn.load_checkpoint, "path")))

        fwd_x = arg(cnn.conv2d_forward, "x")
        bwd_x = arg(cnn.conv2d_backward, "x")

        def conv_fwd_name(args, kwargs):
            x = fwd_x(args, kwargs)
            if x.shape[1] == INPUT_PLANES:
                counters["cnn.forward_samples"] += x.shape[0]
                return "cnn.conv2d_forward.conv1"
            return "cnn.conv2d_forward.conv2"

        self.wrap(cnn, "conv2d_forward", conv_fwd_name)
        self.wrap(cnn, "conv2d_backward",
                  lambda a, k: "cnn.conv2d_backward.conv1"
                  if bwd_x(a, k).shape[1] == INPUT_PLANES else "cnn.conv2d_backward.conv2")
        for layer in CNN_LAYERS:
            self.wrap(cnn, layer, f"cnn.{layer}")


def write_spans(tracer: Tracer, path):
    """Dump every span as CSV: run_id, span, parent, name, start_s, end_s."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "span", "parent", "name", "start_s", "end_s"])
        for i, (name, start, end, parent, run_id) in enumerate(tracer.spans):
            writer.writerow([run_id, i, parent, name, repr(start), repr(end)])


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics from the recorded spans and counters."""
    spans = tracer.spans
    dur = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    by_name = defaultdict(list)
    for i, (name, _, _, parent, _) in enumerate(spans):
        by_name[name].append(i)
        if parent >= 0:
            child_time[parent] += dur[i]

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return float(sum(dur[i] for i in by_name[name]))

    def self_s(name):
        return float(sum(dur[i] - child_time[i] for i in by_name[name]))

    def children_of(parent_name, child_name):
        return sum(1 for i in by_name[child_name]
                   if spans[i][3] >= 0 and spans[spans[i][3]][0] == parent_name)

    def per(numerator, denominator, scale=1.0):
        return numerator * scale / denominator if denominator else 0.0

    c = tracer.counters
    m = {}
    m["channel.generate_channel_matrix.calls"] = calls("channel.generate_channel_matrix")
    m["channel.generate_channel_matrix.busy_s"] = busy("channel.generate_channel_matrix")
    m["kernels.scan_best.calls"] = calls("kernels.scan_best")
    m["kernels.scan_best.busy_s"] = busy("kernels.scan_best")
    m["kernels.scan_best.us_per_subset"] = per(
        busy("kernels.scan_best"), c["kernels.scan_best.subsets"], 1e6)
    m["kernels.subset_rate.calls"] = calls("kernels.subset_rate")
    m["kernels.subset_rate.busy_s"] = busy("kernels.subset_rate")
    m["kernels.subset_rate.us_per_call"] = per(
        busy("kernels.subset_rate"), calls("kernels.subset_rate"), 1e6)
    m["kernels.subset_rate.rank_deficient"] = c["kernels.subset_rate.rank_deficient"]

    subsets_rated = {
        "exhaustive_search": c["kernels.scan_best.subsets"],
        "greedy_select": children_of("selection.greedy_select", "kernels.subset_rate"),
        "bpso_select": children_of("selection.bpso_select", "kernels.subset_rate"),
    }
    for method in SELECTION_METHODS:
        name = f"selection.{method}"
        times_ms = [dur[i] * 1e3 for i in by_name[name]]
        p50, p90 = np.percentile(times_ms, [50, 90]) if times_ms else (0.0, 0.0)
        m[f"{name}.ms_p50"] = float(p50)
        m[f"{name}.ms_p90"] = float(p90)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.subsets_per_decision"] = per(subsets_rated[method], calls(name))
    bpso = by_name["selection.bpso_select"]
    m["selection.bpso_select.fitness_evals"] = subsets_rated["bpso_select"]
    m["selection.bpso_select.distinct_subset_ratio"] = per(
        sum(len(tracer.bpso_subsets[i]) for i in bpso), subsets_rated["bpso_select"])

    m["dataset.build_dataset.self_s"] = self_s("dataset.build_dataset")
    m["dataset.build_dataset.bytes_written"] = c["dataset.build_dataset.bytes_written"]
    m["dataset.load_split.busy_s"] = busy("dataset.load_split")
    m["dataset.load_split.bytes_read"] = c["dataset.load_split.bytes_read"]

    m["cnn.train.busy_s"] = busy("cnn.train")
    for name in CNN_TIMED:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    m["cnn.accuracy.busy_s"] = busy("cnn.accuracy")
    m["cnn.accuracy.self_s"] = self_s("cnn.accuracy")
    step_s = busy("cnn.train") - busy("cnn.accuracy") - busy("cnn.save_checkpoint")
    m["cnn.ms_per_step"] = per(step_s, calls("cnn.sgd_step"), 1e3)
    forward_s = sum(busy(f"cnn.conv2d_forward.conv{n}") for n in (1, 2)) + busy("cnn.dense_forward")
    multiplies = (cnn.multiply_count(tracer.net_cfg) * c["cnn.forward_samples"]
                  if tracer.net_cfg is not None else 0)
    m["cnn.multiplies_per_s"] = per(multiplies, forward_s)
    m["cnn.predict.us_per_sample"] = per(busy("cnn.predict"), c["cnn.predict.samples"], 1e6)
    m["cnn.save_checkpoint.bytes_written"] = c["cnn.save_checkpoint.bytes_written"]
    m["cnn.load_checkpoint.bytes_read"] = c["cnn.load_checkpoint.bytes_read"]

    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = self_s(f"cli.{command}")

    # Inclusive share of each module: time under its outermost spans over
    # the time of the traced CLI commands.
    module_of = [name.split(".", 1)[0] for name, *_ in spans]
    covered = Counter()
    for i, module in enumerate(module_of):
        parent = spans[i][3]
        while parent >= 0 and module_of[parent] != module:
            parent = spans[parent][3]
        if parent < 0:
            covered[module] += dur[i]
    wall = covered["cli"]
    for module in MODULES:
        m[f"share.{module}"] = per(covered[module], wall)
    m["trace.spans"] = len(spans)
    return m
