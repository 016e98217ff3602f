"""The benchmark workloads, each driven only through ``mmwsel.cli.main``.

label-full   ``gen-dataset`` at the paper's full scale (144 antennas as a
             12x12 UPA, 10 users, pick 6: 210 subsets per label).  Nearly
             all of its time is exhaustive search in ``kernels.scan_best``.
train-desk   ``train`` at desk scale (16 antennas, 6 users, pick 3: 20
             classes) on a dataset built in setup.  All of its timed work
             is in ``cnn``; ``kernels`` does none.
select-desk  ``eval-rate`` at desk scale with a checkpoint trained in
             setup: ES, greedy, BPSO and CNN per (channel, SNR) point.  It
             uses ``kernels`` through many single-subset ``subset_rate``
             calls instead of one scan, so per-call overhead shows here.

One item, the unit of ``items_per_s``, is a labelled sample, a training
sample-epoch or an evaluated (channel, SNR) point respectively.  Each
workload repeats its CLI command with fresh outputs until the measured
command time reaches the requested seconds, then reports medians.
"""

import contextlib
import io
import math
import resource
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from mmwsel import cli, cnn, dataset
from mmwsel.channel import (TAG_EVAL, ArrayGeometry, ChannelConfig,
                            generate_channel_matrix, substream)
from reference import conv_loop, desk_kernel_loop, full_kernel_loop, scaled
from spans import Tracer, summarize

FULL = {"n_tx": 144, "rows_m": 12, "cols_n": 12, "n_users": 10, "n_select": 6}
DESK = {"n_tx": 16, "rows_m": 4, "cols_n": 4, "n_users": 6, "n_select": 3}
LABEL_SNR_DB = 10.0
SETUP_REPEATS = 3


def noise_power(snr_db: float) -> float:
    return 10.0 ** (-snr_db / 10.0)


def invocation_seed(seed: int, i: int) -> int:
    return (seed * 1_000_003 + i) % 2**63


def write_config(path, values: dict):
    with open(path, "w") as fh:
        for key, value in values.items():
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            fh.write(f"{key} = {value}\n")


def run_cli(argv, tracer=None, run_id=0):
    """One in-process CLI command; returns (exit code, wall seconds).

    With a tracer, the program is instrumented for this call only and the
    command itself is the root span.
    """
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            start = perf_counter()
            code = cli.main(argv)
            return code, perf_counter() - start
        tracer.run_id = run_id
        tracer.install()
        try:
            start = perf_counter()
            with tracer.span(f"cli.{argv[0]}"):
                code = cli.main(argv)
            wall = perf_counter() - start
        finally:
            tracer.restore()
    return code, wall


def expect_ok(argv):
    code, _ = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"set-up command failed with exit code {code}: {' '.join(map(str, argv))}")


class LabelFull:
    name = "label-full"
    item = "label_samples_per_s"
    reference = setup_reference = staticmethod(full_kernel_loop)
    scale = FULL
    samples = 1             # samples per gen-dataset call
    min_invocations = 8

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.cfg = work / "label.cfg"
        self.table = checks.subsets(FULL["n_users"], FULL["n_select"])
        self.checked = []   # (invocation, status, label_rate, best_rate)
        self.problems = []

    def config(self):
        return {**FULL, "seed": self.seed, "snr_label_db": LABEL_SNR_DB,
                "n_samples": self.samples}

    def setup(self):
        """Write the configs and label one warm-up sample."""
        write_config(self.cfg, self.config())
        warm = self.work / "warmup.cfg"
        write_config(warm, {**self.config(), "n_samples": 1,
                            "dataset": self.work / "warmup.mmws"})
        expect_ok(["gen-dataset", "--config", warm, "--force"])

    def invocation(self, i):
        argv = ["gen-dataset", "--config", self.cfg, "--seed", invocation_seed(self.seed, i),
                "--out", self.work / f"label{i}.mmws"]
        return argv, self.samples, self.samples

    def check(self, i):
        path = self.work / f"label{i}.mmws"
        try:
            planes, labels, header = dataset.load_dataset(path)
        except (OSError, dataset.DatasetFormatError) as exc:
            self.problems.append(f"call {i}: {exc}")
            return self.samples
        shape = (header.n_samples, header.n_users, header.n_tx, header.n_select)
        noise = noise_power(LABEL_SNR_DB)
        if shape != (self.samples, FULL["n_users"], FULL["n_tx"], FULL["n_select"]) \
                or header.noise_power != noise:
            self.problems.append(f"call {i}: header {shape}, noise {header.noise_power}")
            return self.samples
        wrong = 0
        for j in range(self.samples):
            status, got, best = checks.check_label(planes[j], int(labels[j]), self.table, noise)
            self.checked.append((i, status, got, best))
            if status == "wrong":
                self.problems.append(f"call {i} sample {j}: label rate {got} < best {best}")
                wrong += 1
        return wrong

    def near_ties(self):
        return sum(status == "near_tie" for _, status, _, _ in self.checked)

    def rate_ratio(self):
        """Oracle rate of the stored labels over the oracle optimum."""
        first = [(got, best) for i, _, got, best in self.checked if i < self.min_invocations]
        return sum(g for g, _ in first) / sum(b for _, b in first)

    def design(self, m):
        share = m["share.kernels"]
        ok = share >= 0.9 and m["share.cnn"] == 0.0
        return ok, (f"kernels.scan_best covers {share:.3f} of cli.gen-dataset (want >= 0.90); "
                    f"cnn share {m['share.cnn']:.3f} (want 0)")


class DeskDataset:
    """Shared desk-scale set-up: a small ES-labelled dataset."""

    scale = DESK
    setup_reference = staticmethod(desk_kernel_loop)
    # 334 samples split 300 train (three full batches of 100) / 34 test.
    n_samples = 334
    epochs = 3

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.cfg = work / "desk.cfg"
        self.dataset = work / "desk.mmws"
        self.n_train, _ = dataset.split_counts(self.n_samples)
        self.problems = []

    def config(self):
        return {**DESK, "seed": self.seed, "snr_label_db": LABEL_SNR_DB,
                "n_samples": self.n_samples, "epochs": self.epochs,
                "dataset": self.dataset, "checkpoint": self.work / "model.ckpt"}

    def setup(self):
        write_config(self.cfg, self.config())
        expect_ok(["gen-dataset", "--config", self.cfg, "--force"])

    def near_ties(self):
        return 0


class TrainDesk(DeskDataset):
    name = "train-desk"
    item = "train_samples_per_s"
    reference = staticmethod(conv_loop)
    min_invocations = 4

    def invocation(self, i):
        argv = ["train", "--config", self.cfg, "--out", self.work / f"model{i}.ckpt"]
        return argv, self.n_train * self.epochs, self.epochs

    def check(self, i):
        path = self.work / f"model{i}.ckpt"
        problem = checks.checkpoint_problem(
            path, self.epochs, (DESK["n_users"], DESK["n_tx"]),
            math.comb(DESK["n_users"], DESK["n_select"]))
        if problem is None and i > 0:
            # every call trains with the same seed, so the bytes must match
            if path.read_bytes() != (self.work / "model0.ckpt").read_bytes():
                problem = "checkpoint bytes differ from call 0"
            path.unlink()
            (self.work / f"model{i}.ckpt.metrics.csv").unlink()
        if problem is not None:
            self.problems.append(f"call {i}: {problem}")
            return self.epochs
        return 0

    def rate_ratio(self):
        """Oracle rate of the CNN's picks over that of the ES labels, on the dataset."""
        state, net_cfg = cnn.load_checkpoint(self.work / "model0.ckpt")
        planes, labels, header = dataset.load_dataset(self.dataset)
        picks, _ = cnn.predict(state, planes, net_cfg)
        table = checks.subsets(DESK["n_users"], DESK["n_select"])
        cnn_rate = es_rate = 0.0
        for x, pick, label in zip(planes, picks, labels):
            h = checks.channel_from_planes(x)
            cnn_rate += checks.oracle_rates(h, [table[pick]], header.noise_power)[0]
            es_rate += checks.oracle_rates(h, [table[label]], header.noise_power)[0]
        return cnn_rate / es_rate

    def design(self, m):
        share, kernels_s = m["share.cnn"], m["share.kernels"]
        ok = share >= 0.9 and kernels_s == 0.0
        return ok, (f"cnn spans cover {share:.3f} of cli.train (want >= 0.90); "
                    f"kernels share {kernels_s:.3f} (want 0)")


class SelectDesk(DeskDataset):
    name = "select-desk"
    item = "eval_points_per_s"
    reference = staticmethod(desk_kernel_loop)
    snr_db = (0.0, 10.0, 20.0)
    trials = 3
    # cnn_rate_ratio pools the first min_invocations calls (180 channels).
    min_invocations = 60

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.chan_cfg = ChannelConfig(n_tx=DESK["n_tx"], n_users=DESK["n_users"],
                                      geometry=ArrayGeometry(DESK["rows_m"], DESK["cols_n"]))
        self.table = checks.subsets(DESK["n_users"], DESK["n_select"])
        self.rng = np.random.default_rng(seed)
        self.tables = []

    def config(self):
        return {**super().config(), "trials": self.trials, "snr_db": self.snr_db}

    def setup(self):
        super().setup()
        expect_ok(["train", "--config", self.cfg, "--force"])

    def invocation(self, i):
        argv = ["eval-rate", "--config", self.cfg, "--seed", invocation_seed(self.seed, i),
                "--out", self.work / f"rates{i}.csv"]
        points = self.trials * len(self.snr_db)
        return argv, points, points

    def check(self, i):
        try:
            rows = checks.read_rate_csv(self.work / f"rates{i}.csv")
        except (OSError, KeyError, ValueError) as exc:
            self.problems.append(f"call {i}: {exc}")
            return self.trials * len(self.snr_db)
        expected = {(snr, method) for snr in self.snr_db for method in cli.METHODS}
        if set(rows) != expected:
            self.problems.append(f"call {i}: rows {sorted(rows)}")
            return self.trials * len(self.snr_db)
        if i < self.min_invocations:
            self.tables.append(rows)
        failed = set()
        for snr in self.snr_db:
            es = rows[(snr, "ES")]
            beaten = [m for m in cli.METHODS if rows[(snr, m)] > es]
            if beaten:
                self.problems.append(f"call {i} snr {snr}: {beaten} above ES")
                failed.add(snr)
        snr = float(self.rng.choice(self.snr_db))
        seed = invocation_seed(self.seed, i)
        noise = noise_power(snr)
        best = [checks.oracle_rates(
                    generate_channel_matrix(self.chan_cfg, substream(seed, t, TAG_EVAL)),
                    self.table, noise).max()
                for t in range(self.trials)]
        oracle = float(np.mean(best))
        if abs(oracle - rows[(snr, "ES")]) > checks.MATCH_REL * oracle:
            self.problems.append(f"call {i} snr {snr}: ES {rows[(snr, 'ES')]} vs oracle {oracle}")
            failed.add(snr)
        return self.trials * len(failed)

    def rate_ratio(self):
        """Mean over SNR rows of CNN mean_rate over ES mean_rate (cnn_rate_ratio)."""
        return float(np.mean([
            np.mean([t[(snr, "CNN")] for t in self.tables])
            / np.mean([t[(snr, "ES")] for t in self.tables])
            for snr in self.snr_db]))

    def design(self, m):
        p50 = {k: m[f"selection.{k}.ms_p50"]
               for k in ("exhaustive_search", "greedy_select", "bpso_select")}
        largest = max(p50, key=p50.get)
        ok = largest == "bpso_select"
        return ok, f"largest selection span is {largest} (want bpso_select); p50 ms {p50}"


WORKLOADS = {w.name: w for w in (LabelFull, TrainDesk, SelectDesk)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name, seed, seconds, trace, work):
    """Set up, measure and check one workload; returns the run's results."""
    wl = WORKLOADS[name](seed, work)
    setup_ref = [wl.setup_reference()]
    setup_s = []
    setup_wall = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        wl.setup()
        setup_wall.append(perf_counter() - start)
        setup_ref.append(wl.setup_reference())
        setup_s.append(scaled(setup_wall[-1], wl.setup_reference, setup_ref[-2], setup_ref[-1]))

    reference = wl.reference
    ref = [reference()]

    tracer = Tracer() if trace else None
    calls = []
    measured = 0.0
    i = 0
    while i < wl.min_invocations or measured < seconds:
        traced = tracer is not None and i % 2 == 1
        argv, items, ops = wl.invocation(i)
        code, wall = run_cli(argv, tracer if traced else None, run_id=i)
        measured += wall
        ref.append(reference())
        failed = ops if code != 0 else wl.check(i)
        if code != 0:
            wl.problems.append(f"call {i}: exit code {code}")
        calls.append({"wall_s": wall, "scaled_s": scaled(wall, reference, ref[-2], ref[-1]),
                      "items": items, "ops": ops,
                      "failed": failed, "exit_code": code, "traced": traced})
        i += 1

    def per_item(key, traced=False):
        return statistics.median(c[key] / c["items"] for c in calls if c["traced"] == traced)

    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "items_per_s": 1.0 / per_item("scaled_s"),
        "peak_rss_mb": peak_rss_mb(),
        "rate_ratio": wl.rate_ratio(),
    }
    result = {
        "workload": name,
        "item": wl.item,
        "scale": wl.scale,
        "config": {k: v.name if isinstance(v, Path) else v for k, v in wl.config().items()},
        "setup_wall_s": setup_wall,
        "setup_scaled_s": setup_s,
        "setup_reference_s": setup_ref,
        "wall_items_per_s": 1.0 / per_item("wall_s"),
        "reference": reference.__name__,
        "reference_s": ref,
        "calls": calls,
        "attempted": sum(c["ops"] for c in calls),
        "failed": sum(c["failed"] for c in calls),
        "problems": wl.problems,
        "near_tie_labels": wl.near_ties(),
        "end_to_end": end_to_end,
    }
    if tracer is not None:
        layers = summarize(tracer)
        layers["trace.overhead_pct"] = 100.0 * (
            per_item("scaled_s", traced=True) / per_item("scaled_s") - 1.0)
        layers["trace.invocations"] = sum(c["traced"] for c in calls)
        layers["dataset.near_tie_labels"] = wl.near_ties()
        ok, text = wl.design(layers)
        layers["design.check_passed"] = int(ok)
        result["per_layer"] = layers
        result["design"] = f"{'ok' if ok else 'NOT MET'}: {text}"
        result["tracer"] = tracer
    return result
