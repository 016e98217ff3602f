"""Command-line experiment driver.

Subcommands: gen-dataset, train, eval-rate, csi-sweep, complexity.  All
settings live in a line-based ``key = value`` config file; the global
flags --config/--seed/--out/--force override the corresponding keys.
Outputs are CSV files with the effective config echoed as '#' comments.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

import argparse
import csv
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import cnn, dataset, kernels
from .channel import (TAG_CSI, TAG_EVAL, ArrayGeometry, ChannelConfig,
                      apply_csi_error, derive_seed, generate_channel_matrix,
                      substream)
from .rates import OpCountModel, count_ops
from .selection import BpsoParams, bpso_select, combo_unrank, exhaustive_search, greedy_select

METHODS = ("ES", "Greedy", "BPSO", "CNN")


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


@dataclass
class ExperimentConfig:
    n_tx: int = 16
    rows_m: int = 4
    cols_n: int = 4
    spacing: float = 0.5
    n_users: int = 6
    n_select: int = 3
    n_paths: int = 3
    path_loss: float = 1.0
    seed: int = 1
    n_samples: int = 20000
    snr_label_db: float = 10.0
    dataset: str = "dataset.mmws"
    checkpoint: str = "model.ckpt"
    metrics_csv: str = ""
    epochs: int = 200
    batch_size: int = 100
    learning_rate: float = 0.01
    keep_prob: float = 0.5
    precision: str = "float32"
    snr_db: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    xi: tuple = (1.0, 0.9, 0.7)
    trials: int = 500
    bpso_pop: int = 10
    bpso_iters: int = 10

    def __post_init__(self):
        if self.trials < 1:
            raise UsageError("trials must be >= 1")
        if not self.snr_db or not self.xi:
            raise UsageError("snr_db and xi grids must be non-empty")

    def channel_config(self) -> ChannelConfig:
        return ChannelConfig(
            n_tx=self.n_tx, n_users=self.n_users,
            geometry=ArrayGeometry(self.rows_m, self.cols_n, self.spacing),
            n_paths=self.n_paths, path_loss=self.path_loss)

    def net_config(self, n_classes: int) -> cnn.NetworkConfig:
        return cnn.NetworkConfig(in_height=self.n_users, in_width=self.n_tx,
                                 n_classes=n_classes, keep_prob=self.keep_prob)

    def train_config(self) -> cnn.TrainConfig:
        return cnn.TrainConfig(epochs=self.epochs, batch_size=self.batch_size,
                               learning_rate=self.learning_rate, seed=self.seed,
                               precision=self.precision)

    @property
    def label_noise_power(self) -> float:
        return noise_power_from_snr_db(self.snr_label_db)

    def echo_items(self):
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            out.append((f.name, value))
        return out


def noise_power_from_snr_db(snr_db: float) -> float:
    """sigma^2 for unit per-stream transmit power."""
    return 10.0 ** (-snr_db / 10.0)


def _parse_value(key: str, raw: str, default):
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            return tuple(float(v) for v in raw.split(",") if v.strip())
        return raw
    except ValueError as exc:
        raise UsageError(f"bad value for config key {key!r}: {raw!r}") from exc


def load_config(path=None, overrides=None) -> ExperimentConfig:
    """Read a ``key = value`` config file, then apply CLI overrides."""
    values = {}
    schema = {f.name: f for f in fields(ExperimentConfig)}
    defaults = ExperimentConfig()
    if path is not None:
        if not os.path.exists(path):
            raise UsageError(f"config file not found: {path}")
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = stripped.split("=", 1)
                key = key.strip()
                if key not in schema:
                    raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = _parse_value(key, raw.strip(), getattr(defaults, key))
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    return ExperimentConfig(**values)


def _check_writable(path, force: bool):
    if os.path.exists(path) and not force:
        raise UsageError(f"refusing to overwrite {path} (use --force)")


def _write_csv(path, config: ExperimentConfig, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        for key, value in config.echo_items():
            fh.write(f"# {key} = {value}\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _load_checkpoint_for(config: ExperimentConfig):
    if not os.path.exists(config.checkpoint):
        raise DataError(f"checkpoint not found: {config.checkpoint}")
    try:
        state, net_cfg = cnn.load_checkpoint(config.checkpoint)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    if (net_cfg.in_height, net_cfg.in_width) != (config.n_users, config.n_tx):
        raise DataError("checkpoint input shape does not match the config dimensions")
    return state, net_cfg


def _draw_eval_channels(config: ExperimentConfig):
    chan_cfg = config.channel_config()
    channels = np.empty((config.trials, config.n_users, config.n_tx), dtype=np.complex128)
    for t in range(config.trials):
        channels[t] = generate_channel_matrix(chan_cfg, substream(config.seed, t, TAG_EVAL))
    return channels


def _predict_subsets(state, net_cfg, channels, n_users, n_select):
    planes = np.stack([dataset.normalize_sample(h) for h in channels])
    labels, _ = cnn.predict(state, planes, net_cfg)
    return [combo_unrank(int(label), n_users, n_select) for label in labels]


def cmd_gen_dataset(config: ExperimentConfig, force: bool) -> int:
    _check_writable(config.dataset, force)
    out_dir = os.path.dirname(config.dataset)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    manifest = dataset.build_dataset(
        config.channel_config(), config.n_samples, config.n_select,
        config.label_noise_power, config.seed, config.dataset)
    print(f"wrote {config.dataset}")
    for key, value in manifest.items():
        print(f"{key} = {value}")
    return 0


def cmd_train(config: ExperimentConfig, force: bool) -> int:
    if not os.path.exists(config.dataset):
        raise DataError(f"dataset not found: {config.dataset}")
    metrics_path = config.metrics_csv or f"{config.checkpoint}.metrics.csv"
    _check_writable(config.checkpoint, force)
    _check_writable(metrics_path, force)
    try:
        x_train, y_train, x_test, y_test, header = dataset.load_split(config.dataset)
    except dataset.DatasetFormatError as exc:
        raise DataError(str(exc)) from exc
    if (header.n_users, header.n_tx) != (config.n_users, config.n_tx):
        raise DataError("dataset dimensions do not match the config")
    net_cfg = config.net_config(header.n_classes)
    _, metrics = cnn.train(x_train, y_train, x_test, y_test, net_cfg,
                           config.train_config(), metrics_path=metrics_path,
                           checkpoint_path=config.checkpoint, verbose=True)
    if metrics:
        last = metrics[-1]
        print(f"final train_acc {last['train_acc']:.4f}  test_acc {last['test_acc']:.4f}")
    print(f"wrote {config.checkpoint} and {metrics_path}")
    return 0


def cmd_eval_rate(config: ExperimentConfig, out, force: bool) -> int:
    out = out or "eval_rate.csv"
    _check_writable(out, force)
    state, net_cfg = _load_checkpoint_for(config)
    channels = _draw_eval_channels(config)
    cnn_subsets = _predict_subsets(state, net_cfg, channels,
                                   config.n_users, config.n_select)

    rows = []
    for s_idx, snr_db in enumerate(config.snr_db):
        noise = noise_power_from_snr_db(snr_db)
        rates = {name: np.empty(config.trials) for name in METHODS}
        for t in range(config.trials):
            h = channels[t]
            _, es_rate = exhaustive_search(h, config.n_select, noise)
            greedy = greedy_select(h, config.n_select, noise)
            rates["Greedy"][t] = kernels.subset_rate(h, greedy, noise)[0]
            params = BpsoParams(pop_size=config.bpso_pop, iterations=config.bpso_iters,
                                seed=derive_seed(config.seed, t, s_idx))
            bpso = bpso_select(h, config.n_select, noise, params)
            rates["BPSO"][t] = kernels.subset_rate(h, bpso, noise)[0]
            rates["CNN"][t] = kernels.subset_rate(h, cnn_subsets[t], noise)[0]
            rates["ES"][t] = es_rate
            # exhaustive search maximizes the same objective with the same
            # bitwise-batch-independent rates, so it dominates every other
            # method on each individual draw, with no tolerance
            for name in ("Greedy", "BPSO", "CNN"):
                if not es_rate >= rates[name][t]:
                    raise DataError(
                        f"exhaustive search rate {es_rate} below {name} rate "
                        f"{rates[name][t]} (snr {snr_db} dB, trial {t})")
        for name in METHODS:
            rows.append({"snr_db": snr_db, "method": name,
                         "mean_rate": float(np.mean(rates[name])),
                         "std_rate": float(np.std(rates[name]))})
    _write_csv(out, config, ["snr_db", "method", "mean_rate", "std_rate"], rows)
    print(f"wrote {out}")
    return 0


def cmd_csi_sweep(config: ExperimentConfig, out, force: bool) -> int:
    out = out or "csi_sweep.csv"
    _check_writable(out, force)
    state, net_cfg = _load_checkpoint_for(config)
    channels = _draw_eval_channels(config)

    rows = []
    for x_idx, xi in enumerate(config.xi):
        estimated = np.empty_like(channels)
        for t in range(config.trials):
            rng = substream(derive_seed(config.seed, t, x_idx), tag=TAG_CSI)
            estimated[t] = apply_csi_error(channels[t], xi, rng)
        subsets = _predict_subsets(state, net_cfg, estimated,
                                   config.n_users, config.n_select)
        for snr_db in config.snr_db:
            noise = noise_power_from_snr_db(snr_db)
            rates = np.empty(config.trials)
            for t in range(config.trials):
                rates[t] = kernels.subset_rate(channels[t], subsets[t], noise)[0]
            rows.append({"snr_db": snr_db, "xi": xi,
                         "mean_rate": float(np.mean(rates))})
    _write_csv(out, config, ["snr_db", "xi", "mean_rate"], rows)
    print(f"wrote {out}")
    return 0


def cmd_complexity(config: ExperimentConfig, out, force: bool) -> int:
    out = out or "complexity.csv"
    _check_writable(out, force)
    model = OpCountModel(n_tx=config.n_tx, n_users=config.n_users,
                         n_select=config.n_select, bpso_pop=config.bpso_pop,
                         bpso_iters=config.bpso_iters)
    rows = []
    for name in METHODS:
        ops = count_ops(model, name)
        rows.append({"method": name, "operations": ops})
        print(f"{name:8s} {ops:>15,d}")
    _write_csv(out, config, ["method", "operations"], rows)
    print(f"wrote {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="mmwsel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen-dataset", "train", "eval-rate", "csi-sweep", "complexity"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output path")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        overrides = {"seed": args.seed}
        if args.command == "gen-dataset" and args.out:
            overrides["dataset"] = args.out
        if args.command == "train" and args.out:
            overrides["checkpoint"] = args.out
        config = load_config(args.config, overrides)
        if args.command == "gen-dataset":
            return cmd_gen_dataset(config, args.force)
        if args.command == "train":
            return cmd_train(config, args.force)
        if args.command == "eval-rate":
            return cmd_eval_rate(config, args.out, args.force)
        if args.command == "csi-sweep":
            return cmd_csi_sweep(config, args.out, args.force)
        return cmd_complexity(config, args.out, args.force)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
