"""Output checks, run outside the timed region.

Rates are re-derived through ``rates.evaluate_selection`` (explicit
precoder matrices), a code path independent of the ``kernels`` routine
the CLI uses.  Labels map to subsets through ``itertools.combinations``,
whose lexicographic order is the label order.
"""

import csv
import math
from itertools import combinations

import numpy as np

from mmwsel import cnn, rates

NEAR_TIE_REL = 1e-9   # two rates this close count as a tie
MATCH_REL = 1e-9      # oracle and CLI rates must agree this closely


def subsets(n_users: int, n_select: int):
    return list(combinations(range(n_users), n_select))


def oracle_rates(h: np.ndarray, table, noise_power: float) -> np.ndarray:
    """Sum rate of every subset of ``table`` on channel ``h``."""
    return np.array([rates.evaluate_selection(h, s, noise_power).sum_rate for s in table])


def channel_from_planes(planes: np.ndarray) -> np.ndarray:
    return planes[0].astype(np.float64) + 1j * planes[1].astype(np.float64)


def check_label(planes, label: int, table, noise_power: float):
    """Classify a stored label against the oracle.

    Returns (status, label_rate, best_rate) with status "exact" (the
    oracle's first-best subset), "near_tie" (within NEAR_TIE_REL of the
    best) or "wrong".
    """
    r = oracle_rates(channel_from_planes(planes), table, noise_power)
    best = float(r.max())
    got = float(r[label]) if 0 <= label < len(table) else -math.inf
    if label == int(np.argmax(r)):
        status = "exact"
    elif got >= best * (1.0 - NEAR_TIE_REL):
        status = "near_tie"
    else:
        status = "wrong"
    return status, got, best


def read_rate_csv(path):
    """Rows of an eval-rate CSV as {(snr_db, method): mean_rate}."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return {(float(row["snr_db"]), row["method"]): float(row["mean_rate"])
            for row in csv.DictReader(lines)}


def read_train_metrics(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def checkpoint_problem(path, epochs: int, in_shape, n_classes: int):
    """None if the checkpoint and its metrics CSV are sound, else a reason."""
    try:
        _, cfg = cnn.load_checkpoint(path)
    except (OSError, ValueError) as exc:
        return f"checkpoint does not reload: {exc}"
    if (cfg.in_height, cfg.in_width, cfg.n_classes) != (*in_shape, n_classes):
        return "checkpoint shape does not match the workload"
    try:
        rows = read_train_metrics(f"{path}.metrics.csv")
    except OSError as exc:
        return f"metrics CSV missing: {exc}"
    if [int(r["epoch"]) for r in rows] != list(range(epochs)):
        return f"metrics CSV has {len(rows)} rows for {epochs} epochs"
    if not all(math.isfinite(float(r["train_loss"])) for r in rows):
        return "non-finite training loss"
    return None
