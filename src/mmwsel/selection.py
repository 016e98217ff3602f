"""User-selection solvers and the subset <-> class-label bijection.

Exhaustive search is the optimum oracle (and the dataset labeler); greedy
adds one rate-maximizing user at a time; binary PSO searches length-n_users
membership strings with a sigmoid velocity transfer and a cardinality
repair that keeps every particle at exactly n_select ones.  Labels are the
0-based lexicographic ranks of the sorted index combinations, so every
solver ties-break toward the smallest label.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from . import kernels
from .channel import TAG_BPSO, substream


def _validate_subset(indices: np.ndarray, n_users: int, n_select: int) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size != n_select:
        raise ValueError(f"subset must hold exactly {n_select} indices")
    if np.any(idx[1:] <= idx[:-1]):
        raise ValueError("subset indices must be strictly increasing")
    if idx.size and (idx[0] < 0 or idx[-1] >= n_users):
        raise ValueError("subset indices out of range")
    return idx


def combo_rank(indices, n_users: int, n_select: int) -> int:
    """Lexicographic rank of a sorted combination, 0-based."""
    idx = _validate_subset(indices, n_users, n_select)
    rank = 0
    prev = -1
    for i, c in enumerate(idx):
        for skipped in range(prev + 1, c):
            rank += comb(n_users - 1 - skipped, n_select - 1 - i)
        prev = int(c)
    return rank


def combo_unrank(label: int, n_users: int, n_select: int) -> np.ndarray:
    """Inverse of combo_rank: the label-th combination in lexicographic order."""
    total = comb(n_users, n_select)
    if not 0 <= label < total:
        raise ValueError(f"label {label} outside [0, {total})")
    remaining = int(label)
    out = np.empty(n_select, dtype=np.int64)
    candidate = 0
    for i in range(n_select):
        while True:
            block = comb(n_users - 1 - candidate, n_select - 1 - i)
            if remaining < block:
                break
            remaining -= block
            candidate += 1
        out[i] = candidate
        candidate += 1
    return out


def all_subsets(n_users: int, n_select: int) -> np.ndarray:
    """(W, n_select) table of all combinations in lexicographic (label) order."""
    return np.array(list(combinations(range(n_users), n_select)), dtype=np.int64)


def exhaustive_search(h: np.ndarray, n_select: int, noise_power: float):
    """Rate-optimal subset by full enumeration; ties go to the smallest label.

    Returns (subset, rate).
    """
    n_users = h.shape[0]
    if n_select > n_users:
        raise ValueError("cannot select more users than available")
    combos = all_subsets(n_users, n_select)
    best_i, best_rate = kernels.scan_best(h, combos, noise_power)
    return combos[best_i].copy(), float(best_rate)


def greedy_select(h: np.ndarray, n_select: int, noise_power: float) -> np.ndarray:
    """Incremental selection: each step adds the user maximizing the sum rate.

    Each step rates all candidates in one ``scan_best`` call over a table
    ordered by the added user, so its first-argmax tie-break picks the
    lowest user index, as a strict ``>`` scan in user order would.
    """
    n_users = h.shape[0]
    if n_select > n_users:
        raise ValueError("cannot select more users than available")
    chosen = np.empty(0, dtype=np.int64)
    for _ in range(n_select):
        rest = np.setdiff1d(np.arange(n_users), chosen)
        candidates = np.sort(np.column_stack(
            [np.broadcast_to(chosen, (rest.size, chosen.size)), rest]), axis=1)
        best, _ = kernels.scan_best(h, candidates, noise_power)
        chosen = np.append(chosen, rest[best])
    return np.sort(chosen)


@dataclass
class BpsoParams:
    """Kennedy-Eberhart defaults; population and iteration counts match the
    complexity model's N_pop x N_iter fitness accounting."""

    pop_size: int = 10
    iterations: int = 10
    inertia_start: float = 0.9
    inertia_end: float = 0.4
    cognitive: float = 2.0
    social: float = 2.0
    v_max: float = 4.0
    seed: int = 0

    def __post_init__(self):
        if self.pop_size < 1 or self.iterations < 0:
            raise ValueError("pop_size must be >= 1 and iterations >= 0")


def _repair(members: np.ndarray, scores: np.ndarray, n_select: int) -> np.ndarray:
    """Per particle (row), the sorted indices of exactly n_select members.

    Members rank before non-members and each group by sigmoid score, so a
    particle with too many members keeps its highest-scoring ones and one
    with too few adds its highest-scoring non-members.  The sort is stable,
    so ties resolve toward the smallest user index.
    """
    order = np.lexsort((-scores, ~members), axis=-1)
    return np.sort(order[:, :n_select], axis=1)


def _positions(subsets: np.ndarray, n_users: int) -> np.ndarray:
    pos = np.zeros((subsets.shape[0], n_users))
    np.put_along_axis(pos, subsets, 1.0, axis=1)
    return pos


def bpso_select(h: np.ndarray, n_select: int, noise_power: float,
                params: BpsoParams, return_history: bool = False):
    """Binary PSO over user-membership strings; returns the global best subset.

    Never worse than the best initial particle: the global best only ever
    improves.  With return_history=True also returns the per-iteration
    global-best rate trace (length iterations + 1, including the initial
    population).

    The whole population is rated in one ``subset_rates`` call per
    iteration.  No position depends on a fitness of the same iteration,
    and gbest is at least every pbest, so improving each pbest where its
    fitness rises and then letting the first argmax replace gbest if it is
    strictly better gives exactly the particle-by-particle update order.
    """
    n_users = h.shape[0]
    if n_select > n_users:
        raise ValueError("cannot select more users than available")
    rng = substream(params.seed, tag=TAG_BPSO)

    subsets = np.sort([rng.permutation(n_users)[:n_select]
                       for _ in range(params.pop_size)], axis=1)
    pos = _positions(subsets, n_users)
    vel = rng.uniform(-params.v_max, params.v_max, size=(params.pop_size, n_users))

    pbest = pos.copy()
    pbest_fit = kernels.subset_rates(h, subsets, noise_power)[0]
    g = int(np.argmax(pbest_fit))
    gbest = pbest[g].copy()
    gbest_fit = float(pbest_fit[g])
    history = [gbest_fit]

    for it in range(params.iterations):
        if params.iterations > 1:
            w = params.inertia_start + (params.inertia_end - params.inertia_start) * (
                it / (params.iterations - 1))
        else:
            w = params.inertia_start
        r1 = rng.random((params.pop_size, n_users))
        r2 = rng.random((params.pop_size, n_users))
        vel = (w * vel + params.cognitive * r1 * (pbest - pos)
               + params.social * r2 * (gbest - pos))
        np.clip(vel, -params.v_max, params.v_max, out=vel)
        scores = 1.0 / (1.0 + np.exp(-vel))
        draws = rng.random((params.pop_size, n_users))
        subsets = _repair(draws < scores, scores, n_select)
        pos = _positions(subsets, n_users)
        fit = kernels.subset_rates(h, subsets, noise_power)[0]
        improved = fit > pbest_fit
        pbest_fit[improved] = fit[improved]
        pbest[improved] = pos[improved]
        g = int(np.argmax(fit))
        if fit[g] > gbest_fit:
            gbest_fit = float(fit[g])
            gbest = pos[g].copy()
        history.append(gbest_fit)

    subset = np.flatnonzero(gbest).astype(np.int64)
    if return_history:
        return subset, history
    return subset
