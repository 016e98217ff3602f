"""Batched subset-rate engine: the hot inner loop of every selection solver.

Rating a user subset S means: build the conjugate-phase analog precoder
of its rows, zero-force the effective channel, normalize per-stream power
and accumulate log2(1 + SINR).  The analog column of user u depends on
user u's row alone, so with

    F = exp(-j * angle(H)).T / sqrt(n_tx)     (n_tx x n_users)
    G = H @ F,   A = F^H @ F                  (n_users x n_users)

every subset's effective channel is the k x k submatrix G[S, S], and the
squared norm of a precoded stream F[:, S] @ f is f^H A[S, S] f.  After one
O(n_users^2 * n_tx) precompute per channel, each subset costs one k x k
SVD pseudo-inverse, whatever n_tx is, and a whole table of subsets is one
batched call.  Each row of the result is computed on its own, so a rate is
bitwise the same whichever batch it arrives in; exhaustive search and a
single-subset re-evaluation of its winner therefore agree exactly.

``precoding`` + ``rates.evaluate_selection`` build the explicit matrices
instead and serve as the independent reference.  ``BACKEND`` names the one
implementation for run records.
"""

import numpy as np

from .precoding import ZF_RCOND

BACKEND = "numpy"


def subset_rates(h: np.ndarray, combos: np.ndarray, noise_power: float):
    """Rate every row of a (W, k) table of user subsets of ``h``.

    Returns (rates (W,), sinr (W, k), rank_deficient (W,)).  A numerically
    singular effective channel (singular values at or below ZF_RCOND times
    the largest) loses those streams and is flagged, not rejected.
    """
    h = np.asarray(h, dtype=np.complex128)
    combos = np.asarray(combos, dtype=np.int64)
    f = np.exp(-1j * np.angle(h)).T / np.sqrt(h.shape[1])
    gram = h @ f
    power = f.conj().T @ f
    rows, cols = combos[:, :, None], combos[:, None, :]
    g_sub = gram[rows, cols]

    u, s, vh = np.linalg.svd(g_sub)
    keep = (s > ZF_RCOND * s[:, :1]) & (s > 0.0)
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    f_bb = (vh.conj().transpose(0, 2, 1) * s_inv[:, None, :]) @ u.conj().transpose(0, 2, 1)

    norm = np.sqrt(np.real(np.sum(f_bb.conj() * (power[rows, cols] @ f_bb), axis=1)))
    f_bb = f_bb / np.where(norm > 0.0, norm, 1.0)[:, None, :]

    gains = np.abs(g_sub @ f_bb) ** 2
    signal = np.diagonal(gains, axis1=1, axis2=2)
    interference = np.sum(np.where(np.eye(combos.shape[1], dtype=bool), 0.0, gains), axis=2)
    sinr = signal / (interference + noise_power)
    return np.sum(np.log2(1.0 + sinr), axis=1), sinr, ~np.all(keep, axis=1)


def subset_rate(h: np.ndarray, idx: np.ndarray, noise_power: float):
    """(sum_rate, sinr, rank_deficient) of one subset: a batch of one."""
    rates, sinr, flags = subset_rates(h, np.asarray(idx, dtype=np.int64)[None, :], noise_power)
    return float(rates[0]), sinr[0], bool(flags[0])


def scan_best(h: np.ndarray, combos: np.ndarray, noise_power: float):
    """Best row of a (W, k) combination table; returns (row_index, rate).

    Ties go to the first row, i.e. the lowest label of a lexicographic table.
    """
    rates = subset_rates(h, combos, noise_power)[0]
    best = int(np.argmax(rates))
    return best, float(rates[best])
