"""Reference loops that put timings on a steady scale.

On a shared host, CPU speed drifts by up to 2x over tens of seconds as
other tenants load it, and a fixed loop slows down with it.  Every timed
region is therefore scaled by a reference loop's nominal duration over
its duration measured right before and after the region: times read as
seconds on a machine where the loop takes exactly its nominal time.  Each
workload uses the loop whose kind of work matches its hot path, as that
loop tracks the drift best.  No loop runs mmwsel code, so a change to the
program cannot move it.
"""

import statistics
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_REF_ROWS = np.random.default_rng(0).standard_normal((6, 288)).view(np.complex128)
_REF_DESK_ROWS = _REF_ROWS[:3, :16]
_REF_PLANES = np.random.default_rng(1).standard_normal((100, 2, 6, 16)).astype(np.float32)
_REF_FILTERS = np.random.default_rng(2).standard_normal((18, 16)).astype(np.float32)
_REF_DENSE = np.random.default_rng(3).standard_normal((256, 1024)).astype(np.float32)


def _median_time(work, passes=5) -> float:
    """Median wall time of ``passes`` runs of ``work``, so that one
    preempted pass does not skew the scale."""
    times = []
    for _ in range(passes):
        start = perf_counter()
        work()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _sum_rate(rows):
    """Sum rate of the users in ``rows``, computed the way the selection
    solvers' straight-line kernel does it: a per-entry conjugate-phase loop
    of numpy scalar operations, an SVD pseudo-inverse, per-stream
    normalisation and per-user SINR loops."""
    k, n_tx = rows.shape
    scale = 1.0 / np.sqrt(n_tx)
    analog = np.empty((n_tx, k), dtype=np.complex128)
    for i in range(k):
        for j in range(n_tx):
            mag = np.abs(rows[i, j])
            if mag > 0.0:
                analog[j, i] = (np.conj(rows[i, j]) / mag) * scale
            else:
                analog[j, i] = scale
    u, s, vh = np.linalg.svd(rows @ analog)
    fwd = analog @ ((vh.conj().T / s) @ u.conj().T)
    for j in range(k):
        fwd[:, j] = fwd[:, j] / np.sqrt(np.sum(np.abs(fwd[:, j]) ** 2))
    gain = rows @ fwd
    rate = 0.0
    for i in range(k):
        interference = 0.0
        for j in range(k):
            if j != i:
                interference += np.abs(gain[i, j]) ** 2
        rate += np.log2(1.0 + np.abs(gain[i, i]) ** 2 / (interference + 0.1))
    return rate


def full_kernel_loop() -> float:
    """One subset-rate evaluation at full scale: 6 users on 144 antennas."""
    return _median_time(lambda: _sum_rate(_REF_ROWS))


def desk_kernel_loop() -> float:
    """Subset-rate evaluations at desk scale: 3 users on 16 antennas."""
    def work():
        for _ in range(10):
            _sum_rate(_REF_DESK_ROWS)
    return _median_time(work)


def conv_loop() -> float:
    """A float32 training step of a small CNN on the desk input shape
    (batch 100, 2 x 6 x 16): im2col convolution, ReLU, 2x2 max-pool, a
    256 x 1024 dense layer and their weight gradients.  Like the desk CNN,
    it mixes small-array numpy calls with matrix products."""
    def work():
        padded = np.pad(_REF_PLANES, ((0, 0), (0, 0), (1, 1), (1, 1)))
        cols = (sliding_window_view(padded, (3, 3), axis=(2, 3))
                .transpose(0, 2, 3, 1, 4, 5).reshape(-1, 18))
        out = np.maximum((cols @ _REF_FILTERS).reshape(100, 6, 16, 16), 0)
        pooled = out.reshape(100, 3, 2, 8, 2, 16).max(axis=(2, 4))
        flat = pooled.reshape(100, -1)[:, :256]
        hidden = np.maximum(flat @ _REF_DENSE, 0)
        grad_hidden = hidden * (hidden > 0)
        flat.T @ grad_hidden
        grad_flat = grad_hidden @ _REF_DENSE.T
        grad = np.repeat(np.repeat(pooled, 2, axis=1), 2, axis=2) * (out > 0)
        grad.reshape(100, -1)[:, :256] += grad_flat
        cols.T @ grad.reshape(-1, 16)
    return _median_time(work)


# Nominal duration of each reference loop, in seconds.
REFERENCE_S = {full_kernel_loop: 0.0015, desk_kernel_loop: 0.0015, conv_loop: 0.004}


def scaled(wall, reference, ref_before, ref_after):
    """``wall`` in seconds of a machine on which ``reference`` takes its
    nominal time, from the loop's times right before and after."""
    return wall * REFERENCE_S[reference] / ((ref_before + ref_after) / 2.0)
