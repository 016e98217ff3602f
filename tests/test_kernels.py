"""The batched subset-rate engine against the explicit-matrix composition
of ``precoding`` + ``rates.evaluate_selection``, which shares no code with
``kernels``."""

import numpy as np
import pytest

from mmwsel import kernels
from mmwsel.channel import ArrayGeometry, ChannelConfig, generate_channel_matrix, substream
from mmwsel.rates import evaluate_selection
from mmwsel.selection import all_subsets


def random_channel(seed, n_users=6, n_tx=16):
    side = int(round(np.sqrt(n_tx)))
    cfg = ChannelConfig(n_tx=n_tx, n_users=n_users, geometry=ArrayGeometry(side, side))
    return generate_channel_matrix(cfg, substream(seed))


def test_kernel_matches_modular_pipeline():
    for seed in range(20):
        h = random_channel(seed)
        idx = np.array([0, 2, 4])
        rate, sinr, flag = kernels.subset_rate(h, idx, 0.1)
        report = evaluate_selection(h, idx, 0.1)
        assert rate == pytest.approx(report.sum_rate, abs=1e-9)
        np.testing.assert_allclose(sinr, report.sinr, rtol=1e-9)
        assert flag == report.rank_deficient


def test_subset_rates_match_reference_full_scale():
    combos = all_subsets(10, 6)
    for seed in range(2):
        h = random_channel(seed, n_users=10, n_tx=144)
        rates, sinr, flags = kernels.subset_rates(h, combos, 0.1)
        assert rates.shape == flags.shape == (210,)
        assert sinr.shape == (210, 6)
        for i, combo in enumerate(combos):
            report = evaluate_selection(h, combo, 0.1)
            assert rates[i] == pytest.approx(report.sum_rate, rel=1e-12)
            np.testing.assert_allclose(sinr[i], report.sinr, rtol=1e-9)
            assert flags[i] == report.rank_deficient


def test_rates_independent_of_batch():
    h = random_channel(21, n_users=10, n_tx=144)
    combos = all_subsets(10, 6)
    rates, sinr, flags = kernels.subset_rates(h, combos, 0.05)
    for start in range(0, 210, 10):
        part = kernels.subset_rates(h, combos[start:start + 10], 0.05)
        assert np.array_equal(part[0], rates[start:start + 10])
        assert np.array_equal(part[1], sinr[start:start + 10])
    for i in range(210):
        rate, row_sinr, flag = kernels.subset_rate(h, combos[i], 0.05)
        assert rate == rates[i]
        assert np.array_equal(row_sinr, sinr[i])
        assert flag == flags[i]


def test_scan_best_matches_python_loop():
    h = random_channel(7)
    combos = all_subsets(6, 3)
    best_i, best_rate = kernels.scan_best(h, combos, 0.1)
    rates = [evaluate_selection(h, c, 0.1).sum_rate for c in combos]
    assert best_i == int(np.argmax(rates))
    assert best_rate == pytest.approx(max(rates), abs=1e-9)


def test_scan_best_ties_go_to_first_row():
    h = random_channel(8)
    combos = np.array([[0, 1], [0, 2], [0, 1], [0, 2]])
    rates = kernels.subset_rates(h, combos, 0.1)[0]
    assert rates[0] == rates[2] and rates[1] == rates[3]
    best_i, best_rate = kernels.scan_best(h, combos, 0.1)
    assert best_i == (0 if rates[0] >= rates[1] else 1)
    assert best_rate == rates.max()


def test_rank_deficient_subset_flagged():
    h = random_channel(9)
    h[3] = h[1]
    rate, _, flag = kernels.subset_rate(h, np.array([1, 3]), 0.1)
    assert flag
    assert np.isfinite(rate)


def test_mixed_batch_flags_only_deficient_rows():
    h = random_channel(9)
    h[3] = h[1]
    combos = np.array([[0, 1, 2], [1, 3, 5], [0, 4, 5], [0, 1, 3], [2, 4, 5]])
    rates, _, flags = kernels.subset_rates(h, combos, 0.1)
    np.testing.assert_array_equal(flags, [False, True, False, True, False])
    assert np.all(np.isfinite(rates))
    for combo, flag in zip(combos, flags):
        assert evaluate_selection(h, combo, 0.1).rank_deficient == flag


def test_kernel_single_user():
    h = random_channel(11)
    rate, sinr, flag = kernels.subset_rate(h, np.array([2]), 0.5)
    assert not flag
    assert sinr.shape == (1,)
    assert rate == pytest.approx(np.log2(1 + sinr[0]))
