from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwsel import kernels
from mmwsel.channel import ArrayGeometry, ChannelConfig, generate_channel_matrix, substream
from mmwsel.rates import evaluate_selection
from mmwsel.selection import (BpsoParams, all_subsets, bpso_select, combo_rank,
                              combo_unrank, exhaustive_search, greedy_select)


def random_channel(seed, n_users=4, n_tx=16):
    cfg = ChannelConfig(n_tx=n_tx, n_users=n_users, geometry=ArrayGeometry(4, 4))
    return generate_channel_matrix(cfg, substream(seed))


# ---------------------------------------------------------------------------
# combination ranking


def test_rank_first_and_last():
    assert combo_rank([0, 1, 2, 3, 4, 5], 10, 6) == 0
    assert combo_rank([4, 5, 6, 7, 8, 9], 10, 6) == 209
    assert combo_rank([0, 1, 2, 3, 4, 6], 10, 6) == 1


def test_unrank_examples():
    np.testing.assert_array_equal(combo_unrank(0, 4, 2), [0, 1])
    np.testing.assert_array_equal(combo_unrank(5, 4, 2), [2, 3])


def test_bijection_all_210_labels():
    for label in range(comb(10, 6)):
        assert combo_rank(combo_unrank(label, 10, 6), 10, 6) == label


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bijection_property(data):
    n = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(1, n))
    label = data.draw(st.integers(0, comb(n, k) - 1))
    subset = combo_unrank(label, n, k)
    assert combo_rank(subset, n, k) == label


def test_rank_agrees_with_lexicographic_enumeration():
    for i, c in enumerate(combinations(range(7), 3)):
        assert combo_rank(list(c), 7, 3) == i


def test_rank_rejects_invalid():
    with pytest.raises(ValueError):
        combo_rank([1, 0], 4, 2)
    with pytest.raises(ValueError):
        combo_rank([0, 0], 4, 2)
    with pytest.raises(ValueError):
        combo_unrank(6, 4, 2)


# ---------------------------------------------------------------------------
# exhaustive search


def test_es_single_candidate():
    h = random_channel(1)
    subset, rate = exhaustive_search(h, 4, 0.1)
    np.testing.assert_array_equal(subset, [0, 1, 2, 3])
    assert rate > 0


def test_es_matches_independent_enumeration():
    for seed in range(10):
        h = random_channel(seed)
        subset, rate = exhaustive_search(h, 2, 0.1)
        best = max(combinations(range(4), 2),
                   key=lambda c: evaluate_selection(h, c, 0.1).sum_rate)
        assert rate == pytest.approx(evaluate_selection(h, best, 0.1).sum_rate, abs=1e-9)
        assert tuple(subset) == best


def test_es_prefers_dominant_user():
    rng = substream(55)
    # near-orthogonal rows, one user amplified far above the rest
    h = np.linalg.qr(rng.standard_normal((16, 16))
                     + 1j * rng.standard_normal((16, 16)))[0][:4].conj()
    h[2] *= 100.0
    subset, _ = exhaustive_search(h, 2, 0.1)
    assert 2 in subset


# ---------------------------------------------------------------------------
# greedy


def test_greedy_full_selection():
    h = random_channel(2)
    np.testing.assert_array_equal(greedy_select(h, 4, 0.1), [0, 1, 2, 3])


def test_greedy_single_step_equals_es():
    for seed in range(5):
        h = random_channel(seed)
        np.testing.assert_array_equal(greedy_select(h, 1, 0.1),
                                      exhaustive_search(h, 1, 0.1)[0])


def test_greedy_never_beats_es():
    strict = 0
    for seed in range(1000):
        h = random_channel(seed)
        _, es_rate = exhaustive_search(h, 2, 0.1)
        g_rate, _, _ = kernels.subset_rate(h, greedy_select(h, 2, 0.1), 0.1)
        assert g_rate <= es_rate + 1e-12
        if g_rate < es_rate - 1e-9:
            strict += 1
    # greedy is suboptimal on some instances
    assert strict > 0


# ---------------------------------------------------------------------------
# BPSO


def test_bpso_zero_iterations_returns_best_initial():
    h = random_channel(3, n_users=6)
    subset, history = bpso_select(h, 3, 0.1, BpsoParams(iterations=0, seed=9),
                                  return_history=True)
    assert len(history) == 1
    rate, _, _ = kernels.subset_rate(h, subset, 0.1)
    assert rate == pytest.approx(history[0])


def test_bpso_deterministic():
    h = random_channel(4, n_users=6)
    params = BpsoParams(seed=123)
    np.testing.assert_array_equal(bpso_select(h, 3, 0.1, params),
                                  bpso_select(h, 3, 0.1, params))


def test_bpso_history_nondecreasing():
    h = random_channel(5, n_users=6)
    _, history = bpso_select(h, 3, 0.1, BpsoParams(seed=7), return_history=True)
    assert len(history) == 11
    assert all(b >= a for a, b in zip(history, history[1:]))


def test_bpso_subset_is_valid():
    h = random_channel(6, n_users=6)
    subset = bpso_select(h, 3, 0.1, BpsoParams(seed=1))
    assert subset.size == 3
    assert np.all(np.diff(subset) > 0)
    assert subset.min() >= 0 and subset.max() < 6


def test_method_ordering_statistics():
    # mean greedy <= mean BPSO <= mean ES over 500 instances, and ES
    # dominates BPSO on every single instance
    es, gr, bp = [], [], []
    for seed in range(500):
        h = random_channel(seed, n_users=6)
        _, es_rate = exhaustive_search(h, 3, 0.1)
        gr.append(kernels.subset_rate(h, greedy_select(h, 3, 0.1), 0.1)[0])
        subset = bpso_select(h, 3, 0.1, BpsoParams(seed=seed))
        bp_rate, _, _ = kernels.subset_rate(h, subset, 0.1)
        assert bp_rate <= es_rate + 1e-12
        es.append(es_rate)
        bp.append(bp_rate)
    assert np.mean(gr) <= np.mean(bp) <= np.mean(es)


# ---------------------------------------------------------------------------
# regression pins: picks of the per-subset straight-line kernel that the
# batched engine replaced, on channel substream(seed)

# seed: (ES label, greedy, BPSO pop 3 x 2 iterations, BPSO defaults), all
# seed=seed; the picks are the same at 0, 10 and 20 dB SNR
DESK_PINS = {
    0: (3, (0, 1, 5), (1, 2, 5), (0, 1, 5)),
    1: (12, (1, 2, 5), (2, 4, 5), (1, 2, 5)),
    2: (17, (2, 3, 5), (0, 2, 3), (2, 3, 5)),
    3: (18, (2, 4, 5), (0, 2, 5), (2, 4, 5)),
    4: (3, (0, 1, 5), (0, 1, 5), (0, 1, 5)),
    5: (2, (0, 1, 4), (1, 4, 5), (0, 1, 4)),
    6: (5, (0, 2, 4), (0, 1, 2), (0, 2, 4)),
    7: (12, (1, 2, 5), (0, 1, 5), (1, 2, 5)),
    8: (7, (0, 3, 4), (0, 1, 3), (0, 3, 4)),
    9: (7, (0, 3, 4), (0, 3, 4), (0, 3, 4)),
}
# seed: ES label at 144 antennas, 10 users, pick 6, 10 dB
FULL_PINS = {0: 103, 1: 149, 2: 74}


def test_regression_pins_desk():
    for seed, (label, greedy, bpso_small, bpso) in DESK_PINS.items():
        h = random_channel(seed, n_users=6)
        for snr_db in (0.0, 10.0, 20.0):
            noise = 10.0 ** (-snr_db / 10.0)
            assert combo_rank(exhaustive_search(h, 3, noise)[0], 6, 3) == label
            assert tuple(greedy_select(h, 3, noise)) == greedy
            small = BpsoParams(pop_size=3, iterations=2, seed=seed)
            assert tuple(bpso_select(h, 3, noise, small)) == bpso_small
            assert tuple(bpso_select(h, 3, noise, BpsoParams(seed=seed))) == bpso


def test_regression_pins_full_scale():
    cfg = ChannelConfig(n_tx=144, n_users=10, geometry=ArrayGeometry(12, 12))
    for seed, label in FULL_PINS.items():
        h = generate_channel_matrix(cfg, substream(seed))
        assert combo_rank(exhaustive_search(h, 6, 0.1)[0], 10, 6) == label
