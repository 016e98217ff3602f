from itertools import combinations

import numpy as np
import pytest

from mmwsel.channel import ArrayGeometry, ChannelConfig, substream
from mmwsel.dataset import (BadMagic, LabelMismatch, TruncatedPayload,
                            VersionMismatch, build_dataset, label_sample,
                            load_dataset, load_split, normalize_sample,
                            restore_channel, split_counts)
from mmwsel.rates import evaluate_selection
from mmwsel.selection import combo_rank


def small_config(n_tx=16, n_users=4):
    return ChannelConfig(n_tx=n_tx, n_users=n_users, geometry=ArrayGeometry(4, 4))


# ---------------------------------------------------------------------------
# normalization


def test_normalize_constant_matrix():
    h = np.full((2, 3), 1.0 + 2.0j)
    planes = normalize_sample(h)
    assert planes.shape == (2, 2, 3)
    assert np.all(planes[0] == 1.0)
    assert np.all(planes[1] == 2.0)


def test_normalize_real_matrix_zero_imag_plane():
    h = np.arange(6.0).reshape(2, 3).astype(np.complex128)
    assert np.all(normalize_sample(h)[1] == 0.0)


def test_normalize_lossless_round_trip():
    rng = substream(1)
    h = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    assert np.array_equal(restore_channel(normalize_sample(h)), h)


# ---------------------------------------------------------------------------
# labeling


def test_label_trivial_single_class():
    cfg = small_config()
    h = substream(2).standard_normal((4, 16)) + 0j
    assert label_sample(h, 4, 0.1) == 0  # W = C(4,4) = 1


def test_label_dominant_pair():
    rng = substream(3)
    # users 0 and 1 dominate: near-orthogonal rows scaled up
    q = np.linalg.qr(rng.standard_normal((16, 16))
                     + 1j * rng.standard_normal((16, 16)))[0]
    h = q[:4].conj().copy()
    h[0] *= 50
    h[1] *= 50
    label = label_sample(h, 2, 0.1)
    assert label == combo_rank([0, 1], 4, 2) == 0
    # verify by explicit enumeration over all 6 subsets
    rates = {c: evaluate_selection(h, c, 0.1).sum_rate
             for c in combinations(range(4), 2)}
    assert max(rates, key=rates.get) == (0, 1)


def test_label_deterministic():
    h = substream(4).standard_normal((4, 16)) + 1j * substream(5).standard_normal((4, 16))
    assert label_sample(h, 2, 0.1) == label_sample(h, 2, 0.1)


# ---------------------------------------------------------------------------
# build / load


def test_build_contract(tmp_path):
    path = tmp_path / "tiny.mmws"
    manifest = build_dataset(small_config(), 100, 2, 0.1, 77, path)
    assert manifest["n_samples"] == 100
    assert manifest["n_classes"] == 6
    planes, labels, header = load_dataset(path)
    assert planes.shape == (100, 2, 4, 16)
    assert planes.dtype == np.float32
    assert labels.max() < 6
    assert header.noise_power == 0.1
    assert header.base_seed == 77
    assert (tmp_path / "tiny.mmws.manifest").exists()


def test_build_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.mmws", tmp_path / "b.mmws"
    build_dataset(small_config(), 50, 2, 0.1, 123, p1)
    build_dataset(small_config(), 50, 2, 0.1, 123, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.mmws.manifest").read_text() \
        == (tmp_path / "b.mmws.manifest").read_text()


def test_label_histogram_covers_classes(tmp_path):
    cfg = ChannelConfig(n_tx=16, n_users=6, geometry=ArrayGeometry(4, 4))
    path = tmp_path / "hist.mmws"
    build_dataset(cfg, 5000, 3, 0.1, 9, path)
    _, labels, header = load_dataset(path)
    coverage = np.unique(labels).size / header.n_classes
    assert coverage > 0.9


def test_round_trip_and_split(tmp_path):
    path = tmp_path / "rt.mmws"
    build_dataset(small_config(), 40, 2, 0.1, 5, path)
    planes, labels, header = load_dataset(path)
    xtr, ytr, xte, yte, _ = load_split(path)
    assert split_counts(40) == (36, 4)
    assert xtr.shape[0] == 36 and xte.shape[0] == 4
    assert np.array_equal(np.concatenate([ytr, yte]), labels.astype(np.int64))


def test_stored_labels_verify(tmp_path):
    path = tmp_path / "v.mmws"
    build_dataset(small_config(), 200, 2, 0.1, 6, path)
    load_dataset(path, verify_fraction=0.05)  # raises on mismatch


def test_corrupted_label_detected(tmp_path):
    path = tmp_path / "c.mmws"
    build_dataset(small_config(), 10, 2, 0.1, 8, path)
    blob = bytearray(path.read_bytes())
    blob[-40:] = b"\x05\x00\x00\x00" * 10  # overwrite all labels with 5
    path.write_bytes(bytes(blob))
    with pytest.raises(LabelMismatch):
        load_dataset(path, verify_fraction=1.0)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.mmws"
    build_dataset(small_config(), 5, 2, 0.1, 1, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagic):
        load_dataset(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "ver.mmws"
    build_dataset(small_config(), 5, 2, 0.1, 1, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        load_dataset(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "tr.mmws"
    build_dataset(small_config(), 5, 2, 0.1, 1, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(TruncatedPayload):
        load_dataset(path)
    path.write_bytes(blob + b"extra")
    with pytest.raises(TruncatedPayload):
        load_dataset(path)


def test_rejects_oversized_sample_count(tmp_path):
    with pytest.raises(ValueError):
        build_dataset(small_config(), 2**32, 2, 0.1, 1, tmp_path / "x.mmws")
