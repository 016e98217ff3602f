"""Geometric Saleh-Valenzuela mmWave channels for single-antenna users.

The transmitter is a uniform planar array (UPA); each of the ``n_users``
single-antenna receivers sees a sparse multipath channel

    h = sqrt(n_tx / (path_loss * n_paths)) * sum_l gain_l * conj(a(az_l, el_l))

with complex path gains ~ CN(0, 1), azimuth departure angles uniform on
[0, 2*pi) and elevation on [0, pi).  All randomness flows through explicit
``numpy.random.Generator`` streams backed by the counter-based Philox
generator, so every artifact is a pure function of (config, seed).
"""

from dataclasses import dataclass

import numpy as np

# Identifier written into dataset metadata; streams are Philox4x64 keyed
# directly (no SeedSequence hashing) so they are stable across platforms.
RNG_ALGORITHM = "philox4x64-xor"

# Substream purpose tags.  Must stay globally unique across the package:
# they occupy the high 64 bits of the 128-bit Philox key.
TAG_SAMPLE = 1      # dataset sample generation
TAG_VERIFY = 2      # dataset label spot-checks
TAG_SHUFFLE = 3     # training epoch shuffles
TAG_DROPOUT = 4     # dropout masks
TAG_INIT = 5        # network weight init
TAG_EVAL = 6        # evaluation channel draws
TAG_CSI = 7         # imperfect-CSI error draws
TAG_BPSO = 8        # BPSO swarm randomness

_MASK64 = 0xFFFFFFFFFFFFFFFF


def substream(seed: int, index: int = 0, tag: int = 0) -> np.random.Generator:
    """Independent Philox stream for (seed, index, tag).

    The low key word is ``seed XOR index`` (per-sample substream rule),
    the high word is the purpose tag.
    """
    key = (int(tag) << 64) | ((int(seed) ^ int(index)) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(base: int, *parts: int) -> int:
    """Mix index parts into a base seed (LCG-style) for nested substreams."""
    s = int(base) & _MASK64
    for p in parts:
        s = (s * 6364136223846793005 + (int(p) & _MASK64) * 1442695040888963407 + 1) & _MASK64
    return s


@dataclass
class ArrayGeometry:
    """UPA layout: rows_m x cols_n elements, spacing in wavelengths."""

    rows_m: int
    cols_n: int
    spacing: float = 0.5

    def __post_init__(self):
        if self.rows_m < 1 or self.cols_n < 1:
            raise ValueError("UPA dimensions must be >= 1")
        if self.spacing <= 0:
            raise ValueError("element spacing must be positive")

    @property
    def n_elements(self) -> int:
        return self.rows_m * self.cols_n


@dataclass
class ChannelConfig:
    """Scenario constants for channel generation."""

    n_tx: int
    n_users: int
    geometry: ArrayGeometry
    n_paths: int = 3
    path_loss: float = 1.0

    def __post_init__(self):
        if self.n_tx != self.geometry.n_elements:
            raise ValueError("n_tx must equal rows_m * cols_n of the geometry")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.path_loss <= 0:
            raise ValueError("path_loss must be positive")


def square_geometry(n_tx: int, spacing: float = 0.5) -> ArrayGeometry:
    """Square UPA for a perfect-square element count (e.g. 144 -> 12x12)."""
    side = int(round(np.sqrt(n_tx)))
    if side * side != n_tx:
        raise ValueError(f"{n_tx} is not a perfect square; pass rows/cols explicitly")
    return ArrayGeometry(side, side, spacing)


def upa_steering(azimuth: float, elevation: float, geometry: ArrayGeometry) -> np.ndarray:
    r"""Unit-norm UPA spatial signature.

    Element (m * cols_n + n) carries phase
    2*pi*spacing*(m*sin(azimuth)*sin(elevation) + n*cos(elevation)),
    scaled by 1/sqrt(n_elements) so the vector has unit Euclidean norm
    and every entry modulus 1/sqrt(n_elements).
    """
    m = np.arange(geometry.rows_m)[:, None]
    n = np.arange(geometry.cols_n)[None, :]
    phase = 2.0 * np.pi * geometry.spacing * (
        m * (np.sin(azimuth) * np.sin(elevation)) + n * np.cos(elevation)
    )
    a = np.exp(1j * phase) / np.sqrt(geometry.n_elements)
    return a.reshape(-1)


def user_channel_from_paths(
    gains: np.ndarray,
    azimuths: np.ndarray,
    elevations: np.ndarray,
    geometry: ArrayGeometry,
    path_loss: float = 1.0,
) -> np.ndarray:
    """Assemble one user's channel row from explicit path parameters."""
    gains = np.asarray(gains, dtype=np.complex128)
    n_paths = gains.shape[0]
    h = np.zeros(geometry.n_elements, dtype=np.complex128)
    for g, az, el in zip(gains, azimuths, elevations):
        h += g * np.conj(upa_steering(az, el, geometry))
    return np.sqrt(geometry.n_elements / (path_loss * n_paths)) * h


def generate_user_channel(config: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw one user's channel: n_paths i.i.d. paths, CN(0,1) gains."""
    azimuths = rng.uniform(0.0, 2.0 * np.pi, size=config.n_paths)
    elevations = rng.uniform(0.0, np.pi, size=config.n_paths)
    gains = (rng.standard_normal(config.n_paths)
             + 1j * rng.standard_normal(config.n_paths)) / np.sqrt(2.0)
    return user_channel_from_paths(gains, azimuths, elevations,
                                   config.geometry, config.path_loss)


def generate_channel_matrix(config: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """Stack n_users independent user channels into an (n_users, n_tx) matrix."""
    h = np.empty((config.n_users, config.n_tx), dtype=np.complex128)
    for n in range(config.n_users):
        h[n] = generate_user_channel(config, rng)
    return h


def apply_csi_error(h: np.ndarray, xi: float, rng: np.random.Generator) -> np.ndarray:
    """Imperfect-CSI estimate: xi*H + sqrt(1 - xi^2)*E with E ~ i.i.d. CN(0,1)."""
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"CSI accuracy must lie in [0, 1], got {xi}")
    err = (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)) / np.sqrt(2.0)
    return xi * h + np.sqrt(1.0 - xi * xi) * err
