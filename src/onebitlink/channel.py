"""Clustered multipath MIMO channel model and the matched linear precoder.

The channel is a sum of planar-wave paths between two uniform linear arrays:
each path has an i.i.d. complex normal gain and departure/arrival angles drawn
uniformly inside an angular spread around broadside. Entries come out with
unit average power.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from numbers import Real

import numpy as np

from .core import ParameterError, TopKSubspace, complex_normal, svd_topk


@dataclass(frozen=True)
class ChannelParams:
    n_rx: int
    n_tx: int
    n_paths: int = 100
    angular_spread: float = np.pi / 6
    center_aoa: float = 0.0
    center_aod: float = 0.0
    spacing: float = 0.5  # element spacing in carrier wavelengths

    def __post_init__(self):
        if self.n_rx < 1 or self.n_tx < 1:
            raise ParameterError("antenna counts must be positive")
        if self.n_paths < 1:
            raise ParameterError("need at least one propagation path")
        spread = self.angular_spread
        if not (isinstance(spread, Real) and isfinite(spread) and spread >= 0):
            raise ParameterError(
                f"angular spread must be a finite non-negative number, got {spread!r}")


def steering(n_antennas: int, angle, spacing: float = 0.5) -> np.ndarray:
    """ULA steering vector exp(1j*2*pi*spacing*i*sin(angle)), i = 0..n-1.

    A scalar angle gives shape (n,); an array of angles gives one vector per
    angle along the trailing axes, shape (n, *angle.shape).
    """
    angle = np.asarray(angle)
    idx = np.arange(n_antennas).reshape((n_antennas,) + (1,) * angle.ndim)
    return np.exp(1j * 2.0 * np.pi * spacing * idx * np.sin(angle))


def draw_path_angles(params: ChannelParams,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-path (arrival, departure) angles, uniform in center +- spread/2."""
    half = params.angular_spread / 2.0
    aoa = rng.uniform(params.center_aoa - half, params.center_aoa + half,
                      size=params.n_paths)
    aod = rng.uniform(params.center_aod - half, params.center_aod + half,
                      size=params.n_paths)
    return aoa, aod


def draw_channel(params: ChannelParams, rng: np.random.Generator) -> np.ndarray:
    """One channel realization H with E|H_{m,n}|^2 = 1.

    H = (1/sqrt(P)) * sum_p g_p a_rx(theta_p) a_tx(phi_p)^H with g_p ~ CN(0,1)
    and both angle sets uniform in [center - spread/2, center + spread/2].
    """
    p = params
    aoa, aod = draw_path_angles(p, rng)
    gains = complex_normal(rng, p.n_paths)

    a_rx = steering(p.n_rx, aoa, p.spacing)  # (M, P)
    a_tx = steering(p.n_tx, aod, p.spacing)  # (N, P)
    return (a_rx * gains[None, :]) @ a_tx.conj().T / np.sqrt(p.n_paths)


def make_precoder(H: np.ndarray, n_streams: int) -> TopKSubspace:
    """Precoder = right singular vectors of H for the top n_streams modes."""
    return svd_topk(H, n_streams)

