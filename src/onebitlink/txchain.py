"""Symbol-averaged statistics of the transmit chain.

The chain precodes x = W s, adds Gaussian dither d ~ CN(0, sigma2 I) and
quantizes each quadrature to one bit, quantize_1bit(x + d, eta); the
harness runs it on whole batches of symbol vectors at once. This module
gives its unconditional second-order statistics: the dithered-signal
covariance, the equivalent linear gain of the quantizer under a
Gaussian-input assumption, and the quantizer output covariance reconstructed
through the complex arcsine law.
"""

from __future__ import annotations

import numpy as np

from .core import ParameterError, SingularityError

_CLAMP = 1.0 - 1e-15


def cov_xd(W: np.ndarray, sigma2: float) -> np.ndarray:
    """Covariance of the dithered signal for unit-power Gaussian symbols."""
    W = np.asarray(W)
    if sigma2 < 0:
        raise ParameterError("dither variance must be non-negative")
    return W @ W.conj().T + sigma2 * np.eye(W.shape[0])


def bussgang_gain(C_xd: np.ndarray, eta: float) -> np.ndarray:
    """Equivalent linear gain of the quantizer for a Gaussian input.

    The gain is the diagonal matrix sqrt(2*eta/pi) * Diag(C_xd)^(-1/2); the
    residual distortion is uncorrelated with the input by construction.
    """
    if not eta > 0:
        raise ParameterError("eta must be positive")
    dvar = np.diag(np.asarray(C_xd)).real
    if np.any(dvar <= 0):
        idx = int(np.argmax(dvar <= 0))
        raise SingularityError(f"input variance is zero on antenna {idx}")
    return np.diag(np.sqrt(2.0 * eta / np.pi) / np.sqrt(dvar))


def cov_xq_unconditional(C_xd: np.ndarray, eta: float) -> np.ndarray:
    """Quantizer output covariance for a Gaussian input, via the arcsine law.

    The normalized input correlations R feed elementwise
    (2*eta/pi) * (asin(Re R) + 1j*asin(Im R)); correlations are clamped to
    [-1+1e-15, 1-1e-15] so roundoff cannot push asin out of domain. The
    diagonal is set to exactly eta.
    """
    C_xd = np.asarray(C_xd)
    dvar = np.diag(C_xd).real
    if np.any(dvar <= 0):
        raise SingularityError("zero-variance antenna has no defined correlation")
    dinv = 1.0 / np.sqrt(dvar)
    R = C_xd * np.outer(dinv, dinv)
    re = np.clip(R.real, -_CLAMP, _CLAMP)
    im = np.clip(R.imag, -_CLAMP, _CLAMP)
    C = (2.0 * eta / np.pi) * (np.arcsin(re) + 1j * np.arcsin(im))
    np.fill_diagonal(C, eta)
    return C


def cov_y_unconditional(H: np.ndarray, C_xq: np.ndarray, rho: float) -> np.ndarray:
    """Received-signal covariance rho * H C_xq H^H + I for unit-power noise."""
    H = np.asarray(H)
    if rho < 0:
        raise ParameterError("transmit SNR must be non-negative")
    return rho * H @ np.asarray(C_xq) @ H.conj().T + np.eye(H.shape[0])
