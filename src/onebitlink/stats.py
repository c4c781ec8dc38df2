"""Exact receive-side statistics conditioned on the transmitted symbol vector.

For a fixed precoded vector x, the dithered input to the one-bit quantizer is
Gaussian with mean x, so every first and second moment of the quantizer output
(and of the residual left after the best linear approximation around x) has a
closed form in the Gauss error function. This module provides those moments
and assembles them into the mean and covariance of the stacked real received
vector that the exact-statistics detector consumes.

Stacked-real convention: real parts first. A complex length-n vector v maps
to the real length-2n vector stack_ri(v) = [Re v; Im v] (a batch of vectors
stacks along its last axis), a complex matrix P to
embed(P) = [[Re P, -Im P], [Im P, Re P]], so that
stack_ri(P v) = embed(P) stack_ri(v). Every second moment E[a b^T] is the
full (2n, 2n) real matrix of the stacked vectors, holding all four
quadrature blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .core import ParameterError, SingularityError


def stack_ri(v) -> np.ndarray:
    """Stack complex vectors into [Re v, Im v] along the last axis."""
    v = np.asarray(v)
    return np.concatenate([v.real, v.imag], axis=-1)


def embed(P) -> np.ndarray:
    """Real form [[Re P, -Im P], [Im P, Re P]] of a complex matrix P."""
    P = np.asarray(P)
    return np.block([[P.real, -P.imag], [P.imag, P.real]])


def _check_sigma(sigma2: float):
    if not sigma2 > 0:
        raise SingularityError(
            f"dither variance must be positive for conditional statistics, got {sigma2}"
        )


def _phi(x: np.ndarray, sigma2: float) -> np.ndarray:
    """erf(stack_ri(x) / sigma): the stacked sign means of the quantizer, unscaled."""
    return erf(stack_ri(x) / np.sqrt(sigma2))


# ---------------------------------------------------------------------------
# moments of the quantizer output for fixed x
# ---------------------------------------------------------------------------

def cross_corr_cond(x: np.ndarray, sigma2: float, eta: float) -> np.ndarray:
    """E[ stack_ri(x_d) stack_ri(x_q)^T | x ].

    With xs = stack_ri(x), entry (i, j) factors into
    sqrt(eta/2) * xs_i * erf(xs_j/sigma); the diagonal (same antenna, same
    axis) gains an extra sqrt(eta/2) * sqrt(sigma2/pi) * exp(-xs_i^2/sigma2).
    """
    _check_sigma(sigma2)
    x = np.asarray(x, dtype=np.complex128)
    xs = stack_ri(x)
    amp = np.sqrt(eta / 2.0)
    g = np.sqrt(sigma2 / np.pi) * np.exp(-xs ** 2 / sigma2)
    return amp * np.outer(xs, _phi(x, sigma2)) + amp * np.diag(g)


def cross_corr_cond_complex(x: np.ndarray, sigma2: float, eta: float) -> np.ndarray:
    """E[ x_d x_q^H | x ], read off the blocks of the stacked cross-correlation."""
    n = np.asarray(x).size
    C = cross_corr_cond(x, sigma2, eta)
    rr, ri, ir, ii = C[:n, :n], C[:n, n:], C[n:, :n], C[n:, n:]
    return rr + ii + 1j * (ir - ri)


def lmmse_gain(x: np.ndarray, sigma2: float, eta: float) -> np.ndarray:
    """Best linear approximation of the quantizer around the fixed vector x.

    G(x) minimizes E||x_q - G x_d||^2 over the dither, so
    G = C_{x_d x_q}^H (x x^H + sigma2 I)^{-1}; the inverse is evaluated with
    the rank-one downdate identity rather than a dense solve.
    """
    _check_sigma(sigma2)
    x = np.asarray(x, dtype=np.complex128)
    Ch = cross_corr_cond_complex(x, sigma2, eta).conj().T
    # (sigma2 I + x x^H)^{-1} = (I - x x^H / (sigma2 + ||x||^2)) / sigma2
    nx2 = float(np.vdot(x, x).real)
    return (Ch - np.outer(Ch @ x, x.conj()) / (sigma2 + nx2)) / sigma2


def mean_xq_cond(x: np.ndarray, sigma2: float, eta: float) -> np.ndarray:
    """E[ x_q | x ]: per-axis scaled error functions of x/sigma."""
    _check_sigma(sigma2)
    x = np.asarray(x, dtype=np.complex128)
    sig = np.sqrt(sigma2)
    return np.sqrt(eta / 2.0) * (erf(x.real / sig) + 1j * erf(x.imag / sig))


def mean_pd(x: np.ndarray, G: np.ndarray, sigma2: float, eta: float) -> np.ndarray:
    """Mean of the linearization residual p_d = x_q - G x_d given x."""
    return mean_xq_cond(x, sigma2, eta) - np.asarray(G) @ np.asarray(x, dtype=np.complex128)


def cov_xq_cond(x: np.ndarray, sigma2: float, eta: float) -> np.ndarray:
    """E[ stack_ri(x_q) stack_ri(x_q)^T | x ].

    Entries on distinct antennas (or distinct axes) are independent given x,
    so they factor into the product of means; diagonal entries equal eta/2
    exactly because the quantizer output has constant modulus.
    """
    _check_sigma(sigma2)
    phi = _phi(np.asarray(x, dtype=np.complex128), sigma2)
    return (eta / 2.0) * np.outer(phi, phi) + (eta / 2.0) * np.diag(1.0 - phi * phi)


def cross_dither_pd(x: np.ndarray, G: np.ndarray, sigma2: float, eta: float) -> np.ndarray:
    """E[ stack_ri(d) stack_ri(p_d)^T | x ]: dither against the linearization residual.

    Three contributions: the dither/quantizer cross-correlation, minus the
    dither passed through G, minus the deterministic mean coupling.
    """
    _check_sigma(sigma2)
    x = np.asarray(x, dtype=np.complex128)
    mean_q = np.sqrt(eta / 2.0) * _phi(x, sigma2)
    return (cross_corr_cond(x, sigma2, eta) - (sigma2 / 2.0) * embed(G).T
            - np.outer(stack_ri(x), mean_q))


def cov_pd(x: np.ndarray, G: np.ndarray, sigma2: float, eta: float) -> np.ndarray:
    """E[ stack_ri(p_d) stack_ri(p_d)^T | x ]: second moment of the linearization residual."""
    _check_sigma(sigma2)
    x = np.asarray(x, dtype=np.complex128)
    G = np.asarray(G)
    Ge = embed(G)
    P1 = Ge @ cross_corr_cond(x, sigma2, eta)  # E[ stack_ri(G x_d) stack_ri(x_q)^T ]
    gx = stack_ri(G @ x)
    return (cov_xq_cond(x, sigma2, eta) - P1 - P1.T
            + (sigma2 / 2.0) * Ge @ Ge.T + np.outer(gx, gx))


# ---------------------------------------------------------------------------
# effective noise and received-vector statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseStats:
    mu: np.ndarray     # (2M,) mean of the stacked effective noise
    C: np.ndarray      # (2M, 2M) second moment
    Sigma: np.ndarray  # (2M, 2M) covariance, C - mu mu^T


def noise_stats(H: np.ndarray, x: np.ndarray, G: np.ndarray,
                sigma2: float, eta: float, rho: float) -> NoiseStats:
    """Moments of the effective noise sqrt(rho) H (G d + p_d) + z given x.

    Assembled term by term from the residual moments: the residual/residual
    term, both dither/residual cross terms, the dither passed through H G
    (per-axis variance sigma2/2), and the unit-variance receiver noise floor.
    """
    _check_sigma(sigma2)
    if rho < 0:
        raise ParameterError("transmit SNR must be non-negative")
    H = np.asarray(H)
    x = np.asarray(x, dtype=np.complex128)
    G = np.asarray(G)
    He, Te = embed(H), embed(H @ G)

    mu = np.sqrt(rho) * stack_ri(H @ mean_pd(x, G, sigma2, eta))
    D = Te @ cross_dither_pd(x, G, sigma2, eta) @ He.T
    C = (rho * (He @ cov_pd(x, G, sigma2, eta) @ He.T + D + D.T
                + (sigma2 / 2.0) * Te @ Te.T)
         + 0.5 * np.eye(He.shape[0]))
    return NoiseStats(mu=mu, C=C, Sigma=C - np.outer(mu, mu))


# ---------------------------------------------------------------------------
# fast per-candidate kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolKernel:
    """SNR-independent core of the received statistics, one per candidate.

    Conditioned on x the quantizer output has independent entries, zero
    cross-axis covariance, and per-axis variances d = (eta/2)(1 - Phi^2), so
    the received covariance is a congruence of a diagonal matrix:

        mu_y(rho)    = sqrt(rho) * mean_core
        Sigma_y(rho) = rho * inner + I/2,   inner = embed(H) diag(d) embed(H)^T

    The fields stack over the leading axes of x. With He = embed(H), the
    inner matrices of all candidates come from one GEMM of the stacked d
    against the row-wise Khatri-Rao product He[i, :] * He[j, :], of shape
    (4M^2, 2N).

    This is algebraically identical to the term-by-term route, where mu_y is
    sqrt(rho) stack_ri(H G x) plus the noise_stats mean and Sigma_y is the
    noise_stats covariance (the linearization gain cancels), but costs
    O(M^2 N) per candidate, which is what makes exhaustive candidate tables
    affordable.
    """

    mean_core: np.ndarray  # (..., 2M)
    inner: np.ndarray      # (..., 2M, 2M)


def symbol_kernel(H: np.ndarray, x: np.ndarray, sigma2: float, eta: float) -> SymbolKernel:
    """Kernel of the precoded vector x, shape (N,), or of each row of x, shape (L, N)."""
    _check_sigma(sigma2)
    He = embed(H)
    phi = _phi(np.asarray(x, dtype=np.complex128), sigma2)
    mean_core = np.sqrt(eta / 2.0) * phi @ He.T
    d = (eta / 2.0) * (1.0 - phi * phi)
    kr = (He[:, None, :] * He[None, :, :]).reshape(-1, He.shape[1])
    inner = (d @ kr.T).reshape(d.shape[:-1] + (He.shape[0],) * 2)
    return SymbolKernel(mean_core=mean_core, inner=inner)


def assemble_stats(kernel: SymbolKernel, rho: float):
    """Mean and covariance of the stacked received vector at transmit SNR rho.

    Broadcasts over the kernel's leading axes; I/2 is added in place on the
    diagonal, so no identity-sized temporary is formed.
    """
    if rho < 0:
        raise ParameterError("transmit SNR must be non-negative")
    mu = np.sqrt(rho) * kernel.mean_core
    Sigma = rho * kernel.inner
    diag = np.arange(Sigma.shape[-1])
    Sigma[..., diag, diag] += 0.5
    return mu, Sigma
