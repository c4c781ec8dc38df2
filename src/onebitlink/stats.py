"""Exact receive-side statistics conditioned on the transmitted symbol vector.

For a fixed precoded vector x, the dithered input to the one-bit quantizer is
Gaussian with mean x, so every first and second moment of the quantizer output
(and of the residual left after the best linear approximation around x) has a
closed form in the Gauss error function. This module provides those moments,
per quadrature axis, and assembles them into the mean and covariance of the
stacked real received vector that the exact-statistics detector consumes.

Axis convention: real parts first. A complex length-n vector v maps to the
real length-2n vector [Re v; Im v], and a complex matrix product expands as
Re[P Q] = Re P Re Q - Im P Im Q, Im[P Q] = Re P Im Q + Im P Re Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .core import ParameterError, SingularityError

RE = "re"
IM = "im"
AXES = (RE, IM)


def axis_part(z, axis: str) -> np.ndarray:
    """Re or Im part of a complex array, selected by axis tag."""
    z = np.asarray(z)
    if axis == RE:
        return z.real
    if axis == IM:
        return z.imag
    raise ParameterError(f"axis must be {RE!r} or {IM!r}, got {axis!r}")


def stack_ri(v) -> np.ndarray:
    """Stack a complex vector into [Re v; Im v]."""
    v = np.asarray(v)
    return np.concatenate([v.real, v.imag])


def _check_axes(*axes):
    for a in axes:
        if a not in AXES:
            raise ParameterError(f"axis must be {RE!r} or {IM!r}, got {a!r}")


def _check_sigma(sigma2: float):
    if not sigma2 > 0:
        raise SingularityError(
            f"dither variance must be positive for conditional statistics, got {sigma2}"
        )


def _row_coef(P: np.ndarray, axis: str):
    """Real matrices (on_re, on_im) with axis[P v] = on_re @ Re v + on_im @ Im v."""
    if axis == RE:
        return P.real, -P.imag
    return P.imag, P.real


def _phi(x: np.ndarray, sigma2: float, axis: str) -> np.ndarray:
    return erf(axis_part(x, axis) / np.sqrt(sigma2))


# ---------------------------------------------------------------------------
# moments of the quantizer output for fixed x
# ---------------------------------------------------------------------------

def cross_corr_cond(x: np.ndarray, sigma2: float, eta: float,
                    axis_a: str, axis_b: str) -> np.ndarray:
    """E[ A[x_d] B[x_q]^T | x ] for one pair of quadrature axes.

    Off-diagonal entries factor into A[x_n] * Phi(B[x_m]/sigma); the diagonal
    gains an extra sqrt(sigma2/pi) * exp(-(A[x_n]/sigma)^2) term when both
    axes coincide.
    """
    _check_sigma(sigma2)
    _check_axes(axis_a, axis_b)
    x = np.asarray(x, dtype=np.complex128)
    amp = np.sqrt(eta / 2.0)
    C = amp * np.outer(axis_part(x, axis_a), _phi(x, sigma2, axis_b))
    if axis_a == axis_b:
        g = np.sqrt(sigma2 / np.pi) * np.exp(-axis_part(x, axis_a) ** 2 / sigma2)
        C = C + amp * np.diag(g)
    return C


def cross_corr_cond_complex(x: np.ndarray, sigma2: float, eta: float) -> np.ndarray:
    """E[ x_d x_q^H | x ], assembled from the four axis blocks."""
    rr = cross_corr_cond(x, sigma2, eta, RE, RE)
    ii = cross_corr_cond(x, sigma2, eta, IM, IM)
    ri = cross_corr_cond(x, sigma2, eta, RE, IM)
    ir = cross_corr_cond(x, sigma2, eta, IM, RE)
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


def cov_xq_cond(x: np.ndarray, sigma2: float, eta: float,
                axis_a: str, axis_b: str) -> np.ndarray:
    """E[ A[x_q] B[x_q]^T | x ] for one pair of quadrature axes.

    Entries on distinct antennas (or distinct axes) are independent given x,
    so they factor into the product of means; matched-axis diagonal entries
    equal eta/2 exactly because the quantizer output has constant modulus.
    """
    _check_sigma(sigma2)
    _check_axes(axis_a, axis_b)
    x = np.asarray(x, dtype=np.complex128)
    pa, pb = _phi(x, sigma2, axis_a), _phi(x, sigma2, axis_b)
    C = (eta / 2.0) * np.outer(pa, pb)
    if axis_a == axis_b:
        C = C + (eta / 2.0) * np.diag(1.0 - pa * pb)
    return C


def _dither_quad(P: np.ndarray, Q: np.ndarray, sigma2: float,
                 axis_a: str, axis_b: str) -> np.ndarray:
    """E[ A[P d] B[Q d]^T ] for circular Gaussian d with per-axis variance sigma2/2."""
    Pr, Pi = np.asarray(P).real, np.asarray(P).imag
    Qr, Qi = np.asarray(Q).real, np.asarray(Q).imag
    half = sigma2 / 2.0
    if axis_a == axis_b:
        return half * (Pr @ Qr.T + Pi @ Qi.T)
    if (axis_a, axis_b) == (RE, IM):
        return half * (Pr @ Qi.T - Pi @ Qr.T)
    return half * (Pi @ Qr.T - Pr @ Qi.T)


def cross_dither_pd(x: np.ndarray, G: np.ndarray, sigma2: float, eta: float,
                    axis_a: str, axis_b: str) -> np.ndarray:
    """E[ A[d] B[p_d]^T | x ]: dither against the linearization residual.

    Three contributions: the dither/quantizer cross-correlation, minus the
    dither passed through G, minus the deterministic mean coupling.
    """
    _check_sigma(sigma2)
    _check_axes(axis_a, axis_b)
    x = np.asarray(x, dtype=np.complex128)
    G = np.asarray(G)
    C = cross_corr_cond(x, sigma2, eta, axis_a, axis_b)
    # E[A[d] B[G d]^T] in terms of the real and imaginary parts of G
    if axis_a == axis_b:
        KG = G.real.T
    elif (axis_a, axis_b) == (RE, IM):
        KG = G.imag.T
    else:
        KG = -G.imag.T
    mean_q = np.sqrt(eta / 2.0) * _phi(x, sigma2, axis_b)
    return C - (sigma2 / 2.0) * KG - np.outer(axis_part(x, axis_a), mean_q)


def cov_pd(x: np.ndarray, G: np.ndarray, sigma2: float, eta: float,
           axis_a: str, axis_b: str) -> np.ndarray:
    """E[ A[p_d] B[p_d]^T | x ]: second moment of the linearization residual."""
    _check_sigma(sigma2)
    _check_axes(axis_a, axis_b)
    x = np.asarray(x, dtype=np.complex128)
    G = np.asarray(G)

    def p1(a, b):
        # E[ A[G x_d] B[x_q]^T ]
        on_re, on_im = _row_coef(G, a)
        return (on_re @ cross_corr_cond(x, sigma2, eta, RE, b)
                + on_im @ cross_corr_cond(x, sigma2, eta, IM, b))

    gx = G @ x
    return (cov_xq_cond(x, sigma2, eta, axis_a, axis_b)
            - p1(axis_a, axis_b) - p1(axis_b, axis_a).T
            + _dither_quad(G, G, sigma2, axis_a, axis_b)
            + np.outer(axis_part(gx, axis_a), axis_part(gx, axis_b)))


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
    block, both dither/residual cross blocks, the dither passed through H G,
    and the unit-variance receiver noise floor.
    """
    _check_sigma(sigma2)
    if rho < 0:
        raise ParameterError("transmit SNR must be non-negative")
    H = np.asarray(H)
    x = np.asarray(x, dtype=np.complex128)
    G = np.asarray(G)
    m_rx = H.shape[0]
    T = H @ G

    pbar = mean_pd(x, G, sigma2, eta)
    mu = np.sqrt(rho) * stack_ri(H @ pbar)

    d_pd = {(u, v): cross_dither_pd(x, G, sigma2, eta, u, v) for u in AXES for v in AXES}
    p_pd = {(u, v): cov_pd(x, G, sigma2, eta, u, v) for u in AXES for v in AXES}

    def sandwich(left, blocks, right, a, b):
        la = _row_coef(left, a)
        rb = _row_coef(right, b)
        out = np.zeros((m_rx, m_rx))
        for iu, u in enumerate(AXES):
            for iv, v in enumerate(AXES):
                out += la[iu] @ blocks[(u, v)] @ rb[iv].T
        return out

    def block(a, b):
        s_pp = sandwich(H, p_pd, H, a, b)
        s_dp = sandwich(T, d_pd, H, a, b)
        s_pd = sandwich(T, d_pd, H, b, a).T
        c = rho * (s_pp + s_dp + s_pd + _dither_quad(T, T, sigma2, a, b))
        if a == b:
            c = c + 0.5 * np.eye(m_rx)
        return c

    crr = block(RE, RE)
    cri = block(RE, IM)
    cii = block(IM, IM)
    C = np.block([[crr, cri], [cri.T, cii]])
    return NoiseStats(mu=mu, C=C, Sigma=C - np.outer(mu, mu))


# ---------------------------------------------------------------------------
# fast per-candidate kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolKernel:
    """SNR-independent core of the received statistics for one candidate.

    Conditioned on x the quantizer output has independent entries, zero
    cross-axis covariance, and per-axis variances (eta/2)(1 - Phi^2), so the
    received covariance collapses to an axis sandwich of a diagonal matrix:

        mu_y(rho)    = sqrt(rho) * mean_core
        Sigma_y(rho) = rho * inner + I/2

    This is algebraically identical to the term-by-term route, where mu_y is
    sqrt(rho) stack_ri(H G x) plus the noise_stats mean and Sigma_y is the
    noise_stats covariance (the linearization gain cancels), but costs
    O(M^2 N) per candidate, which is what makes exhaustive candidate tables
    affordable.
    """

    mean_core: np.ndarray  # (2M,)
    inner: np.ndarray      # (2M, 2M)


def symbol_kernel(H: np.ndarray, x: np.ndarray, sigma2: float, eta: float) -> SymbolKernel:
    _check_sigma(sigma2)
    H = np.asarray(H)
    x = np.asarray(x, dtype=np.complex128)
    mean_core = stack_ri(H @ mean_xq_cond(x, sigma2, eta))

    phi_r = _phi(x, sigma2, RE)
    phi_i = _phi(x, sigma2, IM)
    d_re = (eta / 2.0) * (1.0 - phi_r ** 2)
    d_im = (eta / 2.0) * (1.0 - phi_i ** 2)
    Hr, Hi = H.real, H.imag
    HrDr, HiDi = Hr * d_re, Hi * d_im
    HiDr, HrDi = Hi * d_re, Hr * d_im
    srr = HrDr @ Hr.T + HiDi @ Hi.T
    sri = HrDr @ Hi.T - HiDi @ Hr.T
    sii = HiDr @ Hi.T + HrDi @ Hr.T
    inner = np.block([[srr, sri], [sri.T, sii]])
    return SymbolKernel(mean_core=mean_core, inner=inner)


def assemble_stats(kernel: SymbolKernel, rho: float):
    """Mean and covariance of the stacked received vector at transmit SNR rho."""
    if rho < 0:
        raise ParameterError("transmit SNR must be non-negative")
    mu = np.sqrt(rho) * kernel.mean_core
    Sigma = rho * kernel.inner + 0.5 * np.eye(kernel.inner.shape[0])
    return mu, Sigma
