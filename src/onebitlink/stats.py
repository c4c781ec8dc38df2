"""Exact receive-side statistics conditioned on the transmitted symbol vector.

For a fixed precoded vector x, the dithered input to the one-bit quantizer is
Gaussian with mean x, so every first and second moment of the quantizer output
(and of the residual left after the best linear approximation around x) has a
closed form in the Gauss error function, `core.erf`. `conditional_moments`
derives them all term by term, as the reference the oracle and the tests
check against; `symbol_kernel` and `assemble_stats` build the mean and
covariance of the stacked real received vector that the exact-statistics
detector consumes, from the per-channel `receive_basis`.

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
from functools import lru_cache

import numpy as np

from .core import ParameterError, SingularityError, erf


def stack_ri(v) -> np.ndarray:
    """Stack complex vectors into [Re v, Im v] along the last axis."""
    v = np.asarray(v)
    return np.concatenate([v.real, v.imag], axis=-1)


def embed(P) -> np.ndarray:
    """Real form [[Re P, -Im P], [Im P, Re P]] of a complex matrix P."""
    P = np.asarray(P)
    return np.block([[P.real, -P.imag], [P.imag, P.real]])


def _check_sigma(sigma2):
    if not np.all(np.asarray(sigma2) > 0):
        raise SingularityError(
            f"dither variance must be positive for conditional statistics, got {sigma2}"
        )


def _phi(x: np.ndarray, sigma2) -> np.ndarray:
    """core.erf(stack_ri(x) / sigma): the stacked sign means of the quantizer, unscaled.

    A 1-D array of dither variances gives a leading axis, one entry per variance.
    """
    xs = stack_ri(x)
    sigma = np.sqrt(sigma2)
    return erf(xs / np.reshape(sigma, np.shape(sigma) + (1,) * xs.ndim))


# ---------------------------------------------------------------------------
# moments for a fixed precoded vector x
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


def lmmse_gain(x: np.ndarray, sigma2: float, eta: float) -> np.ndarray:
    """Best linear approximation of the quantizer around the fixed vector x.

    G(x) minimizes E||x_q - G x_d||^2 over the dither, so
    G = C_{x_d x_q}^H (x x^H + sigma2 I)^{-1}, with E[x_d x_q^H] read off the
    blocks of `cross_corr_cond`; the inverse is evaluated with the rank-one
    downdate identity rather than a dense solve.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    C = cross_corr_cond(x, sigma2, eta)
    Ch = (C[:n, :n] + C[n:, n:] + 1j * (C[n:, :n] - C[:n, n:])).conj().T
    # (sigma2 I + x x^H)^{-1} = (I - x x^H / (sigma2 + ||x||^2)) / sigma2
    nx2 = float(np.vdot(x, x).real)
    return (Ch - np.outer(Ch @ x, x.conj()) / (sigma2 + nx2)) / sigma2


def conditional_moments(x: np.ndarray, H: np.ndarray, G: np.ndarray,
                        sigma2: float, eta: float, rho: float) -> dict:
    """Fixed-symbol moments of the linearized chain, keyed like the oracle kinds.

    The term-by-term reference route for the precoded vector x, the gain G
    and the channel H at transmit SNR rho: the moments of the quantizer
    output x_q, then of the residual p_d = x_q - G x_d, then of the effective
    noise sqrt(rho) H (G d + p_d) + z, each built once from those before it.
    """
    _check_sigma(sigma2)
    if rho < 0:
        raise ParameterError("transmit SNR must be non-negative")
    x = np.asarray(x, dtype=np.complex128)
    H, G = np.asarray(H), np.asarray(G)
    n = x.size
    xs, phi = stack_ri(x), _phi(x, sigma2)
    He, Ge, Te = embed(H), embed(G), embed(H @ G)

    # x_q: distinct entries are independent given x, so they factor into the
    # product of means; the diagonal is exactly eta/2 (constant modulus)
    mean_xq = np.sqrt(eta / 2.0) * phi
    cross_xd_xq = cross_corr_cond(x, sigma2, eta)
    cov_xq = (eta / 2.0) * np.outer(phi, phi) + (eta / 2.0) * np.diag(1.0 - phi * phi)

    # p_d: against the dither, the dither/quantizer term minus the dither
    # passed through G minus the deterministic mean coupling
    gx = G @ x
    mean_pd = mean_xq[:n] + 1j * mean_xq[n:] - gx
    cross_d_pd = cross_xd_xq - (sigma2 / 2.0) * Ge.T - np.outer(xs, mean_xq)
    P1 = Ge @ cross_xd_xq  # E[ stack_ri(G x_d) stack_ri(x_q)^T ]
    gxs = stack_ri(gx)
    cov_pd = cov_xq - P1 - P1.T + (sigma2 / 2.0) * Ge @ Ge.T + np.outer(gxs, gxs)

    # noise: the residual/residual term, both dither/residual cross terms,
    # the dither through H G (per-axis variance sigma2/2) and the floor I/2
    D = Te @ cross_d_pd @ He.T
    noise_cov = (rho * (He @ cov_pd @ He.T + D + D.T + (sigma2 / 2.0) * Te @ Te.T)
                 + 0.5 * np.eye(He.shape[0]))
    return {
        "mean_xq": mean_xq, "cross_xd_xq": cross_xd_xq, "cov_xq": cov_xq,
        "mean_pd": stack_ri(mean_pd), "cross_d_pd": cross_d_pd, "cov_pd": cov_pd,
        "noise_mean": np.sqrt(rho) * stack_ri(H @ mean_pd), "noise_cov": noise_cov,
    }


# ---------------------------------------------------------------------------
# fast per-candidate kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReceiveBasis:
    """What the received statistics need of one channel H, built once per channel.

    He = embed(H), the upper triangle of the row-wise Khatri-Rao product of
    He with itself, kr = He[i] * He[j] for i <= j in `np.triu_indices`
    order, shape (2M(2M+1)/2, 2N), and the eigenbasis
    He He^T = embed(H H^H) = V diag(lam) V^T, with lam clipped at 0. Rows
    (i, j) and (j, i) of the full product are equal, so kr keeps one of
    each. Every candidate's covariance is a congruence by He (see
    `SymbolKernel`), so this is the one object the kernels and the
    detector's bound share.
    """

    He: np.ndarray   # (2M, 2N)
    kr: np.ndarray   # (2M(2M+1)/2, 2N) rows He[i] * He[j], i <= j
    lam: np.ndarray  # (2M,) ascending eigenvalues of He He^T, at least 0
    V: np.ndarray    # (2M, 2M) orthonormal eigenvectors, one per column


def receive_basis(H: np.ndarray) -> ReceiveBasis:
    """The per-channel `ReceiveBasis` of the channel matrix H, shape (M, N)."""
    He = embed(H)
    dim = He.shape[0]
    kr = np.empty((dim * (dim + 1) // 2, He.shape[1]))
    lo = 0
    for i in range(dim):
        # row i's block of the triangle, written in place: no (pairs, 2N) temporaries
        np.multiply(He[i], He[i:], out=kr[lo:lo + dim - i])
        lo += dim - i
    lam, V = np.linalg.eigh(He @ He.T)
    return ReceiveBasis(He=He, kr=kr, lam=np.maximum(lam, 0.0), V=V)


@dataclass(frozen=True)
class SymbolKernel:
    """SNR-independent core of the received statistics, one per candidate.

    Conditioned on x the quantizer output has independent entries, zero
    cross-axis covariance, and per-axis variances d = (eta/2)(1 - Phi^2), so
    the received covariance is a congruence of a diagonal matrix:

        mu_y(rho)    = sqrt(rho) * mean_core
        Sigma_y(rho) = rho * inner + I/2,   inner = embed(H) diag(d) embed(H)^T

    inner is symmetric and is kept packed: its upper triangle, entries
    (i, j) with i <= j in `np.triu_indices` order, 2M(2M+1)/2 of them, which
    `assemble_stats` unpacks into the full Sigma_y. The fields stack over
    the leading axes of x, after a leading point axis when the dither
    variance is a 1-D array of them. The packed inner matrices of all
    candidates, at every dither variance, come from one GEMM of the stacked
    d against the channel's packed Khatri-Rao product `ReceiveBasis.kr`.
    dmax = max(d) bounds D = diag(d) by dmax I, so
    Sigma_y <= I/2 + rho dmax embed(H H^H) in the Loewner order: the
    detector's pruning bound.

    This is algebraically identical to the term-by-term route of
    `conditional_moments`, where mu_y is sqrt(rho) stack_ri(H G x) plus its
    noise_mean and Sigma_y is its noise_cov minus the outer product of
    noise_mean (the linearization gain cancels), but costs O(M^2 N) per
    candidate, which is what makes exhaustive candidate tables affordable.
    """

    mean_core: np.ndarray  # (..., 2M)
    inner: np.ndarray      # (..., 2M(2M+1)/2) upper triangle of embed(H) diag(d) embed(H)^T
    dmax: np.ndarray       # (...,) largest per-axis variance of the quantizer output


def symbol_kernel(basis: ReceiveBasis, x: np.ndarray, sigma2,
                  eta: float) -> SymbolKernel:
    """Kernel of the precoded vector x, shape (N,), or of each row of x, shape (L, N).

    basis is the channel's `receive_basis`. sigma2 is one dither variance,
    or a 1-D array of P of them, which puts a leading axis of P points on
    every field; each point's kernel equals the one built at its variance
    alone. inner comes out packed, one row of the GEMM against `basis.kr`
    per candidate.
    """
    _check_sigma(sigma2)
    He = basis.He
    phi = _phi(np.asarray(x, dtype=np.complex128), sigma2)
    mean_core = np.sqrt(eta / 2.0) * phi @ He.T
    d = (eta / 2.0) * (1.0 - phi * phi)
    rows = d.reshape(-1, d.shape[-1]) if d.ndim > 2 else d
    inner = (rows @ basis.kr.T).reshape(d.shape[:-1] + basis.kr.shape[:1])
    return SymbolKernel(mean_core=mean_core, inner=inner, dmax=d.max(axis=-1))


def assemble_stats(kernel: SymbolKernel, rho: float):
    """Mean and covariance of the stacked received vector at transmit SNR rho.

    Broadcasts over the kernel's leading axes. The packed inner matrices
    are unpacked into full, exactly symmetric (2M, 2M) matrices by one
    `np.take` through `_symmetric_index`, then scaled by rho and given I/2
    on the diagonal in place, so no other matrix-sized temporary is formed.
    """
    if rho < 0:
        raise ParameterError("transmit SNR must be non-negative")
    mu = np.sqrt(rho) * kernel.mean_core
    dim = kernel.mean_core.shape[-1]
    Sigma = np.take(kernel.inner, _symmetric_index(dim), axis=-1)
    Sigma *= rho
    diag = np.arange(dim)
    Sigma[..., diag, diag] += 0.5
    return mu, Sigma


@lru_cache(maxsize=4)
def _symmetric_index(dim: int) -> np.ndarray:
    """(dim, dim) map from entry (i, j) to its place in a packed upper triangle.

    Entries (i, j) and (j, i) both map to the `np.triu_indices(dim)`
    position of (min, max). Built once per size and shared, read-only, by
    every `assemble_stats` call.
    """
    i, j = np.triu_indices(dim)
    index = np.empty((dim, dim), dtype=np.intp)
    index[i, j] = index[j, i] = np.arange(i.size)
    index.flags.writeable = False
    return index
