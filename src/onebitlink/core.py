"""Numerical building blocks: one-bit quantizer, error function, factorizations,
constellations, and seeded RNG sub-streams.

Everything downstream (channel, transmit chain, receive statistics, detectors)
is built on the small set of primitives defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class SingularityError(ArithmeticError):
    """An operation hit a singular configuration (e.g. zero dither variance)."""


class FactorizationError(ArithmeticError):
    """A matrix to be factored by Cholesky is not positive definite.

    No jitter is added and no retry is made: a failed factorization raises.

    Attributes
    ----------
    pivot : int
        Zero-based index of the first leading minor found not positive
        definite: in the block recursion, within the Schur complement of the
        leaf that failed, offset to the whole matrix.
    index : tuple of int
        Position of the failing matrix in the stack that was factored; ()
        for one matrix.
    """

    def __init__(self, message, pivot: int, index: tuple = ()):
        super().__init__(message)
        self.pivot = pivot
        self.index = index


# ---------------------------------------------------------------------------
# one-bit quantizer
# ---------------------------------------------------------------------------

def axis_magnitude(eta: float) -> float:
    """Per-axis output magnitude c ~ sqrt(eta/2), ulp-refined.

    c is chosen so that the per-entry squared modulus 2*fl(c*c) equals eta
    bit-exactly whenever a representable double allows it, which makes the
    total transmit power of an N-entry output sum to exactly N*eta for the
    power-of-two antenna counts used at scale. Falls back to the correctly
    rounded square root when no exact representable value exists.
    """
    c0 = math.sqrt(eta / 2.0)
    best, best_err = c0, abs(2.0 * (c0 * c0) - eta)
    up = dn = c0
    for _ in range(3):
        up = math.nextafter(up, math.inf)
        dn = math.nextafter(dn, -math.inf)
        for c in (up, dn):
            err = abs(2.0 * (c * c) - eta)
            if err < best_err:
                best, best_err = c, err
    return best


def quantize_1bit(x: np.ndarray, eta: float) -> np.ndarray:
    """Element-wise one-bit quantization of both quadratures.

    Maps each entry to c*(sgn(Re) + 1j*sgn(Im)) with c ~ sqrt(eta/2), with the
    convention sgn(0) = +1 so every output entry has squared modulus eta.
    Real input is read as the stacked-real form [Re, Im] of a complex array
    and maps each entry to c*sgn(entry), so that
    quantize_1bit(stack_ri(x), eta) == stack_ri(quantize_1bit(x, eta)).

    Each rail is computed as (x >= 0) * 2c - c in float64: 1 * 2c - c == c and
    0 * 2c - c == -c exactly, so the output equals np.where(x >= 0, c, -c)
    bit for bit (signed zeros map to +c, NaN to -c) with one compare and two
    in-place passes. Complex input goes the same way as its interleaved real
    view [Re, Im, Re, Im, ...], written into the complex output's view.

    Parameters
    ----------
    x : array_like of complex, or of real in stacked form
        Input of any shape (batches allowed).
    eta : float
        Per-entry output power, must be > 0.
    """
    if not eta > 0:
        raise ParameterError(f"eta must be positive, got {eta}")
    x = np.asarray(x)
    c = axis_magnitude(eta)
    if not np.iscomplexobj(x):
        return _rail(x, c, np.empty(x.shape))
    out = np.empty(x.shape, dtype=np.complex128)
    _rail(np.ascontiguousarray(x).reshape(-1).view(x.real.dtype), c,
          out.reshape(-1).view(np.float64))
    return out


def _rail(x: np.ndarray, c: float, out: np.ndarray) -> np.ndarray:
    """out = c where x >= 0, else -c, written into the float64 array out."""
    np.greater_equal(x, 0, out=out)
    out *= 2.0 * c
    out -= c
    return out


# ---------------------------------------------------------------------------
# error function
# ---------------------------------------------------------------------------

# The rational approximations of Cephes ndtr.c, each numerator stacked on its
# denominator, whose leading 1 (Cephes p1evl) is written out; T gets a leading
# 0 to match U's length. Both pads are exact: 0*z + T[0] == T[0] and
# 1*z + U[0] == z + U[0].
#   |x| <= 1:    erf(x)  = x T(x^2) / U(x^2)
#   1 < x < 8:   erfc(x) = exp(-x^2) P(x) / Q(x)
_ERF_TU = np.array([
    [0.0, 9.60497373987051638749E0, 9.00260197203842689217E1,
     2.23200534594684319226E3, 7.00332514112805075473E3, 5.55923013010394962768E4],
    [1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
     4.59432382970980127987E3, 2.26290000613890934246E4, 4.92673942608635921086E4],
])
_ERFC_PQ = np.array([
    [2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
     4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
     9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2],
    [1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
     3.54937778887819891062E2, 9.75708501743205489753E2, 1.82390916687909736289E3,
     2.24633760818710981792E3, 1.65666309194161350182E3, 5.57535340817727675546E2],
])
# Values per block of `erf`, so a block and its Horner workspace stay in cache.
ERF_BLOCK = 8192


def erf(x) -> np.ndarray:
    """The Gauss error function of float64 values, element-wise, any shape.

    A port of Cephes ndtr.c, the routine behind scipy.special.erf, in its
    operation order: bit-identical to it wherever numpy's exp rounds as the
    C library's does, and within 1 ulp elsewhere. For 1 < |x| < 8,
    erf(x) = copysign(1 - erfc(|x|), x). For |x| >= 8 Cephes evaluates erfc
    by a third fraction, but erfc(8) < 2^-54, so 1 - erfc rounds to 1 there
    and the result is sign(x), as at +-inf. NaN gives NaN and -0 gives -0.
    Each numerator and its denominator come from one Horner pass over a
    (2, n) stack (`_horner2`); a branch holding no values of a block is
    skipped.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    for lo in range(0, flat.size, ERF_BLOCK):
        xb, ob = flat[lo:lo + ERF_BLOCK], flat_out[lo:lo + ERF_BLOCK]
        ax = np.abs(xb)
        np.sign(xb, out=ob)
        small = np.flatnonzero(ax <= 1.0)
        if small.size:
            xs = xb[small]
            t, u = _horner2(_ERF_TU, xs * xs)
            ob[small] = xs * t / u
        mid = np.flatnonzero((ax > 1.0) & (ax < 8.0))
        if mid.size:
            a = ax[mid]
            p, q = _horner2(_ERFC_PQ, a)
            ob[mid] = np.copysign(1.0 - np.exp(-a * a) * p / q, xb[mid])
    return out if out.ndim else out[()]


def _horner2(coef: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Both rows of coef, (2, d) highest power first, as polynomials at z: (2, n)."""
    acc = coef[:, :1] * z
    acc += coef[:, 1:2]
    for c in coef[:, 2:].T:
        acc *= z
        acc += c[:, None]
    return acc


# ---------------------------------------------------------------------------
# factorizations
# ---------------------------------------------------------------------------

# Leaf order of the block recursion `_inv_chol_into`: blocks of this order or
# less are factored by one LAPACK call and inverted by `tril_inv`, since below
# it the recursion's batched products lose to LAPACK.
CHOL_LEAF = 32


class CholFactor(NamedTuple):
    """Inverse lower Cholesky factors and log-determinants from `chol_logdet`.

    `jitter` is always 0.0: a failed factorization raises instead of being
    retried with jitter. The property stays only because the benchmark's
    tracer reads it for its core.chol_jitter_events count; it goes when the
    tracer stops reading it (ROADMAP item 1).
    """

    inv_factor: np.ndarray  # (..., d, d) L^{-1}, L lower triangular with S = L L^T
    logdet: np.ndarray      # (...,) log-determinants; a float for one matrix

    @property
    def jitter(self) -> float:
        return 0.0


def chol_logdet(S: np.ndarray) -> CholFactor:
    """Inverse lower Cholesky factors and log-determinants of symmetric PD matrices.

    S is one (d, d) matrix or a (..., d, d) stack; it is never modified. One
    copy of S is overwritten with the inverse factors by the block recursion
    of `_inv_chol_into`, in batched products over the stack, with exact zeros
    above the diagonal; up to d = CHOL_LEAF that is one np.linalg.cholesky
    call and `tril_inv`. Raises ParameterError naming the first matrix with a
    NaN or Inf entry before factoring anything (the factorization does not
    flag a NaN pivot), and FactorizationError naming the first matrix and
    pivot where the factorization fails.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim < 2 or S.shape[-1] != S.shape[-2]:
        raise ParameterError(f"expected a square matrix or a stack of them, got shape {S.shape}")
    bad = ~np.isfinite(S).all(axis=(-2, -1))
    if bad.any():
        raise ParameterError(f"matrix{_at(S, np.argwhere(bad)[0])} has non-finite entries "
                             "(NaN or Inf)")
    inv = S.copy()
    logdet = _inv_chol_into(inv)
    return CholFactor(inv, float(logdet) if S.ndim == 2 else logdet)


def _inv_chol_into(A: np.ndarray, offset: int = 0) -> np.ndarray:
    """Overwrite a stack of SPD matrices with their inverse lower Cholesky factors.

    With A = [[S11, S21^T], [S21, S22]] split at d/2 and I11 = L11^{-1}, the
    factor's blocks are L21 = S21 I11^T and L22 L22^T = S22 - L21 L21^T, and
    the inverse's lower block is -I22 L21 I11. Each block is overwritten in
    turn (S11 by I11, S22 by its Schur complement and then by I22, S21 by
    -I22 L21 I11) and the upper block is zeroed, so the only buffers are the
    products' own. Blocks of order CHOL_LEAF or less are factored by LAPACK
    and inverted by `tril_inv`. A holds pivots offset.. of the matrices being
    factored. Returns the log-determinants; raises FactorizationError at the
    first leaf that is not positive definite, with A then partly overwritten.
    """
    d = A.shape[-1]
    if d <= CHOL_LEAF:
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            raise _factorization_error(A, offset) from None
        A[...] = tril_inv(L)
        return 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)
    h = d // 2
    I11, S21, S22 = A[..., :h, :h], A[..., h:, :h], A[..., h:, h:]
    logdet = _inv_chol_into(I11, offset)
    L21 = S21 @ np.swapaxes(I11, -1, -2)
    S22 -= L21 @ np.swapaxes(L21, -1, -2)
    logdet += _inv_chol_into(S22, offset + h)
    S21[...] = -(S22 @ L21) @ I11
    A[..., :h, h:] = 0.0
    return logdet


def _factorization_error(A: np.ndarray, offset: int) -> FactorizationError:
    """The first matrix of a failed leaf stack and its first failing leading minor."""
    d = A.shape[-1]
    flat = A.reshape(-1, d, d)
    i = next(i for i, Ai in enumerate(flat) if not _is_pd(Ai))
    pivot = offset + next(k for k in range(d) if not _is_pd(flat[i, :k + 1, :k + 1]))
    index = tuple(int(j) for j in np.unravel_index(i, A.shape[:-2]))
    return FactorizationError(f"matrix{_at(A, index)} not positive definite at pivot {pivot}",
                              pivot=pivot, index=index)


def _is_pd(S: np.ndarray) -> bool:
    """Whether LAPACK's Cholesky factors the matrix S."""
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return True


def _at(S: np.ndarray, index) -> str:
    """' at index (i, ...)' naming a matrix of the stack S, '' for one matrix."""
    return "" if S.ndim == 2 else f" at index {tuple(int(i) for i in index)}"


def tril_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of each lower triangular matrix of a (..., d, d) stack.

    With L = [[A, 0], [C, B]] split at d/2, the inverse is
    [[A^-1, 0], [-B^-1 C A^-1, B^-1]], so the work is batched matrix
    products of the halves: about a quarter of the flops of a general
    inverse, which solves against the identity as if L were full. Entries
    above the diagonal are exact zeros.
    """
    d = L.shape[-1]
    if d <= 8:  # too small for the products to beat one LAPACK call
        # the LU solve pivots where a row's off-diagonal entries outweigh its
        # diagonal one, which can leave rounding above the diagonal
        return np.tril(np.linalg.inv(L))
    h = d // 2
    A_inv = tril_inv(L[..., :h, :h])
    B_inv = tril_inv(L[..., h:, h:])
    out = np.zeros_like(L)
    out[..., :h, :h] = A_inv
    out[..., h:, h:] = B_inv
    out[..., h:, :h] = -(B_inv @ L[..., h:, :h]) @ A_inv
    return out


class TopKSubspace(NamedTuple):
    vectors: np.ndarray          # (N, k), orthonormal columns
    singular_values: np.ndarray  # (k,), non-increasing


def svd_topk(H: np.ndarray, k: int) -> TopKSubspace:
    """Right singular vectors of H for its k largest singular values.

    Column phases are fixed so the largest-magnitude entry of each column is
    real and positive, which makes the output deterministic across runs.
    """
    H = np.asarray(H)
    if H.ndim != 2:
        raise ParameterError("H must be a matrix")
    if not 1 <= k <= min(H.shape):
        raise ParameterError(f"k={k} out of range for shape {H.shape}")
    _, sv, vh = np.linalg.svd(H, full_matrices=False)
    W = vh[:k].conj().T.copy()
    for j in range(k):
        col = W[:, j]
        i = int(np.argmax(np.abs(col)))
        phase = col[i] / abs(col[i])
        W[:, j] = col * np.conj(phase)
    return TopKSubspace(W, sv[:k].copy())


# ---------------------------------------------------------------------------
# constellations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constellation:
    """A finite symbol alphabet with unit average energy."""

    points: np.ndarray
    label: str = "custom"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128).ravel()
        object.__setattr__(self, "points", pts)
        if pts.size < 1:
            raise ParameterError("constellation needs at least one point")
        if len(np.unique(pts)) != pts.size:
            raise ParameterError("constellation points must be pairwise distinct")
        energy = float(np.mean(np.abs(pts) ** 2))
        if abs(energy - 1.0) > 1e-12:
            raise ParameterError(f"mean symbol energy must be 1, got {energy!r}")

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def rotation(self) -> np.ndarray | None:
        """Index permutation p with points[p] == 1j * points exactly, or None
        if the alphabet is not closed under the quarter turn s -> j s."""
        where = {complex(p): i for i, p in enumerate(self.points)}
        perm = [where.get(complex(q)) for q in 1j * self.points]
        return None if None in perm else np.array(perm, dtype=np.int64)


def qam16() -> Constellation:
    """16-QAM on {-3,-1,1,3}^2 / sqrt(10), enumerated real-part major."""
    levels = np.array([-3.0, -1.0, 1.0, 3.0])
    pts = (levels[:, None] + 1j * levels[None, :]).ravel() / np.sqrt(10.0)
    return Constellation(pts, "16qam")


def qpsk() -> Constellation:
    levels = np.array([-1.0, 1.0])
    pts = (levels[:, None] + 1j * levels[None, :]).ravel() / np.sqrt(2.0)
    return Constellation(pts, "qpsk")


_CONSTELLATIONS = {
    "16qam": qam16,
    "qpsk": qpsk,
    # degenerate single-point alphabet, useful for debugging the harness
    "single": lambda: Constellation(np.array([1.0 + 0.0j]), "single"),
}


def make_constellation(name: str) -> Constellation:
    factory = _CONSTELLATIONS.get(name.lower()) if isinstance(name, str) else None
    if factory is None:
        raise ParameterError(
            f"unknown constellation {name!r}; choose from {sorted(_CONSTELLATIONS)}"
        )
    return factory()


# ---------------------------------------------------------------------------
# seeded RNG sub-streams
# ---------------------------------------------------------------------------

def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the sub-stream identified by (seed, *key).

    The same (seed, key) always yields the same draw sequence, and distinct
    keys yield statistically independent streams, so parallel work can be
    assigned stable per-unit randomness regardless of scheduling order.
    """
    if seed < 0 or any(k < 0 for k in key):
        raise ParameterError("seed and sub-stream key parts must be non-negative")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) draws: Re then Im from rng, each of variance 1/2."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
