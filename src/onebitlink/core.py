"""Numerical building blocks: one-bit quantizer, factorizations, constellations,
and seeded RNG sub-streams.

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
    """Cholesky failed even after the maximum jitter escalation.

    Attributes
    ----------
    pivot : int
        Zero-based index of the first non-positive-definite leading minor.
    """

    def __init__(self, message, pivot: int):
        super().__init__(message)
        self.pivot = pivot


# ---------------------------------------------------------------------------
# one-bit quantizer
# ---------------------------------------------------------------------------

def _axis_magnitude(eta: float) -> float:
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
    c = _axis_magnitude(eta)
    if not np.iscomplexobj(x):
        return np.where(x >= 0, c, -c)
    re = np.where(x.real >= 0, c, -c)
    im = np.where(x.imag >= 0, c, -c)
    return re + 1j * im


# ---------------------------------------------------------------------------
# factorizations
# ---------------------------------------------------------------------------

class CholFactor(NamedTuple):
    factor: np.ndarray   # (..., d, d) lower triangular L with S + jitter*I = L L^T
    logdet: np.ndarray   # (...,) log-determinants; a float for one matrix
    jitter: float        # largest jitter added to any matrix, 0.0 when none was


def chol_logdet(S: np.ndarray) -> CholFactor:
    """Lower Cholesky factors and log-determinants of symmetric PD matrices.

    S is one (d, d) matrix or a (..., d, d) stack, factored by one
    np.linalg.cholesky call. If that call fails, the matrices are factored
    one at a time: each that factors as-is keeps its plain factor, and each
    indefinite one is retried with S + t*I, where t starts at
    1e-12*trace(S)/d and escalates by factors of 10 up to 1e-6*trace(S)/d.
    Raises ParameterError naming the first matrix with a NaN or Inf entry
    before factoring anything (the factorization does not flag a NaN pivot),
    and FactorizationError carrying the failing pivot index if a matrix is
    still not positive definite at maximum jitter.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim < 2 or S.shape[-1] != S.shape[-2]:
        raise ParameterError(f"expected a square matrix or a stack of them, got shape {S.shape}")
    bad = ~np.isfinite(S).all(axis=(-2, -1))
    if bad.any():
        where = "" if S.ndim == 2 else f" at index {tuple(int(i) for i in np.argwhere(bad)[0])}"
        raise ParameterError(f"matrix{where} has non-finite entries (NaN or Inf)")
    try:
        L, jitter = np.linalg.cholesky(S), 0.0
    except np.linalg.LinAlgError:
        L = np.empty_like(S)
        flat = L.reshape(-1, *S.shape[-2:])
        jitter = max(_chol_jittered(Si, out) for Si, out in zip(S.reshape(flat.shape), flat))
    logdet = 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)
    return CholFactor(L, float(logdet) if S.ndim == 2 else logdet, jitter)


def _chol_jittered(S: np.ndarray, out: np.ndarray) -> float:
    """Factor one matrix into out with the smallest jitter that works; returns it."""
    dim = S.shape[0]
    base = float(np.trace(S)) / dim
    for t in [0.0] + [base * 10.0 ** k for k in range(-12, -5)]:
        St = S if t == 0.0 else S + t * np.eye(dim)
        try:
            out[...] = np.linalg.cholesky(St)
            return t
        except np.linalg.LinAlgError:
            pass
    # first leading minor that is not positive definite at maximum jitter
    for pivot in range(dim):
        try:
            np.linalg.cholesky(St[:pivot + 1, :pivot + 1])
        except np.linalg.LinAlgError:
            break
    raise FactorizationError(
        f"matrix not positive definite at pivot {pivot} even with jitter", pivot=pivot
    )


def tril_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of each lower triangular matrix of a (..., d, d) stack.

    With L = [[A, 0], [C, B]] split at d/2, the inverse is
    [[A^-1, 0], [-B^-1 C A^-1, B^-1]], so the work is batched matrix
    products of the halves: about a quarter of the flops of a general
    inverse, which solves against the identity as if L were full.
    """
    d = L.shape[-1]
    if d <= 8:  # too small for the products to beat one LAPACK call
        return np.linalg.inv(L)
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
