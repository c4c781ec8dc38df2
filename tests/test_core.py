import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import erf as scipy_erf

import onebitlink
from onebitlink.core import (CHOL_LEAF, Constellation, FactorizationError, ParameterError,
                             axis_magnitude, chol_logdet, complex_normal,
                             erf, make_constellation, qam16, qpsk, quantize_1bit,
                             substream, svd_topk)
from onebitlink.stats import stack_ri

# ---------------------------------------------------------------------------
# 1-bit quantizer
# ---------------------------------------------------------------------------

def test_quantize_output_alphabet_and_idempotence():
    rng = substream(3, 0)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    eta = 1.0 / 64
    xq = quantize_1bit(x, eta)
    c = np.unique(np.abs(xq.real))
    assert c.size == 1  # single magnitude on each axis
    assert_allclose(np.unique(np.abs(xq.imag)), c)
    assert np.array_equal(quantize_1bit(xq, eta), xq)


def test_quantize_pinned_examples():
    # eta=2 puts the per-axis level at exactly 1
    assert np.array_equal(quantize_1bit(np.array([1 + 2j]), 2.0), np.array([1 + 1j]))
    got = quantize_1bit(np.array([-0.3 + 0.7j, 3 - 0.1j]), 0.5)
    assert np.array_equal(got, np.array([0.5 * (-1 + 1j), 0.5 * (1 - 1j)]))


def test_quantize_sign_convention_at_zero():
    # zero on either axis maps to the positive level
    xq = quantize_1bit(np.array([0.0 + 0.0j, -0.0 - 0.5j, 1.0 + 0.0j]), 0.5)
    assert xq[0].real > 0 and xq[0].imag > 0
    assert xq[1].real > 0 and xq[1].imag < 0
    assert xq[2].imag > 0


def _axis_power(xq):
    # squared norm accumulated over real components; partial sums stay exact
    # whenever 2*c*c is a power of two
    return np.sum(xq.real ** 2) + np.sum(xq.imag ** 2)


@pytest.mark.parametrize("n", [2, 8, 32, 128, 512])
def test_quantize_power_bit_exact_on_pow2_sizes(n):
    rng = substream(4, n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    xq = quantize_1bit(x, 1.0 / n)
    assert _axis_power(xq) == 1.0


@pytest.mark.parametrize("n", [3, 16, 49, 100])
def test_quantize_power_within_ulps_elsewhere(n):
    # for sizes where no representable level is exact, stay within a few ulps
    rng = substream(5, n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    xq = quantize_1bit(x, 1.0 / n)
    assert abs(_axis_power(xq) - 1.0) <= 8 * np.finfo(float).eps


def test_quantize_rejects_bad_eta():
    with pytest.raises(ParameterError):
        quantize_1bit(np.ones(4, dtype=complex), 0.0)
    for eta in (0.0, -0.5):  # the stacked-real path checks eta too
        with pytest.raises(ParameterError):
            quantize_1bit(np.ones(8), eta)


def test_quantize_stacked_real_form_is_bit_identical():
    # real input is the stacked form [Re, Im]: quantizing it equals stacking
    # the complex quantizer's output bit for bit, signed zeros on either axis
    # included (sgn(-0.0) = +1 like sgn(+0.0))
    rng = substream(3, 1)
    x = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    x[0, :4] = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    x[1, :3] = [complex(-0.0, 1.0), complex(2.0, -0.0), complex(-1.0, 0.0)]
    for eta in (1.0 / 6, 0.5, 2.0):
        got = quantize_1bit(stack_ri(x), eta)
        want = stack_ri(quantize_1bit(x, eta))
        assert got.dtype == np.float64 and got.shape == (5, 12)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.all(quantize_1bit(stack_ri(x[0, :4]), 2.0) == 1.0)


def _where_quantizer(x, eta):
    # the plain form the quantizer's (x >= 0) * 2c - c must equal bit for bit
    c = axis_magnitude(eta)
    if np.iscomplexobj(x):
        return np.where(x.real >= 0, c, -c) + 1j * np.where(x.imag >= 0, c, -c)
    return np.where(x >= 0, c, -c)


@pytest.mark.parametrize("eta", [1.0 / 6, 0.5, 2.0, 1.0 / 64, 3e-7, 1e6])
def test_quantize_matches_the_where_form_bit_for_bit(eta):
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e30, -1e30]
    rng = substream(3, 2)
    re = np.concatenate([special, rng.standard_normal(14)]).reshape(4, 6)
    im = rng.permutation(re.ravel()).reshape(4, 6)
    z = np.empty(re.shape, dtype=np.complex128)
    z.real, z.imag = re, im  # 1j * inf would put a NaN on the real rail
    inputs = [re, re.astype(np.float32), re.T, np.arange(-6, 6).reshape(3, 4),
              np.array(-0.0), z, z.astype(np.complex64), z.T, z[:, ::2],
              np.array(complex(-0.0, np.nan))]
    for x in inputs:
        got, want = quantize_1bit(x, eta), _where_quantizer(x, eta)
        assert got.dtype == want.dtype and got.shape == want.shape, x.dtype
        bits = [np.ascontiguousarray(a).view(np.uint64) for a in (got, want)]
        assert np.array_equal(*bits), x.dtype


# ---------------------------------------------------------------------------
# error function
# ---------------------------------------------------------------------------

def _ulps(a, b):
    """Units in the last place between finite float64 arrays of equal signs."""
    assert np.array_equal(np.signbit(a), np.signbit(b))
    return np.abs(np.abs(a).view(np.int64) - np.abs(b).view(np.int64))


def test_erf_matches_scipy_to_one_ulp():
    rng = substream(9, 0)
    edges = [1.0, 8.0, 5e-324, 2.2250738585072014e-308, 1e-300, 26.6, 27.3]
    edges = np.array(edges + [np.nextafter(e, 0.0) for e in edges]
                     + [np.nextafter(e, np.inf) for e in edges])
    x = np.concatenate([np.linspace(-40.0, 40.0, 800_001), 3.0 * rng.standard_normal(200_000),
                        edges, -edges])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = erf(x), scipy_erf(x)
    assert _ulps(got, want).max() <= 1
    # the same operations in the same order as Cephes, so bit-identical
    # wherever numpy's exp rounds as the C library's (math.exp) does
    z = -x * x
    same_exp = np.exp(z) == np.array([math.exp(v) for v in z])
    assert same_exp.mean() > 0.9
    assert np.array_equal(got[same_exp], want[same_exp])


def test_erf_is_exactly_odd():
    rng = substream(9, 1)
    x = np.concatenate([np.linspace(0.0, 40.0, 100_001), np.abs(3.0 * rng.standard_normal(10_000))])
    assert np.array_equal(erf(-x), -erf(x))


def test_erf_special_values_and_shapes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = erf(np.array([np.inf, -np.inf, np.nan, 0.0, -0.0]))
        scalar, matrix = erf(np.float64(0.5)), erf(np.linspace(-3.0, 3.0, 12).reshape(3, 4))
    assert got[0] == 1.0 and got[1] == -1.0 and np.isnan(got[2])
    assert got[3] == 0.0 and not np.signbit(got[3])
    assert got[4] == 0.0 and np.signbit(got[4])
    assert np.shape(scalar) == () and scalar == scipy_erf(0.5)
    assert matrix.shape == (3, 4)
    assert np.array_equal(matrix.ravel(), erf(np.linspace(-3.0, 3.0, 12)))


# ---------------------------------------------------------------------------
# Cholesky factors and log-determinants
# ---------------------------------------------------------------------------

def test_chol_logdet_trivial_cases():
    f = chol_logdet(np.eye(4))
    assert np.array_equal(f.inv_factor, np.eye(4))
    assert f.logdet == 0.0
    assert chol_logdet(np.diag([2.0, 3.0])).logdet == pytest.approx(np.log(6.0), rel=1e-14)


def test_chol_logdet_matches_slogdet():
    rng = substream(6, 0)
    A = rng.standard_normal((7, 7))
    S = A @ A.T + 7 * np.eye(7)
    f = chol_logdet(S.copy())
    assert_allclose(f.inv_factor @ S @ f.inv_factor.T, np.eye(7), atol=1e-10)
    sign, ld = np.linalg.slogdet(S)
    assert sign == 1.0
    assert f.logdet == pytest.approx(ld, rel=1e-12)


def test_chol_logdet_reports_failing_pivot():
    # no jitter rescues a singular matrix: it fails like an indefinite one
    for diag in ([1.0, -1.0], [1.0, 0.0]):
        with pytest.raises(FactorizationError, match="pivot 1$") as exc:
            chol_logdet(np.diag(diag))
        assert exc.value.pivot == 1


def test_chol_logdet_rejects_nonsquare():
    with pytest.raises(ParameterError):
        chol_logdet(np.ones((2, 3)))


def test_chol_logdet_stack_reports_the_failing_pivot():
    # (stack, index of the failing matrix, pivot): an indefinite and a
    # singular 2x2, a singular 5x5 among random SPD ones, and a 2-d stack
    rng = substream(6, 1)
    A = rng.standard_normal((3, 5, 5))
    spd = A @ A.transpose(0, 2, 1) + 5 * np.eye(5)
    spd[1] = np.diag([1.0, 2.0, 0.0, 3.0, 4.0])
    grid = np.tile(np.eye(3), (2, 3, 1, 1))
    grid[1, 2] = np.diag([1.0, 1.0, -1.0])
    cases = [(np.stack([np.eye(2), np.diag([1.0, -1.0])]), (1,), 1),
             (np.stack([np.eye(2), np.diag([1.0, 0.0])]), (1,), 1),
             (spd, (1,), 2), (grid, (1, 2), 2)]
    for S, index, pivot in cases:
        before = S.copy()
        message = f"matrix at index {index} not positive definite at pivot {pivot}"
        with pytest.raises(FactorizationError, match=re.escape(message)) as exc:
            chol_logdet(S)
        assert exc.value.pivot == pivot
        assert np.array_equal(S, before)


def test_chol_logdet_rejects_non_finite_matrix():
    # potrf does not flag a NaN pivot, and an Inf one factors to logdet = inf
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="non-finite"):
            chol_logdet(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_chol_logdet_stack_names_the_first_non_finite_matrix():
    S = np.tile(np.eye(3), (2, 3, 1, 1))
    S[1, 0, 2, 2] = np.nan
    S[1, 2, 0, 0] = np.inf
    with pytest.raises(ParameterError, match=r"index \(1, 0\)"):
        chol_logdet(S)
    S[0, 1] = np.diag([1.0, 0.0, 1.0])  # checked before a singular matrix ahead of it fails
    with pytest.raises(ParameterError, match=r"index \(1, 0\)"):
        chol_logdet(S)


@pytest.mark.parametrize("S", [[[1.0, np.inf], [np.inf, 1.0]], [[1.0, 0.0], [0.0, -np.inf]]],
                         ids=["inf-off-diagonal", "minus-inf-diagonal"])
def test_chol_logdet_rejects_infinite_entries_up_front(S):
    # refused before any factorization, so no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="non-finite"):
            chol_logdet(np.array(S))


def test_chol_logdet_factors_a_float64_array_in_place():
    # the caller's float64 array, a stack or one matrix of it, becomes the
    # inverse factors; a list or a float32 array is converted and left alone
    S = _spd_stack(12, 8)
    want = chol_logdet(S.copy())
    f = chol_logdet(S)
    assert f.inv_factor is S
    assert np.array_equal(S, want.inv_factor)
    one = _spd_stack(12, 8)[1]
    assert np.shares_memory(chol_logdet(one).inv_factor, one)
    assert np.array_equal(one, want.inv_factor[1])
    listed = _spd_stack(12, 8)[1].tolist()
    kept = [row[:] for row in listed]
    assert np.array_equal(chol_logdet(listed).inv_factor, want.inv_factor[1])
    assert listed == kept
    single = _spd_stack(12, 8).astype(np.float32)
    before = single.copy()
    assert not np.shares_memory(chol_logdet(single).inv_factor, single)
    assert np.array_equal(single, before)


def _spd_stack(d, key):
    # badly scaled rows and columns, so the leaves' small LU solves pivot and
    # leave rounding above the diagonal, which the factors must not keep
    rng = substream(6, key, d)
    A = rng.standard_normal((3, d, d))
    scale = np.exp(rng.uniform(-1.5, 1.5, (3, d)))
    return (A @ A.transpose(0, 2, 1) / d + 0.5 * np.eye(d)) * scale[:, :, None] * scale[:, None, :]


@pytest.mark.parametrize("d", [1, 5, 8, 9, 37])
def test_tril_inv_inverts_a_stack_of_factors(d):
    # the triangular inverse of each factor, which the leaves take with
    # np.tril(np.linalg.inv(L)) and the recursion assembles from them
    rng = substream(6, 2)
    A = rng.standard_normal((4, d, d))
    S = A @ A.transpose(0, 2, 1) + d * np.eye(d)
    L = np.linalg.cholesky(S)
    Li = chol_logdet(S.copy()).inv_factor
    assert Li.shape == L.shape
    assert_allclose(Li @ L, np.broadcast_to(np.eye(d), L.shape), atol=1e-13)
    assert_allclose(Li, np.linalg.inv(L), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("d", [3, 8, 9, 12])
def test_tril_inv_has_exact_zeros_above_the_diagonal(d):
    # factors whose entries below the diagonal outweigh the diagonal ones, so
    # the LU solves of np.linalg.inv at the leaves pivot; their rounding above
    # the diagonal must not survive, at a leaf (d <= CHOL_LEAF) or through it
    rng = substream(6, 7, d)
    L = np.tril(2.0 * rng.standard_normal((16, d, d)), -1)
    i = np.arange(d)
    L[:, i, i] = rng.uniform(0.5, 1.0, (16, d))
    assert np.any(np.abs(L) > L[:, i, i][:, :, None])
    S = L @ L.transpose(0, 2, 1)
    f = chol_logdet(S.copy())
    assert np.all(np.triu(f.inv_factor, 1) == 0.0)
    # S is ill-conditioned (up to 6e11 at d = 12), hence the tolerance
    assert_allclose(f.inv_factor @ S @ f.inv_factor.transpose(0, 2, 1),
                    np.broadcast_to(np.eye(d), S.shape), rtol=0, atol=1e-6)


@pytest.mark.parametrize("d", [9, 17, 32, 33, 34, 37, 64, 65, 128, 130])
def test_chol_logdet_recursive_route_inverts_the_factor(d):
    # d > CHOL_LEAF: odd orders split into uneven halves at every level
    assert d > CHOL_LEAF
    S = _spd_stack(d, 3)
    f = chol_logdet(S.copy())
    assert f.inv_factor.shape == S.shape
    assert np.all(np.triu(f.inv_factor, 1) == 0.0)
    assert_allclose(f.inv_factor @ S @ f.inv_factor.transpose(0, 2, 1),
                    np.broadcast_to(np.eye(d), S.shape), rtol=0, atol=1e-12)
    assert_allclose(f.inv_factor, np.linalg.inv(np.linalg.cholesky(S)), rtol=1e-12, atol=1e-14)
    assert_allclose(f.logdet, np.linalg.slogdet(S)[1], rtol=1e-12)
    one = chol_logdet(S[1])
    assert_allclose(one.inv_factor, f.inv_factor[1], rtol=0, atol=1e-12)
    assert isinstance(one.logdet, float)


@pytest.mark.parametrize("d", [1, 5, 8])
def test_chol_logdet_at_the_leaf_is_cholesky_and_tril_inv(d):
    # d <= CHOL_LEAF: one LAPACK Cholesky and np.tril(np.linalg.inv(L)), bit for bit
    assert d <= CHOL_LEAF
    S = _spd_stack(d, 4)
    L = np.linalg.cholesky(S)
    f = chol_logdet(S)
    assert np.array_equal(f.inv_factor, np.tril(np.linalg.inv(L)))
    assert np.array_equal(f.logdet, 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1))


@pytest.mark.parametrize("pivot, singular", [(3, False), (40, False), (65, False), (65, True)],
                         ids=["3", "40", "65", "65-singular"])
def test_chol_logdet_recursion_reports_the_failing_pivot(pivot, singular):
    # -1 on the diagonal of the middle matrix at the pivot, or (singular) its
    # last row and column zeroed: its leading leaves factor and its last
    # Schur leaf fails
    S = _spd_stack(66, 5) if singular else np.stack([np.eye(66)] * 3)
    if singular:
        S[1, -1, :] = S[1, :, -1] = 0.0
    else:
        S[1, pivot, pivot] = -1.0
    with pytest.raises(FactorizationError, match=re.escape("index (1,)")) as exc:
        chol_logdet(S.copy())
    assert exc.value.pivot == pivot
    with pytest.raises(FactorizationError, match=re.escape(f"pivot {pivot}")) as exc:
        chol_logdet(S[1])
    assert exc.value.pivot == pivot


def test_import_leaves_scipy_unloaded():
    # the library runs on numpy alone (scipy is a test dependency); importing
    # scipy would add its start-up time and a second OpenBLAS thread pool
    code = ("import sys, onebitlink; print('scipy' in sys.modules); "
            "import onebitlink.cli; print('scipy' in sys.modules)")
    src = str(Path(onebitlink.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == ["False", "False"]


# ---------------------------------------------------------------------------
# dominant right singular subspace
# ---------------------------------------------------------------------------

def test_svd_topk_matches_eigendecomposition():
    rng = substream(7, 0)
    H = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
    out = svd_topk(H, 3)
    # columns are orthonormal eigenvectors of H^H H with eigenvalue sv^2
    gram = out.vectors.conj().T @ out.vectors
    assert_allclose(gram, np.eye(3), atol=1e-12)
    evals, evecs = np.linalg.eigh(H.conj().T @ H)
    top = evecs[:, ::-1][:, :3]
    assert_allclose(out.singular_values ** 2, evals[::-1][:3], rtol=1e-10)
    for j in range(3):
        assert abs(np.vdot(top[:, j], out.vectors[:, j])) == pytest.approx(1.0, abs=1e-8)
    assert np.all(np.diff(out.singular_values) <= 1e-12)
    gains = [np.linalg.norm(H @ out.vectors[:, j]) for j in range(3)]
    assert np.all(np.diff(gains) <= 1e-12)  # non-increasing per-column gain


def test_svd_topk_phase_fix_is_deterministic():
    rng = substream(7, 1)
    H = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    W = svd_topk(H, 2).vectors
    for j in range(W.shape[1]):
        i = int(np.argmax(np.abs(W[:, j])))
        assert W[i, j].imag == pytest.approx(0.0, abs=1e-14)
        assert W[i, j].real > 0
    # multiplying H by a global phase leaves the fixed output unchanged
    W2 = svd_topk(np.exp(0.7j) * H, 2).vectors
    assert_allclose(W2, W, atol=1e-10)


def test_svd_topk_unitary_channel_single_stream():
    # for a unitary channel every singular value is 1
    rng = substream(7, 2)
    Q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    out = svd_topk(Q, 1)
    assert out.singular_values[0] == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(out.vectors[:, 0]) == pytest.approx(1.0, abs=1e-12)


def test_svd_topk_rejects_bad_k():
    with pytest.raises(ParameterError):
        svd_topk(np.eye(3), 4)
    with pytest.raises(ParameterError):
        svd_topk(np.eye(3), 0)


# ---------------------------------------------------------------------------
# constellations
# ---------------------------------------------------------------------------

def test_qam16_geometry():
    c = qam16()
    assert c.size == 16
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)
    re = np.unique(np.round(c.points.real * np.sqrt(10)))
    assert_allclose(re, [-3, -1, 1, 3])
    # all points distinct
    assert np.unique(c.points).size == 16


def test_qpsk_geometry():
    c = qpsk()
    assert c.size == 4
    assert_allclose(np.abs(c.points), 1.0, atol=1e-12)


def test_make_constellation_registry():
    assert make_constellation("16qam").size == 16
    assert make_constellation("qpsk").size == 4
    assert make_constellation("single").size == 1
    with pytest.raises(ParameterError):
        make_constellation("64qam")
    with pytest.raises(ParameterError):
        make_constellation(5)


@pytest.mark.parametrize("name", ["qpsk", "16qam"])
def test_rotation_permutation_is_the_exact_quarter_turn(name):
    c = make_constellation(name)
    p = c.rotation
    assert sorted(p.tolist()) == list(range(c.size))
    # bit for bit, not to a tolerance
    assert np.array_equal(c.points[p].view(np.uint64), (1j * c.points).view(np.uint64))


def test_rotation_is_none_for_an_alphabet_not_closed_under_j():
    assert make_constellation("single").rotation is None
    assert Constellation(np.array([1.0, -1.0 + 0j])).rotation is None


def test_constellation_validates_unit_energy():
    with pytest.raises(ParameterError):
        Constellation(points=np.array([2.0 + 0j, -2.0 + 0j]))
    with pytest.raises(ParameterError):
        Constellation(points=np.array([1.0 + 0j, 1.0 + 0j]))  # duplicate


# ---------------------------------------------------------------------------
# seeded sub-streams
# ---------------------------------------------------------------------------

def test_substream_reproducible_and_disjoint():
    a = substream(11, 2, 5).standard_normal(8)
    b = substream(11, 2, 5).standard_normal(8)
    c = substream(11, 2, 6).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_rejects_negative_key():
    with pytest.raises(ParameterError):
        substream(1, -2)
    with pytest.raises(ParameterError):
        substream(-1, 97)


def test_complex_normal_has_unit_variance_split_evenly():
    z = complex_normal(substream(12, 0), (200_000,))
    se = np.sqrt(2.0 / z.size) * 0.5  # stderr of a sample variance of 1/2
    assert abs(np.var(z.real) - 0.5) < 4 * se
    assert abs(np.var(z.imag) - 0.5) < 4 * se
    assert abs(np.mean(z.real * z.imag)) < 4 * 0.5 / np.sqrt(z.size)
    # Re then Im from the stream, scaled by 1/sqrt(2)
    rng = substream(12, 0)
    re, im = rng.standard_normal(200_000), rng.standard_normal(200_000)
    assert np.array_equal(z, (re + 1j * im) / np.sqrt(2.0))
