import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import onebitlink
from onebitlink.core import (Constellation, FactorizationError, ParameterError,
                             chol_logdet, complex_normal, make_constellation, qam16,
                             qpsk, quantize_1bit, substream, svd_topk, tril_inv)
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


# ---------------------------------------------------------------------------
# Cholesky with jitter escalation
# ---------------------------------------------------------------------------

def test_chol_logdet_trivial_cases():
    f = chol_logdet(np.eye(4))
    assert np.array_equal(f.factor, np.eye(4))
    assert f.logdet == 0.0
    assert chol_logdet(np.diag([2.0, 3.0])).logdet == pytest.approx(np.log(6.0), rel=1e-14)


def test_chol_logdet_matches_slogdet():
    rng = substream(6, 0)
    A = rng.standard_normal((7, 7))
    S = A @ A.T + 7 * np.eye(7)
    f = chol_logdet(S)
    assert f.jitter == 0.0
    assert_allclose(f.factor @ f.factor.T, S, atol=1e-10)
    sign, ld = np.linalg.slogdet(S)
    assert sign == 1.0
    assert f.logdet == pytest.approx(ld, rel=1e-12)


def test_chol_logdet_jitters_singular_matrix():
    f = chol_logdet(np.diag([1.0, 0.0]))
    assert f.jitter > 0.0
    assert np.isfinite(f.logdet)


def test_chol_logdet_reports_failing_pivot():
    with pytest.raises(FactorizationError) as exc:
        chol_logdet(np.diag([1.0, -1.0]))
    assert exc.value.pivot == 1


def test_chol_logdet_rejects_nonsquare():
    with pytest.raises(ParameterError):
        chol_logdet(np.ones((2, 3)))


def test_chol_logdet_stack_jitters_only_the_failing_matrix():
    rng = substream(6, 1)
    A = rng.standard_normal((3, 5, 5))
    S = A @ A.transpose(0, 2, 1) + 5 * np.eye(5)
    S[1] = np.diag([1.0, 2.0, 0.0, 3.0, 4.0])
    f = chol_logdet(S)
    assert f.factor.shape == (3, 5, 5) and f.logdet.shape == (3,)
    for i in (0, 2):
        assert np.array_equal(f.factor[i], np.linalg.cholesky(S[i]))
        assert f.logdet[i] == pytest.approx(np.linalg.slogdet(S[i])[1], rel=1e-12)
    alone = chol_logdet(S[1])
    assert alone.jitter > 0.0
    assert np.array_equal(f.factor[1], alone.factor)
    assert f.logdet[1] == alone.logdet
    assert f.jitter == alone.jitter
    assert float(f.jitter) == f.jitter and np.ndim(f.jitter) == 0


def test_chol_logdet_stack_reports_the_failing_pivot():
    S = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    with pytest.raises(FactorizationError) as exc:
        chol_logdet(S)
    assert exc.value.pivot == 1


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
    S[0, 1] = np.diag([1.0, 0.0, 1.0])  # the per-matrix jitter route checks too
    with pytest.raises(ParameterError, match=r"index \(1, 0\)"):
        chol_logdet(S)


@pytest.mark.parametrize("S", [[[1.0, np.inf], [np.inf, 1.0]], [[1.0, 0.0], [0.0, -np.inf]]],
                         ids=["inf-off-diagonal", "minus-inf-diagonal"])
def test_chol_logdet_rejects_infinite_entries_up_front(S):
    # refused before any factorization or jitter escalation, so no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="non-finite"):
            chol_logdet(np.array(S))


@pytest.mark.parametrize("d", [1, 5, 8, 9, 37])
def test_tril_inv_inverts_a_stack_of_factors(d):
    rng = substream(6, 2)
    A = rng.standard_normal((4, d, d))
    L = np.linalg.cholesky(A @ A.transpose(0, 2, 1) + d * np.eye(d))
    Li = tril_inv(L)
    assert Li.shape == L.shape
    assert_allclose(Li @ L, np.broadcast_to(np.eye(d), L.shape), atol=1e-13)
    assert_allclose(Li, np.linalg.inv(L), rtol=1e-12, atol=1e-14)


def test_import_leaves_scipy_linalg_unloaded():
    # numpy and scipy each ship an OpenBLAS with its own thread pool; the
    # library computes with numpy's only, so scipy.linalg stays unloaded
    code = "import sys, onebitlink; print('scipy.linalg' in sys.modules)"
    src = str(Path(onebitlink.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


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
