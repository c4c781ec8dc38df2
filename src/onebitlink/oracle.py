"""Brute-force Monte-Carlo reference moments for the quantized transmit chain.

Every closed-form moment has a simulation twin here: the fixed-symbol kinds
of `stats.conditional_moments`, the received statistics built by
`stats.symbol_kernel`, and the Gaussian-symbol moments of `txchain`. The
chain is run draw by draw and the requested moment is averaged, with an
elementwise standard error, so closed forms can be gated against simulation at
a stated number of standard errors. The library ships these oracles (not just
the tests) so `onebitlink --self-check` can revalidate the closed forms on any
host.

All estimates are reported in the stacked-real convention: a complex length-n
vector becomes [Re; Im] of length 2n, and cross moments E[a b^T] are 2n x 2n
real matrices holding the four quadrature blocks. A proper complex second
moment C reads 0.5 * stats.embed(C) in this form.

The chain is drawn, quantized and accumulated in this form too: one
(2, rows, n) standard-normal draw gives the same numbers, in the same stream
order, as a Re-then-Im pair of complex draws, and complex matrices enter as
embed(P).T right factors, so no complex array is formed per chunk.

A pass draws per chunk, then builds and accumulates per slice. Each chunk of
up to CHUNK rows is drawn at once, one (2, rows, n) array per random source,
in a fixed order. The chain is then built from it SLICE_ROWS rows at a time:
a slice scales its own rows out of the raw draw, so every array derived from
the draw is slice-sized and stays in cache, and only the raw draws are
chunk-sized. Slicing never touches the random stream.

Each slice is reduced to running sums (see `_feed`): column sums are one GEMV
against a vector of ones, products are one GEMM, and the squares behind the
standard errors are formed once per array. The quantizer output is never
squared: every entry is +-c, so its square is the known constant c*c, and
its sums are counts times that constant. None of this touches the random
stream, so the draws are those of a plain per-element simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ParameterError, axis_magnitude, complex_normal, qam16, quantize_1bit,
                   substream)
from .stats import (assemble_stats, conditional_moments, embed, lmmse_gain,
                    receive_basis, stack_ri, symbol_kernel)
from .txchain import bussgang_gain, cov_xd, cov_xq_unconditional, cov_y_unconditional

MIN_DRAWS = 10 ** 4
CHUNK = 200_000  # rows drawn at once by a simulation pass; the chunk bounds its memory
SLICE_ROWS = 4096  # rows built and accumulated at once; a slice's arrays stay in cache
SE_MULT = 4.0  # validate_instance's gate, in standard errors (see its docstring)
ATOL = 1e-12
SELF_CHECK_DRAWS = 50_000
MIN_FRAC = 0.99  # self_check: least share of a quantity's entries within the gate
EXTRA_RANDOM_INSTANCES = 6  # default_instances: random instances after the grid

# When the dither sits far below a symbol's axis value, every draw emits the
# same sign and the plug-in standard error collapses to exactly zero while
# the closed form still differs by O(erfc(|x|/sigma)). A Clopper-Pearson
# style bound on the unseen flip probability (zero flips in n draws caps it
# at ~log(1/alpha)/n) admits a deviation of order |closed|/draws; the factor
# below covers single averages and sign products at alpha ~ exp(-25).
SATURATION_ALLOWANCE = 50.0

@dataclass(frozen=True)
class OracleEstimate:
    value: np.ndarray   # stacked-real moment estimate
    stderr: np.ndarray  # elementwise standard error of the estimate
    draws: int


# the arrays each kind averages: one for a mean, two (a, b) for E[a b^T]
_OPERANDS = {
    "mean_xq": ("xq",), "cross_xd_xq": ("xd", "xq"), "cov_xq": ("xq", "xq"),
    "mean_pd": ("pd",), "cross_d_pd": ("d", "pd"), "cov_pd": ("pd", "pd"),
    "noise_mean": ("noise",), "noise_cov": ("noise", "noise"),
    "y_mean": ("y",), "y_cov": ("y", "y"),
    "cov_xd_gauss": ("xd", "xd"), "cross_xd_xq_gauss": ("xd", "xq"),
    "cov_xq_gauss": ("xq", "xq"), "cov_y_gauss": ("y", "y"),
    "cross_qd_xd_gauss": ("qd", "xd"),
}
# the *_gauss kinds average over Gaussian symbols, the rest fix the symbol
_GAUSS_KINDS = frozenset(k for k in _OPERANDS if k.endswith("_gauss"))
_CONDITIONAL_KINDS = frozenset(_OPERANDS) - _GAUSS_KINDS
# arrays built from the residual pd, which is defined relative to the gain G
_RESIDUAL = ("pd", "noise")


def _reads(kinds, *names) -> bool:
    """Whether any of `kinds` averages one of the arrays `names`."""
    return any(not set(names).isdisjoint(_OPERANDS[k]) for k in kinds)


def _colsum(X, rows):
    """Column sums of a `rows`-row chunk as one GEMV; a known square X is a
    scalar that every entry equals, so its column sums are rows * X."""
    return rows * X if np.ndim(X) == 0 else np.ones(rows) @ X


class _MeanAcc:
    """Running column sums of a chunked array and of its squares.

    The square X2 is an array like X, or the scalar every entry of X*X
    equals (the quantizer output's c*c).
    """

    def __init__(self):
        self.n, self.s, self.s2 = 0, 0.0, 0.0

    def add(self, X, X2):
        rows = X.shape[0]
        self.n += rows
        self.s += _colsum(X, rows)
        self.s2 += _colsum(X2, rows)

    def estimate(self) -> OracleEstimate:
        mean = self.s / self.n
        var = np.maximum(self.s2 / self.n - mean ** 2, 0.0)
        return OracleEstimate(mean, np.sqrt(var / self.n), self.n)


class _OuterAcc(_MeanAcc):
    """Running sums of A^T B and of (A*A)^T (B*B) over chunked row pairs.

    A known square B2 is a scalar: sum_r (a_r*a_r) B2 is then the column
    sums of A2 times B2, with no GEMM (A2 a scalar too makes it rows*A2*B2).
    Only the second operand's square may be known, as xq is never first.
    """

    def add(self, A, B, A2, B2):
        rows = A.shape[0]
        self.n += rows
        self.s += A.T @ B
        if np.ndim(B2):
            self.s2 += A2.T @ B2
        else:
            self.s2 += np.multiply.outer(_colsum(A2, rows), np.full(B.shape[1], B2))


def _accumulators(kinds):
    return {k: (_MeanAcc() if len(_OPERANDS[k]) == 1 else _OuterAcc()) for k in kinds}


def _feed(acc, arrays, known=None):
    """Add one chunk to each accumulator whose operands are all in `arrays`.

    Each array is squared once and the square is shared by every
    accumulator that reads it; the squares are dropped on return. `known`
    maps an array name to the scalar its square equals everywhere (the
    quantizer output's c*c), which is passed in place of a squared array.
    """
    squares = dict(known or {})
    for kind, a in acc.items():
        names = _OPERANDS[kind]
        if not arrays.keys() >= set(names):
            continue
        for name in names:
            if name not in squares:
                squares[name] = arrays[name] * arrays[name]
        a.add(*(arrays[k] for k in names), *(squares[k] for k in names))


def _chunks(draws):
    if draws < MIN_DRAWS:
        raise ParameterError(f"draws must be at least {MIN_DRAWS}, got {draws}")
    done = 0
    while done < draws:
        step = min(CHUNK, draws - done)
        done += step
        yield step


def _slices(step):
    """Consecutive row slices of a `step`-row chunk, SLICE_ROWS rows or fewer each."""
    for start in range(0, step, SLICE_ROWS):
        yield slice(start, min(start + SLICE_ROWS, step))


def _rows(raw, rows, scale):
    """Scaled stacked rows [Re, Im] of one slice of a (2, step, n) normal draw.

    One (2, step, n) draw holds the same numbers, in the same stream order,
    as a Re-then-Im pair of (step, n) draws; the halves of each row are
    written side by side.
    """
    part = raw[:, rows]
    out = np.empty((part.shape[1], 2, part.shape[2]))
    np.multiply(part.transpose(1, 0, 2), scale, out=out)
    return out.reshape(out.shape[0], -1)


def _known_squares(eta):
    """Squares known without squaring: every entry of xq is +-c, so xq*xq is c*c."""
    c = axis_magnitude(eta)
    return {"xq": c * c}


def _residual(xq, xd, Ge):
    """Stacked residual rows xq - xd G^T, built in the product's buffer."""
    r = xd @ Ge
    return np.subtract(xq, r, out=r)


def _received(xq, He, rho, z):
    """Stacked received rows sqrt(rho) xq H^T + z, with z added in place."""
    y = (np.sqrt(rho) * xq) @ He
    y += z
    return y


def _run_conditional(x, H, G, sigma2, eta, rho, draws, rng, kinds):
    x = stack_ri(np.asarray(x, dtype=np.complex128))
    n = x.size // 2
    m = None if H is None else np.asarray(H).shape[0]
    sig = np.sqrt(sigma2)
    need_pd = _reads(kinds, *_RESIDUAL)
    need_rx = _reads(kinds, "noise", "y")
    if need_rx and H is None:
        raise ParameterError("receive-side kinds need the channel matrix H")
    if need_pd and G is None:
        raise ParameterError("residual kinds need the linearization gain G")
    # right factors: stack_ri(v @ P.T) == stack_ri(v) @ embed(P).T
    Ge = None if G is None else embed(G).T
    He = None if H is None else embed(H).T
    Te = None if (H is None or G is None) else embed(np.asarray(H) @ np.asarray(G)).T
    known = _known_squares(eta)

    acc = _accumulators(kinds)
    for step in _chunks(draws):
        d_raw = rng.standard_normal((2, step, n))
        z_raw = rng.standard_normal((2, step, m)) if need_rx else None
        for rows in _slices(step):
            d = _rows(d_raw, rows, sig / np.sqrt(2))
            xd = x + d
            xq = quantize_1bit(xd, eta)
            _feed(acc, {"xd": xd, "xq": xq}, known)
            if need_pd:
                pd = _residual(xq, xd, Ge)
                _feed(acc, {"d": d, "pd": pd})
            if need_rx:
                z = _rows(z_raw, rows, 1 / np.sqrt(2))
                if _reads(kinds, "noise"):
                    noise = d @ Te
                    noise += pd @ He
                    noise *= np.sqrt(rho)
                    noise += z
                    _feed(acc, {"noise": noise})
                if _reads(kinds, "y"):
                    _feed(acc, {"y": _received(xq, He, rho, z)})

    return {k: a.estimate() for k, a in acc.items()}


def _run_gauss(W, H, sigma2, eta, rho, draws, rng, kinds):
    W = np.asarray(W)
    n, k_streams = W.shape
    m = None if H is None else np.asarray(H).shape[0]
    need_y = _reads(kinds, "y")
    if need_y and H is None:
        raise ParameterError("cov_y_gauss needs the channel matrix H")
    sig = np.sqrt(sigma2)
    We = embed(W).T
    He = None if H is None else embed(H).T
    Be = None
    if _reads(kinds, "qd"):
        Be = embed(bussgang_gain(cov_xd(W, sigma2), eta)).T

    known = _known_squares(eta)

    acc = _accumulators(kinds)
    for step in _chunks(draws):
        s_raw = rng.standard_normal((2, step, k_streams))
        d_raw = rng.standard_normal((2, step, n))
        z_raw = rng.standard_normal((2, step, m)) if need_y else None
        for rows in _slices(step):
            xd = _rows(s_raw, rows, 1 / np.sqrt(2)) @ We
            xd += _rows(d_raw, rows, sig / np.sqrt(2))
            xq = quantize_1bit(xd, eta)
            arrays = {"xd": xd, "xq": xq}
            if Be is not None:
                arrays["qd"] = _residual(xq, xd, Be)
            _feed(acc, arrays, known)
            if need_y:
                z = _rows(z_raw, rows, 1 / np.sqrt(2))
                _feed(acc, {"y": _received(xq, He, rho, z)})

    return {k: a.estimate() for k, a in acc.items()}


def mc_moment(kind: str, sigma2: float, eta: float, x=None, H=None, rho: float = 1.0,
              draws: int = 10 ** 5, rng: np.random.Generator = None,
              W=None, G=None) -> OracleEstimate:
    """Monte-Carlo estimate (with standard errors) of one chain moment.

    sigma2 is the dither variance per antenna and eta the quantizer's
    per-antenna output power. Conditional kinds fix the precoded vector x;
    the *_gauss kinds average over Gaussian symbols through the precoder W.
    Residual kinds default G to the closed-form linearization gain, since the
    residual is defined relative to it.
    """
    if sigma2 < 0:
        raise ParameterError("dither variance must be non-negative")
    if rng is None:
        rng = substream(0, 0)
    if kind in _CONDITIONAL_KINDS:
        if x is None:
            raise ParameterError(f"kind {kind!r} needs the fixed precoded vector x")
        if G is None and _reads({kind}, *_RESIDUAL):
            G = lmmse_gain(np.asarray(x, dtype=np.complex128), sigma2, eta)
        return _run_conditional(x, H, G, sigma2, eta, rho, draws, rng, {kind})[kind]
    if kind in _GAUSS_KINDS:
        if W is None:
            raise ParameterError(f"kind {kind!r} needs the precoder W")
        return _run_gauss(W, H, sigma2, eta, rho, draws, rng, {kind})[kind]
    raise ParameterError(f"unknown oracle kind {kind!r}")


def mc_gaussian_loglike(y_stacked, mu, Sigma) -> float:
    """Gaussian objective (y-mu)^T Sigma^{-1} (y-mu) + log det Sigma.

    Deliberately computed with a dense inverse and determinant (no Cholesky)
    so it is an independent cross-check of the detector's factorized path.
    """
    r = np.asarray(y_stacked, dtype=float) - np.asarray(mu, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    quad = float(r @ np.linalg.inv(Sigma) @ r)
    return quad + float(np.log(np.linalg.det(Sigma)))


# ---------------------------------------------------------------------------
# bundled validation (used by the CLI self-check and the acceptance gate)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InstanceSpec:
    n_tx: int
    n_rx: int
    n_streams: int
    sigma2: float
    rho: float
    seed: int


@dataclass(frozen=True)
class CheckRow:
    instance: str
    quantity: str
    entries: int
    within: int
    max_z: float

    @property
    def frac_within(self) -> float:
        return self.within / self.entries


def closed_form_moments(x, H, W, G, sigma2: float, eta: float, rho: float) -> dict:
    """All closed-form moments for one instance, keyed like the oracle kinds."""
    # the received statistics the detector consumes, gated as they are built
    mu_y, Sigma_y = assemble_stats(symbol_kernel(receive_basis(H), x, sigma2, eta), rho)
    C_xd_g = cov_xd(W, sigma2)
    B = bussgang_gain(C_xd_g, eta)
    C_xq_g = cov_xq_unconditional(C_xd_g, eta)
    return {
        **conditional_moments(x, H, G, sigma2, eta, rho),
        "y_mean": mu_y,
        "y_cov": Sigma_y + np.outer(mu_y, mu_y),
        "cov_xd_gauss": 0.5 * embed(C_xd_g),
        "cross_xd_xq_gauss": 0.5 * embed(C_xd_g @ B),
        "cov_xq_gauss": 0.5 * embed(C_xq_g),
        "cov_y_gauss": 0.5 * embed(cov_y_unconditional(H, C_xq_g, rho)),
        "cross_qd_xd_gauss": np.zeros((2 * np.asarray(x).size, 2 * np.asarray(x).size)),
    }


def validate_instance(spec: InstanceSpec, draws: int,
                      se_mult: float = SE_MULT) -> list[CheckRow]:
    """Gate every closed form of one random instance against simulation.

    An entry passes when |closed - estimate| <= se_mult * stderr + sat + ATOL
    where sat = SATURATION_ALLOWANCE * |closed| / draws absorbs saturated
    sign averages whose plug-in stderr is exactly zero, and the tiny absolute
    floor covers entries the chain produces exactly.
    """
    rng = substream(spec.seed, 97)
    A = rng.standard_normal((spec.n_tx, spec.n_streams)) \
        + 1j * rng.standard_normal((spec.n_tx, spec.n_streams))
    W = np.linalg.qr(A)[0]
    H = complex_normal(rng, (spec.n_rx, spec.n_tx))
    pts = qam16().points
    s = pts[rng.integers(0, pts.size, spec.n_streams)]
    x = W @ s

    sigma2, eta = spec.sigma2, 1.0 / spec.n_tx
    G = lmmse_gain(x, sigma2, eta)
    closed = closed_form_moments(x, H, W, G, sigma2, eta, spec.rho)

    cond = _run_conditional(x, H, G, sigma2, eta, spec.rho, draws, rng, _CONDITIONAL_KINDS)
    gauss = _run_gauss(W, H, sigma2, eta, spec.rho, draws, rng, _GAUSS_KINDS)
    estimates = {**cond, **gauss}

    label = (f"N={spec.n_tx} M={spec.n_rx} K={spec.n_streams} "
             f"sigma2={spec.sigma2:g} rho={spec.rho:g}")
    rows = []
    for name, target in closed.items():
        est = estimates[name]
        err = np.abs(target - est.value)
        sat = SATURATION_ALLOWANCE * np.abs(target) / est.draws
        tol = se_mult * est.stderr + sat + ATOL
        z = err / np.maximum(est.stderr + sat / se_mult, ATOL)
        rows.append(CheckRow(instance=label, quantity=name,
                             entries=int(err.size), within=int(np.sum(err <= tol)),
                             max_z=float(z.max())))
    return rows


def default_instances() -> list[InstanceSpec]:
    """Instance grid used by the acceptance gate; >= 20 instances total."""
    specs = []
    seed = 0
    for n_tx in (2, 4, 8):
        for k in (1, 2):
            for s2 in (0.01, 0.1, 1.0):
                rng = substream(0, 11, seed)
                specs.append(InstanceSpec(
                    n_tx=n_tx, n_rx=int(rng.integers(2, 5)), n_streams=min(k, n_tx),
                    sigma2=s2, rho=float(rng.uniform(0.5, 8.0)), seed=seed))
                seed += 1
    for _ in range(EXTRA_RANDOM_INSTANCES):
        rng = substream(0, 11, seed)
        specs.append(InstanceSpec(
            n_tx=8, n_rx=int(rng.integers(2, 5)), n_streams=2,
            sigma2=float(rng.choice([0.01, 0.1, 1.0])),
            rho=float(rng.uniform(0.5, 8.0)), seed=seed))
        seed += 1
    return specs


def self_check(seed: int = 0) -> tuple[list[CheckRow], bool]:
    """Reduced validation pass for the command-line --self-check mode."""
    specs = [
        InstanceSpec(n_tx=4, n_rx=2, n_streams=1, sigma2=0.1, rho=2.0, seed=seed),
        InstanceSpec(n_tx=8, n_rx=3, n_streams=2, sigma2=0.5, rho=4.0, seed=seed + 1),
        InstanceSpec(n_tx=2, n_rx=2, n_streams=1, sigma2=1.0, rho=1.0, seed=seed + 2),
    ]
    rows = []
    for spec in specs:
        rows.extend(validate_instance(spec, draws=SELF_CHECK_DRAWS))
    ok = all(r.frac_within >= MIN_FRAC for r in rows)
    return rows, ok
