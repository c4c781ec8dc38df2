"""Brute-force Monte-Carlo reference moments for the quantized transmit chain.

Every closed-form moment in `stats` and `txchain` has a simulation twin here:
the chain is run draw by draw and the requested moment is averaged, with an
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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParameterError, quantize_1bit, substream
from .stats import (assemble_stats, cov_pd, cov_xq_cond, cross_corr_cond,
                    cross_dither_pd, embed, lmmse_gain, mean_pd, mean_xq_cond,
                    noise_stats, stack_ri, symbol_kernel)
from .txchain import TxConfig, bussgang_gain, cov_xd, cov_xq_unconditional, cov_y_unconditional

MIN_DRAWS = 10 ** 4

# When the dither sits far below a symbol's axis value, every draw emits the
# same sign and the plug-in standard error collapses to exactly zero while
# the closed form still differs by O(erfc(|x|/sigma)). A Clopper-Pearson
# style bound on the unseen flip probability (zero flips in n draws caps it
# at ~log(1/alpha)/n) admits a deviation of order |closed|/draws; the factor
# below covers single averages and sign products at alpha ~ exp(-25).
SATURATION_ALLOWANCE = 50.0

_CONDITIONAL_KINDS = frozenset({
    "mean_xq", "cross_xd_xq", "cov_xq", "mean_pd", "cross_d_pd", "cov_pd",
    "noise_mean", "noise_cov", "y_mean", "y_cov",
})
_GAUSS_KINDS = frozenset({
    "cov_xd_gauss", "cross_xd_xq_gauss", "cov_xq_gauss", "cov_y_gauss",
    "cross_qd_xd_gauss",
})


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


class _MeanAcc:
    """Running column sums of a chunked array and of its squares."""

    def __init__(self):
        self.n, self.s, self.s2 = 0, 0.0, 0.0

    def add(self, X, X2):
        self.n += X.shape[0]
        self.s += X.sum(axis=0)
        self.s2 += X2.sum(axis=0)

    def estimate(self) -> OracleEstimate:
        mean = self.s / self.n
        var = np.maximum(self.s2 / self.n - mean ** 2, 0.0)
        return OracleEstimate(mean, np.sqrt(var / self.n), self.n)


class _OuterAcc(_MeanAcc):
    """Running sums of A^T B and of (A*A)^T (B*B) over chunked row pairs."""

    def add(self, A, B, A2, B2):
        self.n += A.shape[0]
        self.s += A.T @ B
        self.s2 += A2.T @ B2


def _accumulators(kinds):
    return {k: (_MeanAcc() if len(_OPERANDS[k]) == 1 else _OuterAcc()) for k in kinds}


def _feed(acc, arrays):
    """Add one chunk to each accumulator whose operands are all in `arrays`.

    Each array is squared once and the square is shared by every
    accumulator that reads it; the squares are dropped on return.
    """
    squares = {}
    for kind, a in acc.items():
        names = _OPERANDS[kind]
        if not arrays.keys() >= set(names):
            continue
        for name in names:
            if name not in squares:
                squares[name] = arrays[name] * arrays[name]
        a.add(*(arrays[k] for k in names), *(squares[k] for k in names))


def _chunks(draws, chunk):
    done = 0
    while done < draws:
        step = min(chunk, draws - done)
        done += step
        yield step


def _normal_rows(rng, step, n, scale):
    """`step` stacked rows [Re, Im] of scaled complex normal draws.

    One (2, step, n) draw holds the same numbers, in the same stream order,
    as a Re-then-Im pair of (step, n) draws; the halves of each row are
    written side by side.
    """
    out = np.empty((step, 2, n))
    np.multiply(rng.standard_normal((2, step, n)).transpose(1, 0, 2), scale, out=out)
    return out.reshape(step, 2 * n)


def _run_conditional(x, H, G, cfg: TxConfig, rho, draws, rng, kinds, chunk):
    x = stack_ri(np.asarray(x, dtype=np.complex128))
    n = x.size // 2
    m = None if H is None else np.asarray(H).shape[0]
    sig = np.sqrt(cfg.sigma2)
    need_pd = kinds & {"mean_pd", "cross_d_pd", "cov_pd", "noise_mean", "noise_cov"}
    need_rx = kinds & {"noise_mean", "noise_cov", "y_mean", "y_cov"}
    if need_rx and H is None:
        raise ParameterError("receive-side kinds need the channel matrix H")
    if need_pd and G is None:
        raise ParameterError("residual kinds need the linearization gain G")
    # right factors: stack_ri(v @ P.T) == stack_ri(v) @ embed(P).T
    Ge = None if G is None else embed(G).T
    He = None if H is None else embed(H).T
    Te = None if (H is None or G is None) else embed(np.asarray(H) @ np.asarray(G)).T

    acc = _accumulators(kinds)
    for step in _chunks(draws, chunk):
        d = _normal_rows(rng, step, n, sig / np.sqrt(2))
        xd = x + d
        xq = quantize_1bit(xd, cfg.eta)
        _feed(acc, {"xd": xd, "xq": xq})
        if need_pd:
            pd = xq - xd @ Ge
            del xd
            _feed(acc, {"d": d, "pd": pd})
        if need_rx:
            z = _normal_rows(rng, step, m, 1 / np.sqrt(2))
            if kinds & {"noise_mean", "noise_cov"}:
                _feed(acc, {"noise": np.sqrt(rho) * (d @ Te + pd @ He) + z})
            if kinds & {"y_mean", "y_cov"}:
                _feed(acc, {"y": np.sqrt(rho) * xq @ He + z})

    return {k: a.estimate() for k, a in acc.items()}


def _run_gauss(W, H, cfg: TxConfig, rho, draws, rng, kinds, chunk):
    W = np.asarray(W)
    n, k_streams = W.shape
    m = None if H is None else np.asarray(H).shape[0]
    if kinds & {"cov_y_gauss"} and H is None:
        raise ParameterError("cov_y_gauss needs the channel matrix H")
    sig = np.sqrt(cfg.sigma2)
    We = embed(W).T
    He = None if H is None else embed(H).T
    Be = None
    if "cross_qd_xd_gauss" in kinds:
        Be = embed(bussgang_gain(cov_xd(W, cfg.sigma2), cfg.eta)).T

    acc = _accumulators(kinds)
    for step in _chunks(draws, chunk):
        xd = _normal_rows(rng, step, k_streams, 1 / np.sqrt(2)) @ We
        xd += _normal_rows(rng, step, n, sig / np.sqrt(2))
        xq = quantize_1bit(xd, cfg.eta)
        arrays = {"xd": xd, "xq": xq}
        if Be is not None:
            arrays["qd"] = xq - xd @ Be
        _feed(acc, arrays)
        if "cov_y_gauss" in kinds:
            z = _normal_rows(rng, step, m, 1 / np.sqrt(2))
            _feed(acc, {"y": np.sqrt(rho) * xq @ He + z})

    return {k: a.estimate() for k, a in acc.items()}


def mc_moment(kind: str, x=None, H=None, cfg: TxConfig = None, rho: float = 1.0,
              draws: int = 10 ** 5, rng: np.random.Generator = None,
              W=None, G=None, chunk: int = 200_000) -> OracleEstimate:
    """Monte-Carlo estimate (with standard errors) of one chain moment.

    Conditional kinds fix the precoded vector x; the *_gauss kinds average
    over Gaussian symbols through the precoder W. Residual kinds default G to
    the closed-form linearization gain, since the residual is defined relative
    to it.
    """
    if cfg is None:
        raise ParameterError("cfg is required")
    if draws < MIN_DRAWS:
        raise ParameterError(f"draws must be at least {MIN_DRAWS}, got {draws}")
    if rng is None:
        rng = substream(0, 0)
    if kind in _CONDITIONAL_KINDS:
        if x is None:
            raise ParameterError(f"kind {kind!r} needs the fixed precoded vector x")
        if G is None and kind in ("mean_pd", "cross_d_pd", "cov_pd", "noise_mean", "noise_cov"):
            G = lmmse_gain(np.asarray(x, dtype=np.complex128), cfg.sigma2, cfg.eta)
        return _run_conditional(x, H, G, cfg, rho, draws, rng, {kind}, chunk)[kind]
    if kind in _GAUSS_KINDS:
        if W is None:
            raise ParameterError(f"kind {kind!r} needs the precoder W")
        return _run_gauss(W, H, cfg, rho, draws, rng, {kind}, chunk)[kind]
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


def closed_form_moments(x, H, W, G, cfg: TxConfig, rho: float) -> dict:
    """All closed-form moments for one instance, keyed like the oracle kinds."""
    s2, eta = cfg.sigma2, cfg.eta
    ns = noise_stats(H, x, G, s2, eta, rho)
    # the received statistics the detector consumes, gated as they are built
    mu_y, Sigma_y = assemble_stats(symbol_kernel(H, x, s2, eta), rho)
    C_xd_g = cov_xd(W, s2)
    B = bussgang_gain(C_xd_g, eta)
    C_xq_g = cov_xq_unconditional(C_xd_g, eta)
    return {
        "mean_xq": stack_ri(mean_xq_cond(x, s2, eta)),
        "cross_xd_xq": cross_corr_cond(x, s2, eta),
        "cov_xq": cov_xq_cond(x, s2, eta),
        "mean_pd": stack_ri(mean_pd(x, G, s2, eta)),
        "cross_d_pd": cross_dither_pd(x, G, s2, eta),
        "cov_pd": cov_pd(x, G, s2, eta),
        "noise_mean": ns.mu,
        "noise_cov": ns.C,
        "y_mean": mu_y,
        "y_cov": Sigma_y + np.outer(mu_y, mu_y),
        "cov_xd_gauss": 0.5 * embed(C_xd_g),
        "cross_xd_xq_gauss": 0.5 * embed(C_xd_g @ B),
        "cov_xq_gauss": 0.5 * embed(C_xq_g),
        "cov_y_gauss": 0.5 * embed(cov_y_unconditional(H, C_xq_g, rho)),
        "cross_qd_xd_gauss": np.zeros((2 * np.asarray(x).size, 2 * np.asarray(x).size)),
    }


def validate_instance(spec: InstanceSpec, draws: int, se_mult: float = 4.0,
                      atol: float = 1e-12, chunk: int = 200_000) -> list[CheckRow]:
    """Gate every closed form of one random instance against simulation.

    An entry passes when |closed - estimate| <= se_mult * stderr + sat + atol
    where sat = SATURATION_ALLOWANCE * |closed| / draws absorbs saturated
    sign averages whose plug-in stderr is exactly zero, and the tiny absolute
    floor covers entries the chain produces exactly.
    """
    from .core import qam16

    rng = substream(spec.seed, 97)
    A = rng.standard_normal((spec.n_tx, spec.n_streams)) \
        + 1j * rng.standard_normal((spec.n_tx, spec.n_streams))
    W = np.linalg.qr(A)[0]
    H = (rng.standard_normal((spec.n_rx, spec.n_tx))
         + 1j * rng.standard_normal((spec.n_rx, spec.n_tx))) / np.sqrt(2)
    pts = qam16().points
    s = pts[rng.integers(0, pts.size, spec.n_streams)]
    x = W @ s

    cfg = TxConfig(sigma2=spec.sigma2, eta=1.0 / spec.n_tx, constellation=qam16())
    G = lmmse_gain(x, cfg.sigma2, cfg.eta)
    closed = closed_form_moments(x, H, W, G, cfg, spec.rho)

    cond = _run_conditional(x, H, G, cfg, spec.rho, draws, rng,
                            set(_CONDITIONAL_KINDS), chunk)
    gauss = _run_gauss(W, H, cfg, spec.rho, draws, rng, set(_GAUSS_KINDS), chunk)
    estimates = {**cond, **gauss}

    label = (f"N={spec.n_tx} M={spec.n_rx} K={spec.n_streams} "
             f"sigma2={spec.sigma2:g} rho={spec.rho:g}")
    rows = []
    for name, target in closed.items():
        est = estimates[name]
        err = np.abs(target - est.value)
        sat = SATURATION_ALLOWANCE * np.abs(target) / est.draws
        tol = se_mult * est.stderr + sat + atol
        z = err / np.maximum(est.stderr + sat / se_mult, atol)
        rows.append(CheckRow(instance=label, quantity=name,
                             entries=int(err.size), within=int(np.sum(err <= tol)),
                             max_z=float(z.max())))
    return rows


def default_instances(extra_random: int = 6, base_seed: int = 0) -> list[InstanceSpec]:
    """Instance grid used by the acceptance gate; >= 20 instances total."""
    specs = []
    seed = base_seed
    for n_tx in (2, 4, 8):
        for k in (1, 2):
            for s2 in (0.01, 0.1, 1.0):
                rng = substream(base_seed, 11, seed)
                specs.append(InstanceSpec(
                    n_tx=n_tx, n_rx=int(rng.integers(2, 5)), n_streams=min(k, n_tx),
                    sigma2=s2, rho=float(rng.uniform(0.5, 8.0)), seed=seed))
                seed += 1
    for _ in range(extra_random):
        rng = substream(base_seed, 11, seed)
        specs.append(InstanceSpec(
            n_tx=8, n_rx=int(rng.integers(2, 5)), n_streams=2,
            sigma2=float(rng.choice([0.01, 0.1, 1.0])),
            rho=float(rng.uniform(0.5, 8.0)), seed=seed))
        seed += 1
    return specs


def self_check(draws: int = 50_000, seed: int = 0, se_mult: float = 4.0,
               min_frac: float = 0.99) -> tuple[list[CheckRow], bool]:
    """Reduced validation pass for the command-line --self-check mode."""
    specs = [
        InstanceSpec(n_tx=4, n_rx=2, n_streams=1, sigma2=0.1, rho=2.0, seed=seed),
        InstanceSpec(n_tx=8, n_rx=3, n_streams=2, sigma2=0.5, rho=4.0, seed=seed + 1),
        InstanceSpec(n_tx=2, n_rx=2, n_streams=1, sigma2=1.0, rho=1.0, seed=seed + 2),
    ]
    rows = []
    for spec in specs:
        rows.extend(validate_instance(spec, draws=draws, se_mult=se_mult))
    ok = all(r.frac_within >= min_frac for r in rows)
    return rows, ok
