"""Experiment driver: seeded SER sweeps over dither power or SNR, CSV output.

One sweep = many independent channel realizations x one grid of operating
points. Per channel, the symbol/dither/noise randomness is drawn once from
dedicated sub-streams and re-scaled at every grid point (common random
numbers), so curves differ only through the operating point and not through
sampling noise. Work is parallelized across channels; error counts are exactly
reproducible for any worker count.

The grid points go in groups of consecutive points that share one ML kernel
build, one candidate table and one `ml_detect_batch` call per channel. In a
dither grid a group holds as many points as `detect.points_per_group` keeps
within one block of work; in an SNR grid a group is one point, and every group
reuses the first group's kernels. A row's `seconds` is the wall time its
detector spent on the row's grid point, summed over channels; a group's ML
seconds, with the builds it makes, are charged to the group's first point, so
its other points carry none.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from math import isfinite, pi

import numpy as np

from . import __version__
from .channel import ChannelParams, draw_channel, make_precoder
from .core import (FactorizationError, ParameterError, complex_normal, make_constellation,
                   quantize_1bit, substream)
from .detect import (MAX_TABLE, build_candidate_kernels, build_candidate_table,
                     ml_detect_batch, points_per_group, slice_min_distance_batch,
                     blmmse_combiner)
from .stats import receive_basis
from .txchain import bussgang_gain, cov_xd, cov_xq_unconditional

# rng sub-stream purposes; streams are keyed (seed, channel index, purpose)
CHANNEL = 0
SYMBOLS = 1
DITHER = 2
NOISE = 3
GUESS = 4

KNOWN_DETECTORS = ("ml", "blmmse", "guess")

CSV_HEADER = "param_name,param_value,detector,errors,trials,ser,seconds"

# Most points a start:step:stop grid may have; a larger one is refused before
# any of it is built.
MAX_GRID_POINTS = 100_000


def dbm_to_linear(v: float) -> float:
    """Power in dBm -> linear watts (unit transmit power sits at 30 dBm)."""
    return 10.0 ** ((float(v) - 30.0) / 10.0)


@dataclass(frozen=True)
class ExperimentConfig:
    n_tx: int = 128
    n_rx: int = 16
    n_streams: int = 1
    rho_db: tuple = (5.0,)
    dither_dbm: tuple = (2.0,)
    n_channels: int = 10
    n_symbol_vectors: int = 2000
    seed: int = 0
    detectors: tuple = ("ml", "blmmse")
    constellation: str = "16qam"
    n_paths: int = 100
    angular_spread: float = pi / 6
    workers: int = 1
    output: str | None = None

    def __post_init__(self):
        for name in ("rho_db", "dither_dbm"):
            raw = getattr(self, name)
            try:
                object.__setattr__(self, name, tuple(float(v) for v in _as_list(raw)))
            except (TypeError, ValueError):
                raise ParameterError(f"{name} must hold numbers, got {raw!r}") from None
        object.__setattr__(self, "detectors", tuple(_as_list(self.detectors)))
        # plain ints: digest() cannot serialize numpy integers
        for name in ("n_tx", "n_rx", "n_streams", "n_channels", "n_symbol_vectors",
                     "n_paths", "workers"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ParameterError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.n_streams > min(self.n_tx, self.n_rx):
            raise ParameterError("n_streams must not exceed min(n_tx, n_rx)")
        if not self.rho_db or not self.dither_dbm:
            raise ParameterError("rho_db and dither_dbm must be non-empty")
        if not all(isfinite(v) for v in self.rho_db + self.dither_dbm):
            raise ParameterError("rho_db and dither_dbm must be finite")
        if len(self.rho_db) > 1 and len(self.dither_dbm) > 1:
            raise ParameterError("only one of rho_db / dither_dbm may be a grid")
        if not self.detectors:
            raise ParameterError("detectors must be non-empty")
        for d in self.detectors:
            if d not in KNOWN_DETECTORS:
                raise ParameterError(f"unknown detector {d!r}; choose from {KNOWN_DETECTORS}")
        if len(set(self.detectors)) != len(self.detectors):
            raise ParameterError("detectors must not repeat")
        const = make_constellation(self.constellation)  # raises on unknown name
        if "ml" in self.detectors and const.size ** self.n_streams > MAX_TABLE:
            raise ParameterError(
                f"ml needs a candidate table of {const.size ** self.n_streams} > "
                f"{MAX_TABLE} entries ({self.constellation}, {self.n_streams} streams)")
        ChannelParams(n_rx=self.n_rx, n_tx=self.n_tx, n_paths=self.n_paths,
                      angular_spread=self.angular_spread)  # raises on a bad spread
        try:
            ok = all(isfinite(s2) and s2 > 0 and isfinite(rho)
                     for _, s2, rho in self.sweep_points()[1])
        except OverflowError:
            ok = False
        if not ok:
            raise ParameterError("rho_db and dither_dbm must give a finite linear SNR "
                                 "and a finite, positive dither power")

    def sweep_points(self):
        """(axis name, [(axis value, sigma2 linear, rho linear), ...])."""
        if len(self.dither_dbm) > 1:
            rho = 10.0 ** (self.rho_db[0] / 10.0)
            return "dither_dbm", [(v, dbm_to_linear(v), rho) for v in self.dither_dbm]
        sigma2 = dbm_to_linear(self.dither_dbm[0])
        return "rho_db", [(v, sigma2, 10.0 ** (v / 10.0)) for v in self.rho_db]

    def digest(self) -> str:
        payload = {k: list(v) if isinstance(v, tuple) else v
                   for k, v in asdict(self).items() if k != "output"}
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class SweepRow:
    param_name: str
    param_value: float
    detector: str
    errors: int
    trials: int
    ser: float
    seconds: float


@dataclass(frozen=True)
class SweepReport:
    rows: tuple
    seed: int
    config_digest: str
    version: str = __version__


def _as_list(v):
    if isinstance(v, (list, tuple, np.ndarray)):
        return list(v)
    return [v]


def _run_channel(cfg: ExperimentConfig, channel_index: int):
    """Error counts and wall seconds for one channel, keyed (point, detector)."""
    const = make_constellation(cfg.constellation)
    params = ChannelParams(n_rx=cfg.n_rx, n_tx=cfg.n_tx, n_paths=cfg.n_paths,
                           angular_spread=cfg.angular_spread)
    H = draw_channel(params, substream(cfg.seed, channel_index, CHANNEL))
    W = make_precoder(H, cfg.n_streams).vectors
    eta = 1.0 / cfg.n_tx

    nv, k = cfg.n_symbol_vectors, cfg.n_streams
    true_digits = substream(cfg.seed, channel_index, SYMBOLS).integers(0, const.size, size=(nv, k))
    S = const.points[true_digits]
    X = S @ W.T
    U = complex_normal(substream(cfg.seed, channel_index, DITHER), (nv, cfg.n_tx))
    Z = complex_normal(substream(cfg.seed, channel_index, NOISE), (nv, cfg.n_rx))
    guess_digits = None
    if "guess" in cfg.detectors:
        guess_digits = substream(cfg.seed, channel_index, GUESS).integers(0, const.size, size=(nv, k))

    # Rows are quantized where the dither power changes, so a repeated power
    # reuses its Xq and BLMMSE pieces; Xq goes once its power's last point
    # has its rows, and X and U go after the last quantization. The previous
    # table is released before the next build starts, so a channel holds one
    # table at a time.
    axis, points = cfg.sweep_points()
    ml = "ml" in cfg.detectors
    size = points_per_group(const, k, cfg.n_rx, nv) if ml and axis == "dither_dbm" else 1
    changes = {i for i in range(len(points)) if i == 0 or points[i][1] != points[i - 1][1]}
    last = max(changes)
    out = {}
    basis = kernels = table = None
    for lo in range(0, len(points), size):
        group = points[lo:lo + size]
        Ys = []
        for idx, (_, sigma2, rho) in enumerate(group, lo):
            if idx in changes:
                Xq = quantize_1bit(X + np.sqrt(sigma2) * U, eta)
                combiner = None
                if idx == last:
                    X = U = None
            Ys.append(np.sqrt(rho) * Xq @ H.T + Z)
            if idx + 1 in changes or idx + 1 == len(points):
                Xq = None
            for det in cfg.detectors:
                t0 = time.perf_counter()
                if det == "blmmse":
                    if combiner is None:
                        C_xd = cov_xd(W, sigma2)
                        combiner = bussgang_gain(C_xd, eta), cov_xq_unconditional(C_xd, eta)
                    V = blmmse_combiner(H, W, *combiner, rho)
                    decided = slice_min_distance_batch(Ys[-1] @ V.conj(), const)[0]
                elif det == "guess":
                    decided = guess_digits
                else:
                    continue
                out[(idx, det)] = (int(np.sum(decided != true_digits)), time.perf_counter() - t0)
        if not ml:
            continue
        t0 = time.perf_counter()
        table = None
        try:
            if kernels is None or axis == "dither_dbm":
                kernels = None
                if basis is None:
                    basis = receive_basis(H)
                kernels = build_candidate_kernels(basis, W, const,
                                                  np.array([s2 for _, s2, _ in group]), eta)
            table = build_candidate_table(kernels, group[0][2])
        except FactorizationError as exc:
            raise FactorizationError(
                f"channel {channel_index}, {_grid_point(cfg, lo + exc.index[0])}: {exc}",
                pivot=exc.pivot, index=exc.index) from None
        Y, Ys = np.concatenate(Ys), None
        decided = ml_detect_batch(Y, table)[0]
        seconds = time.perf_counter() - t0
        for idx, d in enumerate(np.split(decided, len(group)), lo):
            out[(idx, "ml")] = (int(np.sum(d != true_digits)), seconds if idx == lo else 0.0)
    return out


def _grid_point(cfg: ExperimentConfig, idx: int) -> str:
    """'rho_db r, dither_dbm d' of the sweep's grid point idx."""
    pick = lambda grid: grid[idx if len(grid) > 1 else 0]
    return f"rho_db {pick(cfg.rho_db):g}, dither_dbm {pick(cfg.dither_dbm):g}"


def _openblas(name: str, *args):
    """Call numpy's bundled OpenBLAS function `name`; None where this build has none.

    The symbol is looked up from numpy's linalg extension, which links the
    library; the names depend on how numpy was built.
    """
    try:
        fn = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), name)
    except (AttributeError, OSError):
        return None
    return fn(*args)


def _one_blas_thread() -> None:
    """Worker initializer: one BLAS thread per process, so that workers
    splitting the channels do not also contend for the cores inside BLAS."""
    _openblas("scipy_openblas_set_num_threads64_", 1)


def run_sweep(cfg: ExperimentConfig) -> SweepReport:
    """Run the configured sweep; deterministic error counts for any worker count."""
    axis, points = cfg.sweep_points()
    workers = min(cfg.workers, cfg.n_channels)
    if workers > 1:
        # the fork start method launches every worker at the first submit
        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            futures = [pool.submit(_run_channel, cfg, ci) for ci in range(cfg.n_channels)]
            per_channel = [f.result() for f in futures]
    else:
        per_channel = [_run_channel(cfg, ci) for ci in range(cfg.n_channels)]

    trials = cfg.n_channels * cfg.n_symbol_vectors * cfg.n_streams
    rows = []
    for idx, (value, _, _) in enumerate(points):
        for det in cfg.detectors:
            errors = sum(res[(idx, det)][0] for res in per_channel)
            seconds = sum(res[(idx, det)][1] for res in per_channel)
            rows.append(SweepRow(param_name=axis, param_value=float(value),
                                 detector=det, errors=errors, trials=trials,
                                 ser=errors / trials, seconds=seconds))
    return SweepReport(rows=tuple(rows), seed=cfg.seed, config_digest=cfg.digest())


def to_csv_text(report: SweepReport) -> str:
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(f"{r.param_name},{r.param_value:.9g},{r.detector},"
                     f"{r.errors},{r.trials},{r.ser:.9g},{r.seconds:.9g}")
    return "\n".join(lines) + "\n"


def write_csv(report: SweepReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(to_csv_text(report))


def csv_equal_ignoring_timing(text_a: str, text_b: str) -> bool:
    """Byte equality of two sweep CSVs with the trailing seconds field masked."""
    def strip(text):
        lines = text.rstrip("\n").split("\n")
        return [",".join(ln.split(",")[:-1]) for ln in lines]
    return strip(text_a) == strip(text_b)


# ---------------------------------------------------------------------------
# flat key = value configuration files
# ---------------------------------------------------------------------------

_LIST_FIELDS = {"rho_db", "dither_dbm", "detectors"}
_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def parse_grid(raw: str):
    """Parse 'a,b,c' lists and 'start:step:stop' inclusive grids.

    A grid steps from start and never past stop; stop itself is included
    when it lies within rounding (1e-9 of a step) of a grid point. A grid of
    more than MAX_GRID_POINTS points is refused.
    """
    raw = raw.strip()
    if ":" in raw:
        parts = [p.strip() for p in raw.split(":")]
        if len(parts) != 3:
            raise ParameterError(f"grid must be start:step:stop, got {raw!r}")
        try:
            start, step, stop = (float(p) for p in parts)
        except ValueError:
            raise ParameterError(f"grid bounds must be numbers, got {raw!r}") from None
        if not all(isfinite(v) for v in (start, step, stop)):
            raise ParameterError(f"grid bounds must be finite, got {raw!r}")
        if step <= 0:
            raise ParameterError("grid step must be positive")
        if stop < start:
            raise ParameterError(f"grid stop {stop:g} lies below its start {start:g}")
        steps = np.floor((stop - start) / step + 1e-9)
        if not steps < MAX_GRID_POINTS:
            raise ParameterError(f"grid {raw!r} would have more than {MAX_GRID_POINTS} points")
        n = int(steps) + 1
        return [start + i * step for i in range(n)]
    if "," in raw:
        return [_scalar(tok) for tok in raw.split(",") if tok.strip()]
    return [_scalar(raw)]


def _scalar(tok: str):
    tok = tok.strip()
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        return tok


def parse_config_file(path) -> dict:
    """Flat `key = value` lines with # comments -> override dict."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_FIELDS:
                raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
            overrides[key] = parse_grid(raw) if key in _LIST_FIELDS else _scalar(raw)
    return overrides


def build_config(*override_layers: dict) -> ExperimentConfig:
    """Merge override dicts (later layers win) onto the defaults."""
    merged = {}
    for layer in override_layers:
        for k, v in layer.items():
            if v is None:
                continue
            if k not in _CONFIG_FIELDS:
                raise ParameterError(f"unknown config key {k!r}")
            merged[k] = v
    return ExperimentConfig(**merged)
