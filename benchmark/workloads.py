"""The benchmark's workloads: what one timed call runs and how its outputs are checked.

Every workload drives the library only through public functions looked up on
`onebitlink.harness` and `onebitlink.oracle` at call time, so the traced run
can wrap them there. All sweeps use one worker process, 16-QAM and the default
channel (100 paths, pi/6 spread).

A workload's inputs come from an input seed picked out of the seeds recorded
in `reference.json` (see `input_seed`); the outputs of one timed call are a
list that must equal the recorded list for that seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from onebitlink import harness, oracle

# Monte-Carlo draws per oracle instance and run (conditional + Gaussian-symbol)
ORACLE_DRAWS = 20_000
# the last instance draws one full chunk of validate_instance's default size,
# so the chunked path's memory sets peak_rss_mb on the oracle workload
ORACLE_CHUNK_DRAWS = 200_000
ORACLE_MIN_FRAC = 0.99
ORACLE_SE_MULT = 4.0
# instance seeds of default_instances() are 0..23; a stride above that keeps
# the instance seeds of different run seeds apart
ORACLE_SEED_STRIDE = 1000

SWEEP_SPANS = ("harness.run_sweep", "channel.draw", "channel.precoder",
               "txchain.quantize", "detect.build_kernels", "detect.build_table",
               "stats.kernel", "stats.assemble", "core.chol", "detect.ml")
BLMMSE_SPANS = ("txchain.cov_xd", "txchain.bussgang_gain",
                "txchain.cov_xq_unconditional", "detect.blmmse", "detect.slice")
ORACLE_SPANS = ("oracle.validate", "oracle.closed_form", "oracle.quantize")


@dataclass(frozen=True)
class Sweep:
    """One `harness.run_sweep` call; outputs are (grid value, detector, errors)."""

    fields: dict
    required_spans: tuple = SWEEP_SPANS

    def inputs(self, seed: int):
        return harness.ExperimentConfig(seed=seed, workers=1, **self.fields)

    def warm_up_inputs(self, seed: int):
        """A tiny sweep of the same array sizes that touches every BLAS/LAPACK path."""
        return harness.ExperimentConfig(
            n_rx=self.fields["n_rx"], n_streams=1, n_channels=1, n_symbol_vectors=8,
            detectors=self.fields["detectors"], seed=seed, workers=1)

    def run(self, cfg) -> list:
        report = harness.run_sweep(cfg)
        return [[row.param_value, row.detector, row.errors] for row in report.rows]

    def items(self, cfg) -> int:
        """Received vectors decided by one call: channels x vectors x points x detectors."""
        return (cfg.n_channels * cfg.n_symbol_vectors
                * len(cfg.sweep_points()[1]) * len(cfg.detectors))


@dataclass(frozen=True)
class OracleBundle:
    """`oracle.validate_instance` over the instances of `oracle.default_instances()`.

    The seed moves every instance's own seed (its channel, precoder, symbols
    and draws) and keeps the grid of array sizes, so every seed costs the
    same work. The outputs are acceptance criterion 1's verdicts: per
    quantity, whether at least 99% of its entries, pooled over all instances,
    lie within 4 standard errors.
    """

    required_spans: tuple = ORACLE_SPANS

    def inputs(self, seed: int):
        """(instance, draws) pairs; the last instance draws a full chunk."""
        specs = [replace(spec, seed=spec.seed + ORACLE_SEED_STRIDE * seed)
                 for spec in oracle.default_instances()]
        return ([(spec, ORACLE_DRAWS) for spec in specs[:-1]]
                + [(specs[-1], ORACLE_CHUNK_DRAWS)])

    def warm_up_inputs(self, seed: int):
        return [(oracle.InstanceSpec(n_tx=4, n_rx=2, n_streams=2, sigma2=0.1,
                                     rho=2.0, seed=seed), ORACLE_DRAWS)]

    def run(self, instances) -> list:
        pooled = {}
        for spec, draws in instances:
            for row in oracle.validate_instance(spec, draws=draws, se_mult=ORACLE_SE_MULT):
                within, entries = pooled.get(row.quantity, (0, 0))
                pooled[row.quantity] = (within + row.within, entries + row.entries)
        return [[q, within >= ORACLE_MIN_FRAC * entries]
                for q, (within, entries) in sorted(pooled.items())]

    def items(self, instances) -> int:
        """Monte-Carlo draws of one call: each instance runs both simulation passes."""
        return 2 * sum(draws for _, draws in instances)


# The sweep shapes are those of acceptance criteria 4, 5 and 6, and the oracle
# bundle is criterion 1's; README.md says why each is here and which layer
# metric should move which end-to-end metric on it.
WORKLOADS = {
    "dither_k1": Sweep(dict(
        n_rx=16, n_streams=1, rho_db=5.0,
        dither_dbm=tuple(float(v) for v in np.linspace(-10.0, 30.0, 8)),
        n_channels=12, n_symbol_vectors=100, detectors=("ml", "blmmse")),
        required_spans=SWEEP_SPANS + BLMMSE_SPANS),
    "snr_k3": Sweep(dict(
        n_rx=16, n_streams=3, rho_db=(0.0, 40.0), dither_dbm=2.0,
        n_channels=1, n_symbol_vectors=3000, detectors=("ml",))),
    "m64_k2": Sweep(dict(
        n_rx=64, n_streams=2, rho_db=5.0, dither_dbm=(-2.0, 1.0, 4.0, 7.0),
        n_channels=1, n_symbol_vectors=300, detectors=("ml", "blmmse")),
        required_spans=SWEEP_SPANS + BLMMSE_SPANS),
    "oracle": OracleBundle(),
}


def input_seed(recorded: dict, seed: int) -> int:
    """Map a run's --seed onto one of the workload's recorded seeds.

    The same --seed always gives the same inputs; seeds beyond the recorded
    range wrap around, because outputs are only checkable where a reference
    exists.
    """
    seeds = sorted(int(s) for s in recorded)
    return seeds[seed % len(seeds)]


def count_failed(outputs: list, expected: list) -> int:
    """Outputs that differ from the reference, plus any missing or extra ones."""
    mismatched = sum(o != e for o, e in zip(outputs, expected))
    return mismatched + abs(len(outputs) - len(expected))
