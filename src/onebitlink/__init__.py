"""Link-level simulator for a massive MIMO downlink with 1-bit DACs.

The transmit chain applies dithered 1-bit quantization to a linearly precoded
signal; the receive side offers an exact-statistics ML detector built on a
symbol-dependent linearization of the quantizer, plus a linear-combiner
baseline. `harness` drives seeded SER sweeps; `oracle` revalidates every
closed-form moment by brute-force simulation.
"""

# defined before the submodule imports, which read it
__version__ = "0.1.0"

from .core import (Constellation, FactorizationError, ParameterError,
                   SingularityError, TopKSubspace, chol_logdet,
                   make_constellation, qam16, qpsk, quantize_1bit, substream,
                   svd_topk)
from .channel import (ChannelParams, ChannelRealization, draw_channel,
                      draw_path_angles, make_precoder, realize_channel,
                      steering)
from .txchain import (TxConfig, TxRealization, bussgang_gain, cov_xd,
                      cov_xq_unconditional, cov_y_unconditional, transmit)
from .stats import (NoiseStats, SymbolKernel, assemble_stats, cov_pd,
                    cov_xq_cond, cross_corr_cond, cross_corr_cond_complex,
                    cross_dither_pd, embed, lmmse_gain, mean_pd, mean_xq_cond,
                    noise_stats, stack_ri, symbol_kernel)
from .detect import (CandidateTable, DetectorResult, blmmse_combiner,
                     build_candidate_kernels, build_candidate_table,
                     enumerate_candidates, ml_detect, ml_detect_batch,
                     slice_min_distance, slice_min_distance_batch)
from .oracle import (CheckRow, InstanceSpec, OracleEstimate,
                     closed_form_moments, default_instances,
                     mc_gaussian_loglike, mc_moment, self_check,
                     validate_instance)
from .harness import (ExperimentConfig, SweepReport, SweepRow, build_config,
                      csv_equal_ignoring_timing, dbm_to_linear,
                      parse_config_file, parse_grid, run_sweep, to_csv_text,
                      write_csv)
