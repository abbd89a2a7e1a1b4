"""splitkern: partition-and-average spectral regularization for kernel
regression on [0, 1], with the supporting rate theory, smoothness
diagnostics and a reproducible Monte-Carlo harness."""

from .adaptivity import (AdaptResult, adapt, empirical_error, holdout_split,
                         stopping_index)
from .distributed import (Partition, diagnostic_split, fit_distributed,
                          partition)
from .estimator import (KernelExpansion, fit_iterative, fit_spectral,
                        predict, spectral_model)
from .experiments import (ExperimentConfig, OracleSelection, RunResult,
                          gen_data, hk_error, l2_error, oracle_select,
                          simulate, sweep_alpha, sweep_n)
from .filters import (FilterSpec, landweber, nu_method, spectral_cutoff,
                      tikhonov)
from .filters import by_name as filter_by_name
from .kernels import (Kernel, KernelOperator, gram, kernel_operator,
                      rkhs_norm_sq, sobolev_min, user_kernel)
from .smoothness import (SmoothnessReport, TargetFunction,
                         fourier_coefficients, max_smoothness, quadratic_bump,
                         scaled_sine, target_by_name)
from .theory import (TheoryParams, alpha_bound, b_quantity,
                     effective_dimension, lambda_choice,
                     power_effective_dimension, rate)

__version__ = "0.1.0"
