"""Toolkit for heavy-tailed linear processes and their stable partial-sum limits.

Simulates X_n = sum_{i>=1} (ell(i)/i) * eps_{n-i} for innovations in the
domain of attraction of an alpha-stable law (alpha in (1, 2]), computes the
normalizer A_N = N^{1/alpha} H_alpha(N)^{1/alpha} sum_{i<=N} ell(i)/i, and
verifies the convergence of the normalized partial-sum finite-dimensional
distributions to the alpha-stable Levy limit, both by an exact
characteristic-function oracle and by Monte Carlo.
"""

from .slowly_varying import (
    HAlphaConvergenceError,
    SlowlyVaryingSpec,
    big_h,
    coefficient,
    coefficient_prefix_sums,
    constant,
    eval_sv,
    h_alpha,
    log_power,
)
from .stable_law import (
    SkewedStableParams,
    StandardStable,
    cdf,
    from_standard,
    from_tail_constants,
    log_cf,
    sample,
    to_standard,
)
from .innovations import (
    ExactStable,
    InnovationSpec,
    ParetoTail,
    TailConstants,
    exact_stable,
    sample_innovations,
)
from .linear_process import (
    FddSpec,
    ProcessSpec,
    normalized_fdd_sample,
    path_from_innovations,
    process_normalizer,
    simulate_path,
    truncation_tail,
)
from .cf_oracle import (
    cf_convergence_sweep,
    exact_fdd_log_cf,
    limit_log_cf,
    v_transform,
)
from .verification import ecf, ks_distance

__version__ = "0.1.0"
