"""Bidirectional MMSE adaptive receivers for fast-fading DS-CDMA channels.

The package has five layers: :mod:`fadetrack.fading` generates correlated
Rayleigh channels, :mod:`fadetrack.dscdma` synthesizes the multiuser
chip-rate observation, :mod:`fadetrack.receivers` implements the adaptive
estimators, :mod:`fadetrack.analysis` the SINR recursions, and
:mod:`fadetrack.harness` / :mod:`fadetrack.cli` the reproducible
experiments on top of them.
"""

from .fading import (
    FadingConfig,
    FadingSequence,
    clarke_autocorrelation,
    correlation_factors,
    empirical_autocorrelation,
    generate_fading,
)
from .dscdma import (
    ChannelScenario,
    ReceivedVector,
    SpreadingCode,
    SymbolStream,
    UserParams,
    build_channel_matrix,
    detect_coherent,
    detect_differential,
    filter_output,
    modulate_coherent,
    modulate_differential,
    random_code,
    synthesize_received,
)
from .receivers import (
    DegenerateInputError,
    MixingState,
    PairErrors,
    cg_solve,
    update_mixing,
)
from .analysis import (
    AnalysisState,
    MomentMatrices,
    analytical_curve,
    analytical_sinr,
    estimate_moment_matrices,
    g_step,
    k_step,
    simulated_sinr,
)
from .harness import (
    ExperimentConfig,
    MetricsRecord,
    emit_csv,
    run_analysis_comparison,
    run_ber_curve,
    run_channel_stats,
    run_sinr_vs_fading,
)

__version__ = "0.1.0"
