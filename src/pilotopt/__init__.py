"""Joint pilot allocation and sequence design for MIMO-OFDM sparse channel estimation.

The package minimizes a generalized coherence metric of the compressed-
sensing sensing matrix over non-orthogonal pilot sequences, drives whole
subcarriers to zero through a block-sparse penalty to obtain the pilot
allocation, and evaluates designs with a seeded Monte-Carlo OMP channel
estimation harness.
"""

from .channel import (
    ChannelRealization,
    ChannelVector,
    SystemConfig,
    assemble_channel,
    delay_response,
    sample_channel,
    steering_vector,
    subcarrier_offsets,
)
from .coherence import (
    CoherenceEngine,
    CoherenceReport,
    PilotDesign,
    SensingOperator,
    build_omega,
    build_sensing_matrix,
    coherence_report,
    mutual_coherence,
    welch_bound,
)
from .dictionary import DictionarySet, GridSpec, build_dictionaries, make_grids
from .errors import (
    ConfigError,
    DegenerateDesignError,
    DegenerateInputError,
    OptimizationDivergenceError,
    PilotOptError,
)
from .estimator import (
    SparseEstimate,
    nmse,
    omp_solve,
    reconstruct_channel,
    snr_sigma2,
    synthesize_measurement,
)
from .harness import (
    ChannelModelConfig,
    EvaluationConfig,
    ExperimentConfig,
    load_design,
    load_experiment_config,
    make_baseline_design,
    run_baseline,
    run_design,
    run_estimate,
    run_gradcheck,
    run_report,
    run_sweep,
    save_design,
)
from .optimizer import (
    OptimizationTrace,
    OptimizerConfig,
    block_penalty,
    extract_allocation,
    gaussian_init,
    loss,
    loss_gradient,
    optimize,
)

__version__ = "0.1.0"
