"""Fusion hidden Markov models for next-action prediction on attack sessions."""

from .config import RunConfig, load_config
from .ensemble import (
    EnsembleModel,
    EnsemblePrediction,
    EvaluationReport,
    evaluate,
    load_ensemble,
    predict,
    prediction_correlation,
    save_ensemble,
    split_sessions,
    sweep_k,
    train_ensemble,
)
from .errors import (
    ConfigError,
    DegenerateSequenceError,
    DomainError,
    EstimationError,
    FhmmError,
    SelectionError,
    TrainingDivergedError,
)
from .fusion import FusionHyper, FusionInput, FusionNetwork, train_fusion_points
from .hmm import (
    ForwardBackwardWorkspace,
    HmmModel,
    baum_welch_fit,
    forward_backward,
    predict_next,
)
from .ingest import (
    EventMapping,
    GeneratorSpec,
    LengthDistribution,
    SynthSpec,
    parse_logs,
    read_sessions,
    synth_corpus,
    write_sessions,
)
from .markov import MarkovChainModel, fit_markov
from .partition import (
    FrequencyArray,
    PartitionPlan,
    build_plan,
    dissimilarity_matrix,
    frequency_array,
    group_by_length,
    project_2d,
    select_k,
)
from .sequences import StateSequence

__version__ = "0.1.0"
