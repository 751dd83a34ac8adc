"""dctnet: dual-branch channel-temporal forecaster for multivariate series.

Patch-token modeling of each channel's history, channel attention for
cross-variable structure, global inter-patch attention, and a spectral
correction factor that keeps prediction features' energy aligned with the
input's.  Everything runs on a small from-scratch float64 tensor engine
with reverse-mode differentiation; no deep-learning framework involved.
"""

from .errors import (CheckpointError, ConfigError, ContractError, DataError,
                     DCTNetError, SingularityError, TrainingError)
from .model import (ABLATION_STAGES, DCTNetParams, Forecast, ModelConfig,
                    ablation_variant, forward, init_params)
from .numeric_engine import Tape, Tensor, backward
from .spectral_correction import CorrectionConfig, apply_correction
from .data_io import (NormStats, SeriesTable, SynthParams, WindowedDataset,
                      checkpoint_load, checkpoint_save, compute_stats,
                      load_csv, make_windows, save_csv, split_chronological,
                      synth_series)
from .trainer import (EvalResult, OptimizerState, TrainReport, TrainSettings,
                      adam_step, evaluate, fit, flatten_grads, mse_loss)

__version__ = "0.1.0"

__all__ = [
    "ABLATION_STAGES", "CheckpointError", "ConfigError", "ContractError",
    "CorrectionConfig", "DCTNetError", "DCTNetParams", "DataError",
    "EvalResult", "Forecast", "ModelConfig", "NormStats", "OptimizerState",
    "SeriesTable", "SingularityError", "SynthParams", "Tape", "Tensor",
    "TrainReport", "TrainSettings", "TrainingError", "WindowedDataset",
    "ablation_variant", "adam_step", "apply_correction", "backward",
    "checkpoint_load", "checkpoint_save", "compute_stats", "evaluate", "fit",
    "flatten_grads", "forward", "init_params", "load_csv", "make_windows",
    "mse_loss", "save_csv", "split_chronological", "synth_series",
]
