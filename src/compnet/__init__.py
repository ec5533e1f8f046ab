"""Composite image + designed-feature classification.

A small, self-contained stack: a tape-based reverse-mode autodiff engine
(:mod:`compnet.autodiff`), the neural layers built on it
(:mod:`compnet.layers`) including the weight-matrix fusion layer, three
comparable model variants (:mod:`compnet.models`), dataset formats and a
synthetic two-modality benchmark generator (:mod:`compnet.data`), a
deterministic training loop with bit-exact checkpoints
(:mod:`compnet.train`), and a command-line interface (:mod:`compnet.cli`).
"""

from .autodiff import (GradCheckReport, Tape, Tensor, backward, from_array,
                       grad_check, mul, reduce_sum, reshape)
from .data import (Dataset, Normalizer, SynthSpec, generate_synthetic,
                   load_dataset, render_template, save_dataset, split,
                   zscore_apply, zscore_fit)
from .exceptions import (CompnetError, ConfigError, DataError, FormatError,
                         NumericError, ShapeError, TapeError, VariantError)
from .layers import (ConvParams, DenseParams, concat_columns, conv2d,
                     cross_entropy, dense, fusion_weight_matrix, leaky_relu,
                     maxpool2d)
from .models import (ImportanceReport, Model, ModelConfig, build_model,
                     extract_weight_matrices, feature_importance, forward,
                     predict)
from .train import (EpochRecord, Metrics, OptimState, TrainConfig,
                    checkpoint_load, checkpoint_save, evaluate, fit,
                    init_optim_state, sgd_momentum_step, train_epoch)

__version__ = "0.1.0"

__all__ = [
    "GradCheckReport", "Tape", "Tensor", "backward", "from_array",
    "grad_check", "mul", "reduce_sum", "reshape",
    "Dataset", "Normalizer", "SynthSpec", "generate_synthetic",
    "load_dataset", "render_template", "save_dataset", "split",
    "zscore_apply", "zscore_fit",
    "CompnetError", "ConfigError", "DataError", "FormatError", "NumericError",
    "ShapeError", "TapeError", "VariantError",
    "ConvParams", "DenseParams", "concat_columns", "conv2d",
    "cross_entropy", "dense", "fusion_weight_matrix", "leaky_relu",
    "maxpool2d",
    "ImportanceReport", "Model", "ModelConfig", "build_model",
    "extract_weight_matrices", "feature_importance", "forward", "predict",
    "EpochRecord", "Metrics", "OptimState", "TrainConfig",
    "checkpoint_load", "checkpoint_save", "evaluate", "fit",
    "init_optim_state", "sgd_momentum_step", "train_epoch",
    "__version__",
]
