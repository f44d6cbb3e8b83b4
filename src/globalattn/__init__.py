"""Dataset-wide spatial attention for structured image classification.

Structured image sets (same object, same framing, same size) can share a
single pixel-importance map.  This package learns that map with a small
pixel-classifier CNN trained jointly with an image classifier under an
L1-penalized cost, on top of a compact numpy autodiff engine.
"""

from .attention import (AttentionModel, attention_forward,
                        attention_l1_penalty, build_pixel_representation,
                        export_attention_map)
from .classifier import ClassifierModel, accuracy, classifier_forward, predict
from .datasets import ImageBatch, load_dataset, save_dataset
from .errors import (ConfigError, ContractError, DataFormatError,
                     DivergenceError)
from .gradcheck import finite_diff_grad, grad_discrepancy
from .optim import Adam
from .pipelinecheck import full_pipeline_gradcheck
from .preprocess import (PreprocessSpec, apply_pipeline, crop_columns, hflip,
                         normalize_standardize, resize_area)
from .serialize import read_gten, write_gten
from .synthetic import SyntheticSpec, generate_synthetic, split_train_test
from .tensor import (GradientTape, Tensor, backward, broadcast_mul, conv2d,
                     l1_mean, linear, maxpool2x2, relu, reshape, sigmoid,
                     softmax_cross_entropy)
from .training import (TrainConfig, TrainReport, compute_cost,
                       evaluate_at_epochs, run_protocol, select_epochs_cv,
                       sweep, train)

__version__ = "0.1.0"
