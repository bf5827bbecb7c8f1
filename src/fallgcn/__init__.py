"""Skeleton-based fall detection with a three-stream spatial-temporal
graph convolutional network, built on a minimal float64 reverse-mode
engine so every gradient is checkable against finite differences.
"""

from .autodiff import GradTape, ShapeError, Tensor, grad_check, parameter
from .benchmark import LatencySample, benchmark_pair, welch_t_test
from .checkpoint import load_arrays, save_arrays
from .graph import normalized_adjacency
from .layers import (
    DenseTcnLayer,
    GstcnBlock,
    MaskingConfig,
    SepTcnLayer,
    SgcLayer,
    apply_masking,
    septcn_flops,
)
from .layouts import JointLayout, builtin_layout, load_layout, resolve_layout
from .metrics import ConfusionMatrix, MetricsReport, format_report, metrics
from .model import (
    ClassifierHead,
    ModelConfig,
    ThreeStreamModel,
    compute_motion,
    count_flops,
    count_parameters,
    load_model,
    save_model,
)
from .optim import SgdState, sgd_step
from .skeleton_io import (
    DatasetManifest,
    SkeletonClip,
    SkeletonSequence,
    drop_invalid_frames,
    load_sequences,
    normalize_clip,
    read_manifest,
    split_dataset,
    window_sequence,
    write_manifest,
    write_sequences,
)
from .training import (
    EpochRecord,
    Hyperparams,
    TrainingDiverged,
    evaluate,
    read_history,
    train,
    write_history,
)

__version__ = "0.1.0"
