"""Video pose estimation at desk scale: a density-peaks token pruner, a
two-branch attention encoder, and benchmarking around them."""

from .tensor import (
    DiffNode,
    ShapeError,
    backward,
    constant,
    finite_diff_check,
    mac_tally,
)
from .dpc import DpcConfig, DpcScores, PruneSelection, prune
from .attention import (
    AttentionParams,
    BlockParams,
    cross_attention,
    multi_head_self_attention,
    spatio_temporal_block,
    transformer_block,
)
from .model import (
    FrameTriplet,
    Heatmap,
    ModelConfig,
    ModelParams,
    TrainingError,
    forward_full,
    heatmap_loss,
    init_model_params,
    load_checkpoint,
    save_checkpoint,
    train_step,
)
from .synth import BoundingBox, SynthScene, expand_and_crop, generate_sequence, render_gaussian_heatmaps

__version__ = "0.1.0"
