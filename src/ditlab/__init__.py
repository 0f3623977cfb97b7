"""ditlab: a toy-scale diffusion-transformer laboratory.

A frozen mini-DiT backbone, a learnable feedback block trained by fast
approximate distillation, feedback-aware inference scheduling, a feature
caching baseline, and exact block-forward cost accounting.
"""

from .autodiff import Tensor, backward, mse
from .caching import CacheConfig, CacheStore, location_preset
from .data import Dataset, batches, gen_shapes, load_idx
from .dit import DiT, BackboneConfig, DiTBlock
from .feedback import FeedbackState, ilf_forward, make_feedback
from .optim import Adam
from .schedule import (
    InferencePlan,
    NoiseSchedule,
    SampleResult,
    ddim_step,
    make_plan,
    make_plain_plan,
    make_schedule,
    noise_sample,
    sample,
    spacing,
)
from .training import BackboneTrainConfig, TrainConfig, train_backbone, train_feedback

__version__ = "0.1.0"
