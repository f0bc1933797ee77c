"""fpsynth: synthetic RSS fingerprints at unsurveyed indoor locations.

Survey a subset of a fingerprint map, train a location-conditioned denoising
diffusion model with a vicinity-weighted loss on the surveyed data, generate
fingerprints at the remaining locations, and measure the effect on
localization accuracy.
"""

from .dataset import (
    Coordinate,
    FingerprintDataset,
    NormalizationParams,
    SyntheticEnvironment,
    generate_synthetic,
    load_dataset,
    merge_datasets,
    save_dataset,
)
from .diffusion import (
    DiffusionTrainConfig,
    LossBatch,
    NoiseSchedule,
    VicinityKernel,
    build_schedule,
    embed_condition,
    forward_diffuse,
    generate_unseen_map,
    sample,
    spatial_loss,
    spatial_loss_and_grad,
    train,
)
from .errors import FpsynthError
from .initializer import (
    DensityParams,
    LocationSplit,
    neighbor_density,
    select_unseen_density,
    select_unseen_grid,
    select_unseen_random,
)
from .localizer import LocalizerHyperparams, evaluate, fit_localizer
from .nets import DenoiserArch, DenoiserNetwork
from .pipeline import ExperimentResult, collection_overhead, run_experiment, sweep_ratio
from .synthesizer import AugmentationConfig, augment_seen

__version__ = "0.1.0"
