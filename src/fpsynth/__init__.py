"""fpsynth: synthetic RSS fingerprints at unsurveyed indoor locations.

Survey a subset of a fingerprint map, train a location-conditioned denoising
diffusion model with a vicinity-weighted loss on the surveyed data, generate
fingerprints at the remaining locations, and measure the effect on
localization accuracy.

The names below load their submodule, and so numpy, on first access
(PEP 562), so `fpsynth.cli` can set up the process before numpy loads.
"""

import importlib

_NAMES = {
    "dataset": "Coordinate FingerprintDataset NormalizationParams SyntheticEnvironment"
    " generate_synthetic load_dataset merge_datasets save_dataset",
    "diffusion": "DiffusionTrainConfig LossBatch NoiseSchedule VicinityKernel build_schedule"
    " embed_condition forward_diffuse generate_unseen_map sample spatial_loss"
    " spatial_loss_and_grad train",
    "errors": "FpsynthError",
    "initializer": "DensityParams LocationSplit neighbor_density select_unseen_density"
    " select_unseen_grid select_unseen_random",
    "localizer": "LocalizerHyperparams evaluate fit_localizer",
    "nets": "DenoiserArch DenoiserNetwork",
    "pipeline": "ExperimentResult collection_overhead run_experiment sweep_ratio",
    "synthesizer": "AugmentationConfig augment_seen",
}
# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
