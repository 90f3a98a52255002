"""Landmark alignment from probability maps: robust 3D rigid pose
initialization followed by a coarse-to-fine boosted ensemble of regression
trees, plus a synthetic corpus generator and evaluation harness.
"""

from importlib import resources

from .cascade import CascadeModel, TrainConfig, predict, predict_faces, train_cascade
from .features import FreakPattern, SplitParams, default_pattern
from .heatmaps import ProbabilityMaps, SynthConfig, read_maps, smooth, synthesize, write_maps
from .metrics import EvalReport, GroundTruth, auc_fr, evaluate, nme, normalizer, occlusion_pr
from .modelio import load_model, save_model
from .pose import InitResult, Model3D, RigidPose, fit_pose, mean_shape_init, project_points, robust_init, score_shape
from .shapes import AugmentConfig, Dataset, LandmarkSchema, Sample, Shape, augment, load_dataset, save_dataset, split_train_val

__version__ = "0.1.0"


def default_model3d() -> Model3D:
    """The bundled 24-point rigid face model."""
    with resources.as_file(
        resources.files("facealign.data").joinpath("face24_model.txt")
    ) as p:
        return Model3D.load(p)


def default_schema() -> LandmarkSchema:
    """The bundled 24-landmark schema matching the 3D model."""
    with resources.as_file(
        resources.files("facealign.data").joinpath("face24_schema.json")
    ) as p:
        return LandmarkSchema.load(p)
