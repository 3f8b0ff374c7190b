"""vbselect: selective prediction with a variational Bayesian linear head.

The pieces compose into one pipeline: build or load a feature dataset,
train the Bayesian linear classifier on the negative ELBO, sample the
predictive posterior, gate predictions on an uncertainty score, and measure
how trustworthy the surviving confidences are.
"""

__version__ = "0.1.0"

from .calibration import (
    CalibrationBin,
    CalibrationReport,
    ConfidenceHistogram,
    confidence_histogram,
    ece,
    save_calibration_json,
    save_histogram_csv,
)
from .dataset import (
    FeatureDataset,
    SplitRatios,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    save_csv,
    smote_oversample,
    stratified_split,
)
from .inference import (
    PosteriorSummary,
    save_predictions_csv,
    score_posterior,
)
from .selection import (
    RejectionCurve,
    RejectionReport,
    apply_rejection,
    confusion_matrix,
    save_confusion_csv,
    save_curve_csv,
    threshold_sweep,
)
from .training import (
    LayerInitConfig,
    NonFiniteError,
    TrainConfig,
    elbo_gradients,
    elbo_loss,
    gradcheck,
    gradcheck_instance,
    save_trace_csv,
    train,
)
from .vbll import (
    VBLinearLayer,
    WeightSample,
    forward_flipout,
    forward_mean,
    init_layer,
    kl_to_prior,
    load_layer,
    sample_weights,
    save_layer,
)

__all__ = [
    "__version__",
    "CalibrationBin",
    "CalibrationReport",
    "ConfidenceHistogram",
    "confidence_histogram",
    "ece",
    "save_calibration_json",
    "save_histogram_csv",
    "FeatureDataset",
    "SplitRatios",
    "SyntheticConfig",
    "generate_synthetic",
    "load_csv",
    "save_csv",
    "smote_oversample",
    "stratified_split",
    "PosteriorSummary",
    "save_predictions_csv",
    "score_posterior",
    "RejectionCurve",
    "RejectionReport",
    "apply_rejection",
    "confusion_matrix",
    "save_confusion_csv",
    "save_curve_csv",
    "threshold_sweep",
    "LayerInitConfig",
    "NonFiniteError",
    "TrainConfig",
    "elbo_gradients",
    "elbo_loss",
    "gradcheck",
    "gradcheck_instance",
    "save_trace_csv",
    "train",
    "VBLinearLayer",
    "WeightSample",
    "forward_flipout",
    "forward_mean",
    "init_layer",
    "kl_to_prior",
    "load_layer",
    "sample_weights",
    "save_layer",
]
