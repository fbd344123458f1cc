"""Component-function algebra: interdependence matrices, data transformations,
parameter reconciliation, remainders and fusion, composed into trainable
multi-head multi-channel multi-layer models, with reference backbones
(convolution, pooling, recurrence, graph convolution, attention) reproduced as
special configurations of the one canonical head.
"""

from . import (backbone_equiv, datasets, fusion, grid_geometry,
               interdependence, model, numeric_core, reconciliation,
               transformation)

__all__ = [
    "backbone_equiv",
    "datasets",
    "fusion",
    "grid_geometry",
    "interdependence",
    "model",
    "numeric_core",
    "reconciliation",
    "transformation",
]

__version__ = "0.1.0"
