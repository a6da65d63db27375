"""Learned-affinity spatial propagation toolkit."""

from .errors import (
    SpnError,
    DimensionError,
    FormatError,
    ContractError,
    ConfigError,
    CheckpointError,
    TrainingAborted,
)
from .tensor import (
    map_from_array,
    read_array,
    write_array,
    read_image_pnm,
    write_image_pnm,
)
from .propagation import (
    Direction,
    ConnectionKind,
    propagate_direction,
    spn_forward,
    spn_backward,
    random_gates,
    check_boundary_zeros,
)
from .stability import project_gates, verify_stability
from .affinity import build_dense_affinity, oracle_propagate, impulse_response
from .fdcheck import check_gradient
from .training import TrainConfig, train

__all__ = [
    "SpnError",
    "DimensionError",
    "FormatError",
    "ContractError",
    "ConfigError",
    "CheckpointError",
    "TrainingAborted",
    "map_from_array",
    "read_array",
    "write_array",
    "read_image_pnm",
    "write_image_pnm",
    "Direction",
    "ConnectionKind",
    "propagate_direction",
    "spn_forward",
    "spn_backward",
    "random_gates",
    "check_boundary_zeros",
    "project_gates",
    "verify_stability",
    "build_dense_affinity",
    "oracle_propagate",
    "impulse_response",
    "check_gradient",
    "TrainConfig",
    "train",
]

__version__ = "0.1.0"
