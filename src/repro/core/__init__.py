"""Core substrate: prefix sums, rectangles, partitions, metrics, registry."""

from .analysis import PartitionReport, analyze
from .errors import InvalidPartitionError, ParameterError, ReproError
from .metrics import (
    communication_volume,
    load_imbalance,
    lower_bound,
    max_boundary,
    migration_volume,
    upper_bound,
)
from .partition import Partition
from .prefix import PrefixSum1D, PrefixSum2D, as_load_matrix, prefix_1d, prefix_2d
from .rectangle import Rect
from .render import ascii_render, save_ppm
from .serialize import load_partition, partition_from_dict, partition_to_dict, save_partition

__all__ = [
    "PartitionReport",
    "analyze",
    "InvalidPartitionError",
    "ParameterError",
    "ReproError",
    "communication_volume",
    "load_imbalance",
    "lower_bound",
    "max_boundary",
    "migration_volume",
    "upper_bound",
    "Partition",
    "PrefixSum1D",
    "PrefixSum2D",
    "as_load_matrix",
    "prefix_1d",
    "prefix_2d",
    "Rect",
    "ascii_render",
    "save_ppm",
    "load_partition",
    "partition_from_dict",
    "partition_to_dict",
    "save_partition",
]
