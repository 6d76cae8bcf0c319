"""Evaluation instances: synthetic classes, PIC-MAG and SLAC substitutes (§4.1)."""

from .mesh import CavityConfig, slac_instance
from .pic import PICConfig, PICMagDataset, PICMagSimulator
from .spmv import rmat_edges, spmv_instance
from .synthetic import (
    SYNTHETIC_CLASSES,
    diagonal,
    make_instance,
    multi_peak,
    peak,
    uniform,
)

__all__ = [
    "CavityConfig",
    "slac_instance",
    "PICConfig",
    "PICMagDataset",
    "PICMagSimulator",
    "rmat_edges",
    "spmv_instance",
    "SYNTHETIC_CLASSES",
    "diagonal",
    "make_instance",
    "multi_peak",
    "peak",
    "uniform",
]
