"""Execution substrate: BSP makespan/communication/migration simulation (§5)."""

from .simulator import (
    BSPSimulator,
    CostModel,
    SimulationReport,
    StepStats,
)

__all__ = [
    "BSPSimulator",
    "CostModel",
    "SimulationReport",
    "StepStats",
]
