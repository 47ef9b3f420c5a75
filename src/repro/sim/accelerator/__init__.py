"""Accelerator simulation (paper §IV)."""

from .library import (
    DESIGN_FACTORIES, AccelParams, AcceleratorDesign, params_from_invocation,
)
from .perf_model import AccelResult, GenericPerformanceModel
from .rtl_sim import CommunicationModel, FPGAEmulation, RTLSimulation
from .tile import AcceleratorFarm, AcceleratorTile

__all__ = [
    "DESIGN_FACTORIES", "params_from_invocation",
    "AccelParams", "AccelResult", "AcceleratorDesign",
    "GenericPerformanceModel",
    "CommunicationModel", "FPGAEmulation", "RTLSimulation",
    "AcceleratorFarm", "AcceleratorTile",
]
