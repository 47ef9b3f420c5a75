"""``repro.power`` — area and energy modeling (McPAT stand-in + EDP)."""

from .edp import edp, edp_improvement, speedup
from .mcpat import (
    INO_CORE_AREA_MM2, OOO_CORE_AREA_MM2, core_area_mm2, equal_area_count,
    sram_area_mm2,
)

__all__ = [
    "edp", "edp_improvement", "speedup",
    "INO_CORE_AREA_MM2", "OOO_CORE_AREA_MM2", "core_area_mm2",
    "equal_area_count", "sram_area_mm2",
]
