"""Area/power tables (McPAT stand-in).

The paper takes core areas from McPAT [32] (Table II: OoO 8.44 mm², InO
1.01 mm² at 22 nm) for the equal-area DAE study. This module provides
those constants, a simple parameterized area model for derived core
configurations, and accelerator area helpers used in the Figure 10 design
space exploration.
"""

from __future__ import annotations

from ..sim.config import CoreConfig

#: Table II reference points (mm^2, 22nm)
OOO_CORE_AREA_MM2 = 8.44
INO_CORE_AREA_MM2 = 1.01

#: reference configurations the Table II numbers correspond to
_REF_OOO_WIDTH = 4
_REF_OOO_ROB = 128


def core_area_mm2(config: CoreConfig) -> float:
    """Estimate core area by interpolating between the Table II anchors.

    In-order-like cores (window 1) anchor at 1.01 mm²; the OoO anchor is
    4-wide/128-entry at 8.44 mm². Window and width scale the OoO overhead
    (roughly linear in issue width, sub-linear in window size — McPAT-ish
    behavior).
    """
    if config.area_mm2:
        return config.area_mm2
    if config.rob_size <= 1:
        return INO_CORE_AREA_MM2
    ooo_overhead = OOO_CORE_AREA_MM2 - INO_CORE_AREA_MM2
    width_factor = config.issue_width / _REF_OOO_WIDTH
    window_factor = (config.rob_size / _REF_OOO_ROB) ** 0.5
    return INO_CORE_AREA_MM2 + ooo_overhead * width_factor * window_factor


def equal_area_count(small: CoreConfig, big: CoreConfig) -> int:
    """How many ``small`` cores fit in the area of one ``big`` core
    (the paper's 8-InO-per-OoO equivalence)."""
    count = int(core_area_mm2(big) // core_area_mm2(small))
    return max(1, count)


def sram_area_mm2(size_bytes: int, nm: int = 22) -> float:
    """SRAM macro area; ~0.3 mm^2 per MB at 22nm (order-of-magnitude)."""
    per_mb = 0.3 * (nm / 22.0) ** 2
    return size_bytes / (1024 * 1024) * per_mb
