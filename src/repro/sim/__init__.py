"""``repro.sim`` — the MosaicSim timing simulator.

Tile models (cores, accelerators), the Interleaver that composes them, the
inter-tile communication fabric, configuration, and statistics.
"""

from .config import (
    CacheConfig, ConfigError, CoreConfig, DRAMSim2Config,
    MemoryHierarchyConfig, PrefetcherConfig, SimpleDRAMConfig,
)
from .core.model import CoreTile
from .errors import (
    AcceleratorFaultError, CheckpointError, CycleBudgetExceeded,
    DeadlockError, SimulationError, SimulationInterrupted, WatchdogTimeout,
)
from .events import Scheduler
from .interleaver import Interleaver, TileServices
from .statistics import CacheStats, DRAMStats, SystemStats, TileStats
from .tile import NEVER, Tile

__all__ = [
    "CacheConfig", "ConfigError", "CoreConfig", "DRAMSim2Config",
    "MemoryHierarchyConfig", "PrefetcherConfig", "SimpleDRAMConfig",
    "CoreTile", "Scheduler",
    "AcceleratorFaultError", "CheckpointError", "CycleBudgetExceeded",
    "DeadlockError", "SimulationError", "SimulationInterrupted",
    "WatchdogTimeout",
    "Interleaver", "TileServices",
    "CacheStats", "DRAMStats", "SystemStats", "TileStats",
    "NEVER", "Tile",
]
