"""Core tile models (paper §III)."""

from .model import CoreTile

__all__ = ["CoreTile"]
