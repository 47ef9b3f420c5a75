"""Branch predictors (paper §III-C).

The paper ships static and perfect prediction and names "more realistic
dynamic branch predictors" as future work; this module provides that
extension: a classic two-bit saturating-counter table and a gshare
predictor (global history XOR branch id).

Predictors answer one question per conditional branch: *taken* (the
branch goes to its first target) or not. The core model compares the
prediction against the control-flow trace; a mispredicted DBB launch
waits for the terminator and pays the misprediction penalty, exactly as
in the static scheme.
"""

from __future__ import annotations


class TwoBitPredictor:
    """Per-branch two-bit saturating counters.

    States 0-1 predict not-taken, 2-3 predict taken; counters start
    weakly taken (2), which favors loop branches.
    """

    def __init__(self, entries: int = 1024):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("predictor entries must be a power of two")
        self._mask = entries - 1
        self._counters = [2] * entries

    def _index(self, branch_iid: int) -> int:
        return branch_iid & self._mask

    def predict(self, branch_iid: int, backward: bool = False) -> bool:
        return self._counters[self._index(branch_iid)] >= 2

    def update(self, branch_iid: int, taken: bool) -> None:
        index = self._index(branch_iid)
        counter = self._counters[index]
        if taken:
            self._counters[index] = min(3, counter + 1)
        else:
            self._counters[index] = max(0, counter - 1)


class GSharePredictor:
    """Gshare: two-bit counters indexed by (global history XOR branch id).

    Captures correlated branches (e.g. data-dependent inner branches that
    repeat patterns across iterations) that per-branch counters miss.
    """

    def __init__(self, history_bits: int = 10):
        if not 1 <= history_bits <= 20:
            raise ValueError("history_bits must be in [1, 20]")
        self.history_bits = history_bits
        self._mask = (1 << history_bits) - 1
        self._counters = [2] * (1 << history_bits)
        self._history = 0

    def _index(self, branch_iid: int) -> int:
        return (branch_iid ^ self._history) & self._mask

    def predict(self, branch_iid: int, backward: bool = False) -> bool:
        return self._counters[self._index(branch_iid)] >= 2

    def update(self, branch_iid: int, taken: bool) -> None:
        index = self._index(branch_iid)
        counter = self._counters[index]
        if taken:
            self._counters[index] = min(3, counter + 1)
        else:
            self._counters[index] = max(0, counter - 1)
        self._history = ((self._history << 1) | int(taken)) & self._mask


def make_predictor(kind: str):
    """Factory for the dynamic predictors ("twobit", "gshare")."""
    if kind == "twobit":
        return TwoBitPredictor()
    if kind == "gshare":
        return GSharePredictor()
    raise ValueError(f"unknown dynamic predictor {kind!r}")
