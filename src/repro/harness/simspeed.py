"""Simulation-speed reference points (paper §VI-B).

The paper reports MosaicSim reaching up to 0.47 MIPS single-threaded,
comparable to Sniper (0.45 MIPS) and an order of magnitude above gem5
(0.053 MIPS). ``bench/run.py`` measures *this* implementation's
throughput; ``benchmarks/test_simspeed.py`` sets one timed run beside
these quoted figures and checks the relative §VI-B claims: accelerator
performance models are orders of magnitude faster than cycle-level
simulation, and trace footprints stay modest.
"""

#: paper-quoted comparison points (§VI-B), MIPS
PAPER_MIPS = {
    "MosaicSim (paper, C++)": 0.47,
    "Sniper (paper)": 0.45,
    "gem5 (paper)": 0.053,
}
