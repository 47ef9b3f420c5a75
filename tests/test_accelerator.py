"""Accelerator model tests (paper §IV): generic performance model,
cycle-level RTL simulation, FPGA wrapper, tiles, and trace decoding."""

import inspect
import math

import pytest

from repro.frontend import ACCEL_INTRINSICS, native
from repro.sim.accelerator import (
    AcceleratorFarm, AcceleratorTile, CommunicationModel, DESIGN_FACTORIES,
    FPGAEmulation, GenericPerformanceModel, RTLSimulation,
    params_from_invocation,
)
from repro.sim.accelerator.library import elementwise_design, sgemm_design
from repro.trace.accel_ops import ACCEL_OPS
from repro.trace.tracefile import AccelInvocation


class TestGenericModel:
    def test_more_work_more_cycles(self):
        model = GenericPerformanceModel(sgemm_design())
        small = model.estimate({"n": 16, "m": 16, "k": 16})
        large = model.estimate({"n": 64, "m": 64, "k": 64})
        assert large.cycles > small.cycles
        assert large.bytes_transferred > small.bytes_transferred

    def test_bigger_plm_is_faster_for_streaming(self):
        """The Figure 10 DSE trend on the bandwidth-bound accelerators:
        more PLM -> fewer, larger DMA transfers -> lower execution time."""
        params = {"n": 512 * 1024}
        cycles = [GenericPerformanceModel(
            elementwise_design(plm * 1024)).estimate(params).cycles
            for plm in (4, 16, 64, 256)]
        assert cycles[0] > cycles[2]
        assert cycles[0] > cycles[3]

    def test_bandwidth_scaling(self):
        params = {"n": 128}
        fast = GenericPerformanceModel(elementwise_design(),
                                       max_bandwidth_gbps=64.0)
        slow = GenericPerformanceModel(elementwise_design(),
                                       max_bandwidth_gbps=0.5)
        assert slow.estimate(params).cycles > fast.estimate(params).cycles

    def test_parallel_instances_help(self):
        model = GenericPerformanceModel(sgemm_design(16 * 1024),
                                        max_bandwidth_gbps=1e9)
        one = model.estimate({"n": 128, "m": 128, "k": 128},
                             num_instances=1)
        four = model.estimate({"n": 128, "m": 128, "k": 128},
                              num_instances=4)
        assert four.cycles < one.cycles

    def test_energy_positive_and_scales(self):
        model = GenericPerformanceModel(sgemm_design())
        small = model.estimate({"n": 8, "m": 8, "k": 8})
        large = model.estimate({"n": 64, "m": 64, "k": 64})
        assert 0 < small.energy_nj < large.energy_nj


class TestRTLSimulation:
    def test_close_to_generic_model(self):
        """Figure 10d: the closed-form model tracks RTL simulation within
        a few percent."""
        for plm in (4 * 1024, 64 * 1024, 256 * 1024):
            design = sgemm_design(plm)
            params = {"n": 64, "m": 64, "k": 64}
            rtl = RTLSimulation(design).simulate(params)
            generic = GenericPerformanceModel(
                design, max_bandwidth_gbps=1e9).estimate(params)
            ratio = generic.cycles / rtl.cycles
            assert 0.5 < ratio < 2.0

    def test_pipeline_overlap(self):
        """Pipelined total < the same per-chunk load, compute and store
        stages run back to back, chunk after chunk."""
        design = sgemm_design(8 * 1024)
        params = {"n": 64, "m": 64, "k": 64}
        result = RTLSimulation(design).simulate(params)
        comm = CommunicationModel()
        chunks = design.num_chunks(params)
        half = math.ceil(design.bytes_transferred(params) / 2)
        transfer = comm.transfer_cycles(math.ceil(half / chunks))
        compute = math.ceil(design.compute_cycles(params) / chunks)
        unpipelined = chunks * (transfer + compute + transfer)
        assert chunks > 1
        assert result.cycles < unpipelined

    def test_fpga_slower_than_rtl(self):
        design = sgemm_design()
        params = {"n": 32, "m": 32, "k": 32}
        rtl = RTLSimulation(design).simulate(params)
        fpga = FPGAEmulation(design).execute(params)
        assert fpga.cycles > rtl.cycles

    def test_fpga_overhead_amortized(self):
        """§VI-A: invocation overhead is <1% for medium/large workloads."""
        design = sgemm_design(256 * 1024)
        small_ratio = (FPGAEmulation(design).execute(
            {"n": 8, "m": 8, "k": 8}).cycles
            / RTLSimulation(design).simulate(
                {"n": 8, "m": 8, "k": 8}).cycles)
        big_ratio = (FPGAEmulation(design).execute(
            {"n": 128, "m": 128, "k": 128}).cycles
            / RTLSimulation(design).simulate(
                {"n": 128, "m": 128, "k": 128}).cycles)
        assert big_ratio < small_ratio


class TestDesignLibrary:
    @pytest.mark.parametrize("kind", sorted(DESIGN_FACTORIES))
    def test_all_designs_estimate(self, kind):
        design = DESIGN_FACTORIES[kind]()
        model = GenericPerformanceModel(design)
        params = {
            "sgemm": {"n": 16, "m": 16, "k": 16},
            "histo": {"n": 256, "bins": 32},
            "elementwise": {"n": 256},
            "conv2d": {"h": 12, "w": 12, "cin": 3, "cout": 8, "kh": 3,
                       "kw": 3},
            "dense": {"batch": 8, "din": 64, "dout": 32},
            "pool": {"h": 8, "w": 8, "c": 4, "stride": 2},
            "relu": {"n": 128},
            "batchnorm": {"n": 128},
        }[kind]
        result = model.estimate(params)
        assert result.cycles > 0 and result.energy_nj > 0

    def test_layers_name_the_same_kinds(self):
        """Intrinsic registry, native shims, functional handlers and
        design library list one set of accelerator kinds."""
        kinds = set(ACCEL_OPS)
        assert set(DESIGN_FACTORIES) == kinds
        assert set(ACCEL_INTRINSICS) == {f"accel_{k}" for k in kinds}
        shims = {name[len("accel_"):] for name in vars(native)
                 if name.startswith("accel_")}
        assert shims == kinds

    def test_area_grows_with_plm(self):
        assert sgemm_design(256 * 1024).area_um2 > \
            sgemm_design(4 * 1024).area_um2

    def test_area_in_figure10_range(self):
        """Fig 10 plots areas between ~1e5 and ~1e6 um^2."""
        for plm in (4, 16, 64, 256):
            area = sgemm_design(plm * 1024).area_um2
            assert 5e4 < area < 2e6


class TestInvocationDecoding:
    def test_sgemm_args(self):
        inv = AccelInvocation(3, "accel_sgemm", (100, 200, 300, 8, 9, 10))
        kind, params = params_from_invocation(inv)
        assert kind == "sgemm"
        assert params == {"n": 8, "m": 9, "k": 10}

    @pytest.mark.parametrize("kind", sorted(ACCEL_OPS))
    def test_every_kind_decodes_its_layout(self, kind):
        """The decoder skips the kind's pointer arguments and names the
        rest by the layout beside its functional handler."""
        op = ACCEL_OPS[kind]
        pointers = tuple(range(1000, 1000 + op.pointers))
        values = tuple(range(2, 2 + len(op.params)))
        decoded_kind, params = params_from_invocation(
            AccelInvocation(0, f"accel_{kind}", pointers + values))
        assert decoded_kind == kind
        assert params == dict(zip(op.params, values))
        # the layout covers exactly the handler's arguments after memory
        arity = len(inspect.signature(op.handler).parameters)
        assert arity == 1 + op.pointers + len(op.params)

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            params_from_invocation(AccelInvocation(0, "accel_bogus", ()))


class TestAcceleratorTile:
    def _invocation(self, n=32):
        return AccelInvocation(0, "accel_sgemm", (0, 0, 0, n, n, n))

    def test_invocations_serialize_on_one_instance(self):
        tile = AcceleratorTile(sgemm_design(), num_instances=1)
        end1, _, _ = tile.invoke(self._invocation(), 0)
        end2, _, _ = tile.invoke(self._invocation(), 0)
        assert end2 >= 2 * end1 - 1

    def test_instances_parallelize(self):
        tile = AcceleratorTile(sgemm_design(), num_instances=2)
        end1, _, _ = tile.invoke(self._invocation(), 0)
        end2, _, _ = tile.invoke(self._invocation(), 0)
        assert end2 == end1  # second instance starts immediately

    def test_clock_ratio(self):
        slow = AcceleratorTile(sgemm_design(), period=4)
        fast = AcceleratorTile(sgemm_design(), period=1)
        end_slow, _, _ = slow.invoke(self._invocation(), 0)
        end_fast, _, _ = fast.invoke(self._invocation(), 0)
        assert end_slow == 4 * end_fast

    def test_farm_routing(self):
        farm = AcceleratorFarm().add_default("sgemm").add_default(
            "elementwise")
        inv = AccelInvocation(0, "accel_elementwise", (0, 0, 0, 64))
        completion, energy, nbytes = farm.invoke(inv, 100)
        assert completion > 100
        with pytest.raises(KeyError, match="no accelerator registered"):
            farm.invoke(AccelInvocation(0, "accel_conv2d",
                                        (0, 0, 0, 4, 4, 1, 1, 3, 3)), 0)
