"""Interpreter (Dynamic Trace Generator) tests: functional semantics,
trace artifacts, SPMD barriers, channels, DAE co-execution."""

import numpy as np
import pytest

from repro.frontend import NativeContext, compile_kernel
from repro.frontend import native
from repro.ir import F64, I64, Module, Opcode
from repro.trace import (
    Interpreter, InterpreterError, SimMemory, StepLimitExceeded,
)
from repro.trace.interpreter import _BINOPS, _trunc_div, _trunc_rem

from . import kernels
from .conftest import run_kernel


class TestFunctionalSemantics:
    def test_saxpy_matches_numpy(self, rng):
        mem = SimMemory()
        n = 50
        a = rng.uniform(-1, 1, n)
        b = rng.uniform(-1, 1, n)
        A = mem.alloc(n, F64, "A", init=a)
        B = mem.alloc(n, F64, "B", init=b)
        run_kernel(kernels.saxpy, [A, B, n, 2.5], memory=mem)
        assert np.allclose(B.data, 2.5 * a + b)

    def test_return_value(self, rng):
        mem = SimMemory()
        a = rng.uniform(-1, 1, 30)
        A = mem.alloc(30, F64, "A", init=a)
        traces, _ = run_kernel(kernels.vector_sum, [A, 30], memory=mem)
        assert traces[0].return_value == pytest.approx(a.sum())

    def test_matches_native_python_execution(self, rng):
        """Differential test: IR interpretation == CPython execution."""
        n = 40
        a = rng.uniform(-1, 1, n)
        b = np.zeros(n)
        native_a, native_b = a.copy(), b.copy()

        mem = SimMemory()
        A = mem.alloc(n, F64, "A", init=a)
        B = mem.alloc(n, F64, "B", init=b)
        run_kernel(kernels.branchy, [A, B, n], memory=mem)

        saved = kernels.branchy.__globals__
        # run the same source natively (no intrinsics used by branchy)
        kernels.branchy(native_a, native_b, n)
        assert np.allclose(B.data, native_b)

    @pytest.mark.parametrize("value,expected", [(1, 0), (6, 8), (27, 111)])
    def test_collatz(self, value, expected):
        traces, _ = run_kernel(kernels.collatz_steps, [value])
        assert traces[0].return_value == expected

    def test_integer_ops_match_python(self, rng):
        n = 32
        vals = rng.integers(1, 1000, n)
        mem = SimMemory()
        A = mem.alloc(n, I64, "A", init=vals)
        B = mem.alloc(n, I64, "B")
        run_kernel(kernels.int_ops, [A, B, n], memory=mem)
        expected = np.array([((v * 3 - 7) // 2) % 1000 + (v & 15) + (v ^ 3)
                             + (v << 1) + (v >> 2) + (v | 1)
                             for v in vals])
        assert np.array_equal(B.data, expected)

    def test_trunc_division_semantics(self):
        source = (
            "def f(a: int, b: int) -> int:\n"
            "    return a // b\n"
        )
        traces, _ = run_kernel(compile_kernel(source), [-7, 2])
        # C-style truncation (the IR semantics), not Python floor
        assert traces[0].return_value == -3

    def test_division_by_zero_raises(self):
        source = "def f(a: int) -> int:\n    return a // 0\n"
        with pytest.raises(InterpreterError, match="division by zero"):
            run_kernel(compile_kernel(source), [1])

    def test_math_intrinsics(self, rng):
        n = 16
        a = rng.uniform(-2, 2, n)
        mem = SimMemory()
        A = mem.alloc(n, F64, "A", init=a)
        B = mem.alloc(n, F64, "B")
        run_kernel(kernels.math_mix, [A, B, n], memory=mem)
        expected = (np.sqrt(np.abs(a)) + np.exp(-np.abs(a))
                    + np.sin(a) * np.cos(a))
        assert np.allclose(B.data, expected)

    def test_atomics(self, rng):
        n, bins = 64, 8
        idx = rng.integers(0, bins, n)
        vals = rng.uniform(0, 1, n)
        mem = SimMemory()
        I = mem.alloc(n, I64, "idx", init=idx)
        V = mem.alloc(n, F64, "vals", init=vals)
        O = mem.alloc(bins, F64, "out")
        run_kernel(kernels.scatter_add, [I, V, O, n], memory=mem)
        expected = np.zeros(bins)
        np.add.at(expected, idx, vals)
        assert np.allclose(O.data, expected)

    def test_step_limit(self):
        source = (
            "def f(n: int) -> int:\n"
            "    x = 0\n"
            "    while n > 0:\n        x += 1\n"
            "    return x\n"
        )
        func = compile_kernel(source)
        module = Module("m")
        module.add_function(func)
        interp = Interpreter(module, SimMemory(), step_limit=10_000)
        with pytest.raises(StepLimitExceeded):
            interp.run("f", [1])


class TestI64Results:
    """Every integer result stays in the i64 range, as LLVM's does, so it
    stores into an i64 segment."""

    def test_lshr_of_a_negative_by_a_multiple_of_64(self):
        lshr = _BINOPS[Opcode.LSHR]
        assert lshr(-8, 0) == -8
        assert lshr(-8, 64) == -8
        assert lshr(-8, 128) == -8
        assert lshr(-8, 1) == (2 ** 64 - 8) >> 1
        assert lshr(-8, 63) == 1

    def test_sdiv_of_the_minimum_by_minus_one_wraps(self):
        assert _trunc_div(-2 ** 63, -1) == -2 ** 63
        assert _trunc_rem(-2 ** 63, -1) == 0
        assert _trunc_div(-7, 2) == -3 and _trunc_rem(-7, 2) == -1

    def test_results_store_into_i64(self):
        source = (
            "def f(A: 'i64*', m: int, d: int):\n"
            "    A[0] = m // d\n")
        func = compile_kernel(source)
        mem = SimMemory()
        A = mem.alloc(1, I64, "A")
        module = Module("m")
        module.add_function(func)
        Interpreter(module, mem).run("f", [A, -2 ** 63, -1])
        assert A.data[0] == -2 ** 63


class TestTraceArtifacts:
    def test_block_trace_starts_at_entry(self, saxpy_setup):
        mem, A, B, n = saxpy_setup
        traces, _ = run_kernel(kernels.saxpy, [A, B, n, 1.0], memory=mem)
        assert traces[0].block_trace[0] == 0

    def test_addr_trace_lengths(self, saxpy_setup):
        mem, A, B, n = saxpy_setup
        traces, _ = run_kernel(kernels.saxpy, [A, B, n, 1.0], memory=mem)
        trace = traces[0]
        # 2 loads + 1 store per iteration
        assert trace.num_memory_accesses == 3 * n

    def test_addresses_fall_inside_segments(self, saxpy_setup):
        mem, A, B, n = saxpy_setup
        traces, _ = run_kernel(kernels.saxpy, [A, B, n, 1.0], memory=mem)
        for addresses in traces[0].addr_trace.values():
            for address in addresses:
                assert (A.base <= address < A.end
                        or B.base <= address < B.end)

    def test_dynamic_instruction_count_positive(self, saxpy_setup):
        mem, A, B, n = saxpy_setup
        traces, _ = run_kernel(kernels.saxpy, [A, B, n, 1.0], memory=mem)
        assert traces[0].dynamic_instructions > n * 5


class TestSPMD:
    def test_work_partitioned(self, rng):
        n = 64
        mem = SimMemory()
        A = mem.alloc(n, F64, "A", init=np.ones(n))
        B = mem.alloc(n, F64, "B")
        traces, _ = run_kernel(kernels.saxpy_blocked, [A, B, n, 1.0],
                               num_tiles=4, memory=mem)
        assert len(traces) == 4
        assert np.allclose(B.data, np.ones(n))
        counts = [t.num_memory_accesses for t in traces]
        assert all(c == counts[0] for c in counts)  # even partition

    def test_barrier_phases(self):
        n, phases = 32, 3
        mem = SimMemory()
        A = mem.alloc(n, I64, "A")
        run_kernel(kernels.barrier_phases, [A, n, phases], num_tiles=4,
                   memory=mem)
        assert np.array_equal(A.data, np.full(n, phases))

    def test_send_recv_matching(self):
        traces, _ = run_kernel(kernels.ping_pong, [10], num_tiles=2)
        # tile 0 sends 10, receives 10; tile 1 symmetric
        assert traces[0].comm_trace
        total_sends = sum(len(v) for t in traces
                          for v in t.comm_trace.values())
        assert total_sends == 40  # 10 send + 10 recv per tile

    def test_recv_on_empty_channel_raises(self):
        source = (
            "def f(n: int):\n"
            "    v = recv_i64(3)\n"
        )
        with pytest.raises(InterpreterError, match="blocked|empty"):
            run_kernel(compile_kernel(source), [1])


class TestNativeShims:
    def test_tile_context(self):
        with NativeContext(tile=3, num_tiles=8):
            assert native.tile_id() == 3
            assert native.num_tiles() == 8
        assert native.tile_id() == 0

    def test_channels(self):
        with NativeContext():
            native.send_i64(1, 42)
            assert native.recv_i64(1) == 42

    def test_atomics(self):
        arr = [5]
        assert native.atomic_add(arr, 0, 3) == 5
        assert arr[0] == 8
        assert native.atomic_max(arr, 0, 100) == 8
        assert arr[0] == 100

    def test_accel_shims_raise(self):
        with pytest.raises(NotImplementedError):
            native.accel_sgemm()
