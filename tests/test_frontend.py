"""Front-end compiler tests: dialect coverage and diagnostics."""

import pytest

from repro.frontend import CompileError, compile_kernel
from repro.ir import Opcode, format_function, verify_function
from repro.ir.instructions import AllocaInst, PhiInst
from repro.workloads import PARBOIL, build_parboil

from . import kernels


def _opcodes(func):
    return [i.opcode for i in func.instructions()]


class TestBasicCompilation:
    def test_saxpy_compiles_and_verifies(self):
        func = compile_kernel(kernels.saxpy)
        verify_function(func)
        assert func.finalized
        assert func.attributes.get("kernel") is True

    def test_mem2reg_removes_scalar_slots(self):
        func = compile_kernel(kernels.vector_sum)
        assert not any(isinstance(i, AllocaInst) for i in
                       func.instructions())
        assert any(isinstance(i, PhiInst) for i in func.instructions())

    def test_unoptimized_keeps_allocas(self):
        func = compile_kernel(kernels.vector_sum, optimize=False)
        assert any(isinstance(i, AllocaInst) for i in func.instructions())

    def test_loop_structure(self):
        func = compile_kernel(kernels.vector_sum)
        names = [b.name for b in func.blocks]
        assert any("for.header" in n for n in names)
        assert any("for.body" in n for n in names)

    def test_return_type_inferred_from_annotation(self):
        func = compile_kernel(kernels.vector_sum)
        assert str(func.return_type) == "f64"
        func2 = compile_kernel(kernels.count_if_positive)
        assert str(func2.return_type) == "i64"

    def test_source_string_compilation(self):
        source = (
            "def double(A: 'f64*', n: int):\n"
            "    for i in range(n):\n"
            "        A[i] = A[i] * 2.0\n"
        )
        func = compile_kernel(source)
        assert func.name == "double"

    def test_named_function_in_source(self):
        source = (
            "def first(n: int) -> int:\n    return n\n\n"
            "def second(n: int) -> int:\n    return n + 1\n"
        )
        func = compile_kernel(source, name="second")
        assert func.name == "second"


class TestDialectFeatures:
    @pytest.mark.parametrize("kernel", [
        kernels.branchy, kernels.nested_break, kernels.continue_evens,
        kernels.math_mix, kernels.int_ops, kernels.select_min_max,
        kernels.bool_logic, kernels.ifexp_kernel, kernels.cast_kernel,
        kernels.collatz_steps, kernels.scatter_add, kernels.ping_pong,
        kernels.barrier_phases, kernels.accel_sgemm_wrapper,
    ])
    def test_feature_kernels_compile(self, kernel):
        func = compile_kernel(kernel)
        verify_function(func)

    def test_atomic_lowering(self):
        func = compile_kernel(kernels.scatter_add)
        assert Opcode.ATOMICRMW in _opcodes(func)

    def test_math_lowered_to_calls(self):
        func = compile_kernel(kernels.math_mix)
        callees = {i.callee for i in func.instructions()
                   if i.opcode is Opcode.CALL}
        assert {"sqrtf", "fabsf", "expf", "sinf", "cosf"} <= callees

    def test_division_promotes_to_float(self):
        source = (
            "def div(a: int, b: int) -> float:\n"
            "    return a / b\n"
        )
        func = compile_kernel(source)
        assert Opcode.FDIV in _opcodes(func)
        assert Opcode.SITOFP in _opcodes(func)

    def test_floor_division_stays_integer(self):
        source = (
            "def div(a: int, b: int) -> int:\n"
            "    return a // b\n"
        )
        assert Opcode.SDIV in _opcodes(compile_kernel(source))

    def test_select_for_ifexp(self):
        func = compile_kernel(kernels.ifexp_kernel)
        assert Opcode.SELECT in _opcodes(func)


class TestDiagnostics:
    def _expect_error(self, source, match):
        with pytest.raises(CompileError, match=match):
            compile_kernel(source)

    def test_missing_annotation(self):
        self._expect_error("def f(x):\n    return x\n", "annotation")

    def test_unknown_function(self):
        self._expect_error(
            "def f(n: int):\n    frobnicate(n)\n", "unknown function")

    def test_break_outside_loop(self):
        self._expect_error("def f(n: int):\n    break\n", "outside loop")

    def test_non_range_for(self):
        self._expect_error(
            "def f(A: 'f64*', n: int):\n"
            "    for x in A:\n        pass\n", "range")

    def test_chained_comparison(self):
        self._expect_error(
            "def f(a: int, b: int) -> int:\n"
            "    if 0 < a < b:\n        return 1\n    return 0\n",
            "chained comparison")

    def test_undefined_variable(self):
        self._expect_error(
            "def f(n: int) -> int:\n    return q\n", "undefined variable")

    def test_untyped_send(self):
        self._expect_error(
            "def f(n: int):\n    send(1, n)\n", "typed message")

    def test_missing_return_value(self):
        self._expect_error(
            "def f(n: int) -> int:\n"
            "    if n > 0:\n        return 1\n",
            "end of non-void")

    def test_pointer_arithmetic_rejected(self):
        self._expect_error(
            "def f(A: 'f64*', n: int):\n    B = A + n\n",
            "incompatible types|subscripts")

    def test_line_number_in_error(self):
        try:
            compile_kernel("def f(n: int):\n    pass\n    break\n")
        except CompileError as e:
            assert "line 3" in str(e)
        else:
            pytest.fail("expected CompileError")


class TestPrinting:
    def test_format_roundtrip_smoke(self):
        text = format_function(compile_kernel(kernels.saxpy))
        assert "define void @saxpy" in text
        assert "getelementptr" in text
        assert "phi i64" in text
        assert "br i1" in text


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(PARBOIL))
    def test_same_workload_compiles_identically(self, name):
        """Compiling the same kernel twice yields the same IR text (phi
        placement follows reverse postorder, not set iteration order)."""
        w1, w2 = build_parboil(name), build_parboil(name)
        assert format_function(compile_kernel(w1.kernel)) \
            == format_function(compile_kernel(w2.kernel))
