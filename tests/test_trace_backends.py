"""The two trace interpreter backends: the Python reference
(``repro.trace.interpreter``) and the C bytecode interpreter
(``repro.trace.native`` running ``interp.c``) must produce identical
traces and memory images.

* the library loads wherever ``gcc`` is on PATH (this test fails, it does
  not skip, so CI cannot pass while checking only one backend);
* every ``KernelTrace`` field (``addr_trace`` key order included, pickled
  byte for byte) and the final bytes of every segment are equal on the 11
  Parboil kernels at seeds 0 and 1, graph projection on 1, 2 and 8
  tiles, a hand-built kernel covering NaN ``fcmp``, every cast, every
  math call, f32/i32 segments and float/int atomics (on special and on
  random inputs), and random kernels from the differential fuzzer,
  checked three ways (C, Python, CPython);
* a kernel that raises raises the same exception, with the same message,
  on both backends, and leaves the same memory behind;
* C runs the Parboil kernels and graph projection's SPMD systems; Python
  runs under a fault injector, for ``alloca``, DAE slices, send/recv and
  ``accel_*`` kernels, and when the library is unavailable.
"""

import contextlib
import math
import pickle
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import compile_kernel
from repro.harness import prepare, prepare_dae_sliced
from repro.ir import F32, F64, I32, I64, parse_function
from repro.ir.function import Module
from repro.resilience import FaultInjector, FaultPlan
from repro.trace import Interpreter, SimMemory, native
from repro.trace.interpreter import _wrap
from repro.workloads import PARBOIL, graphproj

from . import kernels
from .test_fuzz_differential import random_kernel

HAVE_GCC = shutil.which("gcc") is not None
needs_gcc = pytest.mark.skipif(not HAVE_GCC, reason="no gcc on PATH")


@contextlib.contextmanager
def python_interpreter():
    """Run every kernel instance on the Python reference interpreter."""
    saved = native._library
    native._library = False
    try:
        yield
    finally:
        native._library = saved


@contextlib.contextmanager
def backends():
    """The backend each kernel instance started in the block ran on."""
    start = native.start
    chosen = []

    def recording(*args, **kwargs):
        run = start(*args, **kwargs)
        chosen.append("python" if run is None else "native")
        return run

    native.start = recording
    try:
        yield chosen
    finally:
        native.start = start


def _fields(trace):
    return (trace.function, trace.tile, trace.num_tiles, trace.block_trace,
            list(trace.addr_trace.items()), trace.accel_calls,
            list(trace.comm_trace.items()), trace.dynamic_instructions,
            repr(trace.return_value))


def _image(memory):
    return [(s.name, s.data.dtype.str, s.data.tobytes())
            for s in memory.segments]


def _on_both(setup):
    """Run ``setup() -> (memory, go)`` on C and on Python; returns
    ``(native, python)``, each ``(outcome, memory image, backends)``
    where the outcome is the traces or the raised ``(type, message)``."""
    results = []
    for context in (contextlib.nullcontext, python_interpreter):
        memory, go = setup()
        with context(), backends() as chosen:
            try:
                outcome = go()
            except Exception as exc:  # compared across backends below
                outcome = (type(exc), str(exc))
        results.append((outcome, _image(memory), chosen))
    return results


def _assert_same_traces(setup, instances=None):
    (traces, image, chosen), (reference, ref_image, ref_chosen) = \
        _on_both(setup)
    assert set(ref_chosen) == {"python"}
    if HAVE_GCC:
        assert set(chosen) == {"native"}, chosen
        if instances is not None:
            assert len(chosen) == instances
    assert [_fields(t) for t in traces] == [_fields(t) for t in reference]
    assert pickle.dumps(traces) == pickle.dumps(reference)
    assert image == ref_image
    return traces


def _module(func) -> Module:
    module = Module(func.name)
    module.add_function(func)
    return module


def _spmd(build, seed, tiles):
    def setup():
        workload = build(seed=seed)
        func = compile_kernel(workload.kernel)
        interp = Interpreter(_module(func), workload.memory)
        return workload.memory, lambda: interp.run_spmd(
            func.name, workload.args, tiles)
    return setup


def test_library_loads_where_gcc_is():
    assert (native.load() is not None) == HAVE_GCC


@needs_gcc
def test_broken_source_raises(tmp_path, monkeypatch):
    from repro.trace import InterpreterError
    broken = tmp_path / "interp.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(native, "SOURCE", broken)
    monkeypatch.setattr(native, "_library", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with pytest.raises(InterpreterError, match="failed to build"):
        native.load()
    assert not list((tmp_path / "cache").glob("repro/*.so"))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kernel", sorted(PARBOIL))
def test_parboil_traces_match(kernel, seed):
    _assert_same_traces(_spmd(PARBOIL[kernel], seed, 1), instances=1)


@pytest.mark.parametrize("kernel", ["bfs", "lbm", "stencil"])
def test_barrier_kernels_on_four_tiles(kernel):
    _assert_same_traces(_spmd(PARBOIL[kernel], 0, 4), instances=4)


@pytest.mark.parametrize("tiles", [1, 2, 8])
def test_graph_projection_matches(tiles):
    _assert_same_traces(_spmd(graphproj.build, 0, tiles), instances=tiles)


# -- hand-built kernels ----------------------------------------------------

#: finite and special inputs; no operation below raises on any of them
SPECIALS = [0.5, -1.5, 2.0, -0.0, 0.0, 1e-310, 123.456, -7.25, 1e300,
            -1e300, float("nan"), float("inf"), float("-inf"), 2.5e9,
            -9.3e18, 0.7]
FINITE = [2.75, -3.5, 1e10, -0.0, 9.2e18, -9.2e18, 0.99, -0.99]
#: int64 inputs; 2**53 + 2**29 + 1 rounds differently to f32 directly
#: than through f64, as numpy's int-to-f32 store does
K0 = [(-1) ** j * 3 ** (j + 20) for j in range(len(SPECIALS))]
K0[3] = 2 ** 53 + 2 ** 29 + 1

_FLOAT_BODY = """
  %px = getelementptr f64, f64* %X, i64 %i
  %x = load f64, f64* %px
  %ax = call f64 @fabsf(f64 %x)
  %fin = fcmp olt f64 %ax, 1e+301
  %sx = select i1 %fin, f64 %x, f64 0.0
  %small = fcmp olt f64 %ax, 1000000000.0
  %sm = select i1 %small, f64 %x, f64 0.0
  %nax = fsub f64 0.0, %ax
  %ax1 = fadd f64 %ax, 1.0
  %f0 = call f64 @sqrtf(f64 %ax)
  %f1 = call f64 @expf(f64 %nax)
  %f2 = call f64 @logf(f64 %ax1)
  %f3 = call f64 @sinf(f64 %sx)
  %f4 = call f64 @cosf(f64 %sx)
  %f5 = call f64 @floorf(f64 %sx)
  %f6 = call f64 @rsqrtf(f64 %ax1)
  %f7 = fdiv f64 %sx, 3.0
  %f8 = fmul f64 %x, %x
  %f9 = fsub f64 %x, %sm
  %x32 = fptrunc f64 %sm to f32
  %f10 = fpext f32 %x32 to f64
  %k = fptosi f64 %sx to i64
  %f11 = sitofp i64 %k to f64
  %ps = getelementptr f32, f32* %S, i64 %i
  store f32 %x32, f32* %ps
  %s32 = load f32, f32* %ps
  %f12 = fpext f32 %s32 to f64
  %pf = getelementptr f64, f64* %F, i64 %i
  %pfi = bitcast f64* %pf to i64*
  %i0 = load i64, i64* %pfi
  %pk = getelementptr i64, i64* %K0, i64 %i
  %pkf = bitcast i64* %pk to f64*
  %f13 = load f64, f64* %pkf
  %kk = load i64, i64* %pk
  %pt = getelementptr f32, f32* %T, i64 %i
  %pti = bitcast f32* %pt to i64*
  store i64 %kk, i64* %pti
  %w = fptosi f64 %sm to i32
  %pw = getelementptr i32, i32* %W, i64 %i
  store i32 %w, i32* %pw
  %pv = getelementptr i32, i32* %V, i64 %i
  %pvf = bitcast i32* %pv to f64*
  store f64 %sm, f64* %pvf
  %w1 = load i32, i32* %pw
  %i1 = sext i32 %w1 to i64
  %slot = srem i64 %i, 4
  %pa = getelementptr f64, f64* %FA, i64 %slot
  %f14 = atomicrmw add f64* %pa, f64 %sm
  %f15 = atomicrmw min f64* %pa, f64 %x
  %f16 = atomicrmw max f64* %pa, f64 %f3
  %f17 = atomicrmw sub f64* %pa, f64 %f4
  %f18 = atomicrmw xchg f64* %pa, f64 %f5
  %pb = getelementptr i64, i64* %IA, i64 %slot
  %i2 = atomicrmw add i64* %pb, i64 %k
  %i3 = atomicrmw min i64* %pb, i64 %i0
  %i4 = atomicrmw max i64* %pb, i64 %i1
  %i5 = atomicrmw sub i64* %pb, i64 %k
  %i6 = atomicrmw xchg i64* %pb, i64 %i0
  %c0 = fcmp oeq f64 %x, %x
  %c1 = fcmp one f64 %x, 0.5
  %c2 = fcmp olt f64 %x, 0.5
  %c3 = fcmp ole f64 %x, %sx
  %c4 = fcmp ogt f64 %x, -1.5
  %c5 = fcmp oge f64 %x, %sm
  %i7 = zext i1 %c0 to i64
  %i8 = zext i1 %c1 to i64
  %i9 = zext i1 %c2 to i64
  %i10 = zext i1 %c3 to i64
  %i11 = zext i1 %c4 to i64
  %i12 = zext i1 %c5 to i64
  %t8 = trunc i64 %k to i8
  %i13 = sext i8 %t8 to i64
  %t16 = trunc i64 %k to i16
  %i14 = sext i16 %t16 to i64
  %t32 = trunc i64 %k to i32
  %i15 = sext i32 %t32 to i64
  %t1 = trunc i64 %k to i1
  %i16 = zext i1 %t1 to i64
  %i17 = bitcast i64 %k to i64
  %i18 = sdiv i64 %k, 7
  %i19 = srem i64 %k, -3
  %i20 = shl i64 %k, 60
  %i21 = ashr i64 %k, 100
  %i22 = lshr i64 %k, 64
  %i23 = lshr i64 %k, 3
  %i24 = mul i64 %k, %k
  %acc.next = fadd f64 %acc, %f3
"""
_FLOAT_RESULTS = 19
_INT_RESULTS = 25


def _float_kernel_ir() -> str:
    stores = []
    for prefix, ty, out, count in (("f", "f64", "Y", _FLOAT_RESULTS),
                                   ("i", "i64", "K", _INT_RESULTS)):
        stores.append(f"  %{out}b = mul i64 %i, {count}")
        for j in range(count):
            stores += [
                f"  %{out}i{j} = add i64 %{out}b, {j}",
                f"  %{out}p{j} = getelementptr {ty}, {ty}* %{out}, "
                f"i64 %{out}i{j}",
                f"  store {ty} %{prefix}{j}, {ty}* %{out}p{j}"]
    return (
        "define f64 @floats(f64* %X, f64* %F, i64* %K0, f64* %Y, "
        "i64* %K, f32* %S, f32* %T, i32* %W, i32* %V, f64* %FA, i64* %IA, "
        "i64 %n) {\n"
        "entry:\n  br label %head\n"
        "head:\n"
        "  %i = phi i64 [ 0, %entry ], [ %next, %body ]\n"
        "  %acc = phi f64 [ 0.0, %entry ], [ %acc.next, %body ]\n"
        "  %go = icmp slt i64 %i, %n\n"
        "  br i1 %go, label %body, label %exit\n"
        "body:" + _FLOAT_BODY + "\n".join(stores) + "\n"
        "  %next = add i64 %i, 1\n  br label %head\n"
        "exit:\n  ret f64 %acc\n}\n")


def _float_setup(x, f, k0):
    func = parse_function(_float_kernel_ir())
    n = len(x)

    def setup():
        memory = SimMemory()
        args = [
            memory.alloc(n, F64, "X", init=x),
            memory.alloc(n, F64, "F", init=f),
            memory.alloc(n, I64, "K0", init=k0),
            memory.alloc(n * _FLOAT_RESULTS, F64, "Y"),
            memory.alloc(n * _INT_RESULTS, I64, "K"),
            memory.alloc(n, F32, "S"),
            memory.alloc(n, F32, "T"),
            memory.alloc(n, I32, "W"),
            memory.alloc(2 * n, I32, "V"),
            memory.alloc(4, F64, "FA", init=[1.0, float("nan"), -2.0, 0.0]),
            memory.alloc(4, I64, "IA", init=[5, -7, 2 ** 62, 0]),
            n]
        interp = Interpreter(_module(func), memory)
        return memory, lambda: [interp.run(func.name, args)]
    return setup


def test_float_kernel_matches():
    traces = _assert_same_traces(
        _float_setup(SPECIALS, (FINITE * 2)[:len(SPECIALS)], K0),
        instances=1)
    assert math.isfinite(traces[0].return_value)


@given(values=st.lists(st.tuples(
    st.floats(width=64),
    st.floats(-9.2e18, 9.2e18),
    st.integers(-2 ** 63, 2 ** 63 - 1)), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_float_kernel_matches_on_random_inputs(values):
    x, f, k0 = zip(*values)
    _assert_same_traces(_float_setup(x, f, k0), instances=1)


def test_i64_edge_results_match():
    source = """define void @edges(i64* %A, i64 %m, i64 %d, i64 %z) {
entry:
  %q = sdiv i64 %m, %d
  %r = srem i64 %m, %d
  %l0 = lshr i64 %d, %z
  %l64 = lshr i64 %d, 64
  %s = shl i64 %m, 1
  %p1 = getelementptr i64, i64* %A, i64 1
  %p2 = getelementptr i64, i64* %A, i64 2
  %p3 = getelementptr i64, i64* %A, i64 3
  %p4 = getelementptr i64, i64* %A, i64 4
  store i64 %q, i64* %A
  store i64 %r, i64* %p1
  store i64 %l0, i64* %p2
  store i64 %l64, i64* %p3
  store i64 %s, i64* %p4
  ret void
}
"""
    func = parse_function(source)

    def setup():
        memory = SimMemory()
        A = memory.alloc(5, I64, "A")
        interp = Interpreter(_module(func), memory)
        return memory, lambda: [interp.run("edges", [A, -2 ** 63, -1, 0])]

    _assert_same_traces(setup, instances=1)
    memory, go = setup()
    go()
    assert list(memory.segments[0].data) == [-2 ** 63, 0, -1, -1, 0]


def test_pointer_typed_load_chases_a_pointer():
    # the loaded i64* stays an integer address on both backends
    source = """define i64 @chase(i64** %PP) {
entry:
  %P = load i64*, i64** %PP
  %v = load i64, i64* %P
  ret i64 %v
}
"""
    func = parse_function(source)

    def setup():
        memory = SimMemory()
        target = memory.alloc(1, I64, "target", init=[42])
        PP = memory.alloc(1, I64, "PP", init=[target.base])
        interp = Interpreter(_module(func), memory)
        return memory, lambda: [interp.run("chase", [PP])]

    traces = _assert_same_traces(setup, instances=1)
    assert traces[0].return_value == 42


def test_uncollected_run_counts_instructions():
    def setup():
        memory = SimMemory()
        A = memory.alloc(8, F64, "A", init=np.arange(8.0))
        B = memory.alloc(8, F64, "B")
        interp = Interpreter(_module(compile_kernel(kernels.saxpy)), memory)
        return memory, lambda: [interp.run("saxpy", [A, B, 8, 2.0],
                                           collect_trace=False)]

    traces = _assert_same_traces(setup, instances=1)
    assert traces[0].dynamic_instructions > 0
    assert traces[0].block_trace == [] and traces[0].addr_trace == {}


# -- random kernels, three ways ---------------------------------------------

@given(pair=random_kernel(),
       data=st.lists(st.integers(-100, 100), min_size=4, max_size=12))
@settings(max_examples=60, deadline=None)
def test_fuzzed_kernels_match_three_ways(pair, data):
    source, native_source = pair
    n = len(data)
    oracle_a, oracle_b = list(data), [0] * n
    namespace = {"_w": _wrap}
    exec(compile(native_source, "<fuzz>", "exec"), namespace)
    namespace["fuzzed"](oracle_a, oracle_b, n)
    func = compile_kernel(source)

    def setup():
        memory = SimMemory()
        A = memory.alloc(n, I64, "A", init=np.array(data, dtype=np.int64))
        B = memory.alloc(n, I64, "B")
        interp = Interpreter(_module(func), memory)
        return memory, lambda: [interp.run("fuzzed", [A, B, n]), A, B]

    (native_out, image, chosen), (python_out, ref_image, _) = \
        _on_both(setup)
    assert chosen == (["native"] if HAVE_GCC else ["python"])
    assert pickle.dumps(native_out[0]) == pickle.dumps(python_out[0])
    assert image == ref_image
    assert list(native_out[2].data) == oracle_b, source
    assert list(native_out[1].data) == oracle_a


# -- errors ------------------------------------------------------------------

def _error_setup(source, allocs, args, step_limit=200_000_000):
    """``allocs``: (name, type, init) per segment; ``args`` maps the
    segments to the kernel's arguments."""
    func = parse_function(source) if source.startswith("define") \
        else compile_kernel(source)

    def setup():
        memory = SimMemory()
        refs = [memory.alloc(len(init), ty, name, init=init)
                for name, ty, init in allocs]
        interp = Interpreter(_module(func), memory, step_limit=step_limit)
        return memory, lambda: interp.run(func.name, args(refs))
    return setup


def _assert_same_error(setup, error):
    (outcome, image, chosen), (reference, ref_image, _) = _on_both(setup)
    assert chosen == (["native"] if HAVE_GCC else ["python"])
    assert outcome == reference
    assert outcome[0] is error, outcome
    assert image == ref_image


_DIVIDE = """define void @divide(i64* %A, f64* %B, i64 %d, f64 %e) {
entry:
  store i64 1, i64* %A
  store f64 2.0, f64* %B
  %q = sdiv i64 7, %d
  %r = fdiv f64 7.0, %e
  %p = getelementptr i64, i64* %A, i64 1
  store i64 %q, i64* %p
  ret void
}
"""


def test_integer_division_by_zero():
    from repro.trace import InterpreterError
    _assert_same_error(_error_setup(
        _DIVIDE, [("A", I64, [0, 0]), ("B", F64, [0.0])],
        lambda refs: [refs[0], refs[1], 0, 1.0]), InterpreterError)


def test_float_division_by_zero():
    _assert_same_error(_error_setup(
        _DIVIDE, [("A", I64, [0, 0]), ("B", F64, [0.0])],
        lambda refs: [refs[0], refs[1], 3, -0.0]), ZeroDivisionError)


_PEEK = """define i64 @peek(i64* %A, i64* %P) {
entry:
  store i64 5, i64* %A
  %v = load i64, i64* %P
  ret i64 %v
}
"""


@pytest.mark.parametrize("where", [
    lambda A: 8,                     # unmapped
    lambda A: A.base + 32,           # past the end of A, before B
    lambda A: A.base + 4,            # misaligned
    lambda A: 2 ** 62,               # past the end of the last segment
], ids=["unmapped", "past-end", "misaligned", "far"])
def test_bad_address(where):
    from repro.trace import MemoryError_
    _assert_same_error(_error_setup(
        _PEEK, [("A", I64, [0] * 4), ("B", I64, [0] * 4)],
        lambda refs: [refs[0], where(refs[0])]), MemoryError_)


def test_step_limit():
    from repro.trace import StepLimitExceeded
    source = (
        "def f(A: 'i64*', n: int) -> int:\n"
        "    x = 0\n"
        "    while n > 0:\n"
        "        x += 1\n"
        "        A[0] = x\n"
        "    return x\n")
    _assert_same_error(_error_setup(
        source, [("A", I64, [0])], lambda refs: [refs[0], 1],
        step_limit=10_000), StepLimitExceeded)


def test_out_of_range_store_into_i32():
    source = """define void @narrow(i32* %W, i32 %v) {
entry:
  store i32 1, i32* %W
  %w = add i32 %v, %v
  %p = getelementptr i32, i32* %W, i64 1
  store i32 %w, i32* %p
  ret void
}
"""
    _assert_same_error(_error_setup(
        source, [("W", I32, [0, 0])], lambda refs: [refs[0], 2 ** 31 - 1]),
        OverflowError)


_MATH_CALL = """define void @math(f64* %A) {{
entry:
  %x = load f64, f64* %A
  store f64 1.0, f64* %A
  %r = call f64 @{callee}(f64 %x)
  %p = getelementptr f64, f64* %A, i64 1
  store f64 %r, f64* %p
  ret void
}}
"""


@pytest.mark.parametrize("callee,value,error", [
    ("logf", 0.0, ValueError),
    ("logf", -1.0, ValueError),
    ("sqrtf", -1.0, ValueError),
    ("expf", 1000.0, OverflowError),
    ("rsqrtf", 0.0, ZeroDivisionError),
    ("rsqrtf", -4.0, ValueError),
    ("sinf", float("inf"), ValueError),
    ("cosf", float("-inf"), ValueError),
    ("floorf", float("nan"), ValueError),
    ("floorf", float("inf"), OverflowError),
])
def test_math_errors(callee, value, error):
    _assert_same_error(_error_setup(
        _MATH_CALL.format(callee=callee), [("A", F64, [value, 0.0])],
        lambda refs: [refs[0]]), error)


@pytest.mark.parametrize("value,error", [
    (float("nan"), ValueError), (float("inf"), OverflowError)])
def test_fptosi_of_nan_and_inf(value, error):
    source = """define i64 @toint(f64* %A) {
entry:
  %x = load f64, f64* %A
  store f64 1.0, f64* %A
  %k = fptosi f64 %x to i64
  ret i64 %k
}
"""
    _assert_same_error(_error_setup(
        source, [("A", F64, [value])], lambda refs: [refs[0]]), error)


def test_f32_overflow_warns_on_both():
    source = """define void @narrow(f32* %S, f64* %X) {
entry:
  %x = load f64, f64* %X
  %t = fptrunc f64 %x to f32
  store f32 %t, f32* %S
  ret void
}
"""
    setup = _error_setup(source, [("S", F32, [0.0]), ("X", F64, [1e300])],
                         lambda refs: refs)
    images = []
    for context in (contextlib.nullcontext, python_interpreter):
        memory, go = setup()
        with context(), backends() as chosen, \
                pytest.warns(RuntimeWarning, match="overflow"):
            go()
        images.append(_image(memory))
    assert chosen == ["python"]
    assert images[0] == images[1]


# -- which backend runs -----------------------------------------------------

def test_backend_choice():
    expected = "native" if HAVE_GCC else "python"
    for kernel in sorted(PARBOIL):
        workload = PARBOIL[kernel](seed=0)
        with backends() as chosen:
            prepare(workload.kernel, workload.args, memory=workload.memory)
        assert chosen == [expected], kernel
    workload = graphproj.build(seed=0)
    with backends() as chosen:
        prepare(workload.kernel, workload.args, num_tiles=2,
                memory=workload.memory)
    assert chosen == [expected] * 2

    # Python: a fault injector sees every load
    workload = PARBOIL["histo"](seed=0)
    with backends() as chosen:
        prepare(workload.kernel, workload.args, memory=workload.memory,
                injector=FaultInjector(FaultPlan(seed=0)))
    assert chosen == ["python"]
    # Python: DAE slices exchange values through queues
    workload = graphproj.build(seed=0)
    with backends() as chosen:
        prepare_dae_sliced(workload.kernel, workload.args, pairs=1)
    assert chosen == ["python", "python"]
    # Python: send/recv
    with backends() as chosen:
        interp = Interpreter(_module(compile_kernel(kernels.ping_pong)))
        interp.run_spmd("ping_pong", [4], 2)
    assert chosen == ["python", "python"]
    # Python: accelerator calls
    memory = SimMemory()
    refs = [memory.alloc(16, F64, name, init=np.ones(16))
            for name in "ABC"]
    with backends() as chosen:
        prepare(kernels.accel_sgemm_wrapper, refs + [4, 4, 4],
                memory=memory)
    assert chosen == ["python"]
    # Python: an un-promoted alloca
    source = """define i64 @slot(i64 %v) {
entry:
  %s = alloca i64
  store i64 %v, i64* %s
  %r = load i64, i64* %s
  ret i64 %r
}
"""
    with backends() as chosen:
        trace = Interpreter(_module(parse_function(source))).run(
            "slot", [3])
    assert chosen == ["python"] and trace.return_value == 3
    # Python: the library is unavailable
    workload = PARBOIL["sgemm"](seed=0)
    with python_interpreter(), backends() as chosen:
        prepare(workload.kernel, workload.args, memory=workload.memory)
    assert chosen == ["python"]
    # Python: an argument that is not a plain int/float of its class
    memory = SimMemory()
    A = memory.alloc(4, F64, "A")
    B = memory.alloc(4, F64, "B")
    with backends() as chosen:
        prepare(kernels.saxpy, [A, B, np.int64(4), 2.0], memory=memory)
    assert chosen == ["python"]
