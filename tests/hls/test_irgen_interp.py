"""End-to-end front-end tests: C source -> IR -> interpreted execution.

The interpreter results are compared against plain-Python references,
which independently validates parsing, typing, lowering and IR semantics.
"""

import pytest

from repro.hls.frontend import compile_to_ir
from repro.hls.ir import verify_function
from repro.hls.ir.interp import InterpError, Interpreter, run_function


def run(source, func, args=(), mems=None):
    module = compile_to_ir(source)
    result, memories = run_function(module, func, args, mems)
    return result, {name: mem.data for name, mem in memories.items()}


class TestScalars:
    def test_constant_return(self):
        result, _ = run("int f(void) { return 42; }", "f")
        assert result == 42

    def test_arith(self):
        src = "int f(int a, int b) { return (a + b) * (a - b) / 2; }"
        result, _ = run(src, "f", (7, 3))
        assert result == (7 + 3) * (7 - 3) // 2

    def test_division_truncates_toward_zero(self):
        src = "int f(int a, int b) { return a / b; }"
        assert run(src, "f", (-7, 2))[0] == -3
        assert run(src, "f", (7, -2))[0] == -3

    def test_modulo_sign(self):
        src = "int f(int a, int b) { return a % b; }"
        assert run(src, "f", (-7, 3))[0] == -1
        assert run(src, "f", (7, -3))[0] == 1

    def test_int_overflow_wraps(self):
        src = "int f(int a) { return a + 1; }"
        assert run(src, "f", (2**31 - 1,))[0] == -(2**31)

    def test_unsigned_wraps(self):
        src = "unsigned f(unsigned a) { return a - 1; }"
        assert run(src, "f", (0,))[0] == 2**32 - 1

    def test_char_narrowing(self):
        src = "char f(int a) { return (char)a; }"
        assert run(src, "f", (300,))[0] == 300 - 256

    def test_shift_ops(self):
        src = "int f(int a) { return (a << 3) >> 1; }"
        assert run(src, "f", (5,))[0] == (5 << 3) >> 1

    def test_unsigned_right_shift(self):
        src = "unsigned f(unsigned a) { return a >> 1; }"
        assert run(src, "f", (0x80000000,))[0] == 0x40000000

    def test_signed_right_shift_arithmetic(self):
        src = "int f(int a) { return a >> 1; }"
        assert run(src, "f", (-8,))[0] == -4

    def test_bitwise(self):
        src = "int f(int a, int b) { return (a & b) ^ (a | b); }"
        a, b = 0b1100, 0b1010
        assert run(src, "f", (a, b))[0] == (a & b) ^ (a | b)

    def test_bitnot(self):
        assert run("int f(int a) { return ~a; }", "f", (5,))[0] == ~5

    def test_float_arith(self):
        src = "float f(float a, float b) { return a * b + 0.5; }"
        result, _ = run(src, "f", (1.5, 2.0))
        assert result == pytest.approx(3.5)

    def test_float_to_int_truncation(self):
        src = "int f(float a) { return (int)a; }"
        assert run(src, "f", (3.9,))[0] == 3
        assert run(src, "f", (-3.9,))[0] == -3

    def test_comparisons(self):
        src = "int f(int a, int b) { return (a < b) + (a == b) * 2 + (a > b) * 4; }"
        assert run(src, "f", (1, 2))[0] == 1
        assert run(src, "f", (2, 2))[0] == 2
        assert run(src, "f", (3, 2))[0] == 4

    def test_signed_vs_unsigned_compare(self):
        src_signed = "int f(int a) { return a < 0; }"
        assert run(src_signed, "f", (-1,))[0] == 1
        src_unsigned = "int f(unsigned a) { return a < 1; }"
        assert run(src_unsigned, "f", (2**32 - 1,))[0] == 0

    def test_narrow_unsigned_operands_promote_to_int(self):
        # C promotes both operands to int before the usual arithmetic
        # conversions, so neither sum below is unsigned.
        src = "int f(int a, int b, int c) { return a < ((b < 0) + (c < 0)); }"
        assert run(src, "f", (-1, 0, 0))[0] == 1
        src = "int f(uint8_t x, uint8_t y) { return (x - y) < 0; }"
        assert run(src, "f", (1, 2))[0] == 1

    def test_narrow_unsigned_shift_operand_promotes_to_int(self):
        # The shift result takes the promoted left operand's type: int
        # for uint8_t/bool, so the comparison with -1 is signed.
        src = "int f() { uint8_t a = 4; return (a >> 1) > -1; }"
        assert run(src, "f")[0] == 1
        src = "int f(bool b) { return (b << 1) > -1; }"
        assert run(src, "f", (1,))[0] == 1


class TestControlFlow:
    def test_if_else(self):
        src = "int f(int a) { if (a > 0) return 1; else return -1; }"
        assert run(src, "f", (5,))[0] == 1
        assert run(src, "f", (-5,))[0] == -1

    def test_if_without_else(self):
        src = "int f(int a) { int r = 0; if (a) r = 9; return r; }"
        assert run(src, "f", (1,))[0] == 9
        assert run(src, "f", (0,))[0] == 0

    def test_while_loop(self):
        src = ("int f(int n) { int s = 0; int i = 0;"
               " while (i < n) { s += i; i++; } return s; }")
        assert run(src, "f", (10,))[0] == sum(range(10))

    def test_do_while_runs_once(self):
        src = ("int f(void) { int c = 0; do { c++; } while (0); return c; }")
        assert run(src, "f")[0] == 1

    def test_for_loop(self):
        src = ("int f(int n) { int s = 0;"
               " for (int i = 1; i <= n; i++) s += i * i; return s; }")
        assert run(src, "f", (5,))[0] == sum(i * i for i in range(1, 6))

    def test_nested_loops(self):
        src = ("int f(void) { int s = 0;"
               " for (int i = 0; i < 4; i++)"
               "  for (int j = 0; j < 4; j++)"
               "   s += i * j;"
               " return s; }")
        assert run(src, "f")[0] == sum(i * j for i in range(4) for j in range(4))

    def test_break(self):
        src = ("int f(void) { int i;"
               " for (i = 0; i < 100; i++) { if (i == 7) break; }"
               " return i; }")
        assert run(src, "f")[0] == 7

    def test_continue(self):
        src = ("int f(void) { int s = 0;"
               " for (int i = 0; i < 10; i++) { if (i % 2) continue; s += i; }"
               " return s; }")
        assert run(src, "f")[0] == sum(i for i in range(10) if i % 2 == 0)

    def test_short_circuit_and_skips_rhs(self):
        # RHS would divide by zero if evaluated.
        src = "int f(int a, int b) { if (a != 0 && 10 / a > b) return 1; return 0; }"
        assert run(src, "f", (0, 5))[0] == 0
        assert run(src, "f", (1, 5))[0] == 1

    def test_short_circuit_or(self):
        src = "int f(int a, int b) { return a || b; }"
        assert run(src, "f", (0, 0))[0] == 0
        assert run(src, "f", (0, 3))[0] == 1
        assert run(src, "f", (2, 0))[0] == 1

    def test_ternary(self):
        src = "int f(int a, int b) { return a > b ? a : b; }"
        assert run(src, "f", (3, 9))[0] == 9

    def test_logical_not(self):
        src = "int f(int a) { return !a; }"
        assert run(src, "f", (0,))[0] == 1
        assert run(src, "f", (17,))[0] == 0

    def test_missing_return_yields_zero(self):
        src = "int f(int a) { if (a) return 5; }"
        assert run(src, "f", (0,))[0] == 0


class TestMemory:
    def test_local_array(self):
        src = ("int f(void) { int a[4];"
               " for (int i = 0; i < 4; i++) a[i] = i * 10;"
               " return a[0] + a[1] + a[2] + a[3]; }")
        assert run(src, "f")[0] == 60

    def test_local_array_initializer(self):
        src = "int f(void) { int a[3] = {5, 6, 7}; return a[1]; }"
        assert run(src, "f")[0] == 6

    def test_const_rom_array(self):
        src = ("int f(int i) { const int lut[4] = {10, 20, 30, 40};"
               " return lut[i]; }")
        assert run(src, "f", (2,))[0] == 30

    def test_param_array_read_write(self):
        src = ("void scale(int data[4], int k) {"
               " for (int i = 0; i < 4; i++) data[i] = data[i] * k; }")
        _, mems = run(src, "scale", (3,), {"data": [1, 2, 3, 4]})
        assert mems["data"] == [3, 6, 9, 12]

    def test_pointer_param(self):
        src = ("int sum(const int *p, int n) {"
               " int s = 0; for (int i = 0; i < n; i++) s += p[i]; return s; }")
        result, _ = run(src, "sum", (4,), {"p": [1, 2, 3, 4]})
        assert result == 10

    def test_2d_array_flattening(self):
        src = ("int f(int m[2][3]) { return m[1][2]; }")
        result, _ = run(src, "f", (), {"m": [0, 1, 2, 3, 4, 5]})
        assert result == 5

    def test_2d_local_matrix(self):
        src = ("int f(void) { int m[2][2];"
               " for (int i = 0; i < 2; i++)"
               "  for (int j = 0; j < 2; j++)"
               "   m[i][j] = i * 2 + j;"
               " return m[0][0] + m[0][1] * 10 + m[1][0] * 100 + m[1][1] * 1000; }")
        assert run(src, "f")[0] == 0 + 10 + 200 + 3000

    def test_global_array_shared(self):
        src = ("int buffer[4];\n"
               "void put(int i, int v) { buffer[i] = v; }\n"
               "int get(int i) { return buffer[i]; }\n"
               "int f(void) { put(2, 99); return get(2); }")
        assert run(src, "f")[0] == 99

    def test_global_const_lut(self):
        src = ("const int twiddle[4] = {1, 0, -1, 0};\n"
               "int f(int i) { return twiddle[i]; }")
        assert run(src, "f", (2,))[0] == -1

    def test_out_of_bounds_read_raises(self):
        src = "int f(int i) { int a[2] = {1, 2}; return a[i]; }"
        module = compile_to_ir(src)
        with pytest.raises(InterpError, match="out-of-bounds"):
            run_function(module, "f", (5,))

    def test_missing_mem_arg_raises(self):
        module = compile_to_ir("int f(int *p) { return p[0]; }")
        with pytest.raises(InterpError, match="missing memory"):
            run_function(module, "f", ())


class TestCalls:
    def test_simple_call(self):
        src = ("int sq(int x) { return x * x; }\n"
               "int f(int a) { return sq(a) + sq(a + 1); }")
        assert run(src, "f", (3,))[0] == 9 + 16

    def test_recursive_structure_via_loop(self):
        src = ("int fact(int n) { int r = 1;"
               " for (int i = 2; i <= n; i++) r *= i; return r; }\n"
               "int f(void) { return fact(6); }")
        assert run(src, "f")[0] == 720

    def test_call_with_array(self):
        src = ("int total(const int *v, int n) {"
               "  int s = 0; for (int i = 0; i < n; i++) s += v[i]; return s; }\n"
               "int f(int data[8]) { return total(data, 8); }")
        result, _ = run(src, "f", (), {"data": list(range(8))})
        assert result == sum(range(8))

    def test_void_call(self):
        src = ("void fill(int *p, int n, int v) {"
               "  for (int i = 0; i < n; i++) p[i] = v; }\n"
               "void f(int out[4]) { fill(out, 4, 7); }")
        _, mems = run(src, "f", (), {"out": [0, 0, 0, 0]})
        assert mems["out"] == [7, 7, 7, 7]

    def test_intrinsics(self):
        src = "int f(int a, int b) { return max(abs(a), abs(b)); }"
        assert run(src, "f", (-9, 4))[0] == 9

    def test_sqrtf(self):
        src = "float f(float x) { return sqrtf(x); }"
        assert run(src, "f", (9.0,))[0] == pytest.approx(3.0)

    def test_fmin_fmax(self):
        src = "float f(float a, float b) { return fminf(a, b) + fmaxf(a, b); }"
        assert run(src, "f", (1.5, -2.5))[0] == pytest.approx(-1.0)


class TestKernels:
    """Realistic kernels checked against Python references."""

    def test_dot_product(self):
        src = ("int dot(const int *a, const int *b, int n) {"
               "  int s = 0;"
               "  for (int i = 0; i < n; i++) s += a[i] * b[i];"
               "  return s; }")
        a = [1, -2, 3, -4, 5, -6, 7, -8]
        b = [8, 7, 6, 5, 4, 3, 2, 1]
        result, _ = run(src, "dot", (8,), {"a": a, "b": b})
        assert result == sum(x * y for x, y in zip(a, b))

    def test_fir_filter(self):
        src = (
            "void fir(const int *x, int *y, int n) {\n"
            "  const int taps[4] = {1, 2, 4, 2};\n"
            "  for (int i = 3; i < n; i++) {\n"
            "    int acc = 0;\n"
            "    for (int t = 0; t < 4; t++) acc += x[i - t] * taps[t];\n"
            "    y[i] = acc >> 2;\n"
            "  }\n"
            "}"
        )
        x = [3, 1, 4, 1, 5, 9, 2, 6]
        taps = [1, 2, 4, 2]
        expected = [0] * 8
        for i in range(3, 8):
            acc = sum(x[i - t] * taps[t] for t in range(4))
            expected[i] = acc >> 2
        _, mems = run(src, "fir", (8,), {"x": x, "y": [0] * 8})
        assert mems["y"] == expected

    def test_bubble_sort(self):
        src = (
            "void sort(int *a, int n) {\n"
            "  for (int i = 0; i < n - 1; i++)\n"
            "    for (int j = 0; j < n - 1 - i; j++)\n"
            "      if (a[j] > a[j + 1]) {\n"
            "        int t = a[j]; a[j] = a[j + 1]; a[j + 1] = t;\n"
            "      }\n"
            "}"
        )
        data = [5, 3, 8, 1, 9, 2, 7, 4]
        _, mems = run(src, "sort", (8,), {"a": list(data)})
        assert mems["a"] == sorted(data)

    def test_matrix_multiply(self):
        src = (
            "void matmul(const int a[4][4], const int b[4][4], int c[4][4]) {\n"
            "  for (int i = 0; i < 4; i++)\n"
            "    for (int j = 0; j < 4; j++) {\n"
            "      int acc = 0;\n"
            "      for (int k = 0; k < 4; k++) acc += a[i][k] * b[k][j];\n"
            "      c[i][j] = acc;\n"
            "    }\n"
            "}"
        )
        import numpy as np
        rng = np.random.default_rng(7)
        a = rng.integers(-10, 10, (4, 4))
        b = rng.integers(-10, 10, (4, 4))
        _, mems = run(src, "matmul", (), {
            "a": a.flatten().tolist(),
            "b": b.flatten().tolist(),
            "c": [0] * 16,
        })
        assert mems["c"] == (a @ b).flatten().tolist()

    def test_gcd(self):
        src = ("int gcd(int a, int b) {"
               "  while (b != 0) { int t = b; b = a % b; a = t; }"
               "  return a; }")
        import math
        assert run(src, "gcd", (252, 105))[0] == math.gcd(252, 105)

    def test_popcount(self):
        src = ("int popcount(unsigned x) {"
               "  int c = 0;"
               "  while (x) { c += x & 1; x >>= 1; }"
               "  return c; }")
        assert run(src, "popcount", (0xDEADBEEF,))[0] == bin(0xDEADBEEF).count("1")


class TestIRStructure:
    def test_functions_verify(self):
        src = ("int helper(int a) { return a + 1; }\n"
               "int f(int a) { if (a) return helper(a); return 0; }")
        module = compile_to_ir(src)
        for func in module.functions.values():
            assert verify_function(func) == []

    def test_interp_counts_memory_traffic(self):
        src = ("int f(int *p) { return p[0] + p[1]; }")
        module = compile_to_ir(src)
        interp = Interpreter(module)
        interp.run("f", (), {"p": [1, 2]})
        assert interp.mem_reads == 2
        assert interp.mem_writes == 0
