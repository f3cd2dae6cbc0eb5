"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or ``-rA``)."""

import contextlib
import json
import time
from fractions import Fraction

import numpy as np

from conftest import random_values
from oracles import gram_schmidt_matrix, small_case_coefficients
from orthogen.cli import main
from orthogen.core import assemble_matrix, build_even_system, build_odd_system, induct_basis
from orthogen.linsolve import determinant
from orthogen.presets import PRESETS, preset_values
from orthogen.quantize import quantize_matrix
from orthogen.transform import forward_2d, inverse_2d
from reference_matrices import (
    DCT_8,
    DCT_8_INT,
    DTT_4,
    DTT_4_INT_128,
    DTT_8,
    DTT_8_INT,
    FIBONACCI_8,
    PRIME_8,
    TRIANGULAR_8,
)


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL: {label}")
        raise
    print(f"criterion {number:2d} PASS: {label}")


def _cli_json(capsys, *argv):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_criterion_01_dct_reproduction(capsys):
    with criterion(1, "8x8 DCT matches the reference table within 5e-7, under 10 ms"):
        payload = _cli_json(capsys, "generate", "--preset", "dct", "--size", "8", "--format", "json")
        np.testing.assert_allclose(np.array(payload["entries"]), DCT_8, atol=5e-7)
        timings = []
        for _ in range(5):
            start = time.perf_counter()
            assert main(["generate", "--preset", "dct", "--size", "8", "--format", "json"]) == 0
            timings.append(time.perf_counter() - start)
        capsys.readouterr()
        assert min(timings) < 0.010, f"generation took {min(timings) * 1e3:.2f} ms"


def test_criterion_02_integer_dct_reproduction(capsys):
    with criterion(2, "8x8 integer DCT table reproduced exactly at auto scale"):
        payload = _cli_json(
            capsys, "quantize", "--preset", "dct", "--size", "8", "--scale", "auto", "--format", "json"
        )
        np.testing.assert_array_equal(np.array(payload["entries"]), DCT_8_INT)


def test_criterion_03_dtt_reproduction(capsys):
    with criterion(3, "DTT 4 and 8 match references; x128 and auto-scaled integers exact"):
        payload = _cli_json(capsys, "generate", "--preset", "dtt", "--size", "4", "--format", "json")
        np.testing.assert_allclose(np.array(payload["entries"]), DTT_4, atol=5e-7)
        payload = _cli_json(capsys, "generate", "--preset", "dtt", "--size", "8", "--format", "json")
        np.testing.assert_allclose(np.array(payload["entries"]), DTT_8, atol=5e-7)
        payload = _cli_json(
            capsys, "quantize", "--preset", "dtt", "--size", "4", "--scale", "128", "--format", "json"
        )
        np.testing.assert_array_equal(np.array(payload["entries"]), DTT_4_INT_128)
        payload = _cli_json(
            capsys, "quantize", "--preset", "dtt", "--size", "8", "--scale", "auto", "--format", "json"
        )
        np.testing.assert_array_equal(np.array(payload["entries"]), DTT_8_INT)


def test_criterion_04_novel_matrices(capsys):
    with criterion(4, "value sets {10,6,3,1}, {7,5,3,2}, {5,3,2,1} match references within 5e-7"):
        for values, reference in (
            ("10,6,3,1", TRIANGULAR_8),
            ("7,5,3,2", PRIME_8),
            ("5,3,2,1", FIBONACCI_8),
        ):
            payload = _cli_json(capsys, "generate", "--values", values, "--format", "json")
            np.testing.assert_allclose(np.array(payload["entries"]), reference, atol=5e-7)


def test_criterion_05_orthonormality_property():
    with criterion(5, "200 random value sets orthonormal within 1e-9, under 2 s"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        for _ in range(200):
            m = int(rng.integers(1, 9))
            matrix = assemble_matrix(random_values(rng, m, min_gap=1e-3))
            residual = np.abs(matrix.entries @ matrix.entries.T - np.eye(matrix.n)).max()
            assert residual <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"took {elapsed:.2f} s"


def test_criterion_06_scale_invariance():
    with criterion(6, "50 random value sets scale-invariant within 1e-9"):
        rng = np.random.default_rng(2025)
        for _ in range(50):
            m = int(rng.integers(1, 9))
            values = random_values(rng, m, min_gap=1e-3)
            base = assemble_matrix(values).entries
            for lam in (1e-2, 0.5, 3.0, 1e2):
                scaled = assemble_matrix(lam * values).entries
                assert np.abs(scaled - base).max() <= 1e-9


def test_criterion_07_determinant_recurrence():
    # The recurrence carries a cofactor sign (-1)^(t+1) from the
    # descending-power column layout; magnitudes follow the squared-norm
    # growth exactly.
    with criterion(7, "system determinants follow the squared-norm recurrence within 1e-6"):
        rng = np.random.default_rng(2026)
        for _ in range(20):
            basis = induct_basis(random_values(rng, 4, min_gap=1e-3))
            for t in (2, 3):
                sign = (-1.0) ** (t + 1)
                lhs = determinant(build_even_system(basis, t).matrix)
                rhs = sign * determinant(build_even_system(basis, t - 1).matrix) * np.sum(
                    basis.even_evals[t - 1] ** 2
                )
                assert abs(lhs - rhs) <= 1e-6 * abs(rhs)
                lhs = determinant(build_odd_system(basis, t).matrix)
                rhs = sign * determinant(build_odd_system(basis, t - 1).matrix) * np.sum(
                    basis.odd_evals[t - 1] ** 2
                )
                assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


def test_criterion_08_oracle_equivalence():
    with criterion(8, "Gram-Schmidt oracle matches generator up to row sign, 1e-8"):
        for name in PRESETS:
            for n in (2, 4, 8):
                values = preset_values(name, n)
                core = assemble_matrix(values).entries
                oracle = gram_schmidt_matrix(values)
                for i in range(n):
                    sign = np.sign(np.dot(oracle[i], core[i]))
                    assert sign != 0.0
                    assert np.abs(oracle[i] - sign * core[i]).max() <= 1e-8


def test_criterion_09_transform_round_trip():
    with criterion(9, "1000 random 10-bit blocks: round trip within 1e-6, energy within 1e-9"):
        matrix = assemble_matrix(preset_values("dct", 8))
        rng = np.random.default_rng(2027)
        for _ in range(1000):
            block = rng.uniform(-1024, 1023, (8, 8))
            coeffs = forward_2d(matrix, block)
            energy_in = np.sum(block**2)
            assert abs(np.sum(coeffs**2) - energy_in) <= 1e-9 * energy_in
            restored = inverse_2d(matrix, coeffs)
            assert np.abs(restored - block).max() <= 1e-6


def test_criterion_10_small_case_closed_form():
    with criterion(10, "closed-form coefficients -5/2 and -17/5 for {1,2}, within 1e-14"):
        d_even, d_odd = small_case_coefficients([1.0, 2.0])
        assert d_even == Fraction(-5, 2)
        assert d_odd == Fraction(-17, 5)
        basis = induct_basis([1.0, 2.0])
        assert abs(basis.even_coefs[1][0] - float(d_even)) <= 1e-14
        assert abs(basis.odd_coefs[1][0] - float(d_odd)) <= 1e-14
