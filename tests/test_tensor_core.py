"""Dense linear-algebra kernel: kron, expm, norms, predicates."""

import numpy as np
import pytest

from bosonsynth.tensor_core import (
    HilbertLayout,
    LayoutMismatchError,
    Operator,
    ResourceExhaustedError,
    anticommutator,
    basis_state,
    commutator,
    expm,
    identity,
    is_hermitian,
    is_unitary,
    kron,
    spectral_norm,
)
from bosonsynth.fock_ops import annihilation, momentum, pauli, position

QUBIT = HilbertLayout.single_qubit()


def op2(mat):
    return Operator(QUBIT, mat)


class TestLayout:
    def test_mixed_radix_index(self):
        layout = HilbertLayout.qubit_modes(3)
        assert layout.index(1, 2) == 1 * 4 + 2
        assert layout.dim == 8

    def test_rejects_empty_and_small_factors(self):
        with pytest.raises(ValueError):
            HilbertLayout(())
        with pytest.raises(ValueError):
            HilbertLayout((("mode", 1),))

    def test_basis_state(self):
        layout = HilbertLayout.qubit_modes(2)
        v = basis_state(layout, 0, 2)
        assert v[2] == 1.0 and np.sum(np.abs(v)) == 1.0


class TestOperator:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            op2([[np.nan, 0], [0, 1]])

    def test_rejects_layout_mismatch(self):
        with pytest.raises(LayoutMismatchError):
            Operator(QUBIT, np.eye(3))


class TestKron:
    def test_identity_case(self):
        out = kron(identity(QUBIT), identity(QUBIT))
        assert np.array_equal(out.mat, np.eye(4))
        assert out.layout.factors == (("qubit", 2), ("qubit", 2))

    def test_sigma_z_with_projector(self):
        proj = op2([[1, 0], [0, 0]])
        out = kron(pauli("z"), proj)
        assert np.array_equal(out.mat, np.diag([1.0, 0.0, -1.0, 0.0]))

    def test_sigma_x_with_annihilation(self):
        out = kron(pauli("x"), annihilation(1))
        assert out.mat[0, 3] == 1.0

    def test_mixed_product_property(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            a, b, c, d = (op2(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) for _ in range(4))
            lhs = kron(a, b).mat @ kron(c, d).mat
            rhs = kron(op2(a.mat @ c.mat), op2(b.mat @ d.mat)).mat
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestExpm:
    def test_zero(self):
        out = expm(op2(np.zeros((2, 2))))
        assert np.allclose(out.mat, np.eye(2), atol=1e-14)

    def test_half_pi_sigma_x(self):
        out = expm(op2(0.5j * np.pi * pauli("x").mat))
        assert np.max(np.abs(out.mat - 1j * pauli("x").mat)) < 1e-12

    def test_jaynes_cummings_rotation(self):
        """Generator [[0, adag], [a, 0]] rotates |1,0> toward |0,1>."""
        layout = HilbertLayout.qubit_modes(3)
        a = annihilation(3).mat
        gen = np.block([[np.zeros((4, 4)), a.conj().T], [a, np.zeros((4, 4))]])
        t = 0.731
        psi = expm(Operator(layout, 1j * t * gen)).mat @ basis_state(layout, 1, 0)
        expected = np.cos(t) * basis_state(layout, 1, 0) + 1j * np.sin(t) * basis_state(layout, 0, 1)
        assert np.max(np.abs(psi - expected)) < 1e-12

    def test_random_antihermitian_gives_unitary(self):
        rng = np.random.default_rng(11)
        layout = HilbertLayout((("mode", 64),))
        m = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        anti = Operator(layout, m - m.conj().T)
        u = expm(anti).mat
        assert spectral_norm(u.conj().T @ u - np.eye(64)) < 1e-10

    def test_inverse_pairing(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m *= 10.0 / spectral_norm(m)
        layout = HilbertLayout((("mode", 8),))
        prod = expm(Operator(layout, m)).mat @ expm(Operator(layout, -m)).mat
        assert spectral_norm(prod - np.eye(8)) < 1e-10

    def test_dim_cap(self):
        layout = HilbertLayout((("mode", 16),))
        with pytest.raises(ResourceExhaustedError):
            expm(Operator(layout, np.eye(16)), dim_cap=8)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(identity(HilbertLayout((("mode", 5),)))) == pytest.approx(1.0)

    def test_annihilation_cutoff3(self):
        assert spectral_norm(annihilation(3)) == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(op2(np.diag([1.0, -2.0]))) == pytest.approx(2.0)

    def test_submultiplicative(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-10

    def test_power_iteration_branch_matches_svd(self):
        """Matrices larger than 512 also get the exact largest singular
        value."""
        rng = np.random.default_rng(3)
        m = rng.normal(size=(600, 600))
        layout = HilbertLayout((("mode", 600),))
        got = spectral_norm(Operator(layout, m))
        want = np.linalg.svd(m, compute_uv=False)[0]
        assert got == pytest.approx(want, rel=1e-8)


class TestPredicates:
    def test_unitary_cases(self):
        assert is_unitary(identity(QUBIT))
        assert not is_unitary(op2(2 * np.eye(2)))

    def test_hermitian_cases(self):
        assert is_hermitian(pauli("y"))
        assert not is_hermitian(op2([[0, 1], [0, 0]]))


class TestCommutators:
    def test_pauli_algebra(self):
        out = commutator(pauli("x"), pauli("y"))
        assert np.max(np.abs(out.mat - 2j * pauli("z").mat)) < 1e-15

    def test_self_commutator_vanishes(self):
        a = annihilation(4)
        assert np.max(np.abs(commutator(a, a).mat)) == 0.0

    def test_position_momentum_truncated(self):
        out = commutator(position(3), momentum(3))
        assert np.max(np.abs(out.mat - 0.5j * np.diag([1, 1, 1, -3]))) < 1e-14

    def test_anticommutator(self):
        out = anticommutator(pauli("x"), pauli("x"))
        assert np.array_equal(out.mat, 2 * np.eye(2))

    def test_layout_mismatch(self):
        with pytest.raises(LayoutMismatchError):
            commutator(pauli("x"), annihilation(2))
