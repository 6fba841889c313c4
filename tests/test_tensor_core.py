"""Dense linear-algebra kernel: expm, norms, sectors, and the tests' kron and
unitarity predicate."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonsynth import tensor_core
from bosonsynth.tensor_core import (
    TOL,
    HilbertLayout,
    LayoutMismatchError,
    Operator,
    ResourceExhaustedError,
    _sectors,
    basis_state,
    expm,
    identity,
    spectral_norm,
)
from bosonsynth.fock_ops import annihilation, momentum, pauli, position
from demos import commutator, is_unitary, kron, pattern_sectors

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
        m -= m.conj().T
        m *= 10.0 / spectral_norm(m)
        layout = HilbertLayout((("mode", 8),))
        prod = expm(Operator(layout, m)).mat @ expm(Operator(layout, -m)).mat
        assert spectral_norm(prod - np.eye(8)) < 1e-10

    @pytest.mark.parametrize("kind", ["general", "hermitian"])
    def test_rejects_non_antihermitian(self, kind):
        rng = np.random.default_rng(17)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        if kind == "hermitian":
            m += m.conj().T
        with pytest.raises(ValueError, match="anti-Hermitian"):
            expm(Operator(HilbertLayout((("mode", 8),)), m))

    def test_dim_cap(self, monkeypatch):
        layout = HilbertLayout((("mode", 16),))
        monkeypatch.setattr(tensor_core, "TOL", dataclasses.replace(TOL, dim_cap=8))
        with pytest.raises(ResourceExhaustedError, match="exceeds cap 8"):
            expm(Operator(layout, np.eye(16)))


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

    def test_large_matrix_matches_dense_svd(self):
        """A large dense matrix is one sector and gets the largest singular
        value of one SVD of the whole matrix."""
        rng = np.random.default_rng(3)
        m = rng.normal(size=(600, 600))
        layout = HilbertLayout((("mode", 600),))
        got = spectral_norm(Operator(layout, m))
        want = np.linalg.svd(m, compute_uv=False)[0]
        assert got == pytest.approx(want, rel=1e-8)

    def test_permuted_blocks_match_dense_svd(self):
        """Blocks under a permutation: the largest block norm is the norm of
        the whole matrix, to a few ulps."""
        rng = np.random.default_rng(11)
        n = 40
        perm = rng.permutation(n)
        m = np.zeros((n, n), dtype=complex)
        for members in np.split(perm, [7, 19, 20, 33]):
            size = len(members)
            m[np.ix_(members, members)] = rng.normal(size=(size, size)) + 1j * rng.normal(
                size=(size, size)
            )
        assert len(_sectors(n, *np.nonzero(m))) == 5
        want = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(spectral_norm(m) - want) <= 8 * np.spacing(want)

    def test_connected_pattern_is_one_dense_svd_bitwise(self):
        rng = np.random.default_rng(12)
        dense = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        tridiagonal = np.triu(np.tril(dense, 1), -1)
        for m in (dense, tridiagonal):
            assert len(_sectors(len(m), *np.nonzero(m))) == 1
            assert spectral_norm(m) == np.linalg.svd(m, compute_uv=False)[0]


@st.composite
def _permuted_block_pattern(draw):
    """A boolean pattern whose connected blocks are known: each block is a
    path through its members (edges in a random direction) plus random
    entries inside it, under a random permutation of the indices."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    perm = rng.permutation(n)
    pattern = np.zeros((n, n), dtype=bool)
    blocks = np.split(perm, np.cumsum(sizes)[:-1])
    for members in blocks:
        for a, b in zip(members[:-1], members[1:]):
            if rng.random() < 0.5:
                pattern[a, b] = True
            else:
                pattern[b, a] = True
        pattern[np.ix_(members, members)] |= rng.random((len(members),) * 2) < 0.3
    return pattern, sorted((np.sort(b) for b in blocks), key=lambda b: b[0])


@settings(max_examples=60, deadline=None)
@given(_permuted_block_pattern())
def test_sectors_are_the_permuted_blocks(case):
    pattern, blocks = case
    sectors = _sectors(len(pattern), *np.nonzero(pattern))
    assert len(sectors) == len(blocks)
    for got, want in zip(sectors, blocks):
        assert np.array_equal(got, want)
    label = np.empty(len(pattern), dtype=int)
    for k, sector in enumerate(sectors):
        label[sector] = k
    rows, cols = np.nonzero(pattern)
    assert np.array_equal(label[rows], label[cols])


class TestPredicates:
    def test_unitary_cases(self):
        assert is_unitary(identity(QUBIT))
        assert not is_unitary(op2(2 * np.eye(2)))


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

    def test_layout_mismatch(self):
        with pytest.raises(LayoutMismatchError):
            commutator(pauli("x"), annihilation(2))


@st.composite
def _edge_pattern(draw):
    """A random square pattern: sparse or dense entries in any direction,
    some indices left isolated, and possibly one block with every entry
    set."""
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pattern = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.02, 0.08, 0.3]))
    isolated = rng.random(n) < 0.2
    pattern[isolated] = pattern[:, isolated] = False
    if draw(st.booleans()):
        members = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        pattern[np.ix_(members, members)] = True
    return pattern


@settings(max_examples=200, deadline=None)
@given(_edge_pattern(), st.booleans())
def test_sectors_of_edges_equal_the_dense_search(pattern, shuffled):
    """The edge routine finds the components that a breadth-first search
    over the dense pattern finds, each sorted, in the same order: from the
    row-sorted nonzeros, or from every edge listed both ways in a shuffled
    order."""
    rows, cols = np.nonzero(pattern)
    if shuffled:
        order = np.random.default_rng(len(rows)).permutation(2 * len(rows))
        rows, cols = np.concatenate([rows, cols])[order], np.concatenate([cols, rows])[order]
    got = _sectors(len(pattern), rows, cols)
    want = pattern_sectors(pattern)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
