"""Truncated ladder operators, qubit gates, and factor embedding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonsynth.fock_ops import (
    annihilation,
    creation,
    kron_sum_entries,
    momentum,
    number,
    pauli,
    position,
    qubit_gate,
)
from bosonsynth.tensor_core import (
    HilbertLayout,
    LayoutMismatchError,
    Operator,
    basis_state,
    spectral_norm,
)
from demos import commutator, dense, embed, interior_projector, vacuum_parity_flip


class TestLadder:
    def test_creation_cutoff3_entries(self):
        want = np.zeros((4, 4))
        want[1, 0], want[2, 1], want[3, 2] = 1.0, math.sqrt(2), math.sqrt(3)
        assert np.max(np.abs(creation(3).mat - want)) < 1e-15

    def test_annihilation_cutoff3_entries(self):
        want = np.zeros((4, 4))
        want[0, 1], want[1, 2], want[2, 3] = 1.0, math.sqrt(2), math.sqrt(3)
        assert np.max(np.abs(annihilation(3).mat - want)) < 1e-15

    def test_vacuum_annihilated(self):
        vac = basis_state(HilbertLayout.single_mode(6), 0)
        assert np.all(annihilation(6).mat @ vac == 0)

    def test_adjoint_pair_exact(self):
        for cutoff in (1, 3, 9):
            assert np.array_equal(creation(cutoff).mat, annihilation(cutoff).mat.conj().T)

    def test_canonical_commutator_edge(self):
        cutoff = 5
        out = commutator(annihilation(cutoff), creation(cutoff))
        want = np.diag([1.0] * cutoff + [-float(cutoff)])
        assert np.max(np.abs(out.mat - want)) < 1e-13

    @pytest.mark.parametrize("cutoff", [4, 8, 16])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_power_norm_closed_form(self, cutoff, k):
        a_k = np.linalg.matrix_power(annihilation(cutoff).mat, k)
        want = math.sqrt(math.factorial(cutoff) / math.factorial(cutoff - k))
        assert spectral_norm(a_k) == pytest.approx(want, abs=1e-9)
        assert want <= cutoff ** (k / 2) + 1e-12


class TestQuadratures:
    def test_number_diagonal(self):
        assert np.array_equal(number(3).mat, np.diag([0.0, 1.0, 2.0, 3.0]))

    def test_quadrature_sum_interior(self):
        """x^2 + p^2 - 1/2 equals the number operator below the top level."""
        cutoff = 7
        x, p = position(cutoff).mat, momentum(cutoff).mat
        mix = x @ x + p @ p - 0.5 * np.eye(cutoff + 1)
        proj = interior_projector(cutoff, 1).mat
        assert np.max(np.abs(proj @ (mix - number(cutoff).mat) @ proj)) < 1e-13
        assert abs(mix[cutoff, cutoff] - (cutoff - (cutoff + 1) / 2)) < 1e-13

    def test_xp_commutator(self):
        out = commutator(position(3), momentum(3))
        assert np.max(np.abs(out.mat - 0.5j * np.diag([1, 1, 1, -3]))) < 1e-14

    def test_hermitian(self):
        for cutoff in (2, 9):
            for op in (position(cutoff), momentum(cutoff)):
                assert np.max(np.abs(op.mat - op.mat.conj().T)) < 1e-14


class TestQubitGates:
    def test_hzh_is_x(self):
        h = qubit_gate("H").mat
        assert np.max(np.abs(h @ pauli("z").mat @ h - pauli("x").mat)) < 1e-15

    def test_shzhs_dag_is_y(self):
        h, s = qubit_gate("H").mat, qubit_gate("S").mat
        assert np.max(np.abs(s @ h @ pauli("z").mat @ h @ s.conj().T - pauli("y").mat)) < 1e-15

    def test_s_unitary(self):
        s = qubit_gate("S").mat
        assert np.array_equal(s @ s.conj().T, np.eye(2))

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            qubit_gate("T")

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            pauli("w")


@st.composite
def _factor_maps(draw):
    """A layout of 2-3 factors and a map from a random subset of its
    positions to random operators there. Entries are small complex integers,
    so every product is exact under any BLAS summation order and the
    comparison checks placement alone."""
    dims = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    layout = HilbertLayout(tuple(("mode", d) for d in dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = draw(st.sets(st.integers(0, len(dims) - 1)))
    ops = {}
    for at in draw(st.permutations(sorted(positions))):
        d = dims[at]
        mat = rng.integers(-3, 4, (d, d)) + 1j * rng.integers(-3, 4, (d, d))
        ops[at] = Operator(HilbertLayout((("mode", d),)), mat)
    return layout, ops


class TestEmbed:
    def test_trivial_single_factor(self):
        out = embed({0: pauli("x")}, HilbertLayout.single_qubit())
        assert np.array_equal(out.mat, pauli("x").mat)

    def test_mode_slot(self):
        layout = HilbertLayout.qubit_modes(1)
        out = embed({1: annihilation(1)}, layout)
        assert np.array_equal(out.mat, np.kron(np.eye(2), annihilation(1).mat))

    def test_eigenvalue_through_index(self):
        layout = HilbertLayout.qubit_modes(3)
        out = embed({1: number(3)}, layout)
        idx = layout.index(1, 2)
        assert out.mat[idx, idx] == 2.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            embed({0: annihilation(2)}, HilbertLayout.qubit_modes(3))

    @pytest.mark.parametrize("at", [-1, 2])
    def test_position_outside_layout(self, at):
        with pytest.raises(ValueError, match="not in a layout"):
            embed({at: annihilation(3)}, HilbertLayout.qubit_modes(3))

    @pytest.mark.parametrize("case", ["multi-factor", "outside", "dim", "kind"])
    def test_layout_checks_raise_layout_mismatch(self, case):
        """A multi-factor operator, a position outside the layout, and a
        dimension or kind that does not fit its factor are layout
        mismatches, in embed and kron_sum_entries alike."""
        layout = HilbertLayout.qubit_modes(3)
        ops = {
            "multi-factor": {1: embed({1: number(3)}, layout)},
            "outside": {2: number(3)},
            "dim": {0: number(3)},
            "kind": {1: pauli("x")},
        }[case]
        if case == "kind":
            layout = HilbertLayout.qubit_modes(1)  # a mode of the qubit's dimension
        with pytest.raises(LayoutMismatchError):
            embed(ops, layout)
        with pytest.raises(LayoutMismatchError):
            kron_sum_entries([(1.0, ops)], layout)

    @settings(max_examples=60, deadline=None)
    @given(_factor_maps())
    def test_equals_dense_product_of_single_embeds(self, world):
        """One embed equals the dense product of one-factor embeddings, each
        built here as I (x) op (x) I."""
        layout, ops = world
        dims = [d for _, d in layout.factors]
        dense = np.eye(layout.dim)
        for at, op in ops.items():
            before, after = math.prod(dims[:at]), math.prod(dims[at + 1:])
            dense = dense @ np.kron(np.kron(np.eye(before), op.mat), np.eye(after))
        assert np.array_equal(embed(ops, layout).mat, dense)

    @pytest.mark.parametrize("cancel", [False, True])
    def test_entries_are_the_nonzeros_of_the_dense_sum(self, cancel):
        """kron_sum_entries lists, row-major, the nonzero entries of the sum
        of each coefficient times its embed, with equal values. A term that
        cancels another exactly leaves no entry, as it leaves a zero."""
        layout = HilbertLayout.qubit_modes(3, nmodes=2)
        rng = np.random.default_rng(5)
        terms = []
        supports = {0.5: {0: 2, 1: 4, 2: 4}, -1.0: {1: 4, 2: 4}, 1j: {0: 2, 2: 4}}
        for coeff, support in supports.items():
            terms.append((coeff, {
                at: Operator(HilbertLayout((layout.factors[at],)), rng.normal(size=(d, d)) + 0j)
                for at, d in support.items()
            }))
        if cancel:
            terms.insert(1, (-0.5, terms[0][1]))
        want = dense(terms, layout).mat
        rows, cols, vals = kron_sum_entries(terms, layout)
        assert [r.tolist() for r in np.nonzero(want)] == [rows.tolist(), cols.tolist()]
        assert np.array_equal(vals, want[rows, cols])
        if cancel:
            kept = kron_sum_entries(terms[2:], layout)
            assert all(np.array_equal(got, k) for got, k in zip((rows, cols, vals), kept))


class TestVacuumFlip:
    def test_action(self):
        r = vacuum_parity_flip(3).mat
        assert r[0, 0] == -1.0
        assert r[1, 1] == 1.0

    def test_involution(self):
        r = vacuum_parity_flip(5).mat
        assert np.array_equal(r @ r, np.eye(6))


class TestInteriorProjector:
    def test_keeps_low_levels(self):
        proj = interior_projector(4, 2).mat
        assert np.array_equal(np.diag(proj), [1, 1, 1, 0, 0])
