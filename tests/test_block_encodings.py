"""Tests for block-encoded operator arithmetic: the seed encoding, frame
conjugation, and the add/mult/power compilers."""
import math

import numpy as np
import pytest

from bosonsynth.applications import ApplicationSpec, nonlinear_hamiltonian
from bosonsynth.block_encodings import (
    BlockEncoding,
    SynthesisBudget,
    add,
    arb_power,
    block_generator,
    conjugate,
    identity_encoding,
    mult,
    power,
    s1,
)
from bosonsynth.fock_ops import annihilation, creation, number, qubit_gate
from bosonsynth.product_formulas import (
    Factor,
    FrameGate,
    Leaf,
    Primitive,
    _topological,
    bch,
    compose,
    fit_power_law,
    frame_conjugate,
    trotter,
)
from bosonsynth.tensor_core import HilbertLayout, LayoutMismatchError, basis_state, spectral_norm
from demos import dense, flow, is_unitary, s1_from_conditional_displacements, sweep_errors


def fd_deviation(enc, t):
    """Distance of the upper-right block of an off-diagonal encoding, over
    t, from i*target: the first-order consistency probe."""
    d = enc.block_target.dim
    return np.linalg.norm(enc.unitary.eval(t).mat[:d, d:] / t - 1j * enc.block_target.mat, 2)


def fitted_slope(enc):
    """Error exponent against exp(i t G): an encoding's gate against the
    off-diagonal block_generator of its target, or a mult result's gate
    against the generator it returns."""
    if isinstance(enc, BlockEncoding):
        enc = enc.unitary, block_generator(enc.block_target)
    pu, gen = enc
    exact = flow(gen, pu.layout)
    ts, errs = sweep_errors(pu.eval, exact.eval)
    return fit_power_law(ts, errs).exponent


class TestSeed:
    def test_rotates_one_excitation(self):
        enc = s1(3)
        t = 0.731
        psi = np.zeros(8)
        psi[enc.layout.index(1, 0)] = 1.0
        out = enc.unitary.eval(t).mat @ psi
        expect = np.zeros(8, dtype=complex)
        expect[enc.layout.index(1, 0)] = np.cos(t)
        expect[enc.layout.index(0, 1)] = 1j * np.sin(t)
        assert np.abs(out - expect).max() < 1e-14

    def test_zero_time_identity(self):
        assert spectral_norm(s1(4).unitary.eval(0.0).mat - np.eye(10)) < 1e-14

    def test_generator_blocks(self):
        enc = s1(3)
        gen = dense(block_generator(enc.block_target), enc.layout).mat
        assert np.array_equal(gen[:4, 4:], creation(3).mat)
        assert np.array_equal(gen[4:, :4], annihilation(3).mat)

    def test_cost_is_one_primitive(self):
        assert s1(5).unitary.cost() == 1

    def test_first_order_block(self):
        enc = s1(15)
        assert fd_deviation(enc, 1e-6) < 1e-4 * spectral_norm(enc.block_target)

    def test_identity_encoding_block(self):
        enc = identity_encoding(3)
        assert np.array_equal(enc.block_target.mat, np.eye(4))
        assert is_unitary(enc.unitary.eval(0.4), 1e-10)


class TestConditionalDisplacementRoute:
    def test_quadratic_convergence_to_seed(self):
        cd = s1_from_conditional_displacements(8)
        ref = flow(block_generator(s1(8).block_target), s1(8).layout)
        alphas = np.geomspace(1e-3, 1e-1, 12)
        errs = [spectral_norm(cd.eval(a).mat - ref.eval(2 * a).mat) for a in alphas]
        fit = fit_power_law(list(alphas), errs)
        assert fit.exponent >= 1.9

    def test_zero_displacement_identity(self):
        cd = s1_from_conditional_displacements(4)
        assert spectral_norm(cd.eval(0.0).mat - np.eye(10)) < 1e-12

    @pytest.mark.parametrize("alpha", [1e-3, 0.05, 0.3])
    def test_product_unitary(self, alpha):
        cd = s1_from_conditional_displacements(6)
        assert is_unitary(cd.eval(alpha), 1e-10)

    def test_counts_four_pulses(self):
        assert s1_from_conditional_displacements(4).cost() == 4


class TestConjugate:
    def test_x_swaps_to_annihilation(self):
        enc = conjugate(s1(3))
        assert np.abs(enc.block_target.mat - annihilation(3).mat).max() == 0.0

    def test_s_rotates_phase(self):
        """The S frame that add and mult build rotates the encoded phase by -i."""
        seed = s1(3)
        frame_s = FrameGate("S", seed.layout, [(1.0, {0: qubit_gate("S")})])
        enc = BlockEncoding(frame_conjugate(seed.unitary, frame_s), -1j * creation(3))
        assert fd_deviation(enc, 1e-6) < 1e-4 * spectral_norm(enc.block_target)

    def test_s_dagger_inverts_s(self):
        seed = s1(3)
        frame_s = FrameGate("S", seed.layout, [(1.0, {0: qubit_gate("S")})])
        pu = frame_conjugate(frame_conjugate(seed.unitary, frame_s), frame_s.dagger())
        assert spectral_norm(pu.eval(0.4).mat - seed.unitary.eval(0.4).mat) < 1e-14

    def test_double_x_involution(self):
        enc = conjugate(conjugate(s1(4)))
        base = s1(4)
        assert spectral_norm(enc.unitary.eval(0.7).mat - base.unitary.eval(0.7).mat) == 0.0
        assert np.array_equal(enc.block_target.mat, base.block_target.mat)

    def test_frames_are_free(self):
        assert conjugate(s1(4)).unitary.cost() == 1

    def test_each_frame_is_declared_once_per_layout(self):
        """The Kerr tree conjugates by X, S, H and SH at several levels of
        add, mult and conjugate (ten declarations when each call declared
        its own); each is one gate, and a second build shares them."""
        frames = [
            {
                id(pu.node.gate): pu.node.gate.label
                for pu in _topological(nonlinear_hamiltonian(1, 1, q=2, cutoff=3).synthesis)
                if isinstance(pu.node, Leaf) and isinstance(pu.node.gate, FrameGate)
            }
            for _ in range(2)
        ]
        assert sorted(frames[0].values()) == ["H", "S", "SH", "X"]
        assert frames[1] == frames[0]


class TestAdd:
    def test_square_target_and_generator(self):
        enc = add(s1(5), s1(5), 2)
        sq = creation(5).mat @ creation(5).mat
        assert np.abs(enc.block_target.mat - sq).max() < 1e-14
        gen = dense(block_generator(enc.block_target), enc.layout).mat
        assert np.abs(gen[:6, 6:] - sq).max() < 1e-14
        assert np.abs(gen[6:, :6] - sq.conj().T).max() < 1e-14

    @pytest.mark.parametrize("p,floor", [(2, 0.7), (4, 1.7)])
    def test_error_slope(self, p, floor):
        enc = add(s1(15), s1(15), p)
        assert fitted_slope(enc) >= floor

    @pytest.mark.parametrize("p,count", [(2, 32), (4, 960)])
    def test_exponential_count(self, p, count):
        enc = add(s1(15), s1(15), p)
        q = SynthesisBudget.from_order(p).bch_order
        assert enc.unitary.cost() == count
        assert enc.unitary.cost() <= 1.07 * 30**q

    def test_zero_time_identity(self):
        enc = add(s1(6), s1(6), 2)
        assert spectral_norm(enc.unitary.eval(0.0).mat - np.eye(14)) < 1e-12

    def test_unitary_output(self):
        enc = add(s1(8), s1(8), 4)
        assert is_unitary(enc.unitary.eval(0.3), 1e-9)

    def test_first_order_block_q2(self):
        enc = add(s1(15), s1(15), 4)
        assert fd_deviation(enc, 1e-6) < 1e-4 * spectral_norm(enc.block_target)

    def test_first_order_block_q1(self):
        # the q=1 route carries a t^(3/2) term, so the quotient converges
        # like sqrt(t) and needs a finer probe than the q>=2 constructions
        enc = add(s1(15), s1(15), 2)
        assert fd_deviation(enc, 1e-9) < 1e-4 * spectral_norm(enc.block_target)

    def test_noncommuting_operands_warn(self):
        with pytest.warns(RuntimeWarning, match="commute"):
            add(s1(6), conjugate(s1(6)), 2)

    def test_rejects_layout_mismatch(self):
        with pytest.raises(LayoutMismatchError):
            add(s1(4), s1(5), 2)


class TestMult:
    def _number_encoding(self, cutoff, p):
        """The gate and generator of the seed times its block swap."""
        return mult(s1(cutoff), conjugate(s1(cutoff)), p)

    def test_number_target(self):
        """The generator's upper-left block is herm(a^dag a), the number
        operator, and its lower-right one -herm(a a^dag); A B and B A are
        each formed once."""
        _, gen = self._number_encoding(15, 2)
        mat = dense(gen, HilbertLayout.qubit_modes(15)).mat
        assert np.abs(mat[:16, :16] - number(15).mat).max() < 1e-14
        ba = annihilation(15).mat @ creation(15).mat
        assert np.abs(mat[16:, 16:] + ba).max() < 1e-14
        assert np.count_nonzero(mat[:16, 16:]) == np.count_nonzero(mat[16:, :16]) == 0

    def test_exact_action_phases_number_states(self):
        t = 0.7
        u = flow(self._number_encoding(6, 2)[1], HilbertLayout.qubit_modes(6)).eval(t).mat
        diag = np.diag(u)
        assert np.abs(diag[:7] - np.exp(1j * t * np.arange(7))).max() < 1e-12
        # lower block carries -(n+1) on the interior, 0 at the top level
        lower = np.concatenate([np.exp(-1j * t * np.arange(1, 7)), [1.0]])
        assert np.abs(diag[7:] - lower).max() < 1e-12

    @pytest.mark.parametrize("p,floor", [(2, 0.7), (4, 1.7)])
    def test_error_slope(self, p, floor):
        assert fitted_slope(self._number_encoding(15, p)) >= floor

    @pytest.mark.parametrize("p", [2, 4])
    def test_exponential_count(self, p):
        pu, _ = self._number_encoding(8, p)
        q = SynthesisBudget.from_order(p).bch_order
        assert pu.cost() == 8 * 6 ** (q - 1)

    def test_zero_time_identity(self):
        pu, _ = self._number_encoding(6, 2)
        assert spectral_norm(pu.eval(0.0).mat - np.eye(14)) < 1e-12

    def test_unitary_output(self):
        pu, _ = self._number_encoding(8, 2)
        assert is_unitary(pu.eval(0.3), 1e-9)

    def test_nonhermitian_product_warns(self):
        with pytest.warns(RuntimeWarning, match="Hermitian"):
            mult(s1(6), s1(6), 2)


class TestPower:
    def test_single_power_is_seed(self):
        lhs = power(1, 2, 6)
        rhs = s1(6)
        assert spectral_norm(lhs.unitary.eval(0.37).mat - rhs.unitary.eval(0.37).mat) == 0.0

    def test_square_error_slope(self):
        enc = power(2, 2, 15)
        assert fitted_slope(enc) >= 2.0

    @pytest.mark.parametrize("k", [2, 4])
    def test_count_within_theorem_bound(self, k):
        p = 2
        enc = power(k, p, 6)
        bound = 6 ** math.log2(k) * 420 ** (k * p / 2)
        assert enc.unitary.cost() <= bound

    def test_square_count_pinned(self):
        assert power(2, 2, 6).unitary.cost() == 960

    def test_first_order_block(self):
        enc = power(2, 2, 15)
        assert fd_deviation(enc, 1e-6) < 1e-4 * spectral_norm(enc.block_target)

    def test_unitary_output(self):
        assert is_unitary(power(2, 2, 8).unitary.eval(0.3), 1e-9)

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_rejects_non_power_of_two(self, k):
        with pytest.raises(ValueError):
            power(k, 2, 4)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            power(2, 0, 4)


class TestArbPower:
    def test_power_of_two_matches_direct_route(self):
        lhs = arb_power(2, 2, 15)
        rhs = power(2, 2, 15)
        assert spectral_norm(lhs.unitary.eval(0.05).mat - rhs.unitary.eval(0.05).mat) == 0.0

    @pytest.mark.parametrize("symmetrized", [False, True])
    @pytest.mark.parametrize("base", [None, "lean", "split"])
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_single_bit_is_power_under_every_override(self, k, base, symmetrized):
        """A single-bit k is power's halving tree with the same overrides:
        same label, same ledger, same bits (at a t inside every level's
        step-size range)."""
        lhs = arb_power(k, 1, 2, base, symmetrized).unitary
        rhs = power(k, 1, 2, base=base, symmetrized=symmetrized).unitary
        assert (lhs.label, lhs.cost_counter) == (rhs.label, rhs.cost_counter)
        assert np.array_equal(lhs.eval(1e-9).mat, rhs.eval(1e-9).mat)

    def test_overrides_reach_every_level_of_the_digit_ladder(self):
        """k = 3 with the split base and symmetrized blocks is the ADD of
        the two digit encodings built with the same overrides."""
        lhs = arb_power(3, 1, 4, "split", True).unitary
        low, high = s1(4), power(2, 2, 4, base="split", symmetrized=True)
        rhs = add(low, high, 2, base="split", symmetrized=True).unitary
        assert (lhs.label, lhs.cost_counter) == (rhs.label, rhs.cost_counter)
        assert np.array_equal(lhs.eval(1e-9).mat, rhs.eval(1e-9).mat)

    def test_single_bit_is_seed(self):
        lhs = arb_power(1, 3, 6)
        assert spectral_norm(lhs.unitary.eval(0.23).mat - s1(6).unitary.eval(0.23).mat) == 0.0

    def test_cube_target_and_slope(self):
        enc = arb_power(3, 2, 15)
        cube = np.linalg.matrix_power(creation(15).mat, 3)
        assert np.abs(enc.block_target.mat - cube).max() < 1e-12
        assert fitted_slope(enc) >= 2.0

    def test_cube_count_within_bound(self):
        enc = arb_power(3, 2, 6)
        n, p = 2, 2
        bound = n**1.6 * 30 ** (n * p) * 420 ** (n * n * p / 2) * 6 ** (math.log2(n) + 1)
        assert enc.unitary.cost() <= bound

    def test_cube_first_order_block(self):
        # probe above the deep tree's roundoff floor (~5e-8 in the block)
        # and below the synthesis window, so the linear term dominates both
        enc = arb_power(3, 2, 15)
        assert fd_deviation(enc, 1e-4) < 1e-4 * spectral_norm(enc.block_target)

    def test_unitary_within_roundoff_floor(self):
        # ~1e5 factor products accumulate past the 1e-9 budget of the
        # single-level constructions; the defect stays at the 1e-6 scale
        u = arb_power(3, 2, 15).unitary.eval(0.3)
        assert is_unitary(u, 1e-6)

    def test_zero_digit_between_ones_matches_reference(self):
        # k = 5 = 0b101: the identity encoding fills the zero digit, and its
        # qubit-only rotation sits inside frame conjugations that the
        # commutators need at two parameters
        enc = arb_power(5, 1, 6)
        assert fitted_slope(enc) > 1.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            arb_power(0, 2, 4)
        with pytest.raises(ValueError):
            arb_power(2, 0, 4)


class TestBudget:
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (3, 1), (4, 2), (5, 2), (8, 4)])
    def test_from_order(self, p, q):
        b = SynthesisBudget.from_order(p)
        assert b.bch_order == q
        assert b.trotter_index == q


class TestExactReference:
    def test_kerr_spec_builds_three_primitives(self, monkeypatch):
        """The Kerr spec at commutator order 3 (the kerr-deep benchmark) makes
        its two seed leaves and its own exact reference, and no encoding
        reference."""
        labels = []
        init = Primitive.__init__

        def counted(self, label, *args):
            labels.append(label)
            init(self, label, *args)

        monkeypatch.setattr(Primitive, "__init__", counted)
        nonlinear_hamiltonian(1.0, 1.0, q=3, cutoff=6, base="lean")
        assert sorted(labels) == ["S1", "S1", "nonlinear-hamiltonian"]


class TestBlockGenerator:
    def test_prepends_qubit_factor(self):
        """The target goes on factor 1, behind a qubit factor 0."""
        terms = block_generator(number(3))
        assert all(sorted(ops) == [0, 1] and ops[0].layout.factors == (("qubit", 2),)
                   for _, ops in terms)
        gen = dense(terms, HilbertLayout.qubit_modes(3))
        assert np.array_equal(gen.mat[:4, 4:], number(3).mat)
        assert np.array_equal(gen.mat[4:, :4], number(3).mat)
        assert np.count_nonzero(gen.mat[:4, :4]) == 0


@pytest.mark.parametrize(
    "build",
    [
        lambda a, b: compose("ab", [Factor(a.unitary), Factor(b.unitary)]),
        lambda a, b: trotter(2, [a.unitary, b.unitary]),
        lambda a, b: bch(1, a.unitary, b.unitary),
        lambda a, b: frame_conjugate(
            a.unitary, FrameGate("X", b.layout, [(1.0, {0: qubit_gate("X")})])
        ),
        lambda a, b: mult(a, b, 2),
        lambda a, b: ApplicationSpec(
            "ab", a.layout, block_generator(b.block_target), a.unitary, basis_state(a.layout, 0, 0)
        ),
    ],
    ids=["compose", "trotter", "bch", "frame_conjugate", "mult", "spec"],
)
def test_layout_checks_raise_layout_mismatch(build):
    """Every combinator that joins two layouts refuses different ones with
    the one error type Operator raises (a ValueError); add is checked above."""
    with pytest.raises(LayoutMismatchError):
        build(s1(2), s1(3))
