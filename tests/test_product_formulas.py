"""Commutator and Suzuki product formulas: orders, counts, slicing, fits."""

import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from bosonsynth import product_formulas
from bosonsynth.fock_ops import annihilation, embed, momentum, pauli, position, qubit_gate
from bosonsynth.product_formulas import (
    FitWindow,
    FrameGate,
    GateSequence,
    ParamUnitary,
    Primitive,
    ResourceExhaustedError,
    bch,
    bch_constants,
    fit_power_law,
    frame_conjugate,
    group_commutator,
    primitive_unitary,
    sliced,
    suzuki_coefficient,
    sweep_errors,
    symmetrize,
    timeslice,
    trotter,
)
from bosonsynth.tensor_core import (
    TOL,
    HilbertLayout,
    LayoutMismatchError,
    Operator,
    _sectors,
    commutator,
    expm,
    identity,
    is_unitary,
    kron,
    spectral_norm,
)

QM = HilbertLayout.qubit_modes
WINDOW = FitWindow(1e-3, 1e-1, 12)


def qubit_mode_op(mode_op, axis, cutoff):
    """mode_op (x) pauli_axis on [qubit, mode], or identity axis for None."""
    qubit = pauli(axis) if axis else identity(HilbertLayout.single_qubit())
    return Operator(QM(cutoff), np.kron(qubit.mat, mode_op.mat))


def flow(generator, label="g"):
    return primitive_unitary(Primitive(label, generator.layout, generator))


def commutator_target(gen_a, gen_b):
    """t -> expm([iA, iB] t) as the oracle for commutator blocks."""
    comm = commutator(gen_a, gen_b)
    return lambda t: expm(Operator(gen_a.layout, -t * comm.mat))


class TestPrimitiveFamilies:
    def test_eval_zero_is_identity(self):
        u = flow(qubit_mode_op(position(5), "x", 5))
        assert spectral_norm(u.eval(0.0).mat - np.eye(12)) < 1e-10

    @pytest.mark.parametrize("t", [1e-3, 0.3, 10.0])
    def test_unitary_and_adjoint_pairing(self, t):
        u = flow(qubit_mode_op(momentum(4), "y", 4))
        assert is_unitary(u.eval(t))
        assert spectral_norm(u.eval(-t).mat - u.eval(t).mat.conj().T) < 1e-10


class TestSectorSplitPrimitive:
    LAYOUT = QM(4, nmodes=2)

    @staticmethod
    def _generators():
        """(label, generator on its factors, their positions, full-size
        generator, sectors): the local pulse x1 (x) sx, which keeps the
        parity of q + n1 and leaves n2 alone, and the hopping term, which
        keeps q and n1 + n2 and has eigenvalues shared between sectors."""
        layout, a = TestSectorSplitPrimitive.LAYOUT, annihilation(4)
        x1_sx = kron(pauli("x"), position(4))
        hop = embed({0: pauli("z"), 1: a.dag(), 2: a}, layout)
        hop = hop + hop.dag()
        return [
            ("x1*sx", x1_sx, (0, 1), embed({0: pauli("x"), 1: position(4)}, layout), 10),
            ("hop", hop, None, hop, 18),
        ]

    @pytest.mark.parametrize("case", range(2))
    def test_unitary_is_zero_off_its_sectors(self, case):
        name, factor_gen, at, gen, count = self._generators()[case]
        prim = Primitive(name, self.LAYOUT, factor_gen, at)
        assert prim.support == (at or (0, 1, 2))
        assert prim.local == (at is not None)
        u = prim.unitary(0.7)
        label = np.empty(gen.dim, dtype=int)
        sectors = _sectors(gen.mat != 0)
        assert len(sectors) == count
        for k, sector in enumerate(sectors):
            label[sector] = k
        assert np.all(u[label[:, None] != label[None, :]] == 0)
        assert np.max(np.abs(u - expm(0.7j * gen).mat)) < 1e-13

    def test_nonhermitian_local_generator_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Primitive("a1", self.LAYOUT, annihilation(4), (1,))

    @pytest.mark.parametrize(
        "case",
        ["mode-dim", "qubit-as-mode", "all-factors", "too-few-factors", "unsorted",
         "repeated", "past-the-end", "negative", "empty"],
    )
    def test_primitive_rejects_a_generator_that_does_not_fit(self, case):
        """The generator's layout must be the layout's factors at the
        strictly increasing, in-range positions at; a generator that would
        fit factors listed out of order, twice or from the end is refused
        too."""
        x_sx, m = kron(pauli("x"), position(4)), position(4)
        gen, at = {
            "mode-dim": (kron(pauli("x"), position(3)), (0, 1)),
            "qubit-as-mode": (Operator(HilbertLayout((("mode", 2),)), pauli("x").mat), (0,)),
            "all-factors": (embed({0: pauli("x"), 1: m}, self.LAYOUT), (0, 1)),
            "too-few-factors": (x_sx, None),
            "unsorted": (kron(m, pauli("x")), (1, 0)),
            "repeated": (kron(m, m), (1, 1)),
            "past-the-end": (x_sx, (0, 3)),
            "negative": (m, (-1,)),
            "empty": (x_sx, ()),
        }[case]
        with pytest.raises(LayoutMismatchError, match="does not fit"):
            Primitive("bad", self.LAYOUT, gen, at)


class TestExpansionCap:
    @staticmethod
    def _framed(slices):
        """A Pauli flow under an H frame, sliced: one exponential and two
        frame gates per slice."""
        layout = HilbertLayout.single_qubit()
        frame = FrameGate("H", layout, {0: qubit_gate("H")})
        return sliced(frame_conjugate(flow(pauli("x")), frame), slices)

    def test_frame_gates_count_toward_the_cap(self, monkeypatch):
        pu = self._framed(4)
        monkeypatch.setattr(product_formulas, "TOL", dataclasses.replace(TOL, sequence_cap=10))
        assert pu.cost() == 4
        with pytest.raises(ResourceExhaustedError, match="12 gates"):
            pu.expand(0.3)

    def test_expansion_at_the_cap_is_built(self, monkeypatch):
        pu = self._framed(4)
        monkeypatch.setattr(product_formulas, "TOL", dataclasses.replace(TOL, sequence_cap=12))
        assert len(pu.expand(0.3)) == 12


class TestGroupCommutator:
    def test_commuting_operands_give_identity(self):
        u = flow(qubit_mode_op(position(4), "x", 4))
        q = group_commutator(u, u)
        assert spectral_norm(q.eval(0.2).mat - np.eye(10)) < 1e-12

    def test_leading_order_target(self):
        cutoff = 8
        gen_a = qubit_mode_op(position(cutoff), "x", cutoff)
        gen_b = qubit_mode_op(position(cutoff), "y", cutoff)
        q = group_commutator(flow(gen_a), flow(gen_b))
        target = commutator_target(gen_a, gen_b)
        ts, errs = sweep_errors(lambda t: q.eval(t), lambda t: target(t * t), WINDOW)
        fit = fit_power_law(ts, errs)
        assert 2.7 <= fit.exponent <= 3.3

    def test_even_weight_rejected(self):
        u = flow(qubit_mode_op(position(2), "x", 2))
        with pytest.raises(ValueError):
            group_commutator(u, u, k=2)


class TestBch:
    @pytest.mark.parametrize("p,count", [(1, 8), (2, 48), (3, 288)])
    def test_split_gate_count(self, p, count):
        u = flow(qubit_mode_op(position(2), "x", 2))
        v = flow(qubit_mode_op(position(2), "y", 2))
        assert bch(p, 1, u, v).cost() == count

    @pytest.mark.parametrize("p,count", [(1, 4), (2, 24)])
    def test_lean_gate_count(self, p, count):
        u = flow(qubit_mode_op(position(2), "x", 2))
        v = flow(qubit_mode_op(position(2), "y", 2))
        assert bch(p, 1, u, v, base="lean").cost() == count

    def test_weight3_gate_count(self):
        u = flow(qubit_mode_op(position(2), "x", 2))
        v = flow(qubit_mode_op(position(2), "y", 2))
        assert bch(2, 3, u, v).cost() == 24

    @pytest.mark.parametrize("p", [1, 2])
    def test_order_scaling(self, p):
        cutoff = 8
        gen_a = qubit_mode_op(position(cutoff), "x", cutoff)
        gen_b = qubit_mode_op(position(cutoff), "y", cutoff)
        u = bch(p, 1, flow(gen_a), flow(gen_b))
        target = commutator_target(gen_a, gen_b)
        ts, errs = sweep_errors(lambda t: u.eval(t), lambda t: target(t * t), WINDOW)
        fit = fit_power_law(ts, errs)
        assert 2 * p + 0.7 <= fit.exponent <= 2 * p + 1.3

    def test_unitary_output(self):
        u = flow(qubit_mode_op(position(3), "x", 3))
        v = flow(qubit_mode_op(position(3), "y", 3))
        assert is_unitary(bch(2, 1, u, v).eval(0.7), tol=1e-9)

    def test_sequence_inversion_exact(self):
        u = flow(qubit_mode_op(position(3), "x", 3))
        v = flow(qubit_mode_op(position(3), "y", 3))
        block = bch(1, 1, u, v)
        seq = block.expand(0.31)
        inverted = [iv.inverted() for iv in reversed(seq.invocations)]
        inv = GateSequence(seq.layout, inverted).to_operator().mat
        assert spectral_norm(inv - seq.to_operator().mat.conj().T) < 1e-12

    def test_invalid_orders(self):
        u = flow(qubit_mode_op(position(2), "x", 2))
        with pytest.raises(ValueError):
            bch(0, 1, u, u)
        with pytest.raises(ValueError):
            bch(1, 2, u, u)

    def test_constants_definition(self):
        for p, k in ((1, 1), (2, 1), (1, 3)):
            rp, beta, gamma = bch_constants(p, k)
            e = (k + 1) / (2 * p + k + 1)
            assert rp == pytest.approx(2.0**e / (4 * (2 - 2.0**e)), rel=1e-15)
            assert beta == pytest.approx((2 * rp) ** (1 / (k + 1)), rel=1e-15)
            assert gamma == pytest.approx((0.25 + rp) ** (1 / (k + 1)), rel=1e-15)


class TestTrotter:
    def test_single_term_exact(self):
        u = flow(qubit_mode_op(position(4), "x", 4))
        out = trotter(2, [u])
        t = 0.9
        assert spectral_norm(out.eval(t).mat - u.eval(t).mat) < 1e-10

    def test_commuting_terms_exact(self):
        cutoff = 4
        u = flow(qubit_mode_op(position(cutoff), None, cutoff))
        v = flow(qubit_mode_op(identity(HilbertLayout.single_mode(cutoff)), "z", cutoff))
        target = qubit_mode_op(position(cutoff), None, cutoff).mat + np.kron(
            pauli("z").mat, np.eye(cutoff + 1)
        )
        out = trotter(2, [u, v]).eval(0.8).mat
        want = expm(Operator(QM(cutoff), 0.8j * 1j * -1j * target)).mat
        assert spectral_norm(out - want) < 1e-10

    @pytest.mark.parametrize("order,slope", [(2, 3.0), (4, 5.0)])
    def test_order_scaling_paulis(self, order, slope):
        layout = HilbertLayout.single_qubit()
        u = flow(Operator(layout, pauli("x").mat))
        v = flow(Operator(layout, pauli("z").mat))
        out = trotter(order, [u, v])
        total = pauli("x").mat + pauli("z").mat
        target = lambda t: expm(Operator(layout, 1j * t * total))
        ts, errs = sweep_errors(lambda t: out.eval(t), target, FitWindow(1e-2, 0.5, 10))
        fit = fit_power_law(ts, errs)
        assert abs(fit.exponent - slope) <= 0.3

    def test_invocation_count_order4(self):
        u = flow(qubit_mode_op(position(2), "x", 2))
        v = flow(qubit_mode_op(position(2), "z", 2))
        assert trotter(4, [u, v]).cost() == 20

    def test_slices_multiply_cost(self):
        u = flow(qubit_mode_op(position(2), "x", 2))
        v = flow(qubit_mode_op(position(2), "z", 2))
        assert sliced(trotter(2, [u, v]), 3).cost() == 12

    def test_step_size_warning_once_per_node(self):
        u = flow(qubit_mode_op(position(2), "x", 2))
        v = flow(qubit_mode_op(position(2), "z", 2))
        out = trotter(2, [u, v])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # Each of the four slices takes a step of 0.1, inside the range.
            sliced(out, 4).eval(0.4)
        with pytest.warns(RuntimeWarning, match="well-conditioned") as caught:
            out.eval(0.5)
            out.eval(0.7)
        assert len(caught) == 1

    def test_step_size_warning_names_the_step_it_checked(self):
        """Under sliced, the warning names the per-slice step (8 / 4) and the
        range it left, not the whole parameter."""
        x = flow(qubit_mode_op(position(2), "x", 2))
        z = flow(qubit_mode_op(position(2), "z", 2))
        with pytest.warns(RuntimeWarning) as caught:
            sliced(trotter(2, [x, z]), 4).eval(8.0)
        assert [str(w.message) for w in caught] == [
            f"trotter2[{x.label},{z.label}]: step size 2 outside the well-conditioned "
            "range |t| <= 0.125"
        ]

    def test_bad_arguments(self):
        u = flow(qubit_mode_op(position(2), "x", 2))
        with pytest.raises(ValueError):
            trotter(3, [u])
        with pytest.raises(ValueError):
            trotter(2, [])

    def test_suzuki_coefficient(self):
        assert suzuki_coefficient(2) == pytest.approx(1.0 / (4.0 - 4.0 ** (1.0 / 3.0)))


class TestSymmetrize:
    def test_palindromic_base_gives_two_half_steps(self):
        u = flow(qubit_mode_op(position(4), "x", 4))
        v = flow(qubit_mode_op(position(4), "z", 4))
        base = trotter(2, [u, v])
        t = 0.4
        seq = base.expand(t)
        labels = [iv.label for iv in seq.invocations]
        assert labels[::-1] == labels
        two_half_steps = sliced(trotter(2, [u, v]), 2)
        assert spectral_norm(symmetrize(base).eval(t).mat - two_half_steps.eval(t).mat) < 1e-12

    def test_cost_doubles(self):
        u = flow(qubit_mode_op(position(3), "x", 3))
        v = flow(qubit_mode_op(position(3), "y", 3))
        block = bch(1, 1, u, v)
        assert symmetrize(block).cost() == 2 * block.cost()

    def test_commutator_slope_gain(self):
        """Symmetrizing the order-1 block buys at least one extra order."""
        cutoff = 8
        gen_a = qubit_mode_op(position(cutoff), "x", cutoff)
        gen_b = qubit_mode_op(position(cutoff), "y", cutoff)
        block = bch(1, 1, flow(gen_a), flow(gen_b))
        target = commutator_target(gen_a, gen_b)
        oracle = lambda t: target(t * t)
        ts, errs = sweep_errors(lambda t: block.eval(t), oracle, WINDOW)
        plain = fit_power_law(ts, errs).exponent
        ts, errs = sweep_errors(lambda t: symmetrize(block).eval(t), oracle, WINDOW)
        assert fit_power_law(ts, errs).exponent >= plain + 1.0


class TestTimeslice:
    def _setup(self):
        cutoff = 6
        gen_a = qubit_mode_op(position(cutoff), "x", cutoff)
        gen_b = qubit_mode_op(position(cutoff), "y", cutoff)
        block = bch(1, 1, flow(gen_a), flow(gen_b))
        # linearized family so slicing targets exp([K_A,K_B] t) at t/r per slice
        from bosonsynth.product_formulas import as_linear_term

        family = as_linear_term(block)
        target = commutator_target(gen_a, gen_b)
        return family, target

    def _reference(self):
        """The target exp([iA, iB] t) as a primitive: exp(i t H) for the
        Hermitian H = i [A, B]."""
        gen_a = qubit_mode_op(position(6), "x", 6)
        gen_b = qubit_mode_op(position(6), "y", 6)
        comm = commutator(gen_a, gen_b)
        return Primitive("[x,y]", comm.layout, Operator(comm.layout, 1j * comm.mat))

    def test_loose_tolerance_single_slice(self):
        family, _ = self._setup()
        res = timeslice(family, self._reference(), 0.2, 1.0)
        assert res.slices == 1

    def test_halving_tolerance_bounded_growth(self):
        """Second-order method: halving the tolerance grows r by at most ~sqrt(2)."""
        cutoff = 6
        gen_a = qubit_mode_op(position(cutoff), "x", cutoff)
        gen_b = qubit_mode_op(position(cutoff), "y", cutoff)
        family = trotter(2, [flow(gen_a), flow(gen_b)])
        exact = Primitive("x+y", gen_a.layout, gen_a + gen_b)
        t = 0.5
        coarse = timeslice(family, exact, t, 1e-3)
        fine = timeslice(family, exact, t, 5e-4)
        assert coarse.error <= 1e-3 and fine.error <= 5e-4
        assert fine.slices <= 2 * 2 * coarse.slices

    @pytest.mark.filterwarnings("ignore:.*well-conditioned range.*:RuntimeWarning")
    def test_no_slice_count_evaluated_twice(self, monkeypatch):
        cutoff = 6
        gen_a = qubit_mode_op(position(cutoff), "x", cutoff)
        gen_b = qubit_mode_op(position(cutoff), "y", cutoff)
        family = trotter(2, [flow(gen_a), flow(gen_b)])
        reference = Primitive("x+y", gen_a.layout, gen_a + gen_b)
        exact = reference.unitary(0.5)
        psi0 = np.zeros(len(exact), dtype=complex)
        psi0[3] = 1.0
        calls = Counter()
        original = ParamUnitary.eval_classes

        def counting(pu, t):
            calls[pu.label] += 1
            return original(pu, t)

        with monkeypatch.context() as patch:
            patch.setattr(ParamUnitary, "eval_classes", counting)
            res = timeslice(family, reference, 0.5, 1e-3, psi0=psi0)
        assert res.slices > 2
        assert calls and max(calls.values()) == 1
        mat = res.unitary.eval(0.5).mat
        assert res.error == spectral_norm(mat - exact)
        assert np.array_equal(res.measured.state, mat @ psi0)
        assert np.array_equal(res.measured.exact_state, exact @ psi0)

    def test_error_monotone_in_slices(self):
        family, target = self._setup()
        t = 0.5
        errs = [
            spectral_norm(sliced(family, r).eval(t).mat - target(t).mat) for r in (1, 2, 4, 8)
        ]
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_reference_of_another_size_is_refused(self):
        """A target on a layout of another size raises instead of being
        read on the gate's indices."""
        family, _ = self._setup()
        big = Primitive("x", QM(7), qubit_mode_op(position(7), "x", 7))
        with pytest.raises(LayoutMismatchError):
            timeslice(family, big, 0.5, 1e-3)

    def test_slice_cap(self):
        family, _ = self._setup()
        with pytest.raises(ResourceExhaustedError):
            timeslice(family, self._reference(), 0.5, 1e-12, max_slices=4)


class TestFitPowerLaw:
    def test_cubic_synthetic(self):
        ts = np.geomspace(1e-3, 1e-1, 8)
        fit = fit_power_law(ts, ts**3)
        assert fit.exponent == pytest.approx(3.0, abs=1e-9)

    def test_prefactor_recovered(self):
        ts = np.geomspace(1e-2, 1.0, 6)
        fit = fit_power_law(ts, 5.0 * ts**2)
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.prefactor == pytest.approx(5.0, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_power_law([0.1, 0.2, 0.3, 0.4], [1e-3, -1e-3, 1e-3, 1e-3])

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            fit_power_law([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])

    def test_noise_floor_dropped(self):
        ts = np.geomspace(1e-3, 1e-1, 8)
        errs = ts**2
        errs[0] = 1e-15
        fit = fit_power_law(ts, errs)
        assert fit.n_used == 7
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)
