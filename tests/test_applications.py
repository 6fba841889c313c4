"""Tests for the compiled application gates against their expm oracles."""
import math

import numpy as np
import pytest

from bosonsynth.applications import (
    ApplicationSpec,
    _ladder_power,
    conditional_beam_splitter,
    conditional_rotation_phase_space,
    cross_kerr_gate,
    nonlinear_hamiltonian,
    state_prep_T,
    state_prep_exact_time,
)
from bosonsynth import product_formulas
from bosonsynth.block_encodings import arb_power, s1
from bosonsynth.fock_ops import annihilation, creation, momentum, number, pauli, position
from bosonsynth.product_formulas import (
    ParamUnitary,
    Primitive,
    fit_power_law,
    measure,
    sliced,
    timeslice,
)
from bosonsynth.tensor_core import HilbertLayout, Operator, _sectors, basis_state, spectral_norm
from demos import (
    DynamicsTrace,
    FitWindow,
    anharmonicity_gate,
    autocorrelation_trace,
    conditional_rotation_fock,
    effective_pauli_span01,
    embed,
    evolve,
    fermi_hubbard_gates,
    fswap_product,
    hom_trace,
    pattern_sectors,
    sigma_eff,
    span01_leakage,
    state_prep_protected,
    success_probability_bound,
    sweep_errors,
    two_mode_span_block,
)

def _qubit(mat) -> Operator:
    return Operator(HilbertLayout.single_qubit(), np.array(mat, dtype=complex))


def _old_block(target: Operator) -> np.ndarray:
    """[[0, A], [A^dag, 0]] as the dense builders formed it."""
    layout = HilbertLayout.qubit_modes(target.dim - 1)
    up, down = _qubit([[0, 1], [0, 0]]), _qubit([[0, 0], [1, 0]])
    return embed({0: up, 1: target}, layout).mat + embed({0: down, 1: target.dag()}, layout).mat


def _old_mult(a: Operator, b: Operator) -> np.ndarray:
    """[[(AB + (AB)^dag)/2, 0], [0, -(BA + (BA)^dag)/2]], as the dense
    builders formed it."""
    layout = HilbertLayout.qubit_modes(a.dim - 1)
    ab, ba = (a @ b).mat, (b @ a).mat
    upper = Operator(a.layout, 0.5 * (ab + ab.conj().T))
    lower = Operator(a.layout, -0.5 * (ba + ba.conj().T))
    return (embed({0: _qubit([[1, 0], [0, 0]]), 1: upper}, layout).mat
            + embed({0: _qubit([[0, 0], [0, 1]]), 1: lower}, layout).mat)


def _old_hom(cutoff: int) -> np.ndarray:
    layout, sz, a = HilbertLayout.qubit_modes(cutoff, 2), pauli("z"), annihilation(cutoff)
    hop = embed({0: sz, 1: a.dag(), 2: a}, layout).mat
    hop += embed({0: sz, 1: a, 2: a.dag()}, layout).mat
    return hop * complex(-1.0)


def _old_rotation(cutoff: int) -> np.ndarray:
    x_op, p_op = position(cutoff), momentum(cutoff)
    quad = x_op @ x_op + p_op @ p_op - 0.5 * Operator(x_op.layout, np.eye(cutoff + 1))
    return embed({0: pauli("z"), 1: quad}, HilbertLayout.qubit_modes(cutoff)).mat


def _old_kerr(omega: float, kappa: float, cutoff: int) -> np.ndarray:
    a_dag = creation(cutoff)
    sq = a_dag @ a_dag
    layout = HilbertLayout.qubit_modes(cutoff)
    number_gen = Operator(layout, _old_mult(a_dag, a_dag.dag()))
    quartic_gen = Operator(layout, _old_mult(sq, sq.dag()))
    return (omega * number_gen + (0.5 * kappa) * quartic_gen).mat


# (build, the label its full-layout generator is declared under, that
# generator as the dense builders formed it), each at a small cutoff.
FULL_LAYOUT_GENERATORS = {
    "seed": (lambda: s1(6), "S1", lambda: _old_block(creation(6))),
    "hom": (lambda: conditional_beam_splitter(cutoff=4), "hom-beam-splitter", lambda: _old_hom(4)),
    "cross-kerr": (
        lambda: cross_kerr_gate(cutoff=4),
        "cross-kerr",
        lambda: embed({0: pauli("z"), 1: number(4), 2: number(4)},
                      HilbertLayout.qubit_modes(4, 2)).mat,
    ),
    "rotation": (
        lambda: conditional_rotation_phase_space(cutoff=6),
        "conditional-rotation",
        lambda: _old_rotation(6),
    ),
    "state-prep-2": (
        lambda: state_prep_T(2, cutoff=5), "state-prep-T2", lambda: _old_block(_ladder_power(5, 2))
    ),
    "state-prep-3": (
        lambda: state_prep_T(3, cutoff=5), "state-prep-T3", lambda: _old_block(_ladder_power(5, 3))
    ),
    "kerr-1": (
        lambda: nonlinear_hamiltonian(0.7, 1.3, q=1, cutoff=5),
        "nonlinear-hamiltonian",
        lambda: _old_kerr(0.7, 1.3, 5),
    ),
    "kerr-2": (
        lambda: nonlinear_hamiltonian(0.7, 1.3, q=2, cutoff=5),
        "nonlinear-hamiltonian",
        lambda: _old_kerr(0.7, 1.3, 5),
    ),
}


@pytest.mark.parametrize("case", sorted(FULL_LAYOUT_GENERATORS))
def test_full_layout_generator_blocks_equal_the_dense_ones(monkeypatch, case):
    """Every full-layout generator the package builds is declared from the
    entries of a Kronecker sum, and gets the sectors and the sector blocks,
    entry for entry, of the dense generator the builders formed before:
    the sectors of its nonzero pattern and its blocks on them. Zeros are
    compared by value; a dense block's -0.0 is a +0.0 here."""
    build, label, old = FULL_LAYOUT_GENERATORS[case]
    declared = []
    original = product_formulas._declare

    def spy(gate, name, layout, terms):
        blocks = original(gate, name, layout, terms)
        if name == label:
            declared.append((gate, blocks))
        return blocks

    monkeypatch.setattr(product_formulas, "_declare", spy)
    build()
    assert declared
    for gate, blocks in declared:
        want = old()
        expected = pattern_sectors(want != 0)
        # On every factor, group k is sector k as one row.
        assert not gate.local and len(gate.groups) == len(expected) > 1
        for rows, block, exp in zip(gate.groups, blocks, expected):
            assert np.array_equal(rows, exp[None, :])
            assert np.array_equal(block, want[np.ix_(exp, exp)])


def test_terms_that_cancel_leave_no_entry():
    """Two terms that cancel exactly leave zeros, which join no sector: the
    sectors are those of the dense sum's nonzero pattern (here the
    diagonal's singletons, where the cancelled hopping would have joined
    each parity into one sector)."""
    layout = HilbertLayout.qubit_modes(4)
    hop = {0: pauli("x"), 1: position(4)}
    terms = [(1.0, {0: pauli("z"), 1: number(4)}), (1.0, hop), (-1.0, hop)]
    want = sum(complex(c) * embed(ops, layout).mat for c, ops in terms)
    gate = Primitive("cancelled", layout, terms)
    expected = pattern_sectors(want != 0)
    assert len(gate.groups) == len(expected) == layout.dim
    for rows, exp in zip(gate.groups, expected):
        assert np.array_equal(rows[0], exp)


# steep diagonal coefficients (n^3-scale) saturate the default window
SMALL_WINDOW = FitWindow(1e-5, 1e-3, 10)


def error(spec, t):
    """The operator-norm error of spec's synthesis at t, as the runner
    measures it."""
    return measure(spec.synthesis, t, spec.reference).error


def fitted(spec, window=FitWindow()):
    ts, errs = sweep_errors(spec.synthesis.eval, spec.exact, window)
    return fit_power_law(ts, errs).exponent


class TestApplicationSpec:
    def test_rejects_nonhermitian_generator(self):
        layout = HilbertLayout.single_qubit()
        bad = [(1.0, {0: Operator(layout, np.array([[0.0, 1.0], [0.0, 0.0]]))})]
        with pytest.raises(ValueError, match="Hermitian"):
            ApplicationSpec("bad", layout, bad, None, basis_state(layout, 0))

    def test_stored_time_used(self):
        spec = state_prep_T(2, cutoff=2)
        assert spec.time == state_prep_exact_time(2)


class TestDynamicsTrace:
    def test_rejects_probability_loss(self):
        with pytest.raises(ValueError):
            DynamicsTrace(np.arange(3.0), np.array([1.0, 1.0, 0.9]))

    def test_rejects_population_outside_unit_interval(self):
        with pytest.raises(ValueError):
            DynamicsTrace(
                np.arange(2.0),
                np.ones(2),
                populations={"P0": np.array([0.5, 1.2])},
            )

    def test_evolve_shape_and_start(self):
        spec = conditional_rotation_phase_space(cutoff=3)
        states = evolve(spec.exact(0.1), spec.initial_state, 5)
        assert states.shape == (6, 8)
        assert np.array_equal(states[0], spec.initial_state)

    def test_autocorrelation_starts_at_one(self):
        spec = conditional_rotation_phase_space(cutoff=3)
        tr = autocorrelation_trace(spec.exact(0.1), spec.initial_state, 10, 0.1)
        assert tr.autocorrelation[0] == pytest.approx(1.0)


class TestConditionalRotation:
    def test_exact_autocorrelation_is_cos_2t(self):
        spec = conditional_rotation_phase_space(cutoff=14)
        dt = 2.0 / 200
        tr = autocorrelation_trace(spec.exact(dt), spec.initial_state, 200, dt)
        assert np.abs(tr.autocorrelation - np.cos(2 * tr.times)).max() < 1e-10

    def test_zero_time_identity(self):
        spec = conditional_rotation_phase_space(cutoff=4)
        assert spectral_norm(spec.synthesis.eval(0.0).mat - np.eye(10)) < 1e-12

    @pytest.mark.parametrize("p,lo,hi", [(1, 1.2, 1.8), (2, 2.2, 2.8)])
    def test_step_error_exponent(self, p, lo, hi):
        spec = conditional_rotation_phase_space(p=p, cutoff=15)
        slope = fitted(spec)
        assert lo <= slope <= hi

    @pytest.mark.parametrize("p,count", [(1, 34), (2, 194)])
    def test_pulse_count(self, p, count):
        assert conditional_rotation_phase_space(p=p, cutoff=4).synthesis.cost() == count

    def test_fock_route_exact_target_phases(self):
        spec = conditional_rotation_fock(cutoff=8)
        t = 0.6
        u = spec.exact(t).mat
        up = basis_state(spec.layout, 0, 2)
        dn = basis_state(spec.layout, 1, 2)
        assert np.abs(u @ up - np.exp(2j * t) * up).max() < 1e-12
        assert np.abs(u @ dn - np.exp(-2j * t) * dn).max() < 1e-12

    def test_fock_route_slope_and_count(self):
        spec = conditional_rotation_fock(p=1, cutoff=15)
        assert fitted(spec) >= 1.2
        assert spec.synthesis.cost() == 9

    def test_routes_agree_within_error_budget(self):
        fock = conditional_rotation_fock(p=1, cutoff=15)
        ps = conditional_rotation_phase_space(p=1, cutoff=15)
        psi = basis_state(ps.layout, 0, 2)
        for t in (0.02, 0.05):
            diff = np.linalg.norm(
                fock.synthesis.eval(t).mat @ psi - ps.synthesis.eval(t).mat @ psi
            )
            assert diff <= error(fock, t) + error(ps, t) + 1e-12


class TestStatePrepTimes:
    def test_two_photon_time(self):
        assert state_prep_exact_time(2) == pytest.approx(math.pi / (2 * math.sqrt(2)))

    def test_one_photon_time(self):
        assert state_prep_exact_time(1) == pytest.approx(math.pi / 2)

    def test_protected_time_halves(self):
        t = state_prep_protected(2, cutoff=2).time
        assert t == pytest.approx(math.pi / (4 * math.sqrt(2)))
        assert t == pytest.approx(state_prep_exact_time(2) / 2)

    def test_guards(self):
        with pytest.raises(ValueError):
            state_prep_exact_time(0)
        with pytest.raises(ValueError):
            state_prep_T(5, cutoff=4)


class TestStatePrepExact:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_full_flip(self, k):
        spec = state_prep_T(k, cutoff=8)
        u = spec.exact(state_prep_exact_time(k)).mat
        amp = np.vdot(basis_state(spec.layout, 0, k), u @ basis_state(spec.layout, 1, 0))
        assert abs(abs(amp) - 1.0) < 1e-10

    def test_vacuum_with_qubit_down_is_fixed(self):
        spec = state_prep_T(2, cutoff=8)
        psi = basis_state(spec.layout, 0, 0)
        out = spec.exact(state_prep_exact_time(2)).mat @ psi
        assert np.linalg.norm(out - psi) < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_protected_flip_and_spectators(self, k):
        spec = state_prep_protected(k, cutoff=8)
        u = spec.exact(spec.time).mat
        amp = np.vdot(basis_state(spec.layout, 0, k), u @ basis_state(spec.layout, 1, 0))
        assert abs(abs(amp) - 1.0) < 1e-10
        for b in (1, 2, 3, 4):
            ride = np.vdot(
                basis_state(spec.layout, 1, b), u @ basis_state(spec.layout, 1, b)
            )
            assert abs(abs(ride) - 1.0) < 1e-10

    def test_syndrome_qubit_flags_success(self):
        spec = state_prep_protected(2, cutoff=8)
        u = spec.exact(spec.time).mat
        dims = (2, 9)
        hit = (u @ basis_state(spec.layout, 1, 0)).reshape(dims)
        assert np.sum(np.abs(hit[0]) ** 2) == pytest.approx(1.0, abs=1e-12)
        miss = (u @ basis_state(spec.layout, 1, 3)).reshape(dims)
        assert np.sum(np.abs(miss[0]) ** 2) < 1e-12

    def test_echoed_generator_leaves_spectators_alone(self):
        spec = state_prep_protected(2, cutoff=8)
        pair = [spec.layout.index(1, 0), spec.layout.index(0, 2)]
        for t in (0.3, spec.time):
            moved = spec.exact(t).mat - np.eye(spec.layout.dim)
            # spectators |1, b >= 1> are fixed
            for b in range(1, 9):
                i = spec.layout.index(1, b)
                assert np.abs(moved[:, i]).max() < 1e-12
                assert np.abs(moved[i, :]).max() < 1e-12
            # the only coupling is the |1,0> <-> |0,k> pair
            moved[np.ix_(pair, pair)] = 0.0
            assert np.abs(moved).max() < 1e-12

    def test_protected_spec_builds_two_primitives(self, monkeypatch):
        """The protected preparation makes its seed leaf and its own exact
        reference, and no reference for the unprotected pulse."""
        labels = []
        init = Primitive.__init__

        def counted(self, label, *args):
            labels.append(label)
            init(self, label, *args)

        monkeypatch.setattr(Primitive, "__init__", counted)
        state_prep_protected(2, cutoff=6)
        assert sorted(labels) == ["S1", "state-prep-P2"]


class TestStatePrepSynthesized:
    # order ladder at the two-level scale: (p, base) -> (count, error ceiling)
    LADDER = [
        (1, "lean", 16, 0.53),
        (1, None, 32, 0.38),
        (2, "lean", 480, 0.08),
        (2, None, 960, 0.05),
    ]

    def test_error_strictly_decreases_up_the_ladder(self):
        errs = []
        for p, base, count, cap in self.LADDER:
            spec = state_prep_T(2, p=p, cutoff=2, base=base)
            assert spec.synthesis.cost() == count
            err = error(spec, spec.time)
            assert err < cap
            errs.append(err)
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_480_pulse_prep_lands_close(self):
        spec = state_prep_T(2, p=2, cutoff=2, base="lean")
        assert spec.synthesis.cost() == 480
        assert error(spec, spec.time) < 0.1

    def test_protected_doubles_count(self):
        spec = state_prep_protected(2, p=2, cutoff=2, base="lean")
        assert spec.synthesis.cost() == 960
        assert error(spec, spec.time) < 0.02

    def test_protection_costs_accuracy_at_equal_time(self):
        prot = state_prep_protected(2, p=2, cutoff=2, base="lean")
        plain = error(state_prep_T(2, p=2, cutoff=2, base="lean"), prot.time)
        assert error(prot, prot.time) > plain

    def test_non_power_of_two_takes_overrides(self):
        """k = 3 takes orders.base like a power of two: the pulse is
        arb_power's digit ladder with the lean base at every ADD."""
        spec = state_prep_T(3, cutoff=4, base="lean")
        enc = arb_power(3, 2, 4, "lean")
        assert spec.synthesis.cost_counter == enc.unitary.cost_counter
        assert np.array_equal(spec.synthesis.eval(1e-6).mat, enc.unitary.eval(1e-6).mat)
        assert spec.synthesis.cost() < state_prep_T(3, cutoff=4).synthesis.cost()

    @pytest.mark.parametrize("k", [0, 5])
    def test_rejects_k_outside_the_cutoff(self, k):
        with pytest.raises(ValueError, match="1 <= k <= cutoff"):
            state_prep_T(k, cutoff=4)


class TestSuccessBound:
    def test_vacuous_delta_single_slice(self):
        rep = success_probability_bound(1.0)
        assert rep.slices == 1
        assert rep.counted <= rep.bound

    def test_tight_delta_meets_probability(self):
        rep = success_probability_bound(0.2)
        assert rep.success_probability >= 0.8
        assert rep.error <= 0.1
        assert rep.counted <= rep.bound

    @pytest.mark.filterwarnings("ignore:.*well-conditioned range.*:RuntimeWarning")
    def test_reads_the_searched_gate(self, monkeypatch):
        """The probability comes from the search's own measurement at the
        preparation time: the report makes no eval besides the search's, and
        its fields equal those read off a fresh eval of the sliced gate."""
        calls = []
        original = ParamUnitary.eval_classes
        monkeypatch.setattr(
            ParamUnitary, "eval_classes", lambda pu, t: calls.append(t) or original(pu, t)
        )
        rep = success_probability_bound(0.2)
        reported = len(calls)
        spec = state_prep_protected(2, None, 2, 6)
        calls.clear()
        search = timeslice(spec.synthesis, spec.reference, rep.t, 0.1)
        assert rep.slices == search.slices > 1 and reported == len(calls)
        mat = sliced(spec.synthesis, rep.slices).eval(rep.t).mat
        amp = np.vdot(basis_state(spec.layout, 0, 2), mat @ spec.initial_state)
        assert rep.success_probability == float(abs(amp) ** 2)
        assert rep.error == search.error == spectral_norm(mat - spec.exact(rep.t).mat)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            success_probability_bound(0.0)
        with pytest.raises(ValueError):
            success_probability_bound(1.5)


class TestBeamSplitter:
    def test_step_pulse_counts(self):
        assert conditional_beam_splitter(p=1, cutoff=4, symmetrized=False).synthesis.cost() == 8
        assert conditional_beam_splitter(p=1, cutoff=4, symmetrized=True).synthesis.cost() == 16

    def test_exact_interference_dip(self):
        tr = hom_trace(nsteps=40, cutoff=7, synthesized=False)
        assert tr.populations["P11"][20] < 1e-10
        assert tr.populations["P11"][0] == pytest.approx(1.0)

    def test_synthesized_trace_conserves_and_stays_low(self):
        tr = hom_trace(nsteps=40, cutoff=7)
        assert set(tr.populations) == {"P0", "P1", "P2", "P11"}
        assert tr.leakage.max() < 1e-2
        assert tr.leakage.shape == (41,)

    def test_zero_time_identity(self):
        spec = conditional_beam_splitter(cutoff=3)
        assert spectral_norm(spec.synthesis.eval(0.0).mat - np.eye(32)) < 1e-12

    def test_error_matrix_splits_into_parity_sectors(self):
        """Every pulse and the hopping reference keep the total parity of
        qubit and photon numbers, so the error matrix is exactly zero
        between the two parity sectors."""
        spec = conditional_beam_splitter(cutoff=4, symmetrized=True)
        err = spec.synthesis.eval(0.05).mat - spec.exact(0.05).mat
        parity = np.indices((2, 5, 5)).reshape(3, -1).sum(axis=0) % 2
        sectors = _sectors(len(err), *np.nonzero(err))
        assert len(sectors) == 2
        assert np.array_equal(sectors[0], np.flatnonzero(parity == 0))
        assert np.array_equal(sectors[1], np.flatnonzero(parity == 1))


class TestEffectivePauli:
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_restriction_is_pauli(self, axis):
        block = sigma_eff(axis, 6).mat[:2, :2]
        assert np.abs(block - pauli(axis.upper()).mat).max() < 1e-14

    def test_z_gate_exact(self):
        spec = effective_pauli_span01("z", cutoff=6)
        assert spectral_norm(spec.synthesis.eval(0.37).mat - spec.exact(0.37).mat) < 1e-10
        assert spec.synthesis.cost() == 2

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_leakage_slope_symmetrized(self, axis):
        spec = effective_pauli_span01(axis, cutoff=6, symmetrized=True)
        lams = np.sqrt(np.geomspace(1e-3, 1e-1, 10))
        leaks = [span01_leakage(spec, lam) for lam in lams]
        fit = fit_power_law(list(lams**2), leaks)
        assert fit.exponent >= 3.5
        assert spec.synthesis.cost() == 17

    def test_plain_recipe_depth(self):
        assert effective_pauli_span01("x", cutoff=4, symmetrized=False).synthesis.cost() == 9

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            effective_pauli_span01("w", cutoff=4)


class TestAnharmonicity:
    def test_exact_identity_on_lowest_levels(self):
        spec = anharmonicity_gate()
        u = spec.exact(0.23).mat
        for qubit, level in ((0, 0), (0, 1), (1, 1)):
            psi = basis_state(spec.layout, qubit, level)
            assert np.linalg.norm(u @ psi - psi) < 1e-12

    def test_exact_phase_on_two_photons(self):
        spec = anharmonicity_gate()
        s = 0.23
        psi = basis_state(spec.layout, 0, 2)
        out = spec.exact(s).mat @ psi
        assert np.abs(out - np.exp(2j * s) * psi).max() < 1e-12

    @pytest.mark.parametrize("p,floor", [(1, 1.2), (2, 2.0)])
    def test_error_slope(self, p, floor):
        assert fitted(anharmonicity_gate(p=p), SMALL_WINDOW) >= floor

    def test_pulse_count(self):
        assert anharmonicity_gate().synthesis.cost() == 5


class TestCrossKerr:
    def test_exact_phase_on_both_singles(self):
        spec = cross_kerr_gate()
        s = 0.4
        psi = basis_state(spec.layout, 0, 1, 1)
        out = spec.exact(s).mat @ psi
        assert np.abs(out - np.exp(1j * s) * psi).max() < 1e-12

    @pytest.mark.parametrize("p,floor,count", [(1, 1.2, 4), (2, 2.0, 24)])
    def test_slope_and_count(self, p, floor, count):
        spec = cross_kerr_gate(p=p)
        assert spec.synthesis.cost() == count
        assert fitted(spec, SMALL_WINDOW) >= floor


class TestFermiHubbard:
    def test_same_site_matrix(self):
        g = fermi_hubbard_gates(0.7, 0.3, 0.9)
        want = np.diag([1, 1, 1, np.exp(-1j * 0.7 * 0.9)])
        assert np.abs(g.same - want).max() < 1e-12

    def test_hopping_matrix(self):
        g = fermi_hubbard_gates(0.7, 0.3, 0.9)
        c, s = math.cos(0.27), math.sin(0.27)
        want = np.array(
            [[1, 0, 0, 0], [0, c, 1j * s, 0], [0, 1j * s, c, 0], [0, 0, 0, 1]]
        )
        assert np.abs(g.hop - want).max() < 1e-12

    def test_fswap_matrix(self):
        g = fermi_hubbard_gates(1.0, 1.0, 1.0)
        want = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], dtype=complex
        )
        assert np.abs(g.fswap - want).max() == 0.0

    def test_fswap_product_reduces_to_matrix(self):
        prod, layout = fswap_product(4)
        g = fermi_hubbard_gates(1.0, 1.0, 1.0)
        assert np.abs(two_mode_span_block(prod, layout) - g.fswap).max() < 1e-12

    def test_fswap_product_preserves_span(self):
        prod, layout = fswap_product(4)
        span = [layout.index(m1, m2) for m1 in (0, 1) for m2 in (0, 1)]
        rest = [i for i in range(prod.dim) if i not in span]
        assert np.abs(prod.mat[np.ix_(rest, span)]).max() < 1e-12

    def test_fswap_product_needs_room(self):
        with pytest.raises(ValueError):
            fswap_product(1)

    def test_cross_kerr_piece_attached(self):
        g = fermi_hubbard_gates(1.0, 1.0, 1.0)
        assert g.cross_kerr.name == "cross-kerr"


class TestNonlinearHamiltonian:
    def test_pure_rotation_phases(self):
        spec = nonlinear_hamiltonian(1.0, 0.0, q=1, cutoff=6)
        t = 0.4
        u = spec.exact(t).mat
        for n in (0, 1, 3):
            psi = basis_state(spec.layout, 0, n)
            assert np.abs(u @ psi - np.exp(1j * t * n) * psi).max() < 1e-12

    def test_pure_kerr_phase_on_two_photons(self):
        spec = nonlinear_hamiltonian(0.0, 1.0, q=1, cutoff=6)
        t = 0.4
        psi = basis_state(spec.layout, 0, 2)
        out = spec.exact(t).mat @ psi
        assert np.abs(out - np.exp(1j * t) * psi).max() < 1e-12

    @pytest.mark.parametrize("q,floor,count", [(1, 0.95, 776), (2, 1.95, 829488)])
    def test_slope_and_count(self, q, floor, count):
        spec = nonlinear_hamiltonian(1.0, 0.1, q=q, cutoff=15)
        assert spec.synthesis.cost() == count
        assert fitted(spec) >= floor

    def test_guards(self):
        with pytest.raises(ValueError):
            nonlinear_hamiltonian(-1.0, 0.1)
        with pytest.raises(ValueError):
            nonlinear_hamiltonian(1.0, -0.1)
        with pytest.raises(ValueError):
            nonlinear_hamiltonian(1.0, 1.0, q=0)
