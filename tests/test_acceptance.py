"""Acceptance gate: one test per shipped guarantee.

Each test prints a single pass/fail line (run with -s to see them) and then
asserts, so the suite doubles as a checklist. Criterion numbers match the
list in the README.
"""
import csv
import filecmp
import math
from pathlib import Path

import numpy as np
import pytest

from bosonsynth.applications import (
    autocorrelation_trace,
    conditional_beam_splitter,
    conditional_rotation_phase_space,
    fermi_hubbard_gates,
    fswap_product,
    hom_trace,
    nonlinear_hamiltonian,
    state_prep_protected,
    state_prep_T,
    two_mode_span_block,
)
from bosonsynth.bench import load_config, run, run_sweep
from bosonsynth.block_encodings import (
    add,
    block_generator,
    conjugate,
    mult,
    power,
    s1,
    s1_from_conditional_displacements,
)
from bosonsynth.fock_ops import annihilation, creation, momentum, pauli, position
from bosonsynth.product_formulas import (
    FitWindow,
    Primitive,
    bch,
    fit_power_law,
    primitive_unitary,
    sweep_errors,
    timeslice,
    trotter,
)
from bosonsynth.tensor_core import (
    HilbertLayout,
    Operator,
    commutator,
    expm,
    spectral_norm,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore:.*well-conditioned range.*:RuntimeWarning"
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(num, label, ok, detail):
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def qm_op(mode_op, axis, cutoff):
    layout = HilbertLayout.qubit_modes(cutoff)
    return Operator(layout, np.kron(pauli(axis).mat, mode_op.mat))


def flow(gen, label="g"):
    return primitive_unitary(Primitive(label, gen.layout, gen))


def test_criterion_01_ladder_matrices():
    v = np.sqrt([1.0, 2.0, 3.0])
    dev = max(
        np.abs(creation(3).mat - np.diag(v, -1)).max(),
        np.abs(annihilation(3).mat - np.diag(v, 1)).max(),
    )
    report(1, "ladder matrices", dev <= 1e-15, f"max dev {dev:.1e}")


def test_criterion_02_ladder_power_norms():
    worst = 0.0
    capped = True
    for cutoff in (4, 8, 16):
        a = annihilation(cutoff)
        for k in (1, 2, 3):
            target = Operator(a.layout, np.linalg.matrix_power(a.mat, k))
            norm = spectral_norm(block_generator(target))
            want = math.sqrt(math.factorial(cutoff) / math.factorial(cutoff - k))
            worst = max(worst, abs(norm - want))
            capped = capped and norm <= cutoff ** (k / 2) + 1e-12
    ok = worst <= 1e-9 and capped
    report(2, "ladder power norms", ok, f"max dev {worst:.1e}, cap holds {capped}")


def test_criterion_03_commutator_block_order():
    cutoff = 15
    gen_a = qm_op(position(cutoff), "x", cutoff)
    gen_b = qm_op(position(cutoff), "y", cutoff)
    comm = commutator(gen_a, gen_b)
    target = lambda s: expm(Operator(gen_a.layout, -s * comm.mat))
    windows = {1: FitWindow(1e-3, 1e-1, 12), 2: FitWindow(1e-2, 1e-1, 10)}
    slopes = {}
    for p in (1, 2):
        u = bch(p, 1, flow(gen_a), flow(gen_b))
        ts, errs = sweep_errors(lambda t: u.eval(t), lambda t: target(t * t), windows[p])
        slopes[p] = fit_power_law(ts, errs).exponent
    ok = all(abs(slopes[p] - (2 * p + 1)) <= 0.3 for p in (1, 2))
    report(3, "commutator block order", ok,
           f"slopes {slopes[1]:.2f}, {slopes[2]:.2f} vs 3, 5")


def test_criterion_04_suzuki_order():
    qubit = HilbertLayout.single_qubit()
    x2 = position(8) @ position(8)
    p2 = momentum(8) @ momentum(8)
    testbeds = [
        ("paulis", Operator(qubit, pauli("x").mat), Operator(qubit, pauli("z").mat),
         {2: FitWindow(1e-2, 0.5, 10), 4: FitWindow(1e-2, 0.5, 10)}),
        ("quadratures", qm_op(x2, "x", 8), qm_op(p2, "x", 8),
         {2: FitWindow(1e-3, 1e-1, 12), 4: FitWindow(1e-2, 1e-1, 10)}),
    ]
    slopes = []
    ok = True
    for tag, gen_a, gen_b, windows in testbeds:
        total = gen_a.mat + gen_b.mat
        target = lambda t: expm(Operator(gen_a.layout, 1j * t * total))
        for order in (2, 4):
            out = trotter(order, [flow(gen_a), flow(gen_b)])
            ts, errs = sweep_errors(lambda t: out.eval(t), target, windows[order])
            slope = fit_power_law(ts, errs).exponent
            slopes.append(f"{tag[0]}{order}:{slope:.2f}")
            ok = ok and abs(slope - (order + 1)) <= 0.3
    report(4, "product formula order", ok, " ".join(slopes))


def test_criterion_05_gate_count_ledger():
    checks = []
    u = flow(qm_op(position(2), "x", 2))
    v = flow(qm_op(position(2), "y", 2))
    for p in (1, 2, 3):
        checks.append(bch(p, 1, u, v).cost() == 8 * 6 ** (p - 1))
    seed = s1(2)
    for orders, q in ((2, 1), (4, 2)):
        checks.append(add(seed, seed, orders, orders).unitary.cost() <= 1.07 * 30**q)
        checks.append(
            mult(seed, conjugate(seed, "X"), orders, orders).unitary.cost() <= 8 * 6 ** (q - 1)
        )
    power_costs = {}
    for k in (2, 4):
        cost = power(k, 2, 2).unitary.cost()
        power_costs[k] = cost
        checks.append(cost <= 6 ** math.log2(k) * 420 ** (k * 2 / 2))
    report(5, "gate count ledger", all(checks),
           f"power costs {power_costs[2]}, {power_costs[4]}")


def test_criterion_06_exact_state_prep():
    worst_flip = 0.0
    worst_fix = 0.0
    for k in (1, 2, 3):
        spec = state_prep_T(k, cutoff=8)
        mat = spec.exact().mat
        src = spec.layout.index(1, 0)
        dst = spec.layout.index(0, k)
        worst_flip = max(worst_flip, abs(abs(mat[dst, src]) - 1.0))

        prot = state_prep_protected(k, cutoff=8)
        pm = prot.exact().mat
        worst_flip = max(worst_flip, abs(abs(pm[dst, src]) - 1.0))
        for b in (1, 2, 3, 4):
            spect = prot.layout.index(1, b)
            worst_fix = max(worst_fix, abs(abs(pm[spect, spect]) - 1.0))
    ok = worst_flip <= 1e-10 and worst_fix <= 1e-10
    report(6, "exact state preparation", ok,
           f"flip dev {worst_flip:.1e}, spectator dev {worst_fix:.1e}")


def test_criterion_07_synthesized_prep_ladder(tmp_path):
    cells = run_sweep(load_config(CONFIG_DIR / "state-prep-ladder.yaml"),
                      out_dir=tmp_path / "sweep")
    order = [(c.order, c.base) for c in cells]
    errs = [c.op_norm_error[-1] for c in cells]
    ladder_ok = (
        order == [(1, "lean"), (1, "split"), (2, "lean"), (2, "split")]
        and all(a > b for a, b in zip(errs, errs[1:]))
        and cells[2].gate_count_step == 480
    )

    run(load_config(CONFIG_DIR / "state-prep-t2.yaml"), out_dir=tmp_path / "heat")
    heat_dev = 0.0
    with open(tmp_path / "heat" / "state-prep-t2_heatmap.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            exact = float(row["exact_modulus"])
            if exact > 0.1:
                heat_dev = max(heat_dev, abs(float(row["synth_modulus"]) - exact))
    ok = ladder_ok and heat_dev <= 0.15
    report(7, "synthesized prep ladder", ok,
           f"errors {', '.join(f'{e:.3f}' for e in errs)}, heatmap dev {heat_dev:.3f}")


def test_criterion_08_two_photon_interference():
    exact = hom_trace(synthesized=False)
    dip = exact.populations["P11"][100]

    synth = hom_trace()
    leak = float(np.max(synth.leakage))

    spec = conditional_beam_splitter(cutoff=14, symmetrized=True)
    ts, errs = sweep_errors(spec.synthesized, spec.exact, FitWindow(1e-3, 1e-1, 10))
    fit = fit_power_law(ts, errs)

    ok = dip < 1e-10 and leak < 1e-4 and fit.residual < 0.1
    report(8, "two photon interference", ok,
           f"dip {dip:.1e}, leak {leak:.1e}, step fit residual {fit.residual:.3f}")


def test_criterion_09_conditional_rotation_dynamics():
    spec = conditional_rotation_phase_space(cutoff=15)
    dt = 20.0 / 2000
    trace = autocorrelation_trace(spec.exact(dt), spec.initial_state, 2000, dt)
    dev = float(np.max(np.abs(trace.autocorrelation - np.cos(2.0 * trace.times))))

    slopes = {}
    for p in (1, 2):
        stepped = conditional_rotation_phase_space(p=p, cutoff=15)
        ts, errs = sweep_errors(stepped.synthesized, stepped.exact,
                                FitWindow(1e-3, 1e-1, 12))
        slopes[p] = fit_power_law(ts, errs).exponent
    ok = dev <= 1e-10 and all(abs(slopes[p] - (p + 0.5)) <= 0.3 for p in (1, 2))
    report(9, "conditional rotation dynamics", ok,
           f"autocorr dev {dev:.1e}, step slopes {slopes[1]:.2f}, {slopes[2]:.2f}")


def test_criterion_10_fermi_hubbard_gates():
    worst = 0.0
    for u_int, j_hop, tau in ((1.0, 0.5, 0.7), (2.5, 1.5, 0.3)):
        gates = fermi_hubbard_gates(u_int, j_hop, tau)
        same = np.diag([1, 1, 1, np.exp(-1j * u_int * tau)])
        c, s = np.cos(j_hop * tau), np.sin(j_hop * tau)
        hop = np.eye(4, dtype=complex)
        hop[1:3, 1:3] = [[c, 1j * s], [1j * s, c]]
        fswap = np.zeros((4, 4), dtype=complex)
        fswap[0, 0], fswap[1, 2], fswap[2, 1], fswap[3, 3] = 1, 1, 1, -1
        worst = max(
            worst,
            np.abs(gates.same - same).max(),
            np.abs(gates.hop - hop).max(),
            np.abs(gates.fswap - fswap).max(),
        )
    op, layout = fswap_product(cutoff=4)
    block = two_mode_span_block(op, layout)
    fswap = np.zeros((4, 4), dtype=complex)
    fswap[0, 0], fswap[1, 2], fswap[2, 1], fswap[3, 3] = 1, 1, 1, -1
    worst = max(worst, np.abs(block - fswap).max())
    report(10, "fermi-hubbard gates", worst <= 1e-12, f"max dev {worst:.1e}")


def test_criterion_11_displacement_route_order():
    cutoff = 8
    route = s1_from_conditional_displacements(cutoff)
    seed = s1(cutoff)
    alphas = np.logspace(-3, -1, 12)
    errs = np.array(
        [spectral_norm(route.eval(a).mat - seed.exact(2 * a).mat) for a in alphas]
    )
    fit = fit_power_law(alphas, errs)
    # The error is quadratic with a negative cubic correction, so any
    # least-squares fit over the window lands a hair below 2; the pointwise
    # quadratic bound (constant taken at the small-alpha end) is exact.
    quad = errs / alphas**2
    bounded = bool(np.all(quad <= quad[0] * (1 + 1e-9)))
    ok = fit.exponent >= 2.0 - 0.01 and bounded
    report(11, "displacement route order", ok,
           f"slope {fit.exponent:.4f}, quadratic bound holds {bounded}")


def test_criterion_12_timeslicing_growth():
    spec = nonlinear_hamiltonian(1.0, 1.0, q=2, cutoff=6)
    cap = 2 ** (1.0 / (2 - 0.75)) * 1.5
    ratios = []
    for eps in (3e-2, 1e-2, 3e-3):
        r = timeslice(spec.synthesis, spec.reference, 1.0, eps).slices
        r_half = timeslice(spec.synthesis, spec.reference, 1.0, eps / 2).slices
        ratios.append(r_half / r)
    ok = all(ratio <= cap for ratio in ratios)
    report(12, "timeslicing growth", ok,
           f"ratios {', '.join(f'{x:.2f}' for x in ratios)} vs cap {cap:.2f}")


def test_criterion_13_deterministic_artifacts(tmp_path):
    compared = 0
    identical = True
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        runner = run_sweep if path.stem == "state-prep-ladder" else run
        dirs = (tmp_path / path.stem / "a", tmp_path / path.stem / "b")
        for d in dirs:
            runner(load_config(path), out_dir=d)
        names = sorted(p.name for p in dirs[0].iterdir() if p.suffix in (".csv", ".json"))
        assert names == sorted(p.name for p in dirs[1].iterdir() if p.suffix in (".csv", ".json"))
        for name in names:
            identical = identical and filecmp.cmp(
                dirs[0] / name, dirs[1] / name, shallow=False
            )
            compared += 1
    ok = identical and compared >= 11
    report(13, "deterministic artifacts", ok, f"{compared} files byte-identical")
