"""Paper demonstrations and dense check helpers that only the tests run.

The experiment runner registers none of these (the HOM and autocorrelation
traces, the two-level Pauli gates, the echoed k-photon preparation, the
Fermi-Hubbard factors, the conditional-displacement seed), so they live
beside the tests. pytest does not collect this module; the tests import it
as `demos`, since pytest puts their directory on sys.path.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from bosonsynth.applications import (
    ApplicationSpec,
    _conditional_square,
    _ladder_encoding,
    _ladder_power,
    arb_power_count_bound,
    conditional_beam_splitter,
    cross_kerr_gate,
)
from bosonsynth.bench import ExperimentConfig, SynthesisReport
from bosonsynth.block_encodings import block_generator, conjugate, mult, s1
from bosonsynth.fock_ops import (
    KronSum,
    _factor_mats,
    annihilation,
    creation,
    mode_identity,
    momentum,
    number,
    pauli,
    position,
)
from bosonsynth.product_formulas import (
    Factor,
    FrameGate,
    ParamUnitary,
    Primitive,
    as_linear_term,
    compose,
    frame_conjugate,
    group_commutator,
    primitive_unitary,
    rescale,
    symmetrize,
    timeslice,
)
from bosonsynth.tensor_core import (
    TOL,
    HilbertLayout,
    Operator,
    _unitary_defect,
    basis_state,
    expm,
    identity,
    spectral_norm,
)


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product; the layout is the concatenation of the factor lists."""
    layout = HilbertLayout(a.layout.factors + b.layout.factors)
    return Operator(layout, np.kron(a.mat, b.mat))


def is_unitary(op: Operator, tol: float | None = None) -> bool:
    return _unitary_defect(op.mat) <= (TOL.unitarity if tol is None else tol)


def matrix_units(op: Operator, at: Sequence[int] | None = None) -> KronSum:
    """A dense operator on the factors at (None: every factor of its own
    layout) as a Kronecker sum of matrix units: one term per nonzero entry,
    the entry times |r_i><c_i| on each factor at[i], r_i and c_i being the
    entry's row and column digits there. Each entry of the sum comes out as
    the entry itself, so a leaf declared from it has op's blocks bit for
    bit."""
    at = range(op.layout.nfactors) if at is None else at
    factors = op.layout.factors
    units: dict[tuple[int, int, int], Operator] = {}

    def unit(f: int, r: int, c: int) -> Operator:
        if (f, r, c) not in units:
            mat = np.zeros((factors[f][1],) * 2)
            mat[r, c] = 1.0
            units[f, r, c] = Operator(HilbertLayout((factors[f],)), mat)
        return units[f, r, c]

    rows, cols = np.nonzero(op.mat)
    dims = [d for _, d in factors]
    digits = list(zip(*np.unravel_index(rows, dims), *np.unravel_index(cols, dims)))
    n = len(factors)
    return [
        (op.mat[r, c], {pos: unit(f, d[f], d[n + f]) for f, pos in enumerate(at)})
        for r, c, d in zip(rows, cols, digits)
    ]


def flow(generator: Operator | KronSum, layout: HilbertLayout | None = None,
         label: str = "g") -> ParamUnitary:
    """The one-primitive family t -> exp(i t G) on G's whole layout: an
    Operator's own, as its matrix units, or layout for a Kronecker sum."""
    if isinstance(generator, Operator):
        generator, layout = matrix_units(generator), generator.layout
    return primitive_unitary(Primitive(label, layout, generator))


def embed(ops: Mapping[int, Operator], layout: HilbertLayout) -> Operator:
    """Place single-factor operators on a layout, the identity elsewhere.

    `ops` maps a factor position to the operator acting there, and its
    matrix must match that factor's dimension. The result is one np.kron
    chain over the layout's factors, so a product of operators on distinct
    factors costs no dense matrix product, and each of its entries is a
    product of one entry per factor.
    """
    return Operator(layout, _kron_chain(_factor_mats(ops, layout)))


def _kron_chain(mats: Sequence[np.ndarray]) -> np.ndarray:
    """((1 (x) mats[0]) (x) mats[1]) (x) ..., left to right."""
    mat = np.eye(1, dtype=np.complex128)
    for m in mats:
        mat = np.kron(mat, m)
    return mat


def dense(terms: KronSum, layout: HilbertLayout) -> Operator:
    """A Kronecker sum on layout as one full-size Operator: each term's
    coefficient times its embed, summed in term order."""
    out = np.zeros((layout.dim,) * 2, dtype=np.complex128)
    for coeff, ops in terms:
        out += complex(coeff) * embed(ops, layout).mat
    return Operator(layout, out)


def interior_projector(cutoff: int, weight: int) -> Operator:
    """Projector onto photon numbers <= cutoff - weight.

    States that a degree-`weight` ladder monomial cannot push past the cutoff.
    """
    diag = np.zeros(cutoff + 1, dtype=np.complex128)
    diag[: max(cutoff + 1 - weight, 0)] = 1.0
    return Operator(HilbertLayout.single_mode(cutoff), np.diag(diag))


def pattern_sectors(pattern: np.ndarray) -> list[np.ndarray]:
    """The connected components of a square boolean pattern, read as an
    undirected graph with an edge wherever pattern[i, j] or pattern[j, i],
    found by a breadth-first search over the dense pattern: the reference
    that tensor_core._sectors, which takes the edges as index lists, is
    checked against.

    Each component is a sorted index array, and the list is ordered by
    smallest index.
    """
    placed = np.zeros(len(pattern), dtype=bool)
    sectors = []
    for start in range(len(pattern)):
        if placed[start]:
            continue
        member = np.zeros(len(pattern), dtype=bool)
        member[start] = True
        frontier = np.array([start])
        while frontier.size:
            # Edges both ways, from the frontier's rows and columns, with no
            # symmetrized copy of the pattern.
            reach = (pattern[frontier].any(axis=0) | pattern[:, frontier].any(axis=1)) & ~member
            member |= reach
            frontier = np.flatnonzero(reach)
        placed |= member
        sectors.append(np.flatnonzero(member))
    return sectors


def qubit_mode_op(mode_op: Operator, axis: str | None, cutoff: int) -> Operator:
    """pauli_axis (x) mode_op on [qubit, mode], or the qubit identity for None."""
    qubit = pauli(axis) if axis else identity(HilbertLayout.single_qubit())
    return Operator(HilbertLayout.qubit_modes(cutoff), np.kron(qubit.mat, mode_op.mat))


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a


def vacuum_parity_flip(cutoff: int) -> Operator:
    """R = I - 2|0><0| on one mode: flips the sign of the vacuum component."""
    diag = np.ones(cutoff + 1, dtype=np.complex128)
    diag[0] = -1.0
    return Operator(HilbertLayout.single_mode(cutoff), np.diag(diag))


@dataclass(frozen=True)
class FitWindow:
    """Log-spaced sampling window for order fits."""

    lo: float = 1e-3
    hi: float = 1e-1
    points: int = 12

    def times(self) -> np.ndarray:
        return np.logspace(math.log10(self.lo), math.log10(self.hi), self.points)


def sweep_errors(
    approx: Callable[[float], Operator],
    target: Callable[[float], Operator],
    window: FitWindow = FitWindow(),
) -> tuple[np.ndarray, np.ndarray]:
    """Operator-norm error of approx against target over the window."""
    ts = window.times()
    errs = np.array(
        [spectral_norm(approx(t).mat - target(t).mat) for t in ts]
    )
    return ts, errs


def report_from_json(path: str | Path) -> SynthesisReport:
    with open(path) as fh:
        data = json.load(fh)
    config = ExperimentConfig.from_mapping(data.pop("config"))
    return SynthesisReport(config=config, **data)


def s1_from_conditional_displacements(cutoff: int) -> ParamUnitary:
    """Seed block from hardware-native pieces: two conditional displacements
    interleaved with fixed quarter-period mode rotations.

    The product evaluated at alpha approximates the seed at effective time
    t_eff = 2 alpha, with O(alpha^2) error.
    """
    layout = HilbertLayout.qubit_modes(cutoff)
    quad = annihilation(cutoff) + creation(cutoff)
    cd_x = primitive_unitary(Primitive("CD_x", layout, [(1.0, {0: pauli("X"), 1: quad})]))
    cd_y = primitive_unitary(Primitive("CD_y", layout, [(1.0, {0: pauli("Y"), 1: quad})]))
    rot = primitive_unitary(Primitive("Rmode", layout, [(1.0, {1: number(cutoff)})]))

    quarter = math.pi / 2
    factors = [
        Factor(rot, quarter, power=0),
        Factor(cd_y),
        Factor(rot, -quarter, power=0),
        Factor(cd_x),
    ]
    return compose("S1~CD", factors)


@dataclass(frozen=True)
class DynamicsTrace:
    """Observable series from stepping one state with a fixed unitary."""

    times: np.ndarray
    total_probability: np.ndarray
    autocorrelation: Optional[np.ndarray] = None
    populations: Optional[dict] = None
    leakage: Optional[np.ndarray] = None

    def __post_init__(self):
        if np.max(np.abs(self.total_probability - 1.0)) > 1e-9:
            raise ValueError("dynamics trace does not conserve probability")
        if self.populations is not None:
            for key, series in self.populations.items():
                if np.min(series) < -1e-12 or np.max(series) > 1.0 + 1e-9:
                    raise ValueError(f"population series {key!r} leaves [0, 1]")


def evolve(step: Operator, psi0: np.ndarray, nsteps: int) -> np.ndarray:
    """All intermediate states of psi(j) = step^j psi0, shape (nsteps+1, dim)."""
    psi0 = np.asarray(psi0, dtype=np.complex128)
    out = np.empty((nsteps + 1, psi0.size), dtype=np.complex128)
    out[0] = psi0
    for j in range(nsteps):
        out[j + 1] = step.mat @ out[j]
    return out


def autocorrelation_trace(step: Operator, psi0: np.ndarray, nsteps: int,
                          dt: float) -> DynamicsTrace:
    states = evolve(step, psi0, nsteps)
    times = dt * np.arange(nsteps + 1)
    auto = np.real(states @ np.conj(psi0))
    total = np.sum(np.abs(states) ** 2, axis=1)
    return DynamicsTrace(times, total, autocorrelation=auto)


def conditional_rotation_fock(p: int = 1, cutoff: int = 14) -> ApplicationSpec:
    """Number-conditioned phase from the ladder route.

    MULT of the seed with its block swap encodes the number operator in the
    qubit-0 sector; one extra native phase fixes the qubit-1 sector so the
    two sectors rotate oppositely below the cutoff edge.
    """
    number_flow, gen = mult(s1(cutoff), conjugate(s1(cutoff)), 2 * p)
    layout = number_flow.layout
    lower = [(1.0, {0: Operator(HilbertLayout.single_qubit(), np.diag([0.0, 1.0]))})]
    corr = primitive_unitary(Primitive("qubit1-phase", layout, lower))
    pu = compose("cond-rot-fock", [Factor(number_flow), Factor(corr)])
    gen += lower
    return ApplicationSpec(
        name="conditional-rotation-fock",
        layout=layout,
        exact_generator=gen,
        synthesis=pu,
        initial_state=basis_state(layout, 0, 2),
    )


def state_prep_protected(
    k: int,
    t: float | None = None,
    p: int = 2,
    cutoff: int = 8,
    base: str | None = None,
) -> ApplicationSpec:
    """Vacuum-echoed preparation: the pulse, then its reverse in the frame
    that flips the vacuum sign.

    The echo cancels every matrix element of the block generator except the
    |1, 0> <-> |0, k> coupling, so levels b >= 1 ride along untouched. Both
    factors run at the full parameter; the echoed generator commutes with
    the bare one, so the two-factor product carries no splitting error.
    """
    pulse = _ladder_encoding(k, p, cutoff, base, False).unitary
    layout = pulse.layout
    if t is None:
        t = math.pi / (4.0 * math.sqrt(math.factorial(k)))  # the echo doubles the coupling
    flip = vacuum_parity_flip(cutoff)
    frame = FrameGate("R0", layout, [(1.0, {1: flip})])
    echoed = frame_conjugate(rescale(pulse, -1.0), frame)
    pu = compose(f"protected-prep-T{k}", [Factor(pulse), Factor(echoed)])
    target = _ladder_power(cutoff, k)
    gen = block_generator(target - flip @ target @ flip)
    return ApplicationSpec(
        name=f"state-prep-P{k}",
        layout=layout,
        exact_generator=gen,
        synthesis=pu,
        initial_state=basis_state(layout, 1, 0),
        time=t,
    )


@dataclass(frozen=True)
class SuccessReport:
    """Timesliced protected preparation measured against its target at t."""

    t: float
    slices: int
    error: float
    success_probability: float
    counted: int
    bound: float


def success_probability_bound(delta: float, k: int = 2, p: int = 2,
                              cutoff: int = 6) -> SuccessReport:
    """Slice the protected preparation until it lands within delta/2 of the
    exact gate, then read off the preparation success probability."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("need 0 < delta <= 1")
    spec = state_prep_protected(k, p=p, cutoff=cutoff)
    t = float(spec.time)
    result = timeslice(spec.synthesis, spec.reference, t, 0.5 * delta, spec.initial_state)
    amp = np.vdot(basis_state(spec.layout, 0, k), result.measured.state)
    counted = spec.synthesis.cost() * result.slices
    return SuccessReport(
        t=t,
        slices=result.slices,
        error=result.error,
        success_probability=float(abs(amp) ** 2),
        counted=counted,
        bound=arb_power_count_bound(k, p, result.slices),
    )


def hom_trace(nsteps: int = 200, cutoff: int = 14, synthesized: bool = True) -> DynamicsTrace:
    """Two-photon interference sweep: first-mode occupation histogram and
    leakage above the two-photon span while the conditional beam splitter
    walks |g, 1, 1> through the dip, to accumulated angle pi/2.

    The step symmetrizes the two blocks, which keeps cumulative leakage out
    of the two-photon span below 1e-4 over the full sweep; the bare
    eight-pulse step leaks at the 1e-3 level."""
    spec = conditional_beam_splitter(cutoff=cutoff, symmetrized=True)
    dtheta = (math.pi / 2) / nsteps
    step = spec.synthesis.eval(dtheta) if synthesized else spec.exact(dtheta)
    states = evolve(step, spec.initial_state, nsteps)
    times = dtheta * np.arange(nsteps + 1)
    dims = tuple(d for _, d in spec.layout.factors)
    probs = np.abs(states.reshape((nsteps + 1,) + dims)) ** 2
    occ = np.sum(probs, axis=(1, 3))  # first-mode occupation
    populations = {"P0": occ[:, 0], "P1": occ[:, 1], "P2": occ[:, 2]}
    populations["P11"] = np.sum(probs[:, :, 1, 1], axis=1)
    leak = np.sum(occ[:, 3:], axis=1)
    return DynamicsTrace(times, np.sum(occ, axis=1), populations=populations, leakage=leak)


def sigma_eff(axis: str, cutoff: int) -> Operator:
    """Pauli action on the lowest two levels, extended by the projected
    ladder: a_eff = (I - n) a."""
    cr, an = creation(cutoff), annihilation(cutoff)
    proj = mode_identity(cutoff) - number(cutoff)
    x_eff = cr @ proj + proj @ an
    y_eff = 1j * (cr @ proj - proj @ an)
    if axis == "x":
        return x_eff
    if axis == "y":
        return y_eff
    if axis == "z":
        return -1j * (x_eff @ y_eff)
    raise ValueError(f"unknown axis {axis!r}")


def effective_pauli_span01(
    axis: str,
    cutoff: int = 6,
    symmetrized: bool = True,
) -> ApplicationSpec:
    """Conditional Pauli rotation on the two lowest levels.

    x and y decompose into one anticommutator block, one commutator block
    and one native pulse; z needs only two native phases and is exact on
    the span. The family parameter is the squared pulse amplitude.
    """
    layout = HilbertLayout.qubit_modes(cutoff)
    sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
    xm, pm, nm = position(cutoff), momentum(cutoff), number(cutoff)

    def prim(tag: str, coeff: float, ops: Mapping[int, Operator]) -> ParamUnitary:
        return primitive_unitary(Primitive(tag, layout, [(coeff, ops)]))

    if axis == "x":
        anti = group_commutator(prim("x*sx", 1.0, {0: sx, 1: xm}),
                                prim("n*sy", 1.0, {0: sy, 1: nm}))
        comm = group_commutator(prim("p", 1.0, {1: pm}), prim("n*sz", 1.0, {0: sz, 1: nm}))
        lin = prim("2x*sz", 2.0, {0: sz, 1: xm})
    elif axis == "y":
        anti = group_commutator(prim("p*sx", 1.0, {0: sx, 1: pm}),
                                prim("n*sy", 1.0, {0: sy, 1: nm}))
        comm = group_commutator(prim("n*sz", 1.0, {0: sz, 1: nm}), prim("x", 1.0, {1: xm}))
        lin = prim("2p*sz", 2.0, {0: sz, 1: pm})
    elif axis == "z":
        pu = compose(
            "eff-pauli-z",
            [Factor(prim("qubit-phase", 1.0, {0: sz})),
             Factor(prim("-2n*sz", -2.0, {0: sz, 1: nm}))],
        )
        gen = [(1.0, {0: sz, 1: mode_identity(cutoff) - 2.0 * nm})]
        return ApplicationSpec(
            name="eff-pauli-z",
            layout=layout,
            exact_generator=gen,
            synthesis=pu,
            initial_state=basis_state(layout, 0, 1),
        )
    else:
        raise ValueError(f"unknown axis {axis!r}")

    if symmetrized:
        anti, comm = symmetrize(anti), symmetrize(comm)
    pu = compose(
        f"eff-pauli-{axis}",
        [Factor(as_linear_term(anti)), Factor(as_linear_term(comm)), Factor(lin)],
    )
    gen = [(1.0, {0: sz, 1: sigma_eff(axis, cutoff)})]
    return ApplicationSpec(
        name=f"eff-pauli-{axis}",
        layout=layout,
        exact_generator=gen,
        synthesis=pu,
        initial_state=basis_state(layout, 0, 1),
    )


def span01_leakage(spec: ApplicationSpec, lam: float) -> float:
    """Worst leakage probability out of the two lowest levels, starting from
    them, after one pulse of amplitude lam."""
    u = spec.synthesis.eval(lam * lam)
    dims = tuple(d for _, d in spec.layout.factors)
    worst = 0.0
    for level in (0, 1):
        psi = u.mat @ basis_state(spec.layout, 0, level)
        resh = np.abs(psi.reshape(dims)) ** 2
        worst = max(worst, float(np.sum(resh[:, 2:])))
    return worst


def anharmonicity_gate(p: int = 1, cutoff: int = 8) -> ApplicationSpec:
    """Conditional self-Kerr phase n(n-1), from a number-squared commutator
    block and one opposing linear pulse. Family parameter: squared amplitude."""
    layout = HilbertLayout.qubit_modes(cutoff)
    u_n2 = _conditional_square(number(cutoff), "n", layout, 1, p, "lean")
    n_op, sz = number(cutoff), pauli("z")
    lin = primitive_unitary(Primitive("-n*sz", layout, [(-1.0, {0: sz, 1: n_op})]))
    pu = compose("anharmonicity", [Factor(as_linear_term(u_n2)), Factor(lin)])
    gen = [(1.0, {0: sz, 1: n_op @ n_op - n_op})]
    return ApplicationSpec(
        name="anharmonicity",
        layout=layout,
        exact_generator=gen,
        synthesis=pu,
        initial_state=basis_state(layout, 0, 2),
    )


@dataclass(frozen=True)
class FermiHubbardGates:
    """The two-site gate set on the doubly-restricted span, ordered
    |00>, |01>, |10>, |11>, plus the synthesized cross-Kerr piece."""

    same: np.ndarray
    hop: np.ndarray
    fswap: np.ndarray
    cross_kerr: ApplicationSpec


def fermi_hubbard_gates(u_int: float, j_hop: float, tau: float) -> FermiHubbardGates:
    same = np.diag([1.0, 1.0, 1.0, np.exp(-1j * u_int * tau)]).astype(complex)
    c, s = math.cos(j_hop * tau), math.sin(j_hop * tau)
    hop = np.eye(4, dtype=complex)
    hop[1:3, 1:3] = [[c, 1j * s], [1j * s, c]]
    fswap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    fswap[3, 3] = -1.0
    return FermiHubbardGates(same, hop, fswap, cross_kerr_gate(cutoff=3))


def two_mode_span_block(op: Operator, layout: HilbertLayout) -> np.ndarray:
    """Restriction of a two-mode operator to occupations {0, 1} x {0, 1},
    ordered |00>, |01>, |10>, |11>."""
    idx = [layout.index(m1, m2) for m1 in (0, 1) for m2 in (0, 1)]
    return op.mat[np.ix_(idx, idx)]


def fswap_product(cutoff: int = 4) -> tuple[Operator, HilbertLayout]:
    """Mode-swap-with-sign as a product of native exponentials.

    A half-period beam splitter swaps the modes; the cross-Kerr pulse
    unwinds the sign the doubly-occupied state picks up on its excursion
    through |2, 0> and |0, 2>, and the linear pulse removes the leftover
    single-photon phases. Needs cutoff >= 2 so the excursion fits. The
    product preserves the doubly-restricted span; compare its
    two_mode_span_block against the 4x4 swap-with-sign matrix.
    """
    if cutoff < 2:
        raise ValueError("need cutoff >= 2")
    layout = HilbertLayout((("mode", cutoff + 1), ("mode", cutoff + 1)))
    a, n_op = annihilation(cutoff), number(cutoff)
    hop = embed({0: a.dag(), 1: a}, layout) + embed({0: a, 1: a.dag()}, layout)

    kerr = expm(1j * math.pi * embed({0: n_op, 1: n_op}, layout))
    linear = expm(-0.5j * math.pi * (embed({0: n_op}, layout) + embed({1: n_op}, layout)))
    beam = expm(0.5j * math.pi * hop)
    return kerr @ linear @ beam, layout
