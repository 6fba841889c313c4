"""Worked gate syntheses over the block-encoding stack.

Each builder returns an ApplicationSpec pairing a synthesized parametrized
unitary with the Hermitian generator of its exact reference, so tests and
benchmarks can measure convergence against the exponential of the same
generator the construction actually targets. Dynamics helpers step a state
with either version and record the observable series the figures plot.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Optional

import numpy as np

from .tensor_core import (
    HilbertLayout,
    Operator,
    basis_state,
    expm,
    kron,
)
from .fock_ops import (
    annihilation,
    creation,
    embed,
    embed_sum,
    mode_identity,
    momentum,
    number,
    pauli,
    position,
    vacuum_parity_flip,
)
from .product_formulas import (
    Factor,
    FrameGate,
    ParamUnitary,
    Primitive,
    as_linear_term,
    bch,
    compose,
    frame_conjugate,
    group_commutator,
    measure,
    primitive_unitary,
    rescale,
    suzuki_index,
    symmetrize,
    timeslice,
    trotter,
)
from .block_encodings import (
    BlockEncoding,
    SynthesisBudget,
    arb_power,
    block_generator,
    conjugate,
    mult,
    power,
    s1,
)

__all__ = [
    "ApplicationSpec",
    "DynamicsTrace",
    "evolve",
    "autocorrelation_trace",
    "conditional_rotation_phase_space",
    "conditional_rotation_fock",
    "state_prep_exact_time",
    "state_prep_T",
    "state_prep_protected",
    "SuccessReport",
    "success_probability_bound",
    "arb_power_count_bound",
    "conditional_beam_splitter",
    "hom_trace",
    "sigma_eff",
    "effective_pauli_span01",
    "span01_leakage",
    "anharmonicity_gate",
    "cross_kerr_gate",
    "FermiHubbardGates",
    "fermi_hubbard_gates",
    "fswap_product",
    "two_mode_span_block",
    "nonlinear_hamiltonian",
]


@dataclass(frozen=True, eq=False)
class ApplicationSpec:
    """A synthesized unitary family with its exact reference.

    exact(t) = exp(i t G) from the eigendecompositions of the sectors of G,
    made when the spec is built, so exact(t) is zero between sectors. The
    spec keeps that reference, not the full-size generator G
    (exact_generator). synthesized(t) evaluates the compiled product. time
    records the evaluation point the construction was asked for (the
    preparation time, one trace step, ...), where one exists.
    """

    name: str
    layout: HilbertLayout
    exact_generator: InitVar[Operator]
    synthesis: ParamUnitary
    initial_state: Optional[np.ndarray] = None
    time: Optional[float] = None
    reference: Primitive = field(init=False, repr=False)

    def __post_init__(self, exact_generator: Operator):
        # Primitive rejects a generator on another layout or a non-Hermitian one.
        object.__setattr__(self, "reference", Primitive(self.name, self.layout, exact_generator))

    def _at(self, t: float | None) -> float:
        t = self.time if t is None else t
        if t is None:
            raise ValueError(f"{self.name}: no evaluation time set")
        return float(t)

    def exact(self, t: float | None = None) -> Operator:
        return Operator(self.layout, self.reference.unitary(self._at(t)))

    def synthesized(self, t: float | None = None) -> Operator:
        return self.synthesis.eval(self._at(t))

    def error(self, t: float | None = None) -> float:
        return measure(self.synthesis, self._at(t), self.reference).error


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


# Cyclic frame choice: the commutator of sigma^(first) with sigma^(second)
# lands +i sigma^(axis) after the group-commutator sign flip.
_AXIS_PAIR = {"z": ("y", "x"), "x": ("z", "y"), "y": ("x", "z")}


def _conditional_square(mode_op: Operator, tag: str, layout: HilbertLayout,
                        at: int, axis: str, p: int,
                        base: str | None) -> ParamUnitary:
    """BCH block for exp(i t M^2 sigma^axis) from conditional M pulses."""
    scale = 1.0 / math.sqrt(2.0)
    u_a, u_b = (
        primitive_unitary(
            Primitive(f"{tag}*s{s}", layout, scale * kron(pauli(s), mode_op), (0, at))
        )
        for s in _AXIS_PAIR[axis]
    )
    return bch(p, 1, u_a, u_b, base=base)


def conditional_rotation_phase_space(
    t: float | None = None,
    p: int = 1,
    cutoff: int = 14,
    axis: str = "z",
    base: str | None = None,
) -> ApplicationSpec:
    """Qubit-conditioned mode rotation from quadrature pulses.

    Squares of x and p come from commutator blocks, the leftover scalar
    phase is one native rotation; a Suzuki splitting joins the three terms.
    The reference generator is the truncated quadrature sum, which agrees
    with the number operator below the cutoff edge.
    """
    if axis not in _AXIS_PAIR:
        raise ValueError(f"unknown axis {axis!r}")
    layout = HilbertLayout.qubit_modes(cutoff)
    x_op, p_op = position(cutoff), momentum(cutoff)

    u_x2 = _conditional_square(x_op, "x", layout, 1, axis, p, base)
    u_p2 = _conditional_square(p_op, "p", layout, 1, axis, p, base)
    half_phase = primitive_unitary(
        Primitive("half-phase", layout, -0.5 * pauli(axis), (0,))
    )
    pu = trotter(
        2 * suzuki_index(p), [as_linear_term(u_x2), as_linear_term(u_p2), half_phase]
    )

    quad = x_op @ x_op + p_op @ p_op - 0.5 * mode_identity(cutoff)
    gen = embed({0: pauli(axis), 1: quad}, layout)
    return ApplicationSpec(
        name="conditional-rotation",
        layout=layout,
        exact_generator=gen,
        synthesis=pu,
        initial_state=basis_state(layout, 0, 2),
        time=t,
    )


def conditional_rotation_fock(
    t: float | None = None,
    p: int = 1,
    cutoff: int = 14,
    base: str | None = None,
) -> ApplicationSpec:
    """Number-conditioned phase from the ladder route.

    MULT of the seed with its block swap encodes the number operator in the
    qubit-0 sector; one extra native phase fixes the qubit-1 sector so the
    two sectors rotate oppositely below the cutoff edge.
    """
    enc = mult(s1(cutoff), conjugate(s1(cutoff), "X"), 2 * p, 2 * p, base=base)
    layout = enc.layout
    lower = Operator(HilbertLayout.single_qubit(), np.diag([0.0, 1.0]).astype(complex))
    corr = primitive_unitary(Primitive("qubit1-phase", layout, lower, (0,)))
    pu = compose(
        "cond-rot-fock",
        [Factor(enc.unitary), Factor(corr)],
    )
    gen = enc.generator + embed({0: lower}, layout)
    return ApplicationSpec(
        name="conditional-rotation-fock",
        layout=layout,
        exact_generator=gen,
        synthesis=pu,
        initial_state=basis_state(layout, 0, 2),
        time=t,
    )


def state_prep_exact_time(k: int, n: int = 0, cutoff: int | None = None,
                          protected: bool = False) -> float:
    """Flip time of the k-photon preparation pulse, n full periods later."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if cutoff is not None and k > cutoff:
        raise ValueError(f"target level k={k} exceeds cutoff {cutoff}")
    denom = 4.0 if protected else 2.0
    return (2 * n + 1) * math.pi / (denom * math.sqrt(math.factorial(k)))


def _ladder_power(cutoff: int, k: int) -> Operator:
    out = mode_identity(cutoff)
    cr = creation(cutoff)
    for _ in range(k):
        out = cr @ out
    return out


def _ladder_encoding(
    k: int, p: int, cutoff: int, base: str | None, symmetrized: bool
) -> BlockEncoding:
    """The encoding of (a^dag)^k that both preparations pulse: halving and
    adding for a power of two, binary digits (which take no order
    overrides) otherwise."""
    if k < 1 or k > cutoff:
        raise ValueError("need 1 <= k <= cutoff")
    if k & (k - 1) == 0:
        return power(k, p, cutoff, base=base, symmetrized=symmetrized)
    if base is not None or symmetrized:
        raise ValueError("order overrides apply to power-of-two k only")
    return arb_power(k, p, cutoff)


def state_prep_T(
    k: int,
    t: float | None = None,
    p: int = 2,
    cutoff: int = 8,
    base: str | None = None,
    symmetrized: bool = False,
) -> ApplicationSpec:
    """Block rotation that pumps |1, 0> toward |0, k>."""
    enc = _ladder_encoding(k, p, cutoff, base, symmetrized)
    layout = enc.layout
    if t is None:
        t = state_prep_exact_time(k, 0, cutoff)
    return ApplicationSpec(
        name=f"state-prep-T{k}",
        layout=layout,
        exact_generator=block_generator(_ladder_power(cutoff, k)),
        synthesis=enc.unitary,
        initial_state=basis_state(layout, 1, 0),
        time=t,
    )


def state_prep_protected(
    k: int,
    t: float | None = None,
    p: int = 2,
    cutoff: int = 8,
    base: str | None = None,
    symmetrized: bool = False,
) -> ApplicationSpec:
    """Vacuum-echoed preparation: the pulse, then its reverse in the frame
    that flips the vacuum sign.

    The echo cancels every matrix element of the block generator except the
    |1, 0> <-> |0, k> coupling, so levels b >= 1 ride along untouched. Both
    factors run at the full parameter; the echoed generator commutes with
    the bare one, so the two-factor product carries no splitting error.
    """
    pulse = _ladder_encoding(k, p, cutoff, base, symmetrized).unitary
    layout = pulse.layout
    if t is None:
        t = state_prep_exact_time(k, 0, cutoff, protected=True)
    flip = vacuum_parity_flip(cutoff)
    frame = FrameGate("R0", layout, {1: flip})
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
    """Timesliced protected preparation measured against its target."""

    delta: float
    k: int
    p: int
    cutoff: int
    t: float
    slices: int
    error: float
    success_probability: float
    counted: int
    bound: float


def arb_power_count_bound(k: int, p: int, r: int = 1) -> float:
    """Closed-form ceiling on seed invocations for the k-photon ladder."""
    return (
        r
        * 2.0
        * 5.0 ** (p / 2.0)
        * k**1.6
        * 30.0 ** (k * p)
        * 420.0 ** (k * k * p / 2.0)
        * 6.0 ** (math.log2(k) + 1.0)
    )


def success_probability_bound(
    delta: float,
    k: int = 2,
    p: int = 2,
    cutoff: int = 6,
    t: float | None = None,
    base: str | None = None,
) -> SuccessReport:
    """Slice the protected preparation until it lands within delta/2 of the
    exact gate, then read off the preparation success probability."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("need 0 < delta <= 1")
    spec = state_prep_protected(k, t, p, cutoff, base=base)
    t = float(spec.time)
    result = timeslice(spec.synthesis, spec.reference, t, 0.5 * delta, spec.initial_state)
    amp = np.vdot(basis_state(spec.layout, 0, k), result.measured.state)
    counted = spec.synthesis.cost() * result.slices
    return SuccessReport(
        delta=delta,
        k=k,
        p=p,
        cutoff=cutoff,
        t=t,
        slices=result.slices,
        error=result.error,
        success_probability=float(abs(amp) ** 2),
        counted=counted,
        bound=arb_power_count_bound(k, p, result.slices),
    )


def conditional_beam_splitter(
    t: float | None = None,
    p: int = 1,
    cutoff: int = 14,
    base: str | None = "lean",
    symmetrized: bool = False,
) -> ApplicationSpec:
    """Qubit-conditioned two-mode hopping from quadrature pulses.

    The xx and pp commutator blocks each land one half of the hopping term;
    their product is the step at accumulated angle t. The truncation-edge
    terms of xx and pp cancel in the sum, so the reference is the plain
    hopping generator. p = 1 is the eight-pulse step (sixteen when
    symmetrized); higher p joins the blocks with a Suzuki splitting.
    """
    layout = HilbertLayout.qubit_modes(cutoff, nmodes=2)
    sx, sy = pauli("x"), pauli("y")

    def pair_block(m: Operator, tag: str) -> ParamUnitary:
        u_a = primitive_unitary(Primitive(f"{tag}1*sx", layout, kron(sx, m), (0, 1)))
        u_b = primitive_unitary(Primitive(f"{tag}2*sy", layout, kron(sy, m), (0, 2)))
        return bch(p, 1, u_a, u_b, base=base)

    u_xx = pair_block(position(cutoff), "x")
    u_pp = pair_block(momentum(cutoff), "p")
    if symmetrized:
        u_xx, u_pp = symmetrize(u_xx), symmetrize(u_pp)
    if p == 1:
        inner = compose(
            "cond-beam-splitter",
            [Factor(u_xx), Factor(u_pp)],
            target_power=2,
        )
        pu = as_linear_term(inner, label="cond-beam-splitter")
    else:
        pu = trotter(2 * suzuki_index(p), [as_linear_term(u_xx), as_linear_term(u_pp)])

    sz, a = pauli("z"), annihilation(cutoff)
    # -(sz a1^dag a2 + sz a1 a2^dag), built in place: one full-size array.
    gen = embed_sum([{0: sz, 1: a.dag(), 2: a}, {0: sz, 1: a, 2: a.dag()}], layout, -1.0)
    return ApplicationSpec(
        name="hom-beam-splitter",
        layout=layout,
        exact_generator=gen,
        synthesis=pu,
        initial_state=basis_state(layout, 0, 1, 1),
        time=t,
    )


def _mode1_populations(states: np.ndarray, layout: HilbertLayout) -> np.ndarray:
    dims = tuple(d for _, d in layout.factors)
    resh = states.reshape((states.shape[0],) + dims)
    return np.sum(np.abs(resh) ** 2, axis=(1, 3))


def hom_trace(
    nsteps: int = 200,
    theta_total: float = math.pi / 2,
    cutoff: int = 14,
    p: int = 1,
    synthesized: bool = True,
    symmetrized: bool = True,
) -> DynamicsTrace:
    """Two-photon interference sweep: first-mode occupation histogram and
    leakage above the two-photon span while the conditional beam splitter
    walks |g, 1, 1> through the dip.

    The default step symmetrizes the two blocks, which keeps cumulative
    leakage out of the two-photon span below 1e-4 over the full sweep; the
    bare eight-pulse step leaks at the 1e-3 level."""
    spec = conditional_beam_splitter(p=p, cutoff=cutoff, symmetrized=symmetrized)
    dtheta = theta_total / nsteps
    step = spec.synthesized(dtheta) if synthesized else spec.exact(dtheta)
    states = evolve(step, spec.initial_state, nsteps)
    times = dtheta * np.arange(nsteps + 1)
    occ = _mode1_populations(states, spec.layout)
    total = np.sum(occ, axis=1)
    dims = tuple(d for _, d in spec.layout.factors)
    resh = states.reshape((states.shape[0],) + dims)
    p11 = np.sum(np.abs(resh[:, :, 1, 1]) ** 2, axis=1)
    populations = {
        "P0": occ[:, 0],
        "P1": occ[:, 1],
        "P2": occ[:, 2],
        "P11": p11,
    }
    leak = np.sum(occ[:, 3:], axis=1)
    return DynamicsTrace(times, total, populations=populations, leakage=leak)


def sigma_eff(axis: str, cutoff: int) -> Operator:
    """Pauli action on the lowest two levels, extended by the projected
    ladder: a_eff = (I - n) a."""
    cr, an, n_op = creation(cutoff), annihilation(cutoff), number(cutoff)
    proj = mode_identity(cutoff) - n_op
    if axis == "x":
        return cr @ proj + proj @ an
    if axis == "y":
        return 1j * (cr @ proj - proj @ an)
    if axis == "z":
        x_eff = cr @ proj + proj @ an
        y_eff = 1j * (cr @ proj - proj @ an)
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

    def prim(tag: str, gen: Operator, at: tuple[int, ...]) -> ParamUnitary:
        return primitive_unitary(Primitive(tag, layout, gen, at))

    if axis == "x":
        anti = group_commutator(prim("x*sx", kron(sx, xm), (0, 1)),
                                prim("n*sy", kron(sy, nm), (0, 1)))
        comm = group_commutator(prim("p", pm, (1,)), prim("n*sz", kron(sz, nm), (0, 1)))
        lin = prim("2x*sz", 2.0 * kron(sz, xm), (0, 1))
    elif axis == "y":
        anti = group_commutator(prim("p*sx", kron(sx, pm), (0, 1)),
                                prim("n*sy", kron(sy, nm), (0, 1)))
        comm = group_commutator(prim("n*sz", kron(sz, nm), (0, 1)), prim("x", xm, (1,)))
        lin = prim("2p*sz", 2.0 * kron(sz, pm), (0, 1))
    elif axis == "z":
        pu = compose(
            "eff-pauli-z",
            [Factor(prim("qubit-phase", sz, (0,))),
             Factor(prim("-2n*sz", -2.0 * kron(sz, nm), (0, 1)))],
        )
        gen = embed({0: sz, 1: mode_identity(cutoff) - 2.0 * nm}, layout)
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
    gen = embed({0: sz, 1: sigma_eff(axis, cutoff)}, layout)
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
    u = spec.synthesized(lam * lam)
    dims = tuple(d for _, d in spec.layout.factors)
    worst = 0.0
    for level in (0, 1):
        psi = u.mat @ basis_state(spec.layout, 0, level)
        resh = np.abs(psi.reshape(dims)) ** 2
        worst = max(worst, float(np.sum(resh[:, 2:])))
    return worst


def anharmonicity_gate(
    p: int = 1,
    cutoff: int = 8,
    axis: str = "z",
    base: str | None = "lean",
) -> ApplicationSpec:
    """Conditional self-Kerr phase n(n-1), from a number-squared commutator
    block and one opposing linear pulse. Family parameter: squared amplitude."""
    layout = HilbertLayout.qubit_modes(cutoff)
    u_n2 = _conditional_square(number(cutoff), "n", layout, 1, axis, p, base)
    n_op, s_axis = number(cutoff), pauli(axis)
    lin = primitive_unitary(Primitive("-n*sz", layout, -1.0 * kron(s_axis, n_op), (0, 1)))
    pu = compose("anharmonicity", [Factor(as_linear_term(u_n2)), Factor(lin)])
    gen = embed({0: s_axis, 1: n_op @ n_op - n_op}, layout)
    return ApplicationSpec(
        name="anharmonicity",
        layout=layout,
        exact_generator=gen,
        synthesis=pu,
        initial_state=basis_state(layout, 0, 2),
    )


def cross_kerr_gate(
    p: int = 1,
    cutoff: int = 5,
    axis: str = "z",
    base: str | None = "lean",
) -> ApplicationSpec:
    """Conditional cross-Kerr phase n1 n2 from one two-mode commutator
    block. Family parameter: squared amplitude."""
    layout = HilbertLayout.qubit_modes(cutoff, nmodes=2)
    first, second = _AXIS_PAIR[axis]
    n_op = number(cutoff)
    scale = 1.0 / math.sqrt(2.0)
    u_a = primitive_unitary(
        Primitive(f"n1*s{first}", layout, scale * kron(pauli(first), n_op), (0, 1))
    )
    u_b = primitive_unitary(
        Primitive(f"n2*s{second}", layout, scale * kron(pauli(second), n_op), (0, 2))
    )
    block = bch(p, 1, u_a, u_b, base=base)
    pu = as_linear_term(block, label="cross-kerr")
    gen = embed({0: pauli(axis), 1: n_op, 2: n_op}, layout)
    return ApplicationSpec(
        name="cross-kerr",
        layout=layout,
        exact_generator=gen,
        synthesis=pu,
        initial_state=basis_state(layout, 0, 1, 1),
    )


@dataclass(frozen=True)
class FermiHubbardGates:
    """The two-site gate set on the doubly-restricted span, ordered
    |00>, |01>, |10>, |11>, plus the synthesized cross-Kerr piece."""

    same: np.ndarray
    hop: np.ndarray
    fswap: np.ndarray
    cross_kerr: ApplicationSpec


def fermi_hubbard_gates(
    u_int: float,
    j_hop: float,
    tau: float,
    cutoff: int = 3,
    p: int = 1,
) -> FermiHubbardGates:
    same = np.diag([1.0, 1.0, 1.0, np.exp(-1j * u_int * tau)]).astype(complex)
    c, s = math.cos(j_hop * tau), math.sin(j_hop * tau)
    hop = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, c, 1j * s, 0.0],
            [0.0, 1j * s, c, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )
    fswap = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
        ],
        dtype=complex,
    )
    return FermiHubbardGates(same, hop, fswap, cross_kerr_gate(p, cutoff))


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


def nonlinear_hamiltonian(
    omega: float,
    kappa: float,
    t: float | None = None,
    q: int = 1,
    cutoff: int = 15,
    base: str | None = "lean",
) -> ApplicationSpec:
    """Kerr oscillator evolution compiled from seed pulses only.

    The number term comes from MULT of the seed with its block swap, the
    quartic term from MULT of the squared-ladder encodings; a Suzuki
    splitting joins the two flows. The qubit must start in |0>: the lower
    sector carries the mirrored junk blocks, which the reference generator
    includes so the comparison stays a single expm.
    """
    if omega < 0 or kappa < 0:
        raise ValueError("omega and kappa must be >= 0")
    if q < 1:
        raise ValueError("q must be >= 1")
    seed = s1(cutoff)
    term1 = mult(seed, conjugate(seed, "X"), 2 * q, 2 * q, base=base)
    sq = power(2, 2 * q, cutoff, budget=SynthesisBudget(2 * q, q), base=base)
    term2 = mult(sq, conjugate(sq, "X"), 2 * q, 2 * q, base=base)

    pu = trotter(
        2 * suzuki_index(q),
        [
            rescale(term1.unitary, omega, label="number-flow"),
            rescale(term2.unitary, 0.5 * kappa, label="quartic-flow"),
        ],
    )
    gen = omega * term1.generator + (0.5 * kappa) * term2.generator
    layout = term1.layout
    return ApplicationSpec(
        name="nonlinear-hamiltonian",
        layout=layout,
        exact_generator=gen,
        synthesis=pu,
        initial_state=basis_state(layout, 0, 2),
        time=t,
    )
