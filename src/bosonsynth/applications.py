"""Worked gate syntheses over the block-encoding stack: the applications
the experiment runner registers.

Each builder returns an ApplicationSpec pairing a synthesized parametrized
unitary with the Hermitian generator of its exact reference, so the runner
measures convergence against the exponential of the same generator the
construction actually targets.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Optional

import numpy as np

from .tensor_core import HilbertLayout, Operator, basis_state
from .fock_ops import (
    KronSum,
    annihilation,
    creation,
    mode_identity,
    momentum,
    number,
    pauli,
    position,
)
from .product_formulas import (
    Factor,
    ParamUnitary,
    Primitive,
    as_linear_term,
    bch,
    compose,
    primitive_unitary,
    rescale,
    suzuki_index,
    symmetrize,
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
    "conditional_rotation_phase_space",
    "state_prep_exact_time",
    "state_prep_T",
    "arb_power_count_bound",
    "conditional_beam_splitter",
    "cross_kerr_gate",
    "nonlinear_hamiltonian",
]


@dataclass(frozen=True, eq=False)
class ApplicationSpec:
    """A synthesized unitary family with its exact reference.

    exact(t) = exp(i t G) from the eigendecompositions of the sectors of G,
    made when the spec is built, so exact(t) is zero between sectors. The
    builders give G (exact_generator) as a Kronecker sum on the whole
    layout, read entry by entry, and the spec keeps that reference, never a
    full-size G; the runner measures synthesis against it. time is the flip
    time of a preparation, None for the others.
    """

    name: str
    layout: HilbertLayout
    exact_generator: InitVar[KronSum]
    synthesis: ParamUnitary
    initial_state: Optional[np.ndarray] = None
    time: Optional[float] = None
    reference: Primitive = field(init=False, repr=False)

    def __post_init__(self, exact_generator: KronSum):
        # Primitive rejects a sum that does not fit the layout or a non-Hermitian one.
        object.__setattr__(self, "reference", Primitive(self.name, self.layout, exact_generator))

    def exact(self, t: float) -> Operator:
        return Operator(self.layout, self.reference.unitary(float(t)))


# The commutator of sigma^y with sigma^x lands +i sigma^z after the
# group-commutator sign flip.
_AXIS_PAIR = ("y", "x")


def _conditional_square(mode_op: Operator, tag: str, layout: HilbertLayout,
                        at: int, p: int, base: str | None) -> ParamUnitary:
    """BCH block for exp(i t M^2 sigma^z) from conditional M pulses."""
    scale = 1.0 / math.sqrt(2.0)
    u_a, u_b = (
        primitive_unitary(
            Primitive(f"{tag}*s{s}", layout, [(scale, {0: pauli(s), at: mode_op})])
        )
        for s in _AXIS_PAIR
    )
    return bch(p, u_a, u_b, base=base)


def conditional_rotation_phase_space(
    p: int = 1,
    cutoff: int = 14,
    base: str | None = None,
) -> ApplicationSpec:
    """Qubit-conditioned mode rotation from quadrature pulses.

    Squares of x and p come from commutator blocks, the leftover scalar
    phase is one native rotation; a Suzuki splitting joins the three terms.
    The reference generator is the truncated quadrature sum, which agrees
    with the number operator below the cutoff edge.
    """
    layout = HilbertLayout.qubit_modes(cutoff)
    x_op, p_op = position(cutoff), momentum(cutoff)

    u_x2 = _conditional_square(x_op, "x", layout, 1, p, base)
    u_p2 = _conditional_square(p_op, "p", layout, 1, p, base)
    half_phase = primitive_unitary(Primitive("half-phase", layout, [(-0.5, {0: pauli("z")})]))
    pu = trotter(
        2 * suzuki_index(p), [as_linear_term(u_x2), as_linear_term(u_p2), half_phase]
    )

    quad = x_op @ x_op + p_op @ p_op - 0.5 * mode_identity(cutoff)
    return ApplicationSpec(
        name="conditional-rotation",
        layout=layout,
        exact_generator=[(1.0, {0: pauli("z"), 1: quad})],
        synthesis=pu,
        initial_state=basis_state(layout, 0, 2),
    )


def state_prep_exact_time(k: int) -> float:
    """First flip time of the k-photon preparation pulse, pi/(2 sqrt(k!))."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.pi / (2.0 * math.sqrt(math.factorial(k)))


def _ladder_power(cutoff: int, k: int) -> Operator:
    out = mode_identity(cutoff)
    cr = creation(cutoff)
    for _ in range(k):
        out = cr @ out
    return out


def _ladder_encoding(
    k: int, p: int, cutoff: int, base: str | None, symmetrized: bool
) -> BlockEncoding:
    """The encoding of (a^dag)^k that the preparation pulses, as does the
    echoed one in tests/demos.py: halving and adding for a power of two,
    binary digits (which take no order overrides) otherwise."""
    if k < 1 or k > cutoff:
        raise ValueError("need 1 <= k <= cutoff")
    if k & (k - 1) == 0:
        return power(k, p, cutoff, base=base, symmetrized=symmetrized)
    if base is not None or symmetrized:
        raise ValueError("order overrides apply to power-of-two k only")
    return arb_power(k, p, cutoff)


def state_prep_T(
    k: int,
    p: int = 2,
    cutoff: int = 8,
    base: str | None = None,
    symmetrized: bool = False,
) -> ApplicationSpec:
    """Block rotation that pumps |1, 0> toward |0, k>, timed to the flip."""
    enc = _ladder_encoding(k, p, cutoff, base, symmetrized)
    layout = enc.layout
    return ApplicationSpec(
        name=f"state-prep-T{k}",
        layout=layout,
        exact_generator=block_generator(_ladder_power(cutoff, k)),
        synthesis=enc.unitary,
        initial_state=basis_state(layout, 1, 0),
        time=state_prep_exact_time(k),
    )


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


def conditional_beam_splitter(
    p: int = 1,
    cutoff: int = 14,
    base: str | None = None,
    symmetrized: bool = False,
) -> ApplicationSpec:
    """Qubit-conditioned two-mode hopping from quadrature pulses.

    The xx and pp commutator blocks each land one half of the hopping term;
    their product is the step at accumulated angle t. The truncation-edge
    terms of xx and pp cancel in the sum, so the reference is the plain
    hopping generator. p = 1 is the eight-pulse step (sixteen when
    symmetrized); higher p joins the blocks with a Suzuki splitting. base
    None is the lean block.
    """
    layout = HilbertLayout.qubit_modes(cutoff, nmodes=2)
    sx, sy = pauli("x"), pauli("y")

    def pair_block(m: Operator, tag: str) -> ParamUnitary:
        u_a = primitive_unitary(Primitive(f"{tag}1*sx", layout, [(1.0, {0: sx, 1: m})]))
        u_b = primitive_unitary(Primitive(f"{tag}2*sy", layout, [(1.0, {0: sy, 2: m})]))
        return bch(p, u_a, u_b, base=base or "lean")

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
    return ApplicationSpec(
        name="hom-beam-splitter",
        layout=layout,
        exact_generator=[(-1.0, {0: sz, 1: a.dag(), 2: a}), (-1.0, {0: sz, 1: a, 2: a.dag()})],
        synthesis=pu,
        initial_state=basis_state(layout, 0, 1, 1),
    )


def cross_kerr_gate(
    p: int = 1,
    cutoff: int = 5,
    base: str | None = None,
) -> ApplicationSpec:
    """Conditional cross-Kerr phase n1 n2 from one two-mode commutator
    block. Family parameter: squared amplitude. base None is the lean
    block."""
    layout = HilbertLayout.qubit_modes(cutoff, nmodes=2)
    n_op = number(cutoff)
    scale = 1.0 / math.sqrt(2.0)
    u_a, u_b = (
        primitive_unitary(Primitive(f"n{m}*s{s}", layout, [(scale, {0: pauli(s), m: n_op})]))
        for m, s in zip((1, 2), _AXIS_PAIR)
    )
    block = bch(p, u_a, u_b, base=base or "lean")
    pu = as_linear_term(block, label="cross-kerr")
    return ApplicationSpec(
        name="cross-kerr",
        layout=layout,
        exact_generator=[(1.0, {0: pauli("z"), 1: n_op, 2: n_op})],
        synthesis=pu,
        initial_state=basis_state(layout, 0, 1, 1),
    )


def _mult_by_conjugate(enc: BlockEncoding, q: int, base: str) -> tuple[ParamUnitary, KronSum]:
    """MULT of enc with its block swap: its gate and the generator it
    approximates. The encodings, and their d x d targets, are dropped on
    return."""
    return mult(enc, conjugate(enc), 2 * q, base=base)


def nonlinear_hamiltonian(
    omega: float,
    kappa: float,
    q: int = 1,
    cutoff: int = 15,
    base: str | None = None,
) -> ApplicationSpec:
    """Kerr oscillator evolution compiled from seed pulses only.

    The number term comes from MULT of the seed with its block swap, the
    quartic term from MULT of the squared-ladder encodings; a Suzuki
    splitting joins the two flows. The qubit must start in |0>: the lower
    sector carries the mirrored junk blocks, which the reference generator
    includes so the comparison stays a single expm. base None is the lean
    block at every level.
    """
    if omega < 0 or kappa < 0:
        raise ValueError("omega and kappa must be >= 0")
    if q < 1:
        raise ValueError("q must be >= 1")
    base = base or "lean"
    number_flow, number_gen = _mult_by_conjugate(s1(cutoff), q, base)
    quartic_flow, quartic_gen = _mult_by_conjugate(
        power(2, 2 * q, cutoff, budget=SynthesisBudget(2 * q, q), base=base), q, base
    )

    pu = trotter(
        2 * suzuki_index(q),
        [
            rescale(number_flow, omega, label="number-flow"),
            rescale(quartic_flow, 0.5 * kappa, label="quartic-flow"),
        ],
    )
    gen = [(omega * c, ops) for c, ops in number_gen]
    gen += [(0.5 * kappa * c, ops) for c, ops in quartic_gen]
    layout = pu.layout
    return ApplicationSpec(
        name="nonlinear-hamiltonian",
        layout=layout,
        exact_generator=gen,
        synthesis=pu,
        initial_state=basis_state(layout, 0, 2),
    )
