"""Block-encoded operator arithmetic on a qubit-mode register.

An off-diagonal encoding of a mode operator A is a unitary close to
exp(it [[0, A], [A^dag, 0]]) in the qubit block basis; the upper-right block
divided by it recovers A as t -> 0. Sums and products of encoded operators
are assembled from commutator blocks and splitting formulas, with Clifford
frames steering which block combination survives.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .fock_ops import (
    annihilation,
    creation,
    interior_projector,
    mode_identity,
    number,
    pauli,
    qubit_gate,
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
    primitive_unitary,
    symmetrize,
    trotter,
)
from .tensor_core import HilbertLayout, LayoutMismatchError, Operator, kron, spectral_norm

__all__ = [
    "BlockEncoding",
    "SynthesisBudget",
    "block_generator",
    "s1",
    "identity_encoding",
    "s1_from_conditional_displacements",
    "conjugate",
    "add",
    "mult",
    "power",
    "arb_power",
]


def block_generator(target: Operator) -> Operator:
    """Hermitian [[0, A], [A^dag, 0]] on qubit (x) mode from a mode target A."""
    d = target.dim
    layout = HilbertLayout((("qubit", 2),) + target.layout.factors)
    mat = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    mat[:d, d:] = target.mat
    mat[d:, :d] = target.mat.conj().T
    return Operator(layout, mat)


@dataclass(frozen=True)
class SynthesisBudget:
    """Commutator order q and Suzuki index s charged to one ADD/MULT level."""

    bch_order: int
    trotter_index: int

    @staticmethod
    def from_orders(p_left: int, p_right: int) -> "SynthesisBudget":
        q = max(math.ceil((min(p_left, p_right) - 1) / 2), 1)
        return SynthesisBudget(q, q)


@dataclass
class BlockEncoding:
    """A ParamUnitary together with the operator it encodes.

    kind "off_diagonal": unitary ~ exp(it [[0, A], [A^dag, 0]]), block target
    A in the upper-right block. kind "upper_left": unitary ~ exp(it G) with
    block-diagonal Hermitian G whose upper-left block is the target. The full
    generator is carried so every consumer can build the exact reference
    unitary without re-deriving signs; it is eigendecomposed once, on the
    first call to exact.
    """

    unitary: ParamUnitary
    block_target: Operator
    generator: Operator
    kind: str = "off_diagonal"

    @cached_property
    def reference(self) -> Primitive:
        return Primitive(f"exact[{self.unitary.label}]", self.layout, self.generator)

    def exact(self, t: float) -> Operator:
        return Operator(self.layout, self.reference.unitary(t))

    def block(self, t: float) -> np.ndarray:
        """The qubit block that carries the target at first order in t."""
        d = self.block_target.dim
        mat = self.unitary.eval(t).mat
        if self.kind == "off_diagonal":
            return mat[:d, d:]
        return mat[:d, :d]

    @property
    def layout(self) -> HilbertLayout:
        return self.unitary.layout


def s1(cutoff: int) -> BlockEncoding:
    """The seed encoding of the creation operator: one native exponential."""
    target = creation(cutoff)
    gen = block_generator(target)
    pu = primitive_unitary(Primitive("S1", gen.layout, gen))
    return BlockEncoding(pu, target, gen)


def identity_encoding(cutoff: int) -> BlockEncoding:
    """Encodes the mode identity: exp(it X (x) I), a qubit rotation."""
    ident = mode_identity(cutoff)
    gen = block_generator(ident)
    pu = primitive_unitary(Primitive("RX", gen.layout, pauli("X"), (0,)))
    return BlockEncoding(pu, ident, gen)


def s1_from_conditional_displacements(cutoff: int) -> ParamUnitary:
    """Seed block from hardware-native pieces: two conditional displacements
    interleaved with fixed quarter-period mode rotations.

    The product evaluated at alpha approximates the seed at effective time
    t_eff = 2 alpha, with O(alpha^2) error.
    """
    layout = HilbertLayout.qubit_modes(cutoff)
    quad = annihilation(cutoff) + creation(cutoff)
    cd_x = primitive_unitary(Primitive("CD_x", layout, kron(pauli("X"), quad), (0, 1)))
    cd_y = primitive_unitary(Primitive("CD_y", layout, kron(pauli("Y"), quad), (0, 1)))
    rot = primitive_unitary(Primitive("Rmode", layout, number(cutoff), (1,)))

    quarter = math.pi / 2
    factors = [
        Factor(rot, quarter, power=0),
        Factor(cd_y),
        Factor(rot, -quarter, power=0),
        Factor(cd_x),
    ]
    return compose("S1~CD", factors)


_CONJ_RULES = {
    "X": lambda a: a.dag(),
    "S": lambda a: -1j * a,
    "Sdg": lambda a: 1j * a,
}


def conjugate(enc: BlockEncoding, gate: str) -> BlockEncoding:
    """Free one-block transformations by qubit Clifford frames.

    X swaps the blocks (target -> target^dag); S and Sdg rotate the encoded
    phase by -i and +i.
    """
    if enc.kind != "off_diagonal":
        raise ValueError("frame conjugation applies to off-diagonal encodings")
    if gate not in _CONJ_RULES:
        raise ValueError(f"unsupported frame {gate!r}")
    pu = frame_conjugate(enc.unitary, FrameGate(gate, enc.layout, {0: qubit_gate(gate)}))
    target = _CONJ_RULES[gate](enc.block_target)
    return BlockEncoding(pu, target, block_generator(target))


def _commutation_check(a: Operator, b: Operator):
    comm = a @ b - b @ a
    proj = interior_projector(a.layout.factors[0][1] - 1, 1)
    core = proj @ comm @ proj
    scale = spectral_norm(a) * spectral_norm(b)
    if scale > 0 and spectral_norm(core) > 1e-8 * scale:
        warnings.warn(
            "operands do not commute on the interior span; the assembled sum "
            "carries an extra cross term",
            RuntimeWarning,
            stacklevel=3,
        )


def add(
    left: BlockEncoding,
    right: BlockEncoding,
    p_left: int,
    p_right: int,
    budget: SynthesisBudget | None = None,
    base: str | None = None,
    symmetrized: bool = False,
) -> BlockEncoding:
    """Encode the product A B of two encoded operators as a fresh
    off-diagonal block, assuming [A, B] = 0 on the interior span.

    Two frame-steered commutator blocks produce the anti-Hermitian and
    Hermitian halves of A B; a Suzuki splitting recombines them. budget,
    base and symmetrized override the defaults for cost/accuracy studies.
    """
    if left.layout != right.layout:
        raise LayoutMismatchError("operand layouts differ")
    if left.kind != "off_diagonal" or right.kind != "off_diagonal":
        raise ValueError("add expects off-diagonal encodings")
    _commutation_check(left.block_target, right.block_target)
    if budget is None:
        budget = SynthesisBudget.from_orders(p_left, p_right)
    q, s = budget.bch_order, budget.trotter_index
    layout = left.layout

    frame_x, frame_s, frame_h = (FrameGate(g, layout, {0: qubit_gate(g)}) for g in "XSH")
    frame_sh = FrameGate("SH", layout, {0: qubit_gate("S") @ qubit_gate("H")})

    b_right_x = frame_conjugate(right.unitary, frame_x)
    b_left_s = frame_conjugate(left.unitary, frame_s)

    block_l = bch(q, 1, b_right_x, left.unitary, base=base)
    block_r = bch(q, 1, b_left_s, b_right_x, base=base)
    if symmetrized:
        block_l = symmetrize(block_l)
        block_r = symmetrize(block_r)
    term_l = as_linear_term(frame_conjugate(block_l, frame_sh))
    term_r = as_linear_term(frame_conjugate(block_r, frame_h))

    split = trotter(2 * s, [term_l, term_r])
    inner = frame_conjugate(
        compose(f"add[{left.unitary.label},{right.unitary.label}]", [Factor(split, 0.5)]),
        frame_x,
    )

    target = left.block_target @ right.block_target
    gen = block_generator(target)
    return BlockEncoding(inner, target, gen)


def mult(
    left: BlockEncoding,
    right: BlockEncoding,
    p_left: int,
    p_right: int,
    budget: SynthesisBudget | None = None,
    base: str | None = None,
) -> BlockEncoding:
    """Encode a Hermitian product A B in the upper-left block.

    A single commutator block of the frame-steered operands lands
    exp(it [[A B, 0], [0, -(B A + (B A)^dag)/2]]) when A B is Hermitian.
    """
    if left.layout != right.layout:
        raise LayoutMismatchError("operand layouts differ")
    if left.kind != "off_diagonal" or right.kind != "off_diagonal":
        raise ValueError("mult expects off-diagonal encodings")
    a_t, b_t = left.block_target, right.block_target
    ab = a_t @ b_t
    herm_defect = spectral_norm(ab - ab.dag())
    scale = max(spectral_norm(ab), 1e-300)
    if herm_defect > 1e-8 * scale:
        warnings.warn(
            "encoded product is not Hermitian; the upper-left block will "
            "carry only its Hermitian part",
            RuntimeWarning,
            stacklevel=2,
        )
    if budget is None:
        budget = SynthesisBudget.from_orders(p_left, p_right)
    layout = left.layout
    frame_x, frame_s = (FrameGate(g, layout, {0: qubit_gate(g)}) for g in "XS")

    b_left_s = frame_conjugate(left.unitary, frame_s)
    b_right_x = frame_conjugate(right.unitary, frame_x)
    block = bch(budget.bch_order, 1, b_left_s, b_right_x, base=base)
    inner_lin = as_linear_term(block)
    inner = compose(
        f"mult[{left.unitary.label},{right.unitary.label}]",
        [Factor(inner_lin, 0.5)],
    )

    ba = b_t @ a_t
    d = ab.dim
    gen_mat = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    gen_mat[:d, :d] = 0.5 * (ab.mat + ab.mat.conj().T)
    gen_mat[d:, d:] = -0.5 * (ba.mat + ba.mat.conj().T)
    gen = Operator(HilbertLayout((("qubit", 2),) + ab.layout.factors), gen_mat)
    return BlockEncoding(inner, ab, gen, kind="upper_left")


def power(
    k: int,
    p: int,
    cutoff: int,
    budget: SynthesisBudget | None = None,
    base: str | None = None,
    symmetrized: bool = False,
) -> BlockEncoding:
    """Encoding of (a^dag)^k for k a power of two, by halving and adding.

    Each halving level doubles the order charged to its operands, so the
    leaf accuracy supports the full tree. budget/base/symmetrized override
    the per-level defaults uniformly, for cost/accuracy studies.
    """
    if k < 1 or (k & (k - 1)) != 0:
        raise ValueError("k must be a positive power of two")
    if p < 1:
        raise ValueError("order p must be >= 1")
    if k == 1:
        return s1(cutoff)
    half = power(k // 2, 2 * p, cutoff, budget, base, symmetrized)
    return add(half, half, 2 * p, 2 * p, budget, base, symmetrized)


def arb_power(k: int, p: int, cutoff: int) -> BlockEncoding:
    """Encoding of (a^dag)^k for arbitrary k >= 1 from its binary digits.

    Single-bit k needs no adder and collapses to the power-of-two route.
    Otherwise the digit range splits in half, the halves recurse at doubled
    order, and one ADD joins them; zero digits contribute the identity
    encoding.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if p < 1:
        raise ValueError("order p must be >= 1")
    bits = [int(c) for c in bin(k)[2:]][::-1]

    def leaf(idx: int, order: int) -> BlockEncoding:
        if bits[idx]:
            return power(2**idx, order, cutoff)
        return identity_encoding(cutoff)

    def build(lo: int, hi: int, order: int) -> BlockEncoding:
        if lo == hi:
            return leaf(lo, order)
        mid = lo + (hi - lo) // 2
        lower = build(lo, mid, 2 * order)
        upper = build(mid + 1, hi, 2 * order)
        return add(lower, upper, 2 * order, 2 * order)

    if sum(bits) == 1:
        return power(k, p, cutoff)
    return build(0, len(bits) - 1, p)
