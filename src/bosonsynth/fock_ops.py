"""Truncated-oscillator and qubit operator constructors.

A mode with cutoff L lives on the span of |0>..|L> (dimension L+1). The
annihilation matrix keeps the entries a[n, n+1] = sqrt(n+1); everything else
is built from it, so truncation artifacts are confined to the top state and
show up only where a commutator or product reaches |L>. `embed` places
operators on the factors of a larger layout: a product of operators on
distinct factors, such as sigma (x) x, is one Kronecker chain, and
`embed_sum` adds such chains, holding one full-size array.
"""
from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from .tensor_core import HilbertLayout, LayoutMismatchError, Operator, identity

__all__ = [
    "annihilation",
    "creation",
    "number",
    "position",
    "momentum",
    "pauli",
    "qubit_gate",
    "embed",
    "embed_sum",
    "interior_projector",
    "mode_identity",
]


def annihilation(cutoff: int) -> Operator:
    layout = HilbertLayout.single_mode(cutoff)
    mat = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    for n in range(cutoff):
        mat[n, n + 1] = math.sqrt(n + 1)
    return Operator(layout, mat)


def creation(cutoff: int) -> Operator:
    return annihilation(cutoff).dag()


def number(cutoff: int) -> Operator:
    layout = HilbertLayout.single_mode(cutoff)
    return Operator(layout, np.diag(np.arange(cutoff + 1, dtype=np.complex128)))


def position(cutoff: int) -> Operator:
    """x = (a + a^dag)/2, so [x, p] = i/2 away from the top state."""
    a = annihilation(cutoff)
    return 0.5 * (a + a.dag())


def momentum(cutoff: int) -> Operator:
    a = annihilation(cutoff)
    return -0.5j * (a - a.dag())


_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def pauli(name: str) -> Operator:
    try:
        mat = _PAULI[name.upper()]
    except KeyError:
        raise ValueError(f"unknown Pauli {name!r}") from None
    return Operator(HilbertLayout.single_qubit(), mat)


def qubit_gate(name: str) -> Operator:
    """Fixed single-qubit Clifford-frame gates used to steer block targets."""
    layout = HilbertLayout.single_qubit()
    if name == "X":
        return Operator(layout, _PAULI["X"])
    if name == "H":
        return Operator(layout, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    if name == "S":
        return Operator(layout, np.diag([1.0, 1.0j]))
    raise ValueError(f"unknown gate {name!r}")


def embed(ops: Mapping[int, Operator], layout: HilbertLayout) -> Operator:
    """Place single-factor operators on a layout, the identity elsewhere.

    `ops` maps a factor position to the operator acting there, and its
    matrix must match that factor's dimension. The result is one np.kron
    chain over the layout's factors, so a product of operators on distinct
    factors costs no dense matrix product, and each of its entries is a
    product of one entry per factor.
    """
    return Operator(layout, _kron_chain(_factor_mats(ops, layout)))


def embed_sum(
    terms: Sequence[Mapping[int, Operator]], layout: HilbertLayout, scale: float
) -> Operator:
    """scale * (embed(terms[0], layout) + embed(terms[1], layout) + ...),
    holding one full-size array.

    Each term's Kronecker chain is formed one block at a time: entry (i, j)
    of the chain over its leading factors times its last factor, which is
    how np.kron forms those entries. A block is written straight into the
    result, or added to it for a later term, so no temporary is larger
    than a block (a broadcast np.kron of a row block would also allocate
    ufunc buffers). The terms are summed in order and the scale is one
    complex multiply in place, so the result equals the sum and product of
    whole embeddings to the bit.
    """
    out = np.empty((layout.dim,) * 2, dtype=np.complex128)
    for n, ops in enumerate(terms):
        mats = _factor_mats(ops, layout)
        lead, last = _kron_chain(mats[:-1]), mats[-1]
        d = len(last)
        for (i, j), x in np.ndenumerate(lead):
            block = out[i * d : (i + 1) * d, j * d : (j + 1) * d]
            if n:
                block += x * last
            else:
                np.multiply(x, last, out=block)
    out *= complex(scale)
    return Operator(layout, out)


def _factor_mats(ops: Mapping[int, Operator], layout: HilbertLayout) -> list[np.ndarray]:
    """The matrix on each factor of layout: ops' where given, checked
    against the factor (LayoutMismatchError), and the identity elsewhere."""
    for at, op in ops.items():
        if op.layout.nfactors != 1:
            raise LayoutMismatchError("embed expects single-factor operators")
        if at not in range(layout.nfactors):
            raise LayoutMismatchError(f"factor {at} is not in a layout of {layout.nfactors}")
        if layout.dim_of(at) != op.dim:
            raise LayoutMismatchError(
                f"factor {at} has dim {layout.dim_of(at)}, operator has dim {op.dim}"
            )
    return [ops[pos].mat if pos in ops else np.eye(d) for pos, (_, d) in enumerate(layout.factors)]


def _kron_chain(mats: Sequence[np.ndarray]) -> np.ndarray:
    """((1 (x) mats[0]) (x) mats[1]) (x) ..., left to right."""
    mat = np.eye(1, dtype=np.complex128)
    for m in mats:
        mat = np.kron(mat, m)
    return mat


def interior_projector(cutoff: int, weight: int) -> Operator:
    """Projector onto photon numbers <= cutoff - weight.

    States that a degree-`weight` ladder monomial cannot push past the cutoff.
    """
    diag = np.zeros(cutoff + 1, dtype=np.complex128)
    diag[: max(cutoff + 1 - weight, 0)] = 1.0
    return Operator(HilbertLayout.single_mode(cutoff), np.diag(diag))


def mode_identity(cutoff: int) -> Operator:
    return identity(HilbertLayout.single_mode(cutoff))
