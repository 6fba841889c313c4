"""Truncated-oscillator and qubit operator constructors.

A mode with cutoff L lives on the span of |0>..|L> (dimension L+1). The
annihilation matrix keeps the entries a[n, n+1] = sqrt(n+1); everything else
is built from it, so truncation artifacts are confined to the top state and
show up only where a commutator or product reaches |L>. A generator on a
larger layout is a Kronecker sum: a list of terms, each a coefficient times
operators on distinct factors (such as sigma (x) x), the identity elsewhere.
`kron_sum_entries` lists its nonzero entries from the factors' nonzeros,
so no generator is ever formed as a full-size array.
"""
from __future__ import annotations

import math
from collections.abc import Mapping

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
    "KronSum",
    "kron_sum_entries",
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


# A Kronecker sum: sum_k coeff_k * (ops_k on their factors, the identity
# elsewhere), each ops_k mapping a factor position to a single-factor Operator.
KronSum = list[tuple[complex, Mapping[int, Operator]]]


def kron_sum_entries(terms: KronSum, layout: HilbertLayout) -> tuple[np.ndarray, ...]:
    """The nonzero entries (rows, cols, values) of the Kronecker sum terms on
    layout, row-major, listed from the factors' nonzeros. A term's entry is
    its coefficient times the left-to-right chain of one entry per factor
    (1 on a factor it leaves alone) that an np.kron chain forms. Entries at
    one position are summed in term order, and a sum of exactly 0 is
    dropped, as a dense sum's zeros are.
    """
    dim = layout.dim
    keys, values = [], []
    for coeff, ops in terms:
        rows = cols = np.zeros(1, dtype=np.intp)
        vals = np.ones(1, dtype=np.complex128)
        for mat in _factor_mats(ops, layout):
            r, c = np.nonzero(mat)
            rows = (rows[:, None] * len(mat) + r).ravel()
            cols = (cols[:, None] * len(mat) + c).ravel()
            vals = (vals[:, None] * mat[r, c]).ravel()
        keys.append(rows * dim + cols)
        values.append(complex(coeff) * vals)
    found, slot = np.unique(np.concatenate(keys), return_inverse=True)
    total = np.zeros(len(found), dtype=np.complex128)
    np.add.at(total, slot, np.concatenate(values))  # in order: a fold per position
    nonzero = total != 0
    rows, cols = np.divmod(found[nonzero], dim)
    return rows, cols, total[nonzero]


def _factor_mats(ops: Mapping[int, Operator], layout: HilbertLayout) -> list[np.ndarray]:
    """The matrix on each factor of layout: ops' where given, and the
    identity elsewhere. Each op acts on exactly the factor at its position,
    kind and dimension alike; any other raises LayoutMismatchError."""
    for at, op in ops.items():
        if at not in range(layout.nfactors):
            raise LayoutMismatchError(f"factor {at} is not in a layout of {layout.nfactors}")
        if op.layout.factors != (layout.factors[at],):
            raise LayoutMismatchError(
                f"an operator on {op.layout.factors} does not fit factor {layout.factors[at]}"
            )
    return [ops[pos].mat if pos in ops else np.eye(d) for pos, (_, d) in enumerate(layout.factors)]


def mode_identity(cutoff: int) -> Operator:
    return identity(HilbertLayout.single_mode(cutoff))
