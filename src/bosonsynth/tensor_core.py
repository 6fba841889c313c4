"""Dense tensor-product operator core.

Everything the synthesis layers exchange is an Operator: a dense complex
matrix tagged with the ordered factorization of the Hilbert space it acts on.
Factors are mixed-radix with the leftmost factor most significant, so on a
[qubit, mode] layout the basis index of |q> (x) |n> is q * (mode dim) + n,
and numpy.kron reproduces the layout ordering directly.

`expm` exponentiates anti-Hermitian generators only, through one Hermitian
eigendecomposition, so every gate it returns is unitary to rounding; numpy
is the only numeric dependency.

Generators that conserve a quantum number are exactly block-diagonal up to
a permutation of the basis, and so are their exponentials and the products
of those. `_sectors` finds those blocks (the connected components of a
nonzero pattern); primitives eigendecompose, and `spectral_norm` measures,
one block at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LayoutMismatchError",
    "ResourceExhaustedError",
    "Tolerances",
    "TOL",
    "HilbertLayout",
    "Operator",
    "identity",
    "basis_state",
    "kron",
    "expm",
    "spectral_norm",
    "is_unitary",
    "is_hermitian",
    "commutator",
]


class LayoutMismatchError(ValueError):
    """Two operators with different layouts were combined."""


class ResourceExhaustedError(RuntimeError):
    """A computation would exceed a configured resource cap."""


@dataclass(frozen=True)
class Tolerances:
    """Central numeric tolerances. Tests reference these instead of literals."""

    unitarity: float = 1e-10
    hermiticity: float = 1e-12
    noise_floor: float = 1e-12
    dim_cap: int = 2048
    sequence_cap: int = 5_000_000


TOL = Tolerances()


@dataclass(frozen=True)
class HilbertLayout:
    """Ordered tensor factors, each a (kind, dimension) pair.

    The leftmost factor is the most significant digit of the mixed-radix
    basis index.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("layout needs at least one factor")
        for kind, d in self.factors:
            if d < 2:
                raise ValueError(f"factor {kind!r} has dimension {d} < 2")

    @property
    def dim(self) -> int:
        return math.prod(d for _, d in self.factors)

    @property
    def nfactors(self) -> int:
        return len(self.factors)

    def dim_of(self, at: int) -> int:
        return self.factors[at][1]

    def index(self, *digits: int) -> int:
        """Mixed-radix basis index of a product state, leftmost digit first."""
        if len(digits) != len(self.factors):
            raise ValueError("one digit per factor required")
        idx = 0
        for digit, (kind, d) in zip(digits, self.factors):
            if not 0 <= digit < d:
                raise ValueError(f"digit {digit} out of range for {kind} of dim {d}")
            idx = idx * d + digit
        return idx

    @staticmethod
    def single_qubit() -> "HilbertLayout":
        return HilbertLayout((("qubit", 2),))

    @staticmethod
    def single_mode(cutoff: int) -> "HilbertLayout":
        return HilbertLayout((("mode", cutoff + 1),))

    @staticmethod
    def qubit_modes(cutoff: int, nmodes: int = 1) -> "HilbertLayout":
        return HilbertLayout((("qubit", 2),) + (("mode", cutoff + 1),) * nmodes)


class Operator:
    """Dense complex matrix tagged with its HilbertLayout."""

    __slots__ = ("layout", "mat")

    def __init__(self, layout: HilbertLayout, mat):
        mat = np.asarray(mat, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got {mat.shape}")
        if mat.shape[0] != layout.dim:
            raise LayoutMismatchError(
                f"matrix dim {mat.shape[0]} != layout dim {layout.dim}"
            )
        if not np.all(np.isfinite(mat)):
            raise ValueError("operator entries must be finite")
        self.layout = layout
        self.mat = mat

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.layout, self.mat.conj().T)

    def _check_layout(self, other: "Operator"):
        if self.layout != other.layout:
            raise LayoutMismatchError(
                f"layouts differ: {self.layout.factors} vs {other.layout.factors}"
            )

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_layout(other)
        return Operator(self.layout, self.mat @ other.mat)

    def __add__(self, other: "Operator") -> "Operator":
        self._check_layout(other)
        return Operator(self.layout, self.mat + other.mat)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_layout(other)
        return Operator(self.layout, self.mat - other.mat)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.layout, self.mat * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(self.layout, -self.mat)

    def __repr__(self):
        kinds = ",".join(f"{k}:{d}" for k, d in self.layout.factors)
        return f"Operator([{kinds}], dim={self.dim})"


def identity(layout: HilbertLayout) -> Operator:
    return Operator(layout, np.eye(layout.dim))


def basis_state(layout: HilbertLayout, *digits: int) -> np.ndarray:
    """Column vector of the product basis state with the given digits."""
    vec = np.zeros(layout.dim, dtype=np.complex128)
    vec[layout.index(*digits)] = 1.0
    return vec


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product; the layout is the concatenation of the factor lists."""
    layout = HilbertLayout(a.layout.factors + b.layout.factors)
    return Operator(layout, np.kron(a.mat, b.mat))


def _hermitian_defect(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat - mat.conj().T)))


def _sectors(pattern: np.ndarray) -> list[np.ndarray]:
    """The connected components of a square boolean pattern, read as an
    undirected graph with an edge wherever pattern[i, j] or pattern[j, i].

    Each component is a sorted index array, and the list is ordered by
    smallest index. No True entry links two components, so a matrix with
    this pattern is exactly block-diagonal on them.
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


def is_hermitian(op: Operator | np.ndarray, tol: float | None = None) -> bool:
    tol = TOL.hermiticity if tol is None else tol
    mat = op.mat if isinstance(op, Operator) else np.asarray(op)
    scale = max(1.0, float(np.max(np.abs(mat))))
    return _hermitian_defect(mat) <= tol * scale


def is_unitary(op: Operator, tol: float | None = None) -> bool:
    tol = TOL.unitarity if tol is None else tol
    gram = op.mat.conj().T @ op.mat
    return float(np.max(np.abs(gram - np.eye(op.dim)))) <= tol


def expm(op: Operator) -> Operator:
    """exp(A) for anti-Hermitian A = iH, through one eigendecomposition of H,
    so the result is unitary to rounding. Any other input raises ValueError:
    every exponential the package takes is of this form."""
    if op.dim > TOL.dim_cap:
        raise ResourceExhaustedError(f"expm of dimension {op.dim} exceeds cap {TOL.dim_cap}")
    mat = op.mat
    scale = max(1.0, float(np.max(np.abs(mat))))
    if _hermitian_defect(1j * mat) > 1e-13 * scale:
        raise ValueError("expm needs an anti-Hermitian generator")
    evals, evecs = np.linalg.eigh(-1j * mat)
    return Operator(op.layout, (evecs * np.exp(1j * evals)) @ evecs.conj().T)


def spectral_norm(op: Operator | np.ndarray) -> float:
    """Largest singular value of a square matrix, so a reported error is
    never an underestimate.

    The matrix is exactly block-diagonal on the sectors of its nonzero
    pattern, so its norm is the largest of a dense SVD on each block. A
    connected pattern takes one SVD of the whole matrix.
    """
    mat = op.mat if isinstance(op, Operator) else np.asarray(op)
    sectors = _sectors(mat != 0)
    if len(sectors) == 1:
        return float(np.linalg.svd(mat, compute_uv=False)[0])
    return max(
        float(np.linalg.svd(mat[np.ix_(s, s)], compute_uv=False)[0]) for s in sectors
    )


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a
