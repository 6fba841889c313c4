"""Property tests of the compiled-gate IR: random trees built from the public
combinators must agree between eval, expansion, the exponential ledger and
structural reversal; the batched eval must equal a plain recursive fold bit
for bit; and evaluation must hold no memory between calls. Primitives on
random subsets of a layout's factors must find their support and agree with
dense references."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonsynth.fock_ops import embed, number, pauli, position, qubit_gate
from bosonsynth.product_formulas import (
    Factor,
    Frame,
    FrameGate,
    Leaf,
    Primitive,
    Product,
    Repeat,
    as_linear_term,
    bch,
    compose,
    frame_conjugate,
    group_commutator,
    primitive_unitary,
    rescale,
    reverse_pu,
    sliced,
    symmetrize,
    trotter,
)
from bosonsynth.tensor_core import TOL, HilbertLayout, Operator, is_unitary, spectral_norm

pytestmark = pytest.mark.filterwarnings(
    "ignore:.*well-conditioned range.*:RuntimeWarning"
)


def _qubit_world():
    layout = HilbertLayout.single_qubit()
    prims = [Primitive(name, pauli(name)) for name in ("X", "Y", "Z")]
    frames = [FrameGate(name, layout, qubit_gate(name).mat) for name in ("H", "S")]
    return prims, frames


def _cutoff2_world():
    layout = HilbertLayout.qubit_modes(2)
    x_sx = embed(position(2), layout, 1) @ embed(pauli("X"), layout, 0)
    n_sy = embed(number(2), layout, 1) @ embed(pauli("Y"), layout, 0)
    prims = [Primitive("x*sx", x_sx), Primitive("n*sy", n_sy)]
    frames = [
        FrameGate(name, layout, embed(qubit_gate(name), layout, 0).mat) for name in ("H", "S")
    ]
    return prims, frames


WORLDS = [_qubit_world(), _cutoff2_world()]
COEFFS = st.sampled_from([1.0, -1.0, 0.5, -0.75, 1.3])
PARAMS = st.floats(-0.9, 0.9, allow_nan=False).filter(lambda t: abs(t) > 1e-3)


def _factors(children):
    return st.builds(Factor, children, COEFFS, st.integers(0, 3), st.booleans())


def _trees(world):
    prims, frames = world
    leaves = st.sampled_from([primitive_unitary(p) for p in prims])

    def extend(children):
        return st.one_of(
            st.builds(
                lambda fs, m: compose("c", fs, m),
                st.lists(_factors(children), min_size=1, max_size=3),
                st.integers(1, 3),
            ),
            st.builds(frame_conjugate, children, st.sampled_from(frames)),
            st.builds(rescale, children, COEFFS),
            st.builds(reverse_pu, children),
            st.builds(group_commutator, children, children),
            st.builds(lambda a, b: as_linear_term(group_commutator(a, b)), children, children),
            st.builds(
                lambda a, b, p: bch(p, 1, a, b, base="lean"), children, children, st.integers(1, 2)
            ),
            st.builds(
                lambda ts, o, r: trotter(o, ts, r),
                st.lists(children, min_size=1, max_size=2),
                st.sampled_from([2, 4]),
                st.integers(1, 2),
            ),
            st.builds(sliced, children, st.integers(1, 3)),
            st.builds(symmetrize, children),
        )

    return st.recursive(leaves, extend, max_leaves=5).filter(lambda pu: pu.cost() <= 2000)


TREES = st.sampled_from(WORLDS).flatmap(_trees)


@settings(max_examples=40, deadline=None)
@given(TREES, PARAMS)
def test_ledger_matches_expansion(pu, t):
    seq = pu.expand(t)
    assert pu.cost() == seq.total_cost
    assert seq.cost_by_label() == pu.cost_counter


@settings(max_examples=40, deadline=None)
@given(TREES, PARAMS)
def test_expansion_multiplies_to_eval(pu, t):
    assert spectral_norm(pu.expand(t).to_operator().mat - pu.eval(t).mat) < 1e-10


@settings(max_examples=40, deadline=None)
@given(TREES, PARAMS)
def test_reversal_is_structural(pu, t):
    rev = reverse_pu(pu)
    assert rev.expand(t) == pu.expand(t).reversed_order()
    assert rev.cost_counter == pu.cost_counter
    assert reverse_pu(rev) == pu


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(WORLDS).flatmap(lambda w: st.tuples(_trees(w), _trees(w))), PARAMS)
def test_linear_term_negative_is_adjoint(pair, s):
    lin = as_linear_term(group_commutator(*pair))
    assert spectral_norm(lin.eval(-s).mat - lin.eval(s).mat.conj().T) < 1e-12


def _fold(pu, t):
    """pu at t by plain recursion with no memo: every node is evaluated at its
    own parameter, and a product multiplies its factors left to right from
    the first, taking the conjugate transpose of adjoint factors."""
    match pu.node:
        case Leaf(prim):
            return prim.unitary(t)
        case Frame(gate, child):
            return gate.mat @ _fold(child, t) @ gate.mat.conj().T
        case Product(factors):
            mat = None
            for f in factors:
                s, adjoint = f.at(t)
                sub = _fold(f.pu, s)
                sub = sub.conj().T if adjoint else sub
                mat = sub if mat is None else mat @ sub
            return mat
        case Repeat(child, count):
            return np.linalg.matrix_power(_fold(child, t / count), count)


@settings(max_examples=40, deadline=None)
@given(TREES, PARAMS)
def test_eval_equals_recursive_fold_bitwise(pu, t):
    """Batching a node's parameters changes no bit of the result."""
    assert np.array_equal(pu.eval(t).mat, _fold(pu, t))


def _numpy_bytes() -> int:
    snap = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    )
    return sum(stat.size for stat in snap.statistics("filename"))


@settings(max_examples=10, deadline=None)
@given(TREES)
def test_eval_holds_no_memory(pu):
    """No matrix outlives the eval that computed it."""
    ts = np.linspace(0.05, 0.5, 50)
    pu.eval(ts[-1])  # one-time allocations happen outside the measurement
    tracemalloc.start()
    try:
        before = _numpy_bytes()
        for t in ts:
            pu.eval(t)
        held = _numpy_bytes() - before
    finally:
        tracemalloc.stop()
    assert held == 0


# -- factor-local primitives ---------------------------------------------------


def _embedded(dims, support, block):
    """The dense generator with block on the support factors and the identity
    on the rest, built entry by entry from the basis digits."""
    digits = np.array(np.unravel_index(np.arange(math.prod(dims)), dims))
    rest = [j for j in range(len(dims)) if j not in support]
    if support:
        sub = np.ravel_multi_index(tuple(digits[list(support)]), [dims[j] for j in support])
    else:
        sub = np.zeros(digits.shape[1], dtype=int)
    same_rest = np.all(digits[rest][:, :, None] == digits[rest][:, None, :], axis=0)
    return np.where(same_rest, block[np.ix_(sub, sub)], 0.0)


@st.composite
def _local_world(draw):
    """A layout of 2-3 small factors and 1-4 primitives, each a random
    Hermitian block on a random (possibly empty or full) set of factors."""
    dims = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    layout = HilbertLayout(tuple(("mode", d) for d in dims))
    prims = []
    for i in range(draw(st.integers(1, 4))):
        support = tuple(j for j in range(len(dims)) if draw(st.booleans()))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        d = math.prod(dims[j] for j in support)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gen = Operator(layout, _embedded(dims, support, 0.5 * (a + a.conj().T)))
        prims.append((Primitive(f"h{i}", gen), support))
    return layout, prims


LOCAL_PARAMS = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(_local_world(), LOCAL_PARAMS)
def test_support_detected_and_unitary_matches_dense(world, t):
    _, prims = world
    for prim, support in prims:
        assert prim.support == support
        evals, evecs = np.linalg.eigh(prim.generator.mat)
        dense = (evecs * np.exp(1j * t * evals)) @ evecs.conj().T
        assert np.max(np.abs(prim.unitary(t) - dense)) < 1e-12


@st.composite
def _local_products(draw):
    layout, prims = draw(_local_world())
    leaves = [primitive_unitary(prim) for prim, _ in prims]

    def factor(pu):
        return Factor(pu, draw(COEFFS), draw(st.integers(0, 2)), draw(st.booleans()))

    def product(label):
        picks = draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=5))
        return compose(label, [factor(pu) for pu in picks])

    inner = product("inner")
    outer = [factor(inner)] + [factor(draw(st.sampled_from(leaves))) for _ in range(2)]
    return compose("outer", draw(st.permutations(outer)))


@settings(max_examples=40, deadline=None)
@given(_local_products(), LOCAL_PARAMS)
def test_local_product_matches_expansion_and_is_unitary(pu, t):
    mat = pu.eval(t).mat
    assert spectral_norm(mat - pu.expand(t).to_operator().mat) < 1e-12
    assert is_unitary(Operator(pu.layout, mat), TOL.unitarity)
