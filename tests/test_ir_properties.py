"""Property tests of the compiled-gate IR: random trees built from the public
combinators must agree between eval, expansion, the exponential ledger and
structural reversal; the batched eval must equal a plain recursive fold bit
for bit; and evaluation must hold no memory between calls and keep a bounded
working set. The local-primitive kernel and the frame gathers are checked
against dense products. Primitives on random subsets of a layout's factors
keep their declared support and agree with dense references."""
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonsynth import bench, product_formulas
from bosonsynth.applications import conditional_beam_splitter, nonlinear_hamiltonian
from bosonsynth.fock_ops import number, pauli, position, qubit_gate, vacuum_parity_flip
from bosonsynth.product_formulas import (
    Factor,
    FrameGate,
    Leaf,
    ParamUnitary,
    Primitive,
    Product,
    Repeat,
    _apply_groups,
    _classes,
    _measured_together,
    _place,
    _plan,
    _rows,
    _sectors_of,
    _topological,
    _tree_sectors,
    as_linear_term,
    bch,
    compose,
    frame_conjugate,
    group_commutator,
    measure,
    primitive_unitary,
    rescale,
    reverse_pu,
    sliced,
    symmetrize,
    trotter,
)
from bosonsynth.tensor_core import (
    TOL,
    HilbertLayout,
    Operator,
    _sectors,
    is_unitary,
    kron,
    spectral_norm,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore:.*well-conditioned range.*:RuntimeWarning"
)


def _qubit_world():
    layout = HilbertLayout.single_qubit()
    prims = [Primitive(name, layout, pauli(name)) for name in ("X", "Y", "Z")]
    frames = [FrameGate(name, layout, {0: qubit_gate(name)}) for name in ("H", "S")]
    return prims, frames


def _cutoff2_world():
    layout = HilbertLayout.qubit_modes(2)
    prims = [
        Primitive("x*sx", layout, kron(pauli("X"), position(2))),
        Primitive("n*sy", layout, kron(pauli("Y"), number(2))),
    ]
    frames = [FrameGate(name, layout, {0: qubit_gate(name)}) for name in ("H", "S")]
    return prims, frames


def _split_world():
    """Primitives on the qubit alone, on the mode alone and on both: a leaf
    on one factor multiplies into a product through its support."""
    layout = HilbertLayout.qubit_modes(2)
    prims = [
        Primitive("x", layout, pauli("X"), (0,)),
        Primitive("n", layout, number(2), (1,)),
        Primitive("x*sx", layout, kron(pauli("X"), position(2)), (0, 1)),
    ]
    frames = [FrameGate(name, layout, {0: qubit_gate(name)}) for name in ("H", "S")]
    return prims, frames


def _parity_world():
    """Pulses on the qubit and one of two modes each: every leaf keeps the
    parity of q + n1 + n2, and the S frame keeps it too, so every tree is
    exactly block-diagonal on at least two sectors (two when both pulses
    occur, six when one does), and each local primitive's groups fall
    unevenly into them."""
    layout = HilbertLayout.qubit_modes(2, nmodes=2)
    prims = [
        Primitive("x1*sx", layout, kron(pauli("X"), position(2)), (0, 1)),
        Primitive("x2*sy", layout, kron(pauli("Y"), position(2)), (0, 2)),
    ]
    return prims, [FrameGate("S", layout, {0: qubit_gate("S")})]


WORLDS = [_qubit_world(), _cutoff2_world(), _split_world(), _parity_world()]
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
                lambda ts, o, r: sliced(trotter(o, ts), r),
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
    counted = [inv.label for inv in pu.expand(t) if isinstance(inv.gate, Primitive)]
    assert pu.cost() == len(counted)
    assert Counter(counted) == pu.cost_counter


@settings(max_examples=40, deadline=None)
@given(TREES, PARAMS)
def test_expansion_multiplies_to_eval(pu, t):
    assert spectral_norm(pu.expand(t).to_operator().mat - pu.eval(t).mat) < 1e-10


@settings(max_examples=40, deadline=None)
@given(TREES, PARAMS)
def test_reversal_is_structural(pu, t):
    rev = reverse_pu(pu)
    assert rev.expand(t).invocations == pu.expand(t).invocations[::-1]
    assert rev.cost_counter == pu.cost_counter
    assert reverse_pu(rev) == pu


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(WORLDS).flatmap(lambda w: st.tuples(_trees(w), _trees(w))), PARAMS)
def test_linear_term_negative_is_adjoint(pair, s):
    lin = as_linear_term(group_commutator(*pair))
    assert spectral_norm(lin.eval(-s).mat - lin.eval(s).mat.conj().T) < 1e-12


def _fold(pu, t):
    """pu at t by plain recursion with no memo, as eval splits it: one stack
    per class of the tree's sectors, with one row. Every node is evaluated at
    its own parameter, and a product multiplies its factors left to right
    from the first, taking the conjugate transpose of adjoint factors. As in
    eval, a later leaf on a strict subset of the factors multiplies in
    through its index groups, and its adjoint is its blocks at -s."""
    classes = _classes(_tree_sectors(_topological(pu)))
    out = np.zeros((pu.layout.dim,) * 2, dtype=complex)
    for i, cls in enumerate(classes):
        out[cls[:, :, None], cls[:, None, :]] = _fold_class(pu, t, classes, i)[0]
    return out


def _fold_class(pu, t, classes, i):
    cls = classes[i]
    match pu.node:
        case Leaf(gate):
            full = gate.unitary(t) if isinstance(gate, Primitive) else gate.mat
            return full[cls[:, :, None], cls[:, None, :]][None]
        case Product(factors):
            mat = None
            for j, f in enumerate(factors):
                s, adjoint = f.at(t)
                gate = f.pu.node.gate if isinstance(f.pu.node, Leaf) else None
                if j > 0 and isinstance(gate, Primitive) and gate.local:
                    placed = _place(gate.groups, classes)[i]
                    ss = np.array([-s if adjoint else s])
                    blocks = [gate.block(ss, g) for g, _ in placed]
                    mat = _apply_groups(mat, blocks, placed)
                    continue
                sub = _fold_class(f.pu, s, classes, i)
                sub = sub.conj().swapaxes(-1, -2) if adjoint else sub
                mat = sub if mat is None else mat @ sub
            return mat
        case Repeat(child, count):
            return np.linalg.matrix_power(_fold_class(child, t / count, classes, i), count)


@settings(max_examples=40, deadline=None)
@given(TREES, PARAMS)
def test_eval_equals_recursive_fold_bitwise(pu, t):
    """Batching a node's parameters changes no bit of the result."""
    assert np.array_equal(pu.eval(t).mat, _fold(pu, t))


def _eval_tiled(pu, t, budget):
    """pu at t with tiles of budget bytes of rows (one row when budget is 1).
    An eval at another parameter comes first, so a stack that a tile leaves
    unwritten is unlikely to hold the right values from an earlier eval."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(product_formulas, "_TILE_BYTES", budget)
        pu.eval(0.5 - t)
        return pu.eval(t).mat


@settings(max_examples=40, deadline=None)
@given(TREES, PARAMS, st.integers(2, 4096))
def test_tiles_change_no_bits(pu, t, budget):
    """A product built one row, or any number of rows, at a time equals it
    built in one tile, bit for bit. A commutator recursion over the tree
    needs its nodes at eight parameters or more, so tiles of several rows
    end in a partial one."""
    deep = bch(2, 1, pu, pu, base="lean")
    whole = _eval_tiled(deep, t, 2**62)
    assert np.array_equal(_eval_tiled(deep, t, 1), whole)
    assert np.array_equal(_eval_tiled(deep, t, budget), whole)


def test_deep_tree_tiles_change_no_bits():
    """The 16-slice Kerr tree at cutoff 6, whose nodes hold up to 700 rows,
    read through index arrays and frame gathers among them: one-row tiles,
    the shipped budget and a single tile give the same bits."""
    pu = sliced(nonlinear_hamiltonian(1, 1, q=3, cutoff=6).synthesis, 16)
    whole = _eval_tiled(pu, 1.0, 2**62)
    assert np.array_equal(pu.eval(1.0).mat, whole)
    assert np.array_equal(_eval_tiled(pu, 1.0, 1), whole)


def test_constant_product_at_several_parameters_equals_fold_bitwise():
    """A product of power-0 factors, needed at several parameters, reads
    its factors' one row at each of them."""
    prims, (_, frame_s) = _cutoff2_world()
    layout = frame_s.layout
    a, b = (primitive_unitary(p) for p in prims)
    fixed = ParamUnitary("S", layout, Leaf(frame_s))
    inner = compose(
        "fixed",
        [
            Factor(a, 0.3, power=0),
            Factor(fixed, power=0, invert=True),
            Factor(b, -0.5, power=0, invert=True),
        ],
    )
    outer = compose(
        "outer",
        [Factor(inner), Factor(a), Factor(inner, 2.0), Factor(frame_conjugate(inner, frame_s), -1.0)],
    )
    for t in (0.37, -0.21):
        assert np.array_equal(outer.eval(t).mat, _fold(outer, t))


def test_frame_over_local_primitive_at_several_parameters_equals_fold_bitwise():
    """A frame conjugation of a leaf on one factor, needed at t and -t by a
    group commutator: the frame's one row is read at each of the leaf's."""
    prims, (frame_h, _) = _split_world()
    x, n, _ = (primitive_unitary(p) for p in prims)
    assert prims[0].local and prims[1].local
    q = group_commutator(frame_conjugate(x, frame_h), frame_conjugate(n, frame_h))
    outer = compose("outer", [Factor(q), Factor(frame_conjugate(q, frame_h), -1.0, power=2)])
    for t in (0.37, -0.21):
        assert np.array_equal(outer.eval(t).mat, _fold(outer, t))


def _plan_per_row(pu, params, need, gathers):
    """The plan with one Factor.at call per row: the reference whose rows the
    plan's list expressions must equal bit for bit."""
    match pu.node:
        case Repeat(child, count):
            return [(id(child), _rows(need, id(child), [p / count for p in params]), False, None)]
        case Product(factors):
            slots, seen = [], {}
            for i, f in enumerate(factors[1:2] if id(pu) in gathers else factors):
                gate = f.pu.node.gate if isinstance(f.pu.node, Leaf) else None
                local = gate if i > 0 and isinstance(gate, Primitive) and gate.local else None
                key = (id(f.pu), f.coeff, f.power, f.invert, f.adjoint_if_negative, local)
                if key not in seen:
                    at = [f.at(p) for p in params]
                    if local is None:
                        flags = [adj for _, adj in at]
                        mask = flags[0] if len(set(flags)) == 1 else np.array(flags)
                        seen[key] = (id(f.pu), _rows(need, id(f.pu), [s for s, _ in at]), mask, None)
                    else:
                        block = ("block", id(f.pu))
                        rows = _rows(need, block, [-s if adj else s for s, adj in at])
                        seen[key] = (block, rows, False, local)
                slots.append(seen[key])
            return slots


def _top_down(root, t, plan):
    """need and slots of every node of root at t, from plan (_plan or the
    per-row reference), in the eval's order."""
    gathers = _sectors_of(root).gathers
    need, plans = {id(root): {t: 0}}, {}
    for pu in _topological(root):
        if id(pu) in need and not isinstance(pu.node, Leaf):
            plans[id(pu)] = plan(pu, list(need[id(pu)]), need, gathers)
    return need, plans


def _assert_same_plan(got, want):
    """Same stacks with the same parameter rows in the same order, compared
    as uint64, and the same slots: rows, adjoint flag or mask, local gate."""
    (need, plans), (ref_need, ref_plans) = got, want
    assert list(need) == list(ref_need)
    for key, rows in ref_need.items():
        bits = [np.array(list(r), dtype=float).view(np.uint64) for r in (need[key], rows)]
        assert np.array_equal(*bits)
    assert list(plans) == list(ref_plans)
    for node, slots in ref_plans.items():
        for (key, rows, adj, local), ref in zip(plans[node], slots, strict=True):
            assert (key, local) == (ref[0], ref[3]) and type(rows) is type(ref[1])
            assert rows == ref[1] if isinstance(rows, slice) else np.array_equal(rows, ref[1])
            assert type(adj) is type(ref[2]) and np.array_equal(adj, ref[2])


def test_plan_rows_equal_factor_at_where_numpy_powers_differ():
    """A linear-term node (|t| ** (1/2), adjoint for t < 0) and a power-3
    factor, planned at parameters of both signs where numpy's vectorized
    power rounds differently from Python's float ** (found by search; on a
    host where they never differ, the drawn parameters are used alone):
    every row equals Factor.at's as uint64."""
    xs = np.random.default_rng(7).uniform(1e-4, 2, 200_000)
    odd = []
    for e in (0.5, 3):
        odd += [x for x, y in zip(xs.tolist(), np.power(xs, e).tolist()) if y != x**e][:5]
    params = odd + [-x for x in odd] + xs[:5].tolist()
    prims, _ = _qubit_world()
    a, b = (primitive_unitary(p) for p in prims[:2])
    lin = as_linear_term(group_commutator(a, b))
    cubic = group_commutator(a, b, 3)
    assert lin.node.factors[0].power == 0.5 and cubic.node.factors[1].power == 3
    for pu in (lin, cubic):
        need, ref_need = {}, {}
        got = {0: _plan(pu, params, need, {})}
        _assert_same_plan((need, got), (ref_need, {0: _plan_per_row(pu, params, ref_need, {})}))
        if pu is lin:
            assert isinstance(got[0][0][2], np.ndarray)


@settings(max_examples=40, deadline=None)
@given(TREES, PARAMS)
def test_plan_equals_per_row_factor_at(pu, t):
    """Every node's planned rows, in order and as uint64, and its slots equal
    a plan that calls Factor.at per row, over a level-2 commutator recursion
    of the random trees, so nodes are planned at many parameters."""
    deep = bch(2, 1, pu, pu, base="lean")
    _assert_same_plan(_top_down(deep, t, _plan), _top_down(deep, t, _plan_per_row))


@settings(max_examples=40, deadline=None)
@given(TREES, PARAMS)
def test_every_slot_reads_its_nodes_rows(pu, t):
    """Every slot of a node, a constant (power-0) factor's included, reads
    one row per parameter the node is needed at, over a level-2 commutator
    recursion of the random trees."""
    need, plans = _top_down(bch(2, 1, pu, pu, base="lean"), t, _plan)
    for node, slots in plans.items():
        for _, rows, _, _ in slots:
            count = len(rows) if isinstance(rows, np.ndarray) else rows.stop - rows.start
            assert count == len(need[node])


@settings(max_examples=20, deadline=None)
@given(_trees(WORLDS[3]), PARAMS)
def test_tree_sectors_are_the_sectors_of_its_leaves(pu, t):
    """The sectors an eval works on are those of the union of the leaves'
    dense nonzero patterns, and the eval is exactly zero between them."""
    leaves = [node.node.gate for node in _topological(pu) if isinstance(node.node, Leaf)]
    dense = [g.unitary(0.7) if isinstance(g, Primitive) else g.mat for g in leaves]
    want = _sectors(np.logical_or.reduce([m != 0 for m in dense]))
    got = _tree_sectors(_topological(pu))
    assert len(got) == len(want) >= 2
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    label = np.empty(pu.layout.dim, dtype=int)
    for i, sec in enumerate(got):
        label[sec] = i
    assert np.all(pu.eval(t).mat[label[:, None] != label[None, :]] == 0)


def test_large_sectors_eval_equals_fold_bitwise():
    """At cutoff 5 the parity sectors hold 36 indices each, so each is a
    class of its own, unlike the small worlds above, whose equal sectors are
    stacked; a frame-conjugated local pulse multiplies in through its
    groups in each."""
    layout = HilbertLayout.qubit_modes(5, nmodes=2)
    a = primitive_unitary(Primitive("x1*sx", layout, kron(pauli("X"), position(5)), (0, 1)))
    b = primitive_unitary(Primitive("x2*sy", layout, kron(pauli("Y"), position(5)), (0, 2)))
    frame = FrameGate("S", layout, {0: qubit_gate("S")})
    pu = symmetrize(group_commutator(frame_conjugate(a, frame), b))
    sectors = _tree_sectors(_topological(pu))
    assert [len(sec) for sec in sectors] == [36, 36] and len(_classes(sectors)) == 2
    for t in (0.37, -0.21):
        mat = pu.eval(t).mat
        assert np.array_equal(mat, _fold(pu, t))
        assert spectral_norm(mat - pu.expand(t).to_operator().mat) < 1e-10


def test_eval_of_constant_tree_returns_an_owned_array():
    """A frame leaf or a product of constant factors evaluates to a fresh,
    writable matrix, not a view of the frame's own."""
    _, (_, frame_s) = _split_world()
    fixed = ParamUnitary("S", frame_s.layout, Leaf(frame_s))
    for pu in (fixed, compose("SS", [Factor(fixed, power=0), Factor(fixed, power=0)])):
        mat = pu.eval(0.3).mat
        assert mat.flags.writeable and not np.shares_memory(mat, frame_s.mat)


@pytest.mark.parametrize("world", [WORLDS[2], WORLDS[3]], ids=["split", "parity"])
def test_apply_groups_matches_dense_product(world):
    """The local-primitive kernel on each class equals the class's block of
    a plain dense product mat @ U(s), row by row, and writes every column."""
    prims, frames = world
    leaves = [primitive_unitary(p) for p in prims]
    tree = compose("all", [Factor(frame_conjugate(leaf, frames[-1])) for leaf in leaves])
    classes = _classes(_tree_sectors(_topological(tree)))
    labels = np.empty(tree.layout.dim, dtype=int)
    for i, cls in enumerate(classes):
        labels[cls.ravel()] = i
    rng = np.random.default_rng(7)
    ss = np.array([0.37, -0.21, 1.3])
    shape = (len(ss),) + (tree.layout.dim,) * 2
    mats = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    mats[:, labels[:, None] != labels[None, :]] = 0
    for gate in (p for p in prims if p.local):
        dense = np.stack([m @ gate.unitary(s) for m, s in zip(mats, ss)])
        placed = _place(gate.groups, classes)
        for i, cls in enumerate(classes):
            index = (slice(None), cls[:, :, None], cls[:, None, :])
            blocks = [gate.block(ss, g) for g, _ in placed[i]]
            got = _apply_groups(mats[index], blocks, placed[i])
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - dense[index])) < 1e-13


@pytest.mark.parametrize(
    "name, monomial",
    [("X", True), ("S", True), ("Sdg", True), ("R0", True), ("H", False), ("SH", False)],
)
def test_monomial_frame_conjugation_is_an_exact_gather(name, monomial):
    """X, S, Sdg and the vacuum parity flip conjugate by a gather, equal to
    the dense F @ U @ F^dag bit for bit, both ways round and around a local
    primitive; H and SH keep the products, equal to it up to rounding."""
    layout = HilbertLayout.qubit_modes(3)
    if name == "R0":
        frame = FrameGate(name, layout, {1: vacuum_parity_flip(3)})
    elif name == "SH":
        frame = FrameGate(name, layout, {0: qubit_gate("S") @ qubit_gate("H")})
    else:
        frame = FrameGate(name, layout, {0: qubit_gate(name)})
    assert frame.monomial == monomial
    full = Primitive("x*sx", layout, kron(pauli("X"), position(3)))
    local = Primitive("n", layout, number(3), (1,))
    for prim in (full, local):
        for f in (frame, frame.dagger()):
            pu = frame_conjugate(primitive_unitary(prim), f)
            assert (id(pu) in _sectors_of(pu).gathers) == monomial
            for t in (0.37, -1.2):
                dense = f.mat @ prim.unitary(t) @ f.mat.conj().T
                if monomial:
                    assert np.array_equal(pu.eval(t).mat, dense)
                else:
                    assert np.max(np.abs(pu.eval(t).mat - dense)) < 1e-13


def test_phase_frame_off_the_unit_set_is_not_monomial():
    """A diagonal frame with an e^{i pi/4} entry is a valid unitary but not a
    +-1/+-i monomial, so it keeps the dense products."""
    layout = HilbertLayout.qubit_modes(2)
    t_gate = Operator(HilbertLayout.single_qubit(), np.diag([1.0, np.exp(1j * np.pi / 4)]))
    frame = FrameGate("T", layout, {0: t_gate})
    assert not frame.monomial
    pu = frame_conjugate(primitive_unitary(Primitive("n", layout, number(2), (1,))), frame)
    assert id(pu) not in _sectors_of(pu).gathers


def test_tree_sectors_are_found_once_and_shared_by_slices():
    """The sectors depend only on the tree: a second eval and a sliced root
    reuse the first eval's."""
    prims, frames = WORLDS[3]
    a, b = (primitive_unitary(p) for p in prims)
    pu = group_commutator(frame_conjugate(a, frames[0]), b)
    pu.eval(0.3)
    cached = _sectors_of(pu)
    pu.eval(-0.4)
    assert _sectors_of(pu) is cached
    assert _sectors_of(sliced(pu, 3)) is cached


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


def _eval_peak(pu, t) -> int:
    """The traced peak bytes of one eval of pu at t, after a first eval."""
    pu.eval(t)  # one-time allocations happen outside the measurement
    tracemalloc.start()
    try:
        pu.eval(t)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_each_group_is_exponentiated_once_per_eval(monkeypatch):
    """HOM at cutoff 6 has two classes of sectors, and every group of its
    local primitives has rows in both; one eval still exponentiates each
    group once per parameter set, not once per class."""
    pu = conditional_beam_splitter(cutoff=6, symmetrized=True).synthesis
    sectors = _sectors_of(pu)
    assert len(sectors.classes) == 2
    assert any(
        sum(map(len, placed)) > len(sectors.last[key]) for key, placed in sectors.places.items()
    )
    calls = Counter()
    original = product_formulas._exp_block

    def counting(eigh, ts):
        calls[id(eigh), ts.tobytes()] += 1
        return original(eigh, ts)

    monkeypatch.setattr(product_formulas, "_exp_block", counting)
    pu.eval(0.05)
    assert calls and max(calls.values()) == 1


def test_eval_working_set_is_bounded():
    """One HOM eval's traced peak stays below 2.25 full-size matrices (2.16
    measured; 2.82 when every class of a node was built before the next
    node): classes are built one at a time into the full-size result, a
    leaf read once is assembled straight into its reader's tiles, and local
    products are written in place."""
    pu = conditional_beam_splitter(cutoff=10, symmetrized=True).synthesis
    full = pu.layout.dim**2 * np.dtype(np.complex128).itemsize
    assert _eval_peak(pu, 0.05) / full < 2.25


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hom_build_holds_one_full_size_matrix():
    """Building HOM at cutoff 16 (dim 578) peaks at 1.1 full-size matrices
    (1.085 measured; 3.08 when the reference generator was the sum and the
    negation of whole embeddings): the reference is summed and scaled in
    one array, and the generator is the only full-size array alive."""
    conditional_beam_splitter(cutoff=2, symmetrized=True)  # one-time allocations
    full = 578**2 * np.dtype(np.complex128).itemsize
    peak = _traced_peak(lambda: conditional_beam_splitter(cutoff=16, symmetrized=True))
    assert peak <= 1.1 * full


def test_grid_point_working_set_is_bounded():
    """One HOM grid point at cutoff 16 (eval, reference, difference, norm and
    autocorrelation) peaks below 1.8 full-size matrices (1.05 measured;
    2.78 with a full-size eval and reference): each class of sectors is
    built, measured and dropped before the next."""
    spec = conditional_beam_splitter(cutoff=16, symmetrized=True)
    full = spec.layout.dim**2 * np.dtype(np.complex128).itemsize
    point = np.array([0.05])
    bench._grid_errors(spec, spec.synthesis, point, 1, {})  # one-time allocations
    assert _traced_peak(lambda: bench._grid_errors(spec, spec.synthesis, point, 1, {})) < 1.8 * full


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def _full_size_measurement(pu, t, reference, psi0) -> tuple[int, int, int]:
    """(||U - E||, Re <psi0|U|psi0>, Re <psi0|E|psi0>) from the full-size
    matrices, as bit patterns."""
    approx = pu.eval(t).mat
    exact = reference.unitary(t)
    auto = [float(np.real(np.vdot(psi0, m @ psi0))) for m in (approx, exact)]
    return _bits(spectral_norm(approx - exact)), _bits(auto[0]), _bits(auto[1])


def _class_measurement(pu, t, reference, psi0) -> tuple[int, int, int]:
    got = measure(pu, t, reference, psi0)
    auto = [float(np.real(np.vdot(psi0, v))) for v in (got.state, got.exact_state)]
    return _bits(got.error), _bits(auto[0]), _bits(auto[1])


@st.composite
def _measured(draw):
    """A random tree, a reference on its layout (one of its world's
    primitives, or a qubit flip whose sectors straddle parity classes) and
    a basis state."""
    world = draw(st.sampled_from(WORLDS))
    pu = draw(_trees(world))
    flip = Primitive("flip", pu.layout, pauli("X"), (0,))
    reference = draw(st.sampled_from(world[0] + [flip]))
    psi0 = np.zeros(pu.layout.dim, dtype=complex)
    psi0[draw(st.integers(0, pu.layout.dim - 1))] = 1.0
    return pu, reference, psi0


@settings(max_examples=40, deadline=None)
@given(_measured(), PARAMS)
def test_class_measurement_equals_full_size_bitwise(case, t):
    """The error and autocorrelations measured one class of sectors at a
    time are those of the full-size matrices, bit for bit."""
    pu, reference, psi0 = case
    assert _class_measurement(pu, t, reference, psi0) == _full_size_measurement(
        pu, t, reference, psi0
    )


def test_classes_a_reference_straddles_are_measured_together():
    """At cutoff 5 the tree's two parity sectors are classes of their own; a
    reference that flips the qubit straddles them, so they are measured as
    one, and still equal the full-size measurement bit for bit."""
    layout = HilbertLayout.qubit_modes(5, nmodes=2)
    a = primitive_unitary(Primitive("x1*sx", layout, kron(pauli("X"), position(5)), (0, 1)))
    b = primitive_unitary(Primitive("x2*sy", layout, kron(pauli("Y"), position(5)), (0, 2)))
    pu = symmetrize(group_commutator(a, b))
    classes = _sectors_of(pu).classes
    flip = Primitive("flip", layout, pauli("X"), (0,))
    assert len(classes) == 2 and len(_measured_together(classes, a.node.gate)) == 2
    assert _measured_together(classes, flip) == [[0, 1]]
    psi0 = np.zeros(layout.dim, dtype=complex)
    psi0[layout.index(0, 1, 1)] = 1.0
    for reference in (flip, a.node.gate):
        got = _class_measurement(pu, 0.37, reference, psi0)
        assert got == _full_size_measurement(pu, 0.37, reference, psi0)


def test_deep_tree_working_set_is_bounded():
    """One eval of the 16-slice Kerr tree at cutoff 6 peaks below 3,300 of
    its 14 x 14 blocks (2,999 measured; 3,852 when every product of a node
    was a new stack of all its rows): a product is built a tile of rows at
    a time into one output stack."""
    pu = sliced(nonlinear_hamiltonian(1, 1, q=3, cutoff=6).synthesis, 16)
    block = pu.layout.dim**2 * np.dtype(np.complex128).itemsize
    assert _eval_peak(pu, 1.0) / block < 3300


# -- factor-local primitives ---------------------------------------------------


def _embedded(dims, support, block):
    """The dense generator with block on the support factors and the identity
    on the rest, built entry by entry from the basis digits."""
    digits = np.array(np.unravel_index(np.arange(math.prod(dims)), dims))
    rest = [j for j in range(len(dims)) if j not in support]
    sub = np.ravel_multi_index(tuple(digits[list(support)]), [dims[j] for j in support])
    same_rest = np.all(digits[rest][:, :, None] == digits[rest][:, None, :], axis=0)
    return np.where(same_rest, block[np.ix_(sub, sub)], 0.0)


@st.composite
def _local_world(draw):
    """A layout of 2-3 small factors and 1-4 primitives, each a random
    Hermitian block on a random nonempty (possibly full) set of factors,
    drawn as (primitive, support, dense generator)."""
    dims = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    layout = HilbertLayout(tuple(("mode", d) for d in dims))
    prims = []
    for i in range(draw(st.integers(1, 4))):
        support = tuple(sorted(draw(st.sets(st.sampled_from(range(len(dims))), min_size=1))))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        d = math.prod(dims[j] for j in support)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        block = 0.5 * (a + a.conj().T)
        on_support = Operator(HilbertLayout(tuple(layout.factors[j] for j in support)), block)
        prim = Primitive(f"h{i}", layout, on_support, support)
        prims.append((prim, support, Operator(layout, _embedded(dims, support, block))))
    return layout, prims


LOCAL_PARAMS = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(_local_world(), LOCAL_PARAMS)
def test_declared_support_and_unitary_matches_dense(world, t):
    _, prims = world
    for prim, support, gen in prims:
        assert prim.support == support
        evals, evecs = np.linalg.eigh(gen.mat)
        dense = (evecs * np.exp(1j * t * evals)) @ evecs.conj().T
        assert np.max(np.abs(prim.unitary(t) - dense)) < 1e-12


@st.composite
def _local_products(draw):
    layout, prims = draw(_local_world())
    leaves = [primitive_unitary(prim) for prim, _, _ in prims]

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
