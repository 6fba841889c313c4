"""Property tests of the compiled-gate IR: random trees built from the public
combinators must agree between eval, expansion and the exponential ledger;
the batched eval must equal a plain recursive fold bit for bit; and
evaluation must hold no memory between calls and keep a bounded working
set. The local-primitive kernel and the frame sandwiches' moved entries
are checked against dense products. Primitives on random subsets of a
layout's factors keep their declared support and agree with dense
references."""
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonsynth import bench, product_formulas
from bosonsynth.applications import (
    conditional_beam_splitter,
    nonlinear_hamiltonian,
    state_prep_T,
)
from bosonsynth.fock_ops import number, pauli, position, qubit_gate
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
    sliced,
    symmetrize,
    trotter,
)
from bosonsynth.tensor_core import TOL, HilbertLayout, Operator, spectral_norm
from demos import embed, is_unitary, kron, matrix_units, pattern_sectors, vacuum_parity_flip

pytestmark = pytest.mark.filterwarnings(
    "ignore:.*well-conditioned range.*:RuntimeWarning"
)


def _qubit_world():
    layout = HilbertLayout.single_qubit()
    prims = [Primitive(name, layout, matrix_units(pauli(name))) for name in ("X", "Y", "Z")]
    frames = [FrameGate(name, layout, matrix_units(qubit_gate(name))) for name in ("H", "S")]
    return prims, frames


def _cutoff2_world():
    layout = HilbertLayout.qubit_modes(2)
    prims = [
        Primitive("x*sx", layout, matrix_units(kron(pauli("X"), position(2)))),
        Primitive("n*sy", layout, matrix_units(kron(pauli("Y"), number(2)))),
    ]
    frames = [FrameGate(name, layout, matrix_units(qubit_gate(name), (0,))) for name in ("H", "S")]
    return prims, frames


def _split_world():
    """Primitives on the qubit alone, on the mode alone and on both: a leaf
    on one factor multiplies into a product through its support."""
    layout = HilbertLayout.qubit_modes(2)
    prims = [
        Primitive("x", layout, matrix_units(pauli("X"), (0,))),
        Primitive("n", layout, matrix_units(number(2), (1,))),
        Primitive("x*sx", layout, matrix_units(kron(pauli("X"), position(2)), (0, 1))),
    ]
    frames = [FrameGate(name, layout, matrix_units(qubit_gate(name), (0,))) for name in ("H", "S")]
    return prims, frames


def _parity_world():
    """Pulses on the qubit and one of two modes each: every leaf keeps the
    parity of q + n1 + n2, and the S frame keeps it too, so every tree is
    exactly block-diagonal on at least two sectors (two when both pulses
    occur, six when one does), and each local primitive's groups fall
    unevenly into them."""
    layout = HilbertLayout.qubit_modes(2, nmodes=2)
    prims = [
        Primitive("x1*sx", layout, matrix_units(kron(pauli("X"), position(2)), (0, 1))),
        Primitive("x2*sy", layout, matrix_units(kron(pauli("Y"), position(2)), (0, 2))),
    ]
    return prims, [FrameGate("S", layout, matrix_units(qubit_gate("S"), (0,)))]


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
            st.builds(group_commutator, children, children),
            st.builds(lambda a, b: as_linear_term(group_commutator(a, b)), children, children),
            st.builds(
                lambda a, b, p: bch(p, a, b, base="lean"), children, children, st.integers(1, 2)
            ),
            st.builds(
                lambda ts, o, r: sliced(trotter(o, ts), r),
                st.lists(children, min_size=1, max_size=2),
                st.sampled_from([2, 4]),
                st.integers(1, 2),
            ),
            st.builds(sliced, children, st.integers(1, 3)),
            st.builds(lambda a, b: symmetrize(group_commutator(a, b)), children, children),
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
    through its index groups (_group_product, not the kernel under test),
    and its adjoint is its blocks at -s."""
    classes = _classes(_tree_sectors(_topological(pu)))
    out = np.zeros((pu.layout.dim,) * 2, dtype=complex)
    for i, cls in enumerate(classes):
        out[cls[:, :, None], cls[:, None, :]] = _fold_class(pu, t, classes, i)[0]
    return out


def _group_product(mat, blocks, placed):
    """mat @ a local primitive's unitaries on one class, for a stack of shape
    (batch, m, k, k), as plain C-order products: per group, the class's
    columns at all of the group's rows, gathered into one C-order matrix of
    k rows per group row, times the group's block, written back."""
    batch, m, k = mat.shape[:3]
    # wide[:, r, j*k + p] = mat[:, j, r, p]: the class's sectors side by side.
    wide = np.ascontiguousarray(mat.transpose(0, 2, 1, 3)).reshape(batch, k, m * k)
    out = wide.copy()
    for block, (_, (sector, position)) in zip(blocks, placed):
        cols = sector * k + position
        gathered = wide[:, :, cols]
        product = gathered.reshape(batch, -1, cols.shape[1]) @ block
        out[:, :, cols] = product.reshape(gathered.shape)
    return out.reshape(batch, k, m, k).transpose(0, 2, 1, 3)


def _fold_class(pu, t, classes, i):
    cls = classes[i]
    match pu.node:
        case Leaf(gate):
            full = gate.unitary(t)
            return full[cls[:, :, None], cls[:, None, :]][None]
        case Product(factors):
            mat = None
            for j, f in enumerate(factors):
                s, adjoint = f.at(t)
                gate = f.pu.node.gate if isinstance(f.pu.node, Leaf) else None
                if j > 0 and isinstance(gate, Primitive) and gate.local:
                    placed = _place(gate.groups, classes)[i]
                    ss = np.array([-s if adjoint else s])
                    exps = gate.blocks(ss)
                    mat = _group_product(mat, [exps[g] for g, _ in placed], placed)
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
    deep = bch(2, pu, pu, base="lean")
    whole = _eval_tiled(deep, t, 2**62)
    assert np.array_equal(_eval_tiled(deep, t, 1), whole)
    assert np.array_equal(_eval_tiled(deep, t, budget), whole)


def test_deep_tree_tiles_change_no_bits():
    """The 16-slice Kerr tree at cutoff 6, whose nodes hold up to 700 rows,
    read through index arrays and frame sandwiches among them: one-row tiles,
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


def _recorded_eval(pu, t) -> tuple[np.ndarray, list]:
    """pu at t, and the nodes _build_class was called on."""
    built = []
    original = product_formulas._build_class

    def recording(node, *args):
        built.append(node)
        return original(node, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(product_formulas, "_build_class", recording)
        return pu.eval(t).mat, built


# Each way an eval reads a monomial frame sandwich F U F^dag, from the
# tree pu, the frames f and g (S or its dagger) and a local leaf.
SANDWICH_WAYS = {
    "nested": lambda pu, f, g, loc: group_commutator(
        frame_conjugate(frame_conjugate(pu, f), g), pu
    ),
    "column-major child": lambda pu, f, g, loc: group_commutator(
        frame_conjugate(compose("c", [Factor(pu), Factor(loc, -0.5)]), f), pu
    ),
    "root": lambda pu, f, g, loc: frame_conjugate(pu, f),
    "sliced": lambda pu, f, g, loc: sliced(frame_conjugate(pu, f), 3),
    "adjoint slot": lambda pu, f, g, loc: compose(
        "c", [Factor(pu), Factor(frame_conjugate(pu, f), -0.5, invert=True)]
    ),
    "first before a local primitive": lambda pu, f, g, loc: compose(
        "c", [Factor(frame_conjugate(pu, f)), Factor(loc), Factor(pu)]
    ),
}


@st.composite
def _sandwich_parts(draw):
    """A random tree of a world with local primitives and a monomial S
    frame (split or parity), S or its dagger twice, and a local leaf."""
    prims, frames = world = draw(st.sampled_from([WORLDS[2], WORLDS[3]]))
    frame = frames[-1]
    assert frame.monomial
    f, g = (draw(st.sampled_from([frame, frame.dagger()])) for _ in range(2))
    loc = primitive_unitary(draw(st.sampled_from([p for p in prims if p.local])))
    return draw(_trees(world)), f, g, loc


@pytest.mark.parametrize("way", sorted(SANDWICH_WAYS))
@settings(max_examples=20, deadline=None)
@given(_sandwich_parts(), PARAMS)
def test_frame_sandwich_views_equal_fold_bitwise(way, parts, t):
    """A monomial frame sandwich is never built as a stack: on every class
    it is stored as its child's entries, moved and phased (a nested one's
    moved again, a column-major child's read in its own layout), which its
    readers scatter (at the root, by a Repeat, as an adjoint and as a first
    slot before a local primitive, column-major), and the eval equals the
    fold bit for bit."""
    tree = SANDWICH_WAYS[way](*parts)
    sectors = _sectors_of(tree)
    sandwiches = [pu for pu in _topological(tree) if id(pu) in sectors.moves]
    assert sandwiches
    if way == "nested":
        assert any(id(pu.node.factors[1].pu) in sectors.moves for pu in sandwiches)
    if way == "column-major child":
        assert sandwiches[0].node.factors[1].pu.node.factors[-1].pu.node.gate.local
    views, framed = [], product_formulas._framed

    def recording(*args):
        views.append(framed(*args))
        return views[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(product_formulas, "_framed", recording)
        mat, built = _recorded_eval(tree, t)
    assert len(views) == len(sandwiches) * len(sectors.classes)
    assert all(isinstance(view, product_formulas._Entries) for view in views)
    assert not {id(node) for node in built} & {id(pu.node) for pu in sandwiches}
    assert np.array_equal(mat, _fold(tree, t))


def _monomial_frames(layout):
    """X and S on the qubit (factor 0), then the vacuum parity flip on the
    last factor when it is a mode: frames that conjugate by moving entries."""
    frames = [FrameGate(g, layout, matrix_units(qubit_gate(g), (0,))) for g in "XS"]
    if layout.nfactors > 1:
        last = layout.nfactors - 1
        flip = vacuum_parity_flip(layout.factors[last][1] - 1)
        frames.append(FrameGate("R0", layout, matrix_units(flip, (last,))))
    return frames


def _nested(u, frames):
    for frame in frames:
        u = frame_conjugate(u, frame)
    return u


# Each way a primitive leaf u is read, by several slots unless it is the
# root, with a random tree pu of its world, its monomial frames and a local
# leaf (None in a world without one). A lone slot (rescale) reads u as is
# even where u is local, which a later slot reads through its groups.
LEAF_WAYS = {
    "plain": lambda u, pu, fs, loc: compose(
        "c", [Factor(u), Factor(pu), Factor(rescale(u, -0.5))]
    ),
    "adjoint": lambda u, pu, fs, loc: compose(
        "c",
        [Factor(u, invert=True), Factor(pu), Factor(compose("a", [Factor(u, 0.7, invert=True)]))],
    ),
    "adjoint mask": lambda u, pu, fs, loc: group_commutator(
        compose("m", [Factor(u, adjoint_if_negative=True), Factor(pu)]), rescale(u, 0.5)
    ),
    "nested sandwiches": lambda u, pu, fs, loc: compose(
        "c", [Factor(_nested(u, fs)), Factor(pu), Factor(_nested(u, fs[::-1]), invert=True)]
    ),
    "first before a local primitive": lambda u, pu, fs, loc: compose(
        "c", [Factor(u), Factor(loc), Factor(pu), Factor(rescale(u, 0.3)), Factor(loc, -1.0)]
    ),
    "sliced": lambda u, pu, fs, loc: compose(
        "c", [Factor(sliced(u, 2)), Factor(pu), Factor(sliced(u, 3), -1.0)]
    ),
    "root": lambda u, pu, fs, loc: u,
    "sandwich root": lambda u, pu, fs, loc: _nested(u, fs),
}


@st.composite
def _leaf_parts(draw, way):
    """A primitive leaf of a world (one with a local primitive when the way
    needs one), a random tree of the world, its monomial frames and a local
    leaf."""
    needs_local = way == "first before a local primitive"
    world = draw(st.sampled_from([WORLDS[2], WORLDS[3]] if needs_local else WORLDS))
    prims = world[0]
    locals_ = [primitive_unitary(p) for p in prims if p.local]
    loc = draw(st.sampled_from(locals_)) if locals_ else None
    u = primitive_unitary(draw(st.sampled_from(prims)))
    return u, draw(_trees(world)), _monomial_frames(prims[0].layout), loc


def _leaf_stacks_seen(pu, t) -> tuple[np.ndarray, list]:
    """pu at t, and each leaf key found holding an ndarray stack: in the
    stacks _build_class reads from, or, for a stack _tile or _framed reads
    that no _build_class made, the tree's root."""
    leaf_keys = {id(node) for node in _topological(pu) if isinstance(node.node, Leaf)}
    made, seen = [], []
    build, tile, framed = (
        product_formulas._build_class, product_formulas._tile, product_formulas._framed
    )

    def spy_build(node, slots, stacks, *args):
        seen.extend(k for k, v in stacks.items() if k in leaf_keys and isinstance(v, np.ndarray))
        made.append(build(node, slots, stacks, *args))
        return made[-1]

    def stray(stack):
        if isinstance(stack, np.ndarray) and stack.ndim == 4 and not any(m is stack for m in made):
            seen.append(id(pu))

    def spy_tile(stack, *args, **kwargs):
        stray(stack)
        return tile(stack, *args, **kwargs)

    def spy_framed(child, *args):
        stray(child)
        return framed(child, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(product_formulas, "_build_class", spy_build)
        patch.setattr(product_formulas, "_tile", spy_tile)
        patch.setattr(product_formulas, "_framed", spy_framed)
        return pu.eval(t).mat, seen


@pytest.mark.parametrize("way", sorted(LEAF_WAYS))
@settings(max_examples=15, deadline=None)
@given(st.data(), PARAMS)
def test_leaf_entries_equal_fold_bitwise(way, data, t):
    """A primitive leaf read by several slots (plainly, as an adjoint and
    under an adjoint mask, through nested X, S and parity-flip sandwiches,
    as the first slot before a local primitive, under sliced) or as the
    root never has a stack: every reader scatters its entries, and the eval
    equals the fold bit for bit."""
    u, pu, frames, loc = data.draw(_leaf_parts(way))
    tree = LEAF_WAYS[way](u, pu, frames, loc)
    mat, seen = _leaf_stacks_seen(tree, t)
    assert not seen
    assert np.array_equal(mat, _fold(tree, t))


def _plan_per_row(pu, params, need, moves):
    """The plan with one Factor.at call per row: the reference whose rows the
    plan's list expressions must equal bit for bit."""
    match pu.node:
        case Repeat(child, count):
            return [(id(child), _rows(need, id(child), [p / count for p in params]), False, None)]
        case Product(factors):
            slots, seen = [], {}
            for i, f in enumerate(factors[1:2] if id(pu) in moves else factors):
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
    moves = _sectors_of(root).moves
    need, plans = {id(root): {t: 0}}, {}
    for pu in _topological(root):
        if id(pu) in need and not isinstance(pu.node, Leaf):
            plans[id(pu)] = plan(pu, list(need[id(pu)]), need, moves)
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
    cubic = compose("c", [Factor(b, power=3)])
    assert lin.node.factors[0].power == 0.5 and cubic.node.factors[0].power == 3
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
    deep = bch(2, pu, pu, base="lean")
    _assert_same_plan(_top_down(deep, t, _plan), _top_down(deep, t, _plan_per_row))


@settings(max_examples=40, deadline=None)
@given(TREES, PARAMS)
def test_every_slot_reads_its_nodes_rows(pu, t):
    """Every slot of a node, a constant (power-0) factor's included, reads
    one row per parameter the node is needed at, over a level-2 commutator
    recursion of the random trees."""
    need, plans = _top_down(bch(2, pu, pu, base="lean"), t, _plan)
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
    dense = [g.unitary(0.7) for g in leaves]
    want = pattern_sectors(np.logical_or.reduce([m != 0 for m in dense]))
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
    a = primitive_unitary(
        Primitive("x1*sx", layout, matrix_units(kron(pauli("X"), position(5)), (0, 1)))
    )
    b = primitive_unitary(
        Primitive("x2*sy", layout, matrix_units(kron(pauli("Y"), position(5)), (0, 2)))
    )
    frame = FrameGate("S", layout, matrix_units(qubit_gate("S"), (0,)))
    pu = symmetrize(group_commutator(frame_conjugate(a, frame), b))
    sectors = _tree_sectors(_topological(pu))
    assert [len(sec) for sec in sectors] == [36, 36] and len(_classes(sectors)) == 2
    for t in (0.37, -0.21):
        mat = pu.eval(t).mat
        assert np.array_equal(mat, _fold(pu, t))
        assert spectral_norm(mat - pu.expand(t).to_operator().mat) < 1e-10


def test_eval_of_constant_tree_returns_an_owned_array():
    """A frame leaf or a product of constant factors evaluates to a fresh,
    writable matrix, not a view of the frame's own blocks, and its class
    blocks are writable too."""
    _, (_, frame_s) = _split_world()
    own = frame_s.blocks(np.zeros(1))
    fixed = ParamUnitary("S", frame_s.layout, Leaf(frame_s))
    for pu in (fixed, compose("SS", [Factor(fixed, power=0), Factor(fixed, power=0)])):
        mat = pu.eval(0.3).mat
        assert mat.flags.writeable and not any(np.shares_memory(mat, b) for b in own)
        for _, blocks in pu.eval_classes(0.3):
            assert blocks.flags.writeable and not any(np.shares_memory(blocks, b) for b in own)


@pytest.mark.parametrize("world", [WORLDS[2], WORLDS[3]], ids=["split", "parity"])
def test_apply_groups_matches_dense_product(world):
    """The local-primitive kernel on each class, at three parameters at once,
    equals the class's block of a plain dense product mat @ U(s) within
    rounding, and the C-order product per group bit for bit: from a C-order
    stack, from a column-major one, and in place. It writes every column.
    The parity world's small sectors are stacked (m > 1)."""
    prims, frames = world
    leaves = [primitive_unitary(p) for p in prims]
    tree = compose("all", [Factor(frame_conjugate(leaf, frames[-1])) for leaf in leaves])
    classes = _classes(_tree_sectors(_topological(tree)))
    if world is WORLDS[3]:
        assert any(len(cls) > 1 for cls in classes)
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
            blocks = [gate.blocks(ss)[g] for g, _ in placed[i]]
            mat = mats[index]
            want = _group_product(mat, blocks, placed[i])
            assert np.max(np.abs(want - dense[index])) < 1e-13
            column_major = np.copy(mat.swapaxes(2, 3), order="C").swapaxes(2, 3)
            for source in (mat, column_major):
                # NaN where a column went unwritten.
                out = np.full_like(column_major, np.nan)
                assert _apply_groups(source, blocks, placed[i], out) is out
                assert np.array_equal(out, want)
            in_place = np.copy(column_major, order="K")
            assert _apply_groups(in_place, blocks, placed[i], in_place) is in_place
            assert np.array_equal(in_place, want)


def _qubit_frame(name: str) -> Operator:
    """A qubit Clifford frame: X, S or H as qubit_gate gives it, the S H
    that add builds, or S^dag, which no builder uses."""
    if name == "Sdg":
        return Operator(HilbertLayout.single_qubit(), np.diag([1.0, -1.0j]))
    if name == "SH":
        return qubit_gate("S") @ qubit_gate("H")
    return qubit_gate(name)


@pytest.mark.parametrize(
    "name, monomial",
    [("X", True), ("S", True), ("Sdg", True), ("R0", True), ("H", False), ("SH", False)],
)
def test_monomial_frame_conjugation_is_an_exact_gather(name, monomial):
    """X, S, Sdg and the vacuum parity flip conjugate by moving entries, equal to
    the dense F @ U @ F^dag bit for bit, both ways round and around a local
    primitive; H and SH keep the products, equal to it up to rounding."""
    layout = HilbertLayout.qubit_modes(3)
    if name == "R0":
        frame = FrameGate(name, layout, matrix_units(vacuum_parity_flip(3), (1,)))
    else:
        frame = FrameGate(name, layout, matrix_units(_qubit_frame(name), (0,)))
    assert frame.monomial == monomial
    full = Primitive("x*sx", layout, matrix_units(kron(pauli("X"), position(3))))
    local = Primitive("n", layout, matrix_units(number(3), (1,)))
    for prim in (full, local):
        for f in (frame, frame.dagger()):
            pu = frame_conjugate(primitive_unitary(prim), f)
            assert (id(pu) in _sectors_of(pu).moves) == monomial
            for t in (0.37, -1.2):
                dense = f.unitary() @ prim.unitary(t) @ f.unitary().conj().T
                if monomial:
                    assert np.array_equal(pu.eval(t).mat, dense)
                else:
                    assert np.max(np.abs(pu.eval(t).mat - dense)) < 1e-13


def _frame_case(name: str, layout: HilbertLayout) -> tuple[Operator, tuple | None]:
    """(unitary, at) of a frame: a qubit Clifford on factor 0, the vacuum
    parity flip on the last mode, or a DFT on the whole layout."""
    if name == "R0":
        return vacuum_parity_flip(layout.factors[2][1] - 1), (2,)
    if name == "DFT":
        return Operator(layout, np.fft.fft(np.eye(layout.dim)) / np.sqrt(layout.dim)), None
    return _qubit_frame(name), (0,)


@pytest.mark.parametrize(
    "name, monomial",
    [("X", True), ("S", True), ("Sdg", True), ("H", False), ("SH", False), ("R0", True),
     ("DFT", False)],
)
def test_frame_split_equals_its_dense_embedding(name, monomial):
    """A frame declared on its factors has the sectors, the class blocks
    and, when monomial, the perm and phase that its dense embedding gives
    (perm and phase read row by row off the nonzeros), as has its dagger
    with the conjugate transpose; the full-size frame is the embedding."""
    layout = HilbertLayout.qubit_modes(3, nmodes=2)
    unitary, at = _frame_case(name, layout)
    frame = FrameGate(name, layout, matrix_units(unitary, at))
    assert frame.support == (at or (0, 1, 2)) and frame.local == (at is not None)
    dense = unitary.mat if at is None else embed({at[0]: unitary}, layout).mat
    for gate, want in ((frame, dense), (frame.dagger(), dense.conj().T)):
        assert gate.monomial == monomial
        assert np.array_equal(gate.unitary(), want)
        pu = ParamUnitary(gate.label, layout, Leaf(gate))
        sectors = _tree_sectors([pu])
        expected = pattern_sectors(want != 0)
        assert len(sectors) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(sectors, expected))
        classes = _sectors_of(pu).classes
        got = list(pu.eval_classes(0.3))
        assert len(got) == len(classes)
        for cls, blocks in got:
            assert np.array_equal(blocks, want[cls[:, :, None], cls[:, None, :]])
        if monomial:
            perm = np.flatnonzero(want) % layout.dim
            assert np.array_equal(gate.perm, perm)
            assert np.array_equal(gate.phase, want[np.arange(layout.dim), perm])
    assert frame.dagger().dagger() is frame


def _arrays_within(value, seen: set) -> list[np.ndarray]:
    """Every ndarray that value holds, through containers, attributes and
    slots (an Operator's matrix too), each object visited once."""
    if id(value) in seen or isinstance(value, (str, bytes, int, float, complex)):
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        items = list(value.values())
    elif isinstance(value, (list, tuple, set)):
        items = list(value)
    else:
        items = list(getattr(value, "__dict__", {}).values())
        slots = getattr(type(value), "__slots__", ())
        items += [getattr(value, n) for n in slots if hasattr(value, n)]
    return [a for item in items for a in _arrays_within(item, seen)]


@pytest.mark.parametrize(
    "case", ["H on one factor", "X on every factor", "parity flip on every factor"]
)
def test_frame_holds_no_full_size_matrix(case):
    """A frame, and its dagger, keep sector indices, sector blocks, index
    groups and perm and phase vectors, all of O(dim) entries, and no dim x dim array
    anywhere among their attributes, an Operator's included. A frame on
    every factor whose pattern splits into many sectors (a qubit gate
    embedded in the whole layout) keeps only its small blocks too."""
    layout = HilbertLayout.qubit_modes(15, nmodes=2)
    if case == "H on one factor":
        frame = FrameGate("H", layout, matrix_units(qubit_gate("H"), (0,)))
    else:
        op = qubit_gate("X") if case.startswith("X") else vacuum_parity_flip(15)
        frame = FrameGate(
            case, layout, matrix_units(embed({0 if case.startswith("X") else 2: op}, layout))
        )
    frame.dagger()
    arrays = _arrays_within(frame, set())
    assert arrays and max(a.size for a in arrays) <= layout.dim


def test_built_spec_holds_no_full_size_frame():
    """After the build, a spec holds less than half a full-size matrix
    (nonlinear-hamiltonian at cutoff 255: 10.20 when each of its ten frames
    kept a full-size matrix; state-prep-T: 4.10 with four frames): its
    frames keep sector blocks, not full-size matrices."""
    builds = [
        lambda cutoff: nonlinear_hamiltonian(1, 1, q=2, cutoff=cutoff),
        lambda cutoff: state_prep_T(2, p=2, cutoff=cutoff, base="lean"),
    ]
    for build in builds:
        build(2)  # one-time allocations
        tracemalloc.start()
        try:
            spec = build(255)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 0.5 * spec.layout.dim**2 * np.dtype(np.complex128).itemsize


def test_phase_frame_off_the_unit_set_is_not_monomial():
    """A diagonal frame with an e^{i pi/4} entry is a valid unitary but not a
    +-1/+-i monomial, so it keeps the dense products."""
    layout = HilbertLayout.qubit_modes(2)
    t_gate = Operator(HilbertLayout.single_qubit(), np.diag([1.0, np.exp(1j * np.pi / 4)]))
    frame = FrameGate("T", layout, matrix_units(t_gate, (0,)))
    assert not frame.monomial
    local = Primitive("n", layout, matrix_units(number(2), (1,)))
    pu = frame_conjugate(primitive_unitary(local), frame)
    assert id(pu) not in _sectors_of(pu).moves


def test_only_a_frame_and_its_inverse_gather():
    """A move stands for F U F^dag only: F U G^dag with another monomial
    frame G, and F U F with no inversion, keep the products and equal the
    dense product up to rounding."""
    layout = HilbertLayout.qubit_modes(2)
    frame_x, frame_s = (FrameGate(g, layout, matrix_units(qubit_gate(g), (0,))) for g in "XS")
    leaf_x, leaf_s = (ParamUnitary(f.label, layout, Leaf(f)) for f in (frame_x, frame_s))
    prim = Primitive("x*sx", layout, matrix_units(kron(pauli("X"), position(2))))
    u = primitive_unitary(prim)
    cases = [
        (compose("XUS'", [Factor(leaf_x, power=0), Factor(u), Factor(leaf_s, power=0, invert=True)]),
         frame_x.unitary(), frame_s.unitary().conj().T),
        (compose("XUX", [Factor(leaf_x, power=0), Factor(u), Factor(leaf_x, power=0)]),
         frame_x.unitary(), frame_x.unitary()),
    ]
    framed = frame_conjugate(u, frame_x)
    assert id(framed) in _sectors_of(framed).moves
    for pu, left, right in cases:
        assert id(pu) not in _sectors_of(pu).moves
        for t in (0.37, -1.2):
            assert np.max(np.abs(pu.eval(t).mat - left @ prim.unitary(t) @ right)) < 1e-13


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
    """HOM at cutoff 6 has two classes of sectors, and groups of its local
    primitives have rows in both; one eval still exponentiates each stack
    of a primitive's equal-size sectors once per parameter set, not once
    per class or per sector."""
    pu = conditional_beam_splitter(cutoff=6, symmetrized=True).synthesis
    sectors = _sectors_of(pu)
    assert len(sectors.classes) == 2
    assert any(
        sum(map(len, placed)) > len({g for pl in placed for g, _ in pl})
        for placed in sectors.places.values()
    )
    calls = Counter()
    original = product_formulas._exp_blocks

    def counting(eigh, ts):
        calls[id(eigh), ts.tobytes()] += 1
        return original(eigh, ts)

    monkeypatch.setattr(product_formulas, "_exp_blocks", counting)
    pu.eval(0.05)
    assert calls and max(calls.values()) == 1


def test_eval_working_set_is_bounded():
    """One HOM eval's traced peak stays below 2.25 full-size matrices (2.10
    measured; 2.82 when every class of a node was built before the next
    node): classes are built one at a time into the full-size result, a
    leaf read as a first slot is scattered from its sector entries straight
    into its reader's tiles, and local products are written in place."""
    pu = conditional_beam_splitter(cutoff=10, symmetrized=True).synthesis
    full = pu.layout.dim**2 * np.dtype(np.complex128).itemsize
    assert _eval_peak(pu, 0.05) / full < 2.25


@pytest.mark.parametrize("q, bound", [(2, 140), (3, 1300)])
def test_kerr_eval_working_set_is_bounded(q, bound):
    """One eval of the 4-slice Kerr tree at cutoff 15 peaks below bound
    full-size matrices. At q = 2 (bch 2), 124 measured; 172 when each leaf
    was a stack of its class, 228 when every monomial frame sandwich was
    one too. At q = 3, the deepest sandwich nesting, 1,233 measured. A leaf
    is read as its sector entries, and a sandwich as its child's entries
    moved and phased, a product's through one full-tile position index."""
    pu = sliced(nonlinear_hamiltonian(1, 1, q=q, cutoff=15).synthesis, 4)
    full = pu.layout.dim**2 * np.dtype(np.complex128).itemsize
    assert _eval_peak(pu, 1.0) / full < bound


def _exp_block(evals, evecs, ts):
    """exp(i t H) on one sector, a block per parameter in ts, as it was made
    one sector per call: the blocks' left factors as one tall matrix."""
    left = evecs * np.exp(1j * ts[:, None] * evals)[:, None, :]
    return (left.reshape(-1, len(evals)) @ evecs.conj().T).reshape(left.shape)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 20), st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_exponential_blocks_equal_their_one_row_calls_bitwise(size, rows, seed):
    """_exp_blocks makes all its blocks in one tall product per sector, each
    with the bits of the block a one-parameter call gives."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    eigh = np.linalg.eigh((a + a.conj().T)[None])
    ts = rng.uniform(-2.0, 2.0, rows)
    one = [product_formulas._exp_blocks(eigh, ts[j : j + 1])[0, 0] for j in range(rows)]
    assert np.array_equal(product_formulas._exp_blocks(eigh, ts)[0], np.stack(one))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=2, max_size=12), st.integers(1, 16),
       st.integers(0, 2**32 - 1))
def test_stacked_sector_exponentials_equal_one_call_per_sector_bitwise(sizes, rows, seed):
    """A primitive whose sectors have the drawn sizes eigendecomposes and
    exponentiates them one stack per size: every block, down to the sign
    of a zero, has the bytes of one eigh and one _exp_block per sector."""
    rng = np.random.default_rng(seed)
    subs = []
    for size in sizes:
        a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        subs.append(a + a.conj().T)
    n = sum(sizes)
    dense = np.zeros((n, n), dtype=complex)
    starts = np.cumsum([0] + sizes)
    for sub, lo, hi in zip(subs, starts, starts[1:]):
        dense[lo:hi, lo:hi] = sub
    layout = HilbertLayout((("mode", n),))
    prim = Primitive("h", layout, matrix_units(Operator(layout, dense)))
    assert len(prim.groups) == len(sizes)
    ts = rng.uniform(-2.0, 2.0, rows)
    got = prim.blocks(ts)
    for rows_g, block in zip(prim.groups, got):
        sub = dense[np.ix_(rows_g[0], rows_g[0])]
        want = _exp_block(*np.linalg.eigh(sub), ts)
        assert np.ascontiguousarray(block).tobytes() == want.tobytes()


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hom_build_peak_is_a_small_fraction_of_a_full_size_matrix():
    """Building HOM at cutoff 16 (dim 578) peaks below 0.075 full-size
    matrices (0.071 measured; 1.085 when the reference generator was summed
    into one full-size array, 3.08 when it was the sum and the negation of
    whole embeddings): the reference is read as the entries of a Kronecker
    sum straight into its sector blocks, and no array of the build is
    full-size."""
    conditional_beam_splitter(cutoff=2, symmetrized=True)  # one-time allocations
    full = 578**2 * np.dtype(np.complex128).itemsize
    peak = _traced_peak(lambda: conditional_beam_splitter(cutoff=16, symmetrized=True))
    assert peak < 0.075 * full


def test_kerr_build_peak_is_bounded():
    """Building the Kerr spec at cutoff 255 (dim 512) peaks below 2.0
    full-size matrices (1.94 measured; 4.69 with a dense reference
    generator, 8.19 when every block encoding also kept one): the reference
    is a Kronecker sum of the encodings' d x d targets' Hermitian products,
    each d x d a quarter of a full-size matrix, and each encoding's targets
    are dropped once its product and reference terms are made."""
    nonlinear_hamiltonian(1, 1, q=2, cutoff=2)  # one-time allocations
    full = 512**2 * np.dtype(np.complex128).itemsize
    peak = _traced_peak(lambda: nonlinear_hamiltonian(1, 1, q=2, cutoff=255))
    assert peak < 2.0 * full


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
    flip = Primitive("flip", pu.layout, matrix_units(pauli("X"), (0,)))
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
    a = primitive_unitary(
        Primitive("x1*sx", layout, matrix_units(kron(pauli("X"), position(5)), (0, 1)))
    )
    b = primitive_unitary(
        Primitive("x2*sy", layout, matrix_units(kron(pauli("Y"), position(5)), (0, 2)))
    )
    pu = symmetrize(group_commutator(a, b))
    classes = _sectors_of(pu).classes
    flip = Primitive("flip", layout, matrix_units(pauli("X"), (0,)))
    assert len(classes) == 2 and len(_measured_together(classes, a.node.gate)) == 2
    assert _measured_together(classes, flip) == [[0, 1]]
    psi0 = np.zeros(layout.dim, dtype=complex)
    psi0[layout.index(0, 1, 1)] = 1.0
    for reference in (flip, a.node.gate):
        got = _class_measurement(pu, 0.37, reference, psi0)
        assert got == _full_size_measurement(pu, 0.37, reference, psi0)


def test_measure_refuses_a_reference_row_split_between_groups(monkeypatch):
    """Were a reference's row split between two measured groups, its exp
    would not be block-diagonal on them, so measure refuses to place it
    rather than return a wrong error."""
    layout = HilbertLayout.qubit_modes(5, nmodes=2)
    a = primitive_unitary(
        Primitive("x1*sx", layout, matrix_units(kron(pauli("X"), position(5)), (0, 1)))
    )
    b = primitive_unitary(
        Primitive("x2*sy", layout, matrix_units(kron(pauli("Y"), position(5)), (0, 2)))
    )
    pu = symmetrize(group_commutator(a, b))
    flip = Primitive("flip", layout, matrix_units(pauli("X"), (0,)))

    def alone(classes, _):
        return [[i] for i in range(len(classes))]

    monkeypatch.setattr(product_formulas, "_measured_together", alone)
    with pytest.raises(ValueError, match="only in part"):
        measure(pu, 0.37, flip)


def test_frame_leaf_measured_alone_leaves_the_frame_unchanged():
    """A dense unitary frame on a 32-level mode is one sector, a class of its
    own, measured alone: its block, scattered from its entries, is the
    difference, which measure subtracts from in place, and the frame's own
    block is left unchanged."""
    layout = HilbertLayout((("mode", 32),))
    dft = Operator(layout, np.fft.fft(np.eye(32)) / np.sqrt(32))
    frame = FrameGate("F", layout, matrix_units(dft))
    before = frame.unitary()
    pu = ParamUnitary("F", layout, Leaf(frame))
    assert [cls.shape for cls in _sectors_of(pu).classes] == [(1, 32)]
    reference = Primitive("n", layout, matrix_units(number(31)))
    psi0 = np.zeros(32, dtype=complex)
    psi0[3] = 1.0
    got = _class_measurement(pu, 0.37, reference, psi0)
    assert got == _full_size_measurement(pu, 0.37, reference, psi0)
    assert np.array_equal(frame.unitary(), before)


def test_deep_tree_working_set_is_bounded():
    """One eval of the 16-slice Kerr tree at cutoff 6 peaks below 1,800 of
    its 14 x 14 blocks (1,600 measured; 2,207 when each leaf was a stack of
    its class, 3,852 when every product of a node was a new stack of all
    its rows): a product is built a tile of rows at a time into one output
    stack, and no leaf has a stack."""
    pu = sliced(nonlinear_hamiltonian(1, 1, q=3, cutoff=6).synthesis, 16)
    block = pu.layout.dim**2 * np.dtype(np.complex128).itemsize
    assert _eval_peak(pu, 1.0) / block < 1800


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
        prim = Primitive(f"h{i}", layout, matrix_units(on_support, support))
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
