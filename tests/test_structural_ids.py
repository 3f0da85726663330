"""Structural ids of expression nodes and the lazily composed symmetry operator.

The evaluation memos key on a structural id, so structurally identical
subtrees are evaluated once per call.  These tests pin that this changes no
value bit, that ids are never shared by different structures (signed zeros,
NaN, concurrent assignment), that the intern table lives no longer than the
expressions, and that a bundle composes R = q- d/dx q+ only when read.
"""

import gc
import sys
import threading

import numpy as np
import pytest

from susyj import cli
from susyj import funcalc as fc
from susyj import models as md
from susyj import operators as op

from conftest import random_expression

# rank2(alpha=1, x0=0, z=0.5i): node objects and structurally unique nodes of
# the symmetry operator's coefficients, as the benchmark counts them
RANK2_SYMMETRY_NODES = (10805, 177)


@pytest.fixture(scope="module")
def rank2():
    return md.model_rank2(1.0, 0.0, 0.5j)


@pytest.fixture(scope="module")
def two_level():
    return md.model_two_level(1.0, 0.3, 0.0, 0.5j)


def node_counts(roots):
    """(distinct node objects, structurally unique nodes) reachable from roots.

    Structure is read through ``children()``, a power node's ``exponent`` and,
    for leaves, ``to_json_obj()``.
    """
    number = {}      # id(node) -> number of its structure
    structures = {}  # structure -> number

    def visit(node):
        if id(node) in number:
            return number[id(node)]
        kids = node.children()
        if kids:
            key = (type(node).__name__, getattr(node, "exponent", None),
                   tuple(visit(c) for c in kids))
        else:
            key = (type(node).__name__, repr(sorted(node.to_json_obj().items())))
        number[id(node)] = structures.setdefault(key, len(structures))
        return number[id(node)]

    for root in roots:
        visit(root)
    return len(number), len(structures)


def _ev_by_id(self, x, params, memo):
    key = id(self)
    hit = memo.get(key)
    if hit is None:
        hit = self._ev_node(x, params, memo)
        memo[key] = hit
    return hit


def _jet_by_id(f, x, order, params, memo):
    key = id(f)
    hit = memo.get(key)
    if hit is None:
        hit = fc._jet_node(f, x, order, params, memo)
        memo[key] = hit
    return hit


def _evaluations(exprs, xs):
    return [(e.values(xs).tobytes(), fc.derivative_values(e, xs, 2).tobytes()) for e in exprs]


def test_symmetry_operator_is_composed_on_first_read(monkeypatch):
    bundle = md.model_rank2(1.0, 0.0, 0.5j)
    assert "symmetry_op" not in bundle.__dict__
    r = bundle.symmetry_op
    assert bundle.__dict__["symmetry_op"] is r
    assert node_counts(r.coefficients) == RANK2_SYMMETRY_NODES

    # the suite reads R^t from jets and never transposes R symbolically
    def no_transpose(self):
        raise AssertionError("symbolic transpose in the symmetry suite")

    monkeypatch.setattr(op.DiffOperator, "transpose", no_transpose)
    report = cli.run_suites(bundle, ["symmetry"], dict(cli.DEFAULT_TOLERANCES))
    assert report["passed"]
    assert all(c["passed"] for c in report["suites"]["symmetry"]["checks"])
    assert node_counts(r.coefficients) == RANK2_SYMMETRY_NODES


def test_symmetry_operator_absent_without_eigenvalues():
    bundle = md.model_inverse_square(1j, 2)
    assert bundle.symmetry_op is None


@pytest.mark.parametrize("name", ["rank2", "two_level"])
def test_structural_memo_matches_identity_memo_bit_for_bit(name, request, monkeypatch):
    bundle = request.getfixturevalue(name)
    coefficients = bundle.symmetry_op.coefficients
    xs = bundle.grid.points()
    by_sid = _evaluations(coefficients, xs)
    monkeypatch.setattr(fc.FuncExpr, "_ev", _ev_by_id)
    monkeypatch.setattr(fc, "_jet", _jet_by_id)
    by_id = _evaluations(coefficients, xs)
    assert by_sid == by_id


def test_signed_zeros_and_nan_never_share_an_id():
    assert fc._sid(fc.Const(0j)) != fc._sid(fc.Const(complex(0.0, -0.0)))
    assert fc._sid(fc.Const(0j)) != fc._sid(fc.Const(complex(-0.0, 0.0)))
    nan = complex(float("nan"), 0.0)
    assert fc._sid(fc.Const(nan)) != fc._sid(fc.Const(nan))
    # equal structure built twice shares one id while both are alive
    a, b = fc.sinh(2.0 * fc.X), fc.sinh(2.0 * fc.X)
    assert a is not b
    assert fc._sid(a) == fc._sid(b)


def _walk(root):
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.children())
    return list(seen.values())


def _copy(seed):
    rng = np.random.default_rng(seed)
    trees = [random_expression(rng, depth=6) for _ in range(8)]
    return [d for t in trees for d in t.derivatives(2)]


def test_concurrent_id_assignment_keeps_ids_structural():
    xs = np.linspace(-3.0, 3.0, 41)
    expected = _evaluations(_copy(7), xs)
    gc.collect()  # drops the single-threaded copy, so the threads race to intern
    copies = [_copy(7) for _ in range(4)]
    results = [None] * len(copies)
    start = threading.Barrier(len(copies))

    def work(i):
        start.wait()
        results[i] = _evaluations(copies[i], xs)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(copies))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)
    by_sid = {}
    for exprs in copies:
        for root in exprs:
            for node in _walk(root):
                text = repr(node.to_json_obj())
                assert by_sid.setdefault(fc._sid(node), text) == text


def _build_and_evaluate():
    bundle = md.model_rank2(1.3, 0.2, 0.4 - 0.6j)
    xs = bundle.grid.points()
    for c in bundle.symmetry_op.coefficients:
        c.values(xs)
        fc.derivative_values(c, xs, 2)
    return bundle


def test_intern_table_lives_no_longer_than_the_expressions():
    _build_and_evaluate()  # settles the nodes the modules keep alive
    gc.collect()
    before = len(fc._INTERN)
    bundle = _build_and_evaluate()
    assert len(fc._INTERN) > before
    del bundle
    gc.collect()
    assert len(fc._INTERN) == before
