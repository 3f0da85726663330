"""Closed-form complex-valued functions of one real variable.

Expression trees over the node kinds constant / variable / parameter / sum /
product / quotient / integer power / exp / sinh / cosh / tanh, with exact
symbolic differentiation (expression rewriting, never finite differences),
pointwise evaluation at real arguments, and differentiation with respect to
named parameters.  Evaluation accepts scalars or numpy arrays and returns
complex values.

Expressions are immutable after construction and safe to share between
threads.  No simplification is performed beyond constant folding (constants
are combined, zero terms and unit factors absorbed); equality of expressions
is decided numerically (:func:`equal_numeric`).  Internally each node carries
a structural id, equal for structurally identical subtrees, that keys the
evaluation memos so that every distinct subexpression is evaluated once per
call; it is not an equality API.
"""

from __future__ import annotations

import itertools
import json
import math
import weakref

import numpy as np

from .errors import PoleProximity, UnknownParameter

# Quotient nodes refuse to evaluate when |denominator| < POLE_GUARD * (1+|x|).
POLE_GUARD = 1e-10


class FuncExpr:
    """Immutable node of an expression tree.

    Subclasses store their children and payload at construction time and are
    never mutated afterwards (the cached derivative slots are filled lazily
    but deterministically).  Build expressions with the module constructors
    (:func:`const`, :data:`X`, :func:`sinh`, ...) or the arithmetic operators.
    """

    __slots__ = ("_dx", "_dp", "_pnames", "_sid", "__weakref__")

    def __init__(self):
        self._dx = None
        self._dp = None
        self._pnames = None
        self._sid = None

    # -- construction helpers ------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return add(self, mul(_MINUS_ONE, _lift(other)))

    def __rsub__(self, other):
        return add(_lift(other), mul(_MINUS_ONE, self))

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return quot(self, _lift(other))

    def __rtruediv__(self, other):
        return quot(_lift(other), self)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("only integer powers are supported")
        return powi(self, n)

    def __neg__(self):
        return mul(_MINUS_ONE, self)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x, params=None):
        """Value of the expression at real ``x`` (scalar or array)."""
        return self._ev(x, params or {}, {})

    def values(self, x, params=None):
        """Evaluate on an array of points; always returns a complex ndarray."""
        x = np.asarray(x, dtype=float)
        out = self._ev(x, params or {}, {})
        if np.ndim(out) == 0:
            out = np.full(x.shape, complex(out))
        return np.asarray(out, dtype=complex)

    def _ev(self, x, params, memo):
        key = self._sid or _sid(self)
        hit = memo.get(key)
        if hit is None:
            hit = self._ev_node(x, params, memo)
            memo[key] = hit
        return hit

    def _ev_node(self, x, params, memo):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- differentiation -----------------------------------------------------

    def derivative(self):
        """Exact derivative with respect to the variable, as an expression."""
        if self._dx is None:
            self._dx = self._diff(None)
        return self._dx

    def derivatives(self, order):
        """List [self, f', ..., f^(order)] of cached derivative expressions."""
        out = [self]
        for _ in range(order):
            out.append(out[-1].derivative())
        return out

    def param_derivative(self, name):
        """Exact derivative with respect to the named parameter."""
        if name not in self.param_names():
            raise UnknownParameter(name)
        if self._dp is None:
            self._dp = {}
        if name not in self._dp:
            self._dp[name] = self._diff(name)
        return self._dp[name]

    def _diff(self, wrt):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- structure -----------------------------------------------------------

    def children(self):
        return ()

    def _skey(self):
        """Structural key: node type, exponent and the children's ids."""
        return (type(self), None, tuple(map(_sid, self.children())))

    def param_names(self):
        """Set of parameter names occurring in the expression (cached)."""
        if self._pnames is None:
            names = set()
            for c in self.children():
                names |= c.param_names()
            self._pnames = frozenset(names)
        return self._pnames

    def conjugate(self):
        """Expression whose value is the complex conjugate at real x.

        Parameters are left symbolic: the conjugation property holds when the
        caller also conjugates the values bound to them.
        """
        return self._map_children(lambda c: c.conjugate())

    def substitute_var(self, g):
        """Replace the variable by the expression ``g``."""
        return self._map_children(lambda c: c.substitute_var(g))

    def reflect(self):
        """The expression evaluated at -x."""
        return self.substitute_var(mul(_MINUS_ONE, X))

    def bind(self, params):
        """Freeze the given parameters to constant values."""
        return self._map_children(lambda c: c.bind(params))

    def _map_children(self, f):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- serialization --------------------------------------------------------

    def to_json_obj(self):  # pragma: no cover - abstract
        raise NotImplementedError


# Structural ids.  ``_INTERN`` maps a structural key to one live node that
# carries the key's id; it holds its nodes weakly, so an entry lives no longer
# than the expressions that use it.  Ids come from a counter and are never
# reused within the process, so equal ids always mean equal structure.  The converse is
# best-effort: two threads keying the same structure at once, or a structure
# rebuilt after its representative died, get distinct ids and only lose
# sharing.
_SIDS = itertools.count(1)
_INTERN = weakref.WeakValueDictionary()


def _sid(node) -> int:
    """Structural id of ``node``, assigned on first use."""
    if node._sid is None:
        key = node._skey()
        rep = None if key is None else _INTERN.get(key)
        if rep is None:
            node._sid = next(_SIDS)
            if key is not None:
                _INTERN[key] = node
        else:
            node._sid = rep._sid
    return node._sid


def _lift(v):
    if isinstance(v, FuncExpr):
        return v
    if isinstance(v, (int, float, complex)):
        return Const(complex(v))
    raise TypeError(f"cannot use {type(v).__name__} in an expression")


class Const(FuncExpr):
    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__()
        self.value = complex(value)

    def _ev_node(self, x, params, memo):
        return self.value

    def _diff(self, wrt):
        return _ZERO

    def _skey(self):
        # NaN never shares an id; the signs keep 0.0 and -0.0 apart
        v = self.value
        if v != v:
            return None
        return (Const, v, math.copysign(1.0, v.real), math.copysign(1.0, v.imag))

    def conjugate(self):
        return Const(self.value.conjugate())

    def substitute_var(self, g):
        return self

    def bind(self, params):
        return self

    def param_names(self):
        return frozenset()

    def to_json_obj(self):
        return {"kind": "const", "re": self.value.real, "im": self.value.imag}

    def __repr__(self):
        return f"Const({self.value})"


class Var(FuncExpr):
    __slots__ = ()

    def _ev_node(self, x, params, memo):
        return x + 0j if np.ndim(x) == 0 else np.asarray(x, dtype=complex)

    def _diff(self, wrt):
        return _ONE if wrt is None else _ZERO

    def conjugate(self):
        return self

    def substitute_var(self, g):
        return g

    def bind(self, params):
        return self

    def param_names(self):
        return frozenset()

    def to_json_obj(self):
        return {"kind": "var"}

    def __repr__(self):
        return "X"


class Param(FuncExpr):
    __slots__ = ("name",)

    def __init__(self, name):
        super().__init__()
        self.name = str(name)

    def _ev_node(self, x, params, memo):
        try:
            return complex(params[self.name])
        except KeyError:
            raise UnknownParameter(f"parameter '{self.name}' is unbound") from None

    def _diff(self, wrt):
        return _ONE if wrt == self.name else _ZERO

    def _skey(self):
        return (Param, self.name)

    def conjugate(self):
        return self

    def substitute_var(self, g):
        return self

    def bind(self, params):
        if self.name in params:
            return Const(params[self.name])
        return self

    def param_names(self):
        return frozenset((self.name,))

    def to_json_obj(self):
        return {"kind": "param", "name": self.name}

    def __repr__(self):
        return f"Param({self.name!r})"


class Sum(FuncExpr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        super().__init__()
        self.terms = tuple(terms)

    def children(self):
        return self.terms

    def _ev_node(self, x, params, memo):
        acc = self.terms[0]._ev(x, params, memo)
        for t in self.terms[1:]:
            acc = acc + t._ev(x, params, memo)
        return acc

    def _diff(self, wrt):
        return add(*(t._diff(wrt) for t in self.terms))

    def _map_children(self, f):
        return add(*(f(t) for t in self.terms))

    def to_json_obj(self):
        return {"kind": "sum", "children": [t.to_json_obj() for t in self.terms]}

    def __repr__(self):
        return "(" + " + ".join(map(repr, self.terms)) + ")"


class Product(FuncExpr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        super().__init__()
        self.factors = tuple(factors)

    def children(self):
        return self.factors

    def _ev_node(self, x, params, memo):
        acc = self.factors[0]._ev(x, params, memo)
        for t in self.factors[1:]:
            acc = acc * t._ev(x, params, memo)
        return acc

    def _diff(self, wrt):
        terms = []
        for i, fi in enumerate(self.factors):
            d = fi._diff(wrt)
            terms.append(mul(*self.factors[:i], d, *self.factors[i + 1 :]))
        return add(*terms)

    def _map_children(self, f):
        return mul(*(f(t) for t in self.factors))

    def to_json_obj(self):
        return {"kind": "product", "children": [t.to_json_obj() for t in self.factors]}

    def __repr__(self):
        return "(" + " * ".join(map(repr, self.factors)) + ")"


class Quotient(FuncExpr):
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        super().__init__()
        self.num = num
        self.den = den

    def children(self):
        return (self.num, self.den)

    def _ev_node(self, x, params, memo):
        # the guard watches the power-free base: v**n vanishes exactly where v does
        if isinstance(self.den, PowInt):
            base = self.den.base._ev(x, params, memo)
            den = base ** self.den.exponent
        else:
            base = den = self.den._ev(x, params, memo)
        guard = POLE_GUARD * (1.0 + np.abs(x))
        bad = np.abs(base) < guard
        if np.any(bad):
            if np.ndim(bad) == 0:
                raise PoleProximity(complex(np.ravel(x)[0]) if np.ndim(x) else x,
                                    float(np.abs(base)))
            shape = np.shape(bad)
            xa = np.broadcast_to(np.asarray(x), shape)
            da = np.broadcast_to(np.abs(base), shape)
            i = int(np.argmax(np.ravel(bad)))
            raise PoleProximity(float(xa.flat[i].real), float(da.flat[i]))
        return self.num._ev(x, params, memo) / den

    def _diff(self, wrt):
        # d(u / v^n) = (u' v - n u v') / v^(n+1): keeping the denominator a
        # power node makes its order grow linearly under repeated
        # differentiation instead of doubling
        if isinstance(self.den, PowInt):
            base, n = self.den.base, self.den.exponent
        else:
            base, n = self.den, 1
        du, dv = self.num._diff(wrt), base._diff(wrt)
        num = add(mul(du, base), mul(Const(-n), self.num, dv))
        return quot(num, PowInt(base, n + 1))

    def _map_children(self, f):
        return quot(f(self.num), f(self.den))

    def to_json_obj(self):
        return {"kind": "quotient", "children": [self.num.to_json_obj(), self.den.to_json_obj()]}

    def __repr__(self):
        return f"({self.num!r} / {self.den!r})"


class PowInt(FuncExpr):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        super().__init__()
        self.base = base
        self.exponent = int(exponent)

    def children(self):
        return (self.base,)

    def _ev_node(self, x, params, memo):
        b = self.base._ev(x, params, memo)
        return b ** self.exponent

    def _diff(self, wrt):
        return mul(Const(self.exponent), powi(self.base, self.exponent - 1), self.base._diff(wrt))

    def _skey(self):
        return (PowInt, self.exponent, (_sid(self.base),))

    def _map_children(self, f):
        return powi(f(self.base), self.exponent)

    def to_json_obj(self):
        return {"kind": "powint", "exponent": self.exponent, "children": [self.base.to_json_obj()]}

    def __repr__(self):
        return f"({self.base!r})**{self.exponent}"


class _Unary(FuncExpr):
    __slots__ = ("arg",)
    _fn = None
    _kind = None

    def __init__(self, arg):
        super().__init__()
        self.arg = arg

    def children(self):
        return (self.arg,)

    def _ev_node(self, x, params, memo):
        return type(self)._fn(self.arg._ev(x, params, memo))

    def _map_children(self, f):
        return type(self)(f(self.arg))

    def to_json_obj(self):
        return {"kind": self._kind, "children": [self.arg.to_json_obj()]}

    def __repr__(self):
        return f"{self._kind}({self.arg!r})"


class Exp(_Unary):
    __slots__ = ()
    _fn = staticmethod(np.exp)
    _kind = "exp"

    def _diff(self, wrt):
        return mul(self, self.arg._diff(wrt))


class Sinh(_Unary):
    __slots__ = ()
    _fn = staticmethod(np.sinh)
    _kind = "sinh"

    def _diff(self, wrt):
        return mul(Cosh(self.arg), self.arg._diff(wrt))


class Cosh(_Unary):
    __slots__ = ()
    _fn = staticmethod(np.cosh)
    _kind = "cosh"

    def _diff(self, wrt):
        return mul(Sinh(self.arg), self.arg._diff(wrt))


class Tanh(_Unary):
    __slots__ = ()
    _fn = staticmethod(np.tanh)
    _kind = "tanh"

    def _diff(self, wrt):
        # tanh' = 1 - tanh^2
        return mul(add(_ONE, mul(_MINUS_ONE, powi(self, 2))), self.arg._diff(wrt))


# -- smart constructors (constant folding only) --------------------------------


def const(value) -> Const:
    return Const(value)


def param(name) -> Param:
    return Param(name)


X = Var()

_ZERO = Const(0.0)
_ONE = Const(1.0)
_MINUS_ONE = Const(-1.0)


def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


def add(*terms) -> FuncExpr:
    flat = []
    c = 0j
    for t in terms:
        t = _lift(t)
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    rest = []
    for t in flat:
        if isinstance(t, Const):
            c += t.value
        else:
            rest.append(t)
    if c != 0:
        rest.append(Const(c))
    if not rest:
        return _ZERO
    if len(rest) == 1:
        return rest[0]
    return Sum(rest)


def mul(*factors) -> FuncExpr:
    flat = []
    c = 1 + 0j
    for f in factors:
        f = _lift(f)
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)
    rest = []
    for f in flat:
        if isinstance(f, Const):
            c *= f.value
        else:
            rest.append(f)
    if c == 0:
        return _ZERO
    if c != 1:
        rest.insert(0, Const(c))
    if not rest:
        return _ONE
    if len(rest) == 1:
        return rest[0]
    return Product(rest)


def quot(num, den) -> FuncExpr:
    num, den = _lift(num), _lift(den)
    if isinstance(den, Const):
        if den.value == 0:
            raise ZeroDivisionError("constant zero denominator")
        return mul(Const(1.0 / den.value), num)
    if _is_const(num, 0):
        return _ZERO
    return Quotient(num, den)


def powi(base, n) -> FuncExpr:
    base = _lift(base)
    n = int(n)
    if n == 0:
        return _ONE
    if n == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value ** n)
    if n < 0:
        return quot(_ONE, PowInt(base, -n))
    return PowInt(base, n)


def exp(e) -> FuncExpr:
    e = _lift(e)
    if isinstance(e, Const):
        return Const(np.exp(e.value))
    return Exp(e)


def sinh(e) -> FuncExpr:
    e = _lift(e)
    if isinstance(e, Const):
        return Const(np.sinh(e.value))
    return Sinh(e)


def cosh(e) -> FuncExpr:
    e = _lift(e)
    if isinstance(e, Const):
        return Const(np.cosh(e.value))
    return Cosh(e)


def tanh(e) -> FuncExpr:
    e = _lift(e)
    if isinstance(e, Const):
        return Const(np.tanh(e.value))
    return Tanh(e)


# -- Taylor-jet evaluation ---------------------------------------------------------
#
# Derivative VALUES of large composed expressions are obtained by propagating
# truncated Taylor series through the tree in a single pass.  This is exact
# up to floating-point rounding (it computes the same numbers as evaluating
# the rewritten derivative expressions) but never constructs derivative
# trees, so it stays cheap for high orders of deeply composed operators.


def _jet(f, x, order, params, memo):
    key = f._sid or _sid(f)
    hit = memo.get(key)
    if hit is None:
        hit = _jet_node(f, x, order, params, memo)
        memo[key] = hit
    return hit


def _jet_mul(a, b):
    order = a.shape[0] - 1
    out = np.zeros_like(a)
    for m in range(order + 1):
        for j in range(m + 1):
            out[m] += a[j] * b[m - j]
    return out


def _jet_div(a, b):
    order = a.shape[0] - 1
    out = np.zeros_like(a)
    out[0] = a[0] / b[0]
    for m in range(1, order + 1):
        acc = a[m].copy()
        for j in range(m):
            acc -= out[j] * b[m - j]
        out[m] = acc / b[0]
    return out


def _jet_node(f, x, order, params, memo):
    n = len(x)
    shape = (order + 1, n)
    if isinstance(f, Const):
        out = np.zeros(shape, dtype=complex)
        out[0] = f.value
        return out
    if isinstance(f, Var):
        out = np.zeros(shape, dtype=complex)
        out[0] = x
        if order >= 1:
            out[1] = 1.0
        return out
    if isinstance(f, Param):
        out = np.zeros(shape, dtype=complex)
        try:
            out[0] = complex(params[f.name])
        except KeyError:
            raise UnknownParameter(f"parameter '{f.name}' is unbound") from None
        return out
    if isinstance(f, Sum):
        out = np.zeros(shape, dtype=complex)
        for t in f.terms:
            out += _jet(t, x, order, params, memo)
        return out
    if isinstance(f, Product):
        acc = _jet(f.factors[0], x, order, params, memo)
        for t in f.factors[1:]:
            acc = _jet_mul(acc, _jet(t, x, order, params, memo))
        return acc
    if isinstance(f, Quotient):
        den = _jet(f.den, x, order, params, memo)
        base = den[0]
        if isinstance(f.den, PowInt):
            base = _jet(f.den.base, x, order, params, memo)[0]
        guard = POLE_GUARD * (1.0 + np.abs(x))
        bad = np.abs(base) < guard
        if np.any(bad):
            i = int(np.argmax(bad))
            raise PoleProximity(float(np.asarray(x).flat[i]), float(np.abs(base).flat[i]))
        return _jet_div(_jet(f.num, x, order, params, memo), den)
    if isinstance(f, PowInt):
        base = _jet(f.base, x, order, params, memo)
        acc = base
        for _ in range(f.exponent - 1):
            acc = _jet_mul(acc, base)
        return acc
    if isinstance(f, (Exp, Sinh, Cosh, Tanh)):
        a = _jet(f.arg, x, order, params, memo)
        if isinstance(f, Exp):
            out = np.zeros(shape, dtype=complex)
            out[0] = np.exp(a[0])
            for m in range(1, order + 1):
                for j in range(1, m + 1):
                    out[m] += j * a[j] * out[m - j]
                out[m] /= m
            return out
        s = np.zeros(shape, dtype=complex)
        c = np.zeros(shape, dtype=complex)
        s[0], c[0] = np.sinh(a[0]), np.cosh(a[0])
        for m in range(1, order + 1):
            for j in range(1, m + 1):
                s[m] += j * a[j] * c[m - j]
                c[m] += j * a[j] * s[m - j]
            s[m] /= m
            c[m] /= m
        if isinstance(f, Sinh):
            return s
        if isinstance(f, Cosh):
            return c
        return _jet_div(s, c)
    raise TypeError(f"unknown node type {type(f).__name__}")


def derivative_values(f: FuncExpr, x, order: int, params=None) -> np.ndarray:
    """Array of shape (order+1, len(x)) with row m holding f^(m) on the points.

    Single-pass Taylor propagation; exact up to rounding and equal to
    evaluating the symbolically rewritten derivatives.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    jets = _jet(f, x, order, params or {}, {})
    fact = 1.0
    out = np.array(jets, dtype=complex)
    for m in range(order + 1):
        if m > 1:
            fact *= m
        out[m] *= fact
    return out


# -- module-level operations ----------------------------------------------------


def evaluate(f: FuncExpr, x, order: int = 0, params=None) -> list[complex]:
    """Values (f(x), f'(x), ..., f^(order)(x)) at a real point.

    Derivatives come from exact expression rewriting; the successive
    derivative trees are cached on the nodes, so repeated calls are cheap.
    Raises :class:`PoleProximity` when a quotient denominator is within
    POLE_GUARD*(1+|x|) of zero at x.
    """
    params = params or {}
    memo = {}
    return [g._ev(x, params, memo) for g in f.derivatives(order)]


def derivative(f: FuncExpr) -> FuncExpr:
    return f.derivative()


def param_derivative(f: FuncExpr, name: str) -> FuncExpr:
    return f.param_derivative(name)


def chebyshev_points(x_lo: float, x_hi: float, n: int = 32) -> np.ndarray:
    k = np.arange(n)
    t = np.cos((2 * k + 1) * np.pi / (2 * n))
    return 0.5 * (x_lo + x_hi) + 0.5 * (x_hi - x_lo) * t


def equal_numeric(f: FuncExpr, g: FuncExpr, x_lo=-10.0, x_hi=10.0, params=None,
                  rtol: float = 1e-9, n: int = 32) -> bool:
    """Numerical equality on Chebyshev-distributed sample points.

    This is the only equality notion the package uses; structural equality of
    trees is deliberately not exposed.
    """
    pts = chebyshev_points(x_lo, x_hi, n)
    fv = f.values(pts, params)
    gv = g.values(pts, params)
    scale = 1.0 + np.maximum(np.abs(fv), np.abs(gv))
    return bool(np.all(np.abs(fv - gv) / scale <= rtol))


# -- JSON serialization -----------------------------------------------------------

_UNARY_KINDS = {"exp": exp, "sinh": sinh, "cosh": cosh, "tanh": tanh}


def to_json(f: FuncExpr) -> str:
    return json.dumps(f.to_json_obj())


def from_json_obj(obj) -> FuncExpr:
    kind = obj.get("kind")
    if kind == "const":
        return Const(complex(obj["re"], obj.get("im", 0.0)))
    if kind == "var":
        return X
    if kind == "param":
        return Param(obj["name"])
    children = [from_json_obj(c) for c in obj.get("children", ())]
    if kind == "sum":
        return add(*children)
    if kind == "product":
        return mul(*children)
    if kind == "quotient":
        return quot(*children)
    if kind == "powint":
        return powi(children[0], obj["exponent"])
    if kind in _UNARY_KINDS:
        return _UNARY_KINDS[kind](children[0])
    raise ValueError(f"unknown expression kind {kind!r}")


def from_json(s: str) -> FuncExpr:
    return from_json_obj(json.loads(s))
