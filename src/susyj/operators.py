"""Schrodinger Hamiltonians, finite-order differential operators, chains.

Operators act on expressions symbolically: application, formal transpose
(d/dx -> -d/dx with coefficients moved to the left), and composition all
return closed-form objects.  Residual routines evaluate identities on a grid
and report relative defects, normalized so that exponentially growing formal
solutions do not inflate the estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import funcalc as fc
from .funcalc import FuncExpr


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid for residual checks."""

    x_min: float = -12.0
    x_max: float = 12.0
    n_points: int = 401

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def half_width(self) -> float:
        return 0.5 * (self.x_max - self.x_min)

    def to_json_obj(self):
        return {"x_min": self.x_min, "x_max": self.x_max, "n_points": self.n_points}


DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class Hamiltonian:
    """h = -d^2/dx^2 + V(x) with a complex-valued potential."""

    potential: FuncExpr

    def apply(self, f: FuncExpr) -> FuncExpr:
        return fc.add(fc.mul(fc.const(-1.0), f.derivative().derivative()),
                      fc.mul(self.potential, f))

    def apply_values(self, f: FuncExpr, xs, params=None) -> np.ndarray:
        d = fc.derivative_values(f, xs, 2, params)
        return -d[2] + self.potential.values(xs, params) * d[0]

    def as_operator(self) -> "DiffOperator":
        return DiffOperator((self.potential, fc.const(0.0), fc.const(-1.0)))


class DiffOperator:
    """Sum_k w_k(x) d^k/dx^k stored as the coefficient list (w_0 ... w_N)."""

    def __init__(self, coefficients):
        coeffs = tuple(fc._lift(c) for c in coefficients)
        while len(coeffs) > 1 and _is_zero_const(coeffs[-1]):
            coeffs = coeffs[:-1]
        self.coefficients = coeffs

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def identity(cls) -> "DiffOperator":
        return cls((fc.const(1.0),))

    @classmethod
    def d_dx(cls) -> "DiffOperator":
        return cls((fc.const(0.0), fc.const(1.0)))

    def apply(self, f: FuncExpr) -> FuncExpr:
        derivs = f.derivatives(self.order)
        return fc.add(*(fc.mul(w, d) for w, d in zip(self.coefficients, derivs)))

    def apply_values(self, f: FuncExpr, xs, params=None) -> np.ndarray:
        """Values of (q f) on the points, via jet derivatives of f."""
        fd = fc.derivative_values(f, xs, self.order, params)
        acc = np.zeros(len(np.atleast_1d(xs)), dtype=complex)
        for k, w in enumerate(self.coefficients):
            acc += w.values(xs, params) * fd[k]
        return acc

    def transpose(self) -> "DiffOperator":
        """Formal transpose: (w d^k)^t g = (-1)^k (w g)^(k).

        The transposed coefficient of d^j collects binomial derivative terms
        of every w_k with k >= j.
        """
        n = self.order
        out = [fc.const(0.0)] * (n + 1)
        for k, w in enumerate(self.coefficients):
            dw = w.derivatives(k)
            for j in range(k + 1):
                term = fc.mul(fc.const((-1.0) ** k * comb(k, j)), dw[k - j])
                out[j] = fc.add(out[j], term)
        return DiffOperator(out)

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """Operator equal to ``self`` applied after ``other``."""
        n = self.order + other.order
        out = [fc.const(0.0)] * (n + 1)
        b_derivs = [w.derivatives(self.order) for w in other.coefficients]
        for j, a in enumerate(self.coefficients):
            for i, db in enumerate(b_derivs):
                for m in range(j + 1):
                    term = fc.mul(fc.const(comb(j, m)), a, db[j - m])
                    out[i + m] = fc.add(out[i + m], term)
        return DiffOperator(out)

    def scale(self, c) -> "DiffOperator":
        return DiffOperator(tuple(fc.mul(fc.const(c), w) for w in self.coefficients))

    def __neg__(self) -> "DiffOperator":
        return self.scale(-1.0)


def _is_zero_const(e) -> bool:
    return isinstance(e, fc.Const) and e.value == 0


@dataclass(frozen=True)
class JordanChain:
    """Eigenvalue plus the ordered eigen-/associated functions of one cell."""

    eigenvalue: complex
    functions: tuple[FuncExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))

    @property
    def size(self) -> int:
        return len(self.functions)


def chain_residual(h: Hamiltonian, chain: JordanChain, grid: GridSpec = DEFAULT_GRID) -> float:
    """max over grid and links of |(h - lambda) psi_i - psi_{i-1}| / (1 + |psi_{i-1}|).

    The i = 0 link compares against zero.  Raises PoleProximity if the grid
    hits a pole of any expression involved.
    """
    xs = grid.points()
    lam = complex(chain.eigenvalue)
    worst = 0.0
    prev_vals = np.zeros(len(xs), dtype=complex)
    for i, psi in enumerate(chain.functions):
        d = fc.derivative_values(psi, xs, 2)
        lhs = -d[2] + (h.potential.values(xs) - lam) * d[0]
        resid = np.abs(lhs - prev_vals) / (1.0 + np.abs(prev_vals))
        worst = max(worst, float(resid.max()))
        prev_vals = d[0]
    return worst


def intertwining_residual(h_plus: Hamiltonian, h_minus: Hamiltonian, q: DiffOperator,
                          probes, grid: GridSpec = DEFAULT_GRID) -> float:
    """Defect of q h+ = h- q measured on probe functions.

    Returns max over probes and grid of |q(h+ f) - h-(q f)| / (1 + |h-(q f)|).
    Both sides are assembled from exact symbolic derivatives of the probes and
    of the operator coefficients; only small trees are ever differentiated, so
    the check stays cheap for high-order composed operators.
    """
    xs = grid.points()
    # coefficient values and their first two derivatives, shared across probes
    w_vals = [fc.derivative_values(w, xs, 2) for w in q.coefficients]
    v1_d = fc.derivative_values(h_plus.potential, xs, q.order)
    v2_vals = h_minus.potential.values(xs)
    n = q.order
    worst = 0.0
    for f in probes:
        fd = fc.derivative_values(f, xs, n + 2)
        # derivatives of h+ f = -f'' + V1 f by the Leibniz rule
        hf_d = []
        for k in range(n + 1):
            term = -fd[k + 2]
            for j in range(k + 1):
                term = term + comb(k, j) * v1_d[k - j] * fd[j]
            hf_d.append(term)
        lhs = sum(w_vals[k][0] * hf_d[k] for k in range(n + 1))
        qf = sum(w_vals[k][0] * fd[k] for k in range(n + 1))
        qf_dd = sum(w_vals[k][2] * fd[k] + 2.0 * w_vals[k][1] * fd[k + 1]
                    + w_vals[k][0] * fd[k + 2] for k in range(n + 1))
        rhs = -qf_dd + v2_vals * qf
        resid = np.abs(lhs - rhs) / (1.0 + np.abs(rhs))
        worst = max(worst, float(resid.max()))
    return worst


def annihilation_residual(q: DiffOperator, f: FuncExpr, grid: GridSpec = DEFAULT_GRID) -> float:
    """Relative size of q f on the grid, for kernel-membership checks."""
    xs = grid.points()
    qf = q.apply_values(f, xs)
    scale = 1.0 + np.abs(f.values(xs))
    return float((np.abs(qf) / scale).max())


def operators_equal(a: DiffOperator, b: DiffOperator, x_lo=-8.0, x_hi=8.0,
                    rtol: float = 1e-9) -> bool:
    """Coefficient-by-coefficient numerical equality of two operators."""
    if a.order != b.order:
        n = max(a.order, b.order)
        a = DiffOperator(tuple(a.coefficients) + (fc.const(0.0),) * (n - a.order))
        b = DiffOperator(tuple(b.coefficients) + (fc.const(0.0),) * (n - b.order))
    return all(fc.equal_numeric(wa, wb, x_lo, x_hi, rtol=rtol)
               for wa, wb in zip(a.coefficients, b.coefficients))


# Probe set used by default for intertwining and closure checks: a plane wave
# and two rapidly decaying envelopes of different symmetry.
def default_probes() -> list[FuncExpr]:
    gauss = fc.exp(fc.mul(fc.const(-1.0), fc.powi(fc.X, 2)))
    return [
        fc.exp(fc.mul(fc.const(1j), fc.X)),
        fc.mul(fc.X, gauss),
        fc.mul(fc.cosh(fc.X), fc.exp(fc.mul(fc.const(-0.25), fc.powi(fc.X, 2)))),
    ]
