"""Darboux-Crum construction engine.

Builds the generalized Crum determinants from an ordered set of
transformation functions (solutions and formal associated functions of a
source Hamiltonian), the partner potential V2 = V1 - 2 (ln w_N)'', the
superpotential chain, the order-N intertwiner, and its ladder factorization
into first-order Darboux factors.

Conventions.  The entries of a :class:`TransformationBasis` are given in the
caller's order and never reordered; the ordering is semantically significant.
The j-th Crum determinant is the Wronskian-style determinant of the *first*
j entries (row r holds entry r and its derivatives up to order j-1), so the
first Darboux factor annihilates the first entry.  The intertwiner is
returned monic; its formal transpose then carries the conventional leading
sign (-1)^N automatically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import funcalc as fc
from .errors import ModelError, SingularIntermediate, SingularPartner
from .funcalc import FuncExpr
from .operators import DEFAULT_GRID, DiffOperator, GridSpec, Hamiltonian, JordanChain

MAX_DET_ORDER = 6  # symbolic cofactor expansion is enforced to stay desk-scale

# |w_j| below this (relative to 1+|x|) anywhere on the grid flags singularity
SINGULARITY_GUARD = 1e-10


@dataclass(frozen=True)
class BasisEntry:
    function: FuncExpr
    eigenvalue: complex
    chain_position: int = 0

    def to_json_obj(self):
        lam = complex(self.eigenvalue)
        return {"expr": self.function.to_json_obj(),
                "lambda": {"re": lam.real, "im": lam.imag},
                "chain_position": self.chain_position}


class TransformationBasis:
    """Ordered transformation functions with their source Hamiltonian."""

    def __init__(self, entries, source: Hamiltonian):
        self.entries = tuple(entries)
        self.source = source
        if not self.entries:
            raise ValueError("transformation basis must be non-empty")
        if len(self.entries) > MAX_DET_ORDER:
            raise ValueError(f"basis size limited to {MAX_DET_ORDER}")

    def __len__(self):
        return len(self.entries)

    def functions(self):
        return [e.function for e in self.entries]

    def chains(self) -> list[JordanChain]:
        """Group consecutive entries with equal eigenvalue into chains."""
        chains = []
        i = 0
        while i < len(self.entries):
            lam = self.entries[i].eigenvalue
            fns = [self.entries[i].function]
            j = i + 1
            while (j < len(self.entries)
                   and self.entries[j].eigenvalue == lam
                   and self.entries[j].chain_position > 0):
                fns.append(self.entries[j].function)
                j += 1
            chains.append(JordanChain(lam, tuple(fns)))
            i = j
        return chains

    def validate(self, grid: GridSpec = DEFAULT_GRID, tol: float = 1e-8) -> float:
        """Residual of the chain relations among the entries."""
        from .operators import chain_residual
        worst = 0.0
        for chain in self.chains():
            worst = max(worst, chain_residual(self.source, chain, grid))
        if worst > tol:
            raise ModelError(f"basis entries violate chain relations: residual {worst:.3e}")
        return worst

    def to_json(self) -> str:
        return json.dumps({"entries": [e.to_json_obj() for e in self.entries]})

    @classmethod
    def from_json(cls, s: str, source: Hamiltonian) -> "TransformationBasis":
        data = json.loads(s)
        entries = []
        for e in data["entries"]:
            lam = complex(e["lambda"]["re"], e["lambda"].get("im", 0.0))
            entries.append(BasisEntry(fc.from_json_obj(e["expr"]), lam,
                                      int(e.get("chain_position", 0))))
        return cls(entries, source)


def _det(rows: list[list[FuncExpr]]) -> FuncExpr:
    """Symbolic determinant by cofactor expansion along the first column."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    terms = []
    for i in range(n):
        minor = [r[1:] for k, r in enumerate(rows) if k != i]
        sign = fc.const((-1.0) ** i)
        terms.append(fc.mul(sign, rows[i][0], _det(minor)))
    return fc.add(*terms)


def crum_wronskian(basis: TransformationBasis, j: int) -> FuncExpr:
    """The j-th generalized Crum determinant w_j(x), expanded symbolically.

    Row r (r = 1..j) holds the r-th basis entry and its derivatives through
    order j-1.  w_0 is identically 1 by convention.
    """
    if j == 0:
        return fc.const(1.0)
    if not 1 <= j <= len(basis):
        raise ValueError(f"j must lie in 1..{len(basis)}")
    rows = [basis.entries[r].function.derivatives(j - 1) for r in range(j)]
    return _det(rows)


def _min_abs_on_grid(w: FuncExpr, grid: GridSpec) -> float:
    xs = grid.points()
    vals = np.abs(w.values(xs)) / (1.0 + np.abs(xs))
    return float(vals.min())


def partner_potential(v1: FuncExpr, basis: TransformationBasis,
                      grid: GridSpec = DEFAULT_GRID) -> FuncExpr:
    """V2 = V1 - 2 (ln w_N)'', computed as -2 (w'' w - w'^2)/w^2 + V1."""
    w = crum_wronskian(basis, len(basis))
    if _min_abs_on_grid(w, grid) < SINGULARITY_GUARD:
        raise SingularPartner("top Wronskian vanishes on the working grid")
    dw, ddw = w.derivative(), w.derivative().derivative()
    log_dd = fc.quot(fc.add(fc.mul(ddw, w), fc.mul(fc.const(-1.0), fc.powi(dw, 2))),
                     fc.powi(w, 2))
    return fc.add(v1, fc.mul(fc.const(-2.0), log_dd))


def superpotentials(basis: TransformationBasis, grid: GridSpec = DEFAULT_GRID) -> list[FuncExpr]:
    """chi_j = -w_j'/w_j + w_{j-1}'/w_{j-1} for j = 1..N (w_0 = 1)."""
    n = len(basis)
    ws = [crum_wronskian(basis, j) for j in range(n + 1)]
    for j in range(1, n + 1):
        if _min_abs_on_grid(ws[j], grid) < SINGULARITY_GUARD:
            raise SingularIntermediate(j)
    out = []
    for j in range(1, n + 1):
        term = fc.mul(fc.const(-1.0), fc.quot(ws[j].derivative(), ws[j]))
        if j >= 2:
            term = fc.add(term, fc.quot(ws[j - 1].derivative(), ws[j - 1]))
        out.append(term)
    return out


def intertwiner(basis: TransformationBasis, grid: GridSpec = DEFAULT_GRID) -> DiffOperator:
    """Monic order-N operator annihilating every basis entry.

    Coefficient of d^k is the signed (N x N) minor of the bordered derivative
    matrix (entries' derivatives through order N plus the formal operator
    row), divided by w_N.
    """
    n = len(basis)
    w_top = crum_wronskian(basis, n)
    if _min_abs_on_grid(w_top, grid) < SINGULARITY_GUARD:
        raise SingularPartner("top Wronskian vanishes on the working grid")
    rows = [basis.entries[r].function.derivatives(n) for r in range(n)]
    coeffs = []
    for k in range(n + 1):
        minor = [[row[c] for c in range(n + 1) if c != k] for row in rows]
        sign = fc.const((-1.0) ** (n + k))
        coeffs.append(fc.quot(fc.mul(sign, _det(minor)), w_top))
    # the d^N minor is w_N itself: fold the exact monic leading coefficient
    coeffs[n] = fc.const(1.0)
    return DiffOperator(coeffs)


@dataclass(frozen=True)
class LadderDecomposition:
    """First-order factorization r_N ... r_1 of the intertwiner."""

    factors: tuple[DiffOperator, ...]
    intermediates: tuple[Hamiltonian, ...]  # h_0 = source ... h_N = partner
    superpotentials: tuple[FuncExpr, ...]
    cross_check_residual: float  # agreement of the two intermediate-potential formulas

    def composed(self) -> DiffOperator:
        q = self.factors[0]
        for r in self.factors[1:]:
            q = r.compose(q)
        return q


def ladder(basis: TransformationBasis, grid: GridSpec = DEFAULT_GRID) -> LadderDecomposition:
    """Darboux factors r_j = d/dx + chi_j and the intermediate Hamiltonians.

    The intermediate potentials are computed from both chain formulas
      v_l = chi_{l+1}^2 - chi_{l+1}' + lambda_{l+1} = chi_l^2 + chi_l' + lambda_l
    and their grid agreement is reported.
    """
    n = len(basis)
    chis = superpotentials(basis, grid)
    lams = [complex(e.eigenvalue) for e in basis.entries]
    factors = tuple(DiffOperator((chi, fc.const(1.0))) for chi in chis)

    xs = grid.points()
    potentials = [basis.source.potential]
    cross = 0.0
    for l in range(1, n + 1):
        # v_l from below: chi_l^2 + chi_l' + lambda_l
        up = fc.add(fc.powi(chis[l - 1], 2), chis[l - 1].derivative(), fc.const(lams[l - 1]))
        if l < n:
            down = fc.add(fc.powi(chis[l], 2),
                          fc.mul(fc.const(-1.0), chis[l].derivative()), fc.const(lams[l]))
            dv = np.abs(up.values(xs) - down.values(xs)) / (1.0 + np.abs(up.values(xs)))
            cross = max(cross, float(dv.max()))
        potentials.append(up)
    hams = tuple(Hamiltonian(v) for v in potentials)
    return LadderDecomposition(factors, hams, tuple(chis), cross)


def partner_kernel_functions(basis: TransformationBasis,
                             grid: GridSpec = DEFAULT_GRID) -> list[FuncExpr]:
    """Zero-modes of the transposed intertwiner: omit-one Wronskians over w_N.

    Entry j of the result omits basis entry j from the top determinant; for a
    single-entry basis this is 1/phi.
    """
    n = len(basis)
    w_top = crum_wronskian(basis, n)
    if _min_abs_on_grid(w_top, grid) < SINGULARITY_GUARD:
        raise SingularPartner("top Wronskian vanishes on the working grid")
    if n == 1:
        return [fc.quot(fc.const(1.0), basis.entries[0].function)]
    out = []
    for j in range(n):
        rows = [basis.entries[r].function.derivatives(n - 2)
                for r in range(n) if r != j]
        out.append(fc.quot(_det(rows), w_top))
    return out


def pt_symmetry_defect(f: FuncExpr, grid: GridSpec = DEFAULT_GRID) -> float:
    """min over sign of max-grid defect of f(-x)* = +/- f(x)."""
    xs = grid.points()
    lhs = np.conj(f.values(-xs))
    rhs = f.values(xs)
    scale = 1.0 + np.abs(rhs)
    even = float((np.abs(lhs - rhs) / scale).max())
    odd = float((np.abs(lhs + rhs) / scale).max())
    return min(even, odd)
