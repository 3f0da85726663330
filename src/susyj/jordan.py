"""Finite matrix representations on zero-mode subspaces and their Jordan form.

A Hamiltonian maps the kernel of an intertwiner into itself; the induced
matrix S is recovered here by weighted least squares on a grid.  The Jordan
structure of S is computed by rank filtration of (S - lambda I)^j with
SVD-based rank decisions; ambiguity near the threshold is reported, never
silently resolved.  Also provides the strip-off analysis of paired cells,
the closure polynomial det(E I - S), and triangle (Toeplitz) basis changes
within a chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import funcalc as fc
from .errors import DegenerateTransform, IllConditioned, NotInvariantSubspace
from .operators import DEFAULT_GRID, GridSpec, Hamiltonian, JordanChain


@dataclass(frozen=True)
class SMatrix:
    """Matrix of h on a zero-mode basis: h phi_n = sum_m S[n, m] phi_m."""

    matrix: np.ndarray
    basis_labels: tuple[str, ...]
    fit_residual: float


@dataclass(frozen=True)
class JordanStructure:
    """Cells (eigenvalue, size) plus the transform realizing the form.

    ``transform @ S @ inv(transform)`` is block diagonal with lambda on the
    diagonal and ones on the subdiagonal of each cell.
    """

    cells: tuple[tuple[complex, int], ...]
    transform: np.ndarray
    form_residual: float
    tol_cluster: float
    ambiguous: bool = False

    @property
    def total_size(self) -> int:
        return sum(k for _, k in self.cells)

    def cells_at(self, lam: complex, tol: float | None = None):
        tol = self.tol_cluster * 10 if tol is None else tol
        return [(ev, k) for ev, k in self.cells if abs(ev - lam) <= tol]

    def to_json_obj(self):
        return {"cells": [{"lambda": {"re": ev.real, "im": ev.imag}, "size": k}
                          for ev, k in self.cells],
                "form_residual": self.form_residual}


def build_smatrix(h: Hamiltonian, basis, grid: GridSpec = DEFAULT_GRID,
                  fit_tol: float = 1e-6) -> SMatrix:
    """Least-squares fit of h phi_n in the span of the basis over the grid.

    Grid values are damped by exp(-|x|/L) so growing formal solutions do not
    dominate the fit, and columns are rescaled for conditioning.  Raises
    NotInvariantSubspace when the fit residual exceeds ``fit_tol`` (the basis
    is not closed under h) and ValueError when the damped basis columns are
    numerically dependent.
    """
    functions = [e.function for e in getattr(basis, "entries", basis)]
    labels = tuple(f"phi_{i}" for i in range(len(functions)))
    xs = grid.points()
    damp = np.exp(-np.abs(xs) / grid.half_width)
    a = np.column_stack([f.values(xs) * damp for f in functions])
    b = np.column_stack([h.apply(f).values(xs) * damp for f in functions])
    scale = np.abs(a).max(axis=0)
    if np.any(scale == 0):
        raise ValueError("basis function vanishes identically on grid")
    a_sc = a / scale
    sv = np.linalg.svd(a_sc, compute_uv=False)
    if sv[-1] < 1e-10 * sv[0]:
        raise ValueError("basis functions are numerically dependent on the grid")
    coef, *_ = np.linalg.lstsq(a_sc, b, rcond=None)
    fit = a_sc @ coef
    # normalize by the larger of |h phi_n| and the basis-column scale, so a
    # zero eigenvalue (h phi = 0 up to rounding) does not blow the ratio up
    col_scale = np.maximum(np.linalg.norm(b, axis=0),
                           np.linalg.norm(a_sc, axis=0).max())
    resid = np.linalg.norm(fit - b, axis=0) / col_scale
    worst = float(resid.max())
    if worst > fit_tol:
        raise NotInvariantSubspace(
            f"h does not map the basis into its own span (residual {worst:.3e})")
    s = (coef / scale[:, None]).T
    return SMatrix(s, labels, worst)


def _nullspace(m: np.ndarray, floor: float) -> np.ndarray:
    _, sv, vh = np.linalg.svd(m)
    rank = int(np.sum(sv > floor))
    return vh[rank:].conj().T


def _cluster_eigenvalues(eigs: np.ndarray, tol: float) -> list[list[int]]:
    """Single-linkage clustering with radius ``tol``."""
    n = len(eigs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(eigs[i] - eigs[j]) <= tol:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    # deterministic order: by eigenvalue (real part, then imaginary)
    out = sorted(groups.values(), key=lambda g: (eigs[g[0]].real, eigs[g[0]].imag))
    return out


def _cell_sizes_from_ranks(ranks: list[int], n: int) -> list[int]:
    """Cell size multiset from the rank filtration of (S - lambda I)^j."""
    dims = [n - r for r in ranks]  # dim ker A^j, j = 1..p
    dims = [0] + dims
    sizes = []
    for j in range(1, len(dims)):
        at_least_j = dims[j] - dims[j - 1]
        at_least_j1 = dims[j + 1] - dims[j] if j + 1 < len(dims) else 0
        sizes.extend([j] * (at_least_j - at_least_j1))
    return sorted(sizes, reverse=True)


def jordan_form(s: SMatrix | np.ndarray, tol_cluster: float | None = None,
                cluster_radius: float | None = None) -> JordanStructure:
    """Jordan structure of a small complex matrix.

    Cell sizes come from the ranks of (S - lambda I)^j with SVD rank decisions
    at threshold ``tol_cluster`` (default 1e-8 * ||S||).  Eigenvalues are
    grouped by single linkage at ``cluster_radius``; its default scales like
    eps^(1/n) because an exact size-n Jordan cell is split by that much by any
    backward-stable eigensolver, so a radius at the rank threshold would break
    exact defective input apart.  Raises IllConditioned, carrying both
    candidate structures, when a singular value sits within a factor 10 of the
    rank threshold.
    """
    m = s.matrix if isinstance(s, SMatrix) else np.asarray(s, dtype=complex)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("matrix must be square")
    if n > 8:
        raise ValueError("desk-scale Jordan form limited to n <= 8")
    norm = np.linalg.norm(m, 2)
    if tol_cluster is None:
        tol_cluster = 1e-8 * max(1.0, norm)
    if cluster_radius is None:
        eps = np.finfo(float).eps
        cluster_radius = max(tol_cluster, 10.0 * eps ** (1.0 / max(n, 2)) * max(1.0, norm))
    eigs = np.linalg.eigvals(m)
    clusters = _cluster_eigenvalues(eigs, cluster_radius)

    columns = []
    ambiguous_sizes = None
    for group in clusters:
        lam = complex(np.mean(eigs[group]))
        a = m - lam * np.eye(n)
        mult = len(group)
        powers = [a]
        for _ in range(1, mult):
            powers.append(powers[-1] @ a)
        a_norm = max(1.0, np.linalg.norm(a, 2))
        ranks, low, high = [], [], []
        for j, p in enumerate(powers, start=1):
            floor = tol_cluster * a_norm ** (j - 1)
            sv = np.linalg.svd(p, compute_uv=False)
            ranks.append(int(np.sum(sv > floor)))
            low.append(int(np.sum(sv > floor / 10)))
            high.append(int(np.sum(sv > floor * 10)))
        if low != ranks or high != ranks:
            sizes_a = _cell_sizes_from_ranks(ranks, n)
            sizes_b = _cell_sizes_from_ranks(low if low != ranks else high, n)
            ambiguous_sizes = (sizes_a, sizes_b)
        # truncate filtration at the algebraic multiplicity within the cluster
        dims = [n - r for r in ranks]
        p_max = next((j + 1 for j, d in enumerate(dims) if d >= mult), len(dims))
        sizes = _cell_sizes_from_ranks(ranks[:p_max], n)
        sizes = [k for k in sizes if k > 0]
        # keep only the `mult` dimensions belonging to this cluster
        total = 0
        kept = []
        for k in sizes:
            if total + k <= mult:
                kept.append(k)
                total += k
        sizes = kept
        if len(sizes) > 2:
            raise ValueError(
                f"more than two cells with the same eigenvalue {lam}: sizes {sizes}")

        # chain construction: tops picked from ker A^j away from ker A^{j-1}
        # and away from the descended images of taller chains
        max_size = sizes[0] if sizes else 0
        nulls = [np.zeros((n, 0), dtype=complex)]
        for j in range(1, max_size + 1):
            floor = tol_cluster * a_norm ** (j - 1)
            nulls.append(_nullspace(np.linalg.matrix_power(a, j), floor))
        descendants = []  # A^{s-j} t for each existing top of height s, at stage j
        for j in range(max_size, 0, -1):
            if j < max_size:
                descendants = [a @ v for v in descendants]
            need = sizes.count(j)
            if need:
                if nulls[j - 1].size or descendants:
                    obstruction = np.column_stack([nulls[j - 1]] + descendants)
                else:
                    obstruction = np.zeros((n, 0), dtype=complex)
                tops = _pick_independent(nulls[j], obstruction, need)
                for t in tops:
                    chain_cols = [t]
                    for _ in range(j - 1):
                        chain_cols.append(a @ chain_cols[-1])
                    columns.append((lam, j, chain_cols))
                    descendants.append(t)

    # assemble transform: columns per cell are (top, A top, ..., eigenvector)
    order = np.argsort([-k for _, k, _ in columns], kind="stable")
    cells_sorted = []
    col_list = []
    for idx in order:
        lam, k, chain_cols = columns[idx]
        cells_sorted.append((lam, k))
        col_list.extend(chain_cols)
    c = np.column_stack(col_list) if col_list else np.zeros((n, 0))
    omega = np.linalg.inv(c)
    j_mat = _expected_jordan(cells_sorted)
    resid = float(np.linalg.norm(omega @ m @ c - j_mat) / max(1.0, norm))
    structure = JordanStructure(tuple(cells_sorted), omega, resid, tol_cluster,
                                ambiguous=ambiguous_sizes is not None)
    if ambiguous_sizes is not None:
        raise IllConditioned(
            f"rank decision within 10x of threshold: candidate cell sizes "
            f"{ambiguous_sizes[0]} vs {ambiguous_sizes[1]}",
            candidates=(structure, ambiguous_sizes))
    return structure


def _pick_independent(candidates: np.ndarray, obstruction: np.ndarray, need: int):
    """``need`` columns from span(candidates) independent of span(obstruction)."""
    if candidates.shape[1] < need:
        raise ValueError("null space too small for requested chain tops")
    if obstruction.shape[1]:
        q, _ = np.linalg.qr(obstruction)
        proj = candidates - q @ (q.conj().T @ candidates)
    else:
        proj = candidates
    _, _, vh = np.linalg.svd(proj, full_matrices=False)
    return [candidates @ vh[i].conj() for i in range(need)]


def _expected_jordan(cells) -> np.ndarray:
    n = sum(k for _, k in cells)
    j = np.zeros((n, n), dtype=complex)
    pos = 0
    for lam, k in cells:
        for i in range(k):
            j[pos + i, pos + i] = lam
            if i + 1 < k:
                j[pos + i + 1, pos + i] = 1.0
        pos += k
    return j


@dataclass(frozen=True)
class StripReport:
    """Factorable polynomial part of an intertwiner (paired equal-eigenvalue cells)."""

    pairs: tuple[tuple[complex, int], ...]  # (lambda_l, delta k_l)
    reduced_order: int
    template: str


def strip_off_analysis(js: JordanStructure) -> StripReport:
    """Pairs of same-eigenvalue cells and the resulting factorization template.

    Each pair contributes a factor (lambda - h)^{delta k} with delta k the
    smaller cell size; the remaining operator has order
    M = N - 2 sum(delta k).
    """
    groups: dict[int, list[tuple[complex, int]]] = {}
    keys: list[complex] = []
    for ev, k in js.cells:
        for i, kk in enumerate(keys):
            if abs(ev - kk) <= js.tol_cluster * 10:
                groups[i].append((ev, k))
                break
        else:
            keys.append(ev)
            groups[len(keys) - 1] = [(ev, k)]
    pairs = []
    for i, members in groups.items():
        if len(members) == 2:
            dk = min(k for _, k in members)
            pairs.append((keys[i], dk))
    n = js.total_size
    m = n - 2 * sum(dk for _, dk in pairs)
    if pairs:
        factors = " ".join(f"(lambda_{i} - h)^{dk}" for i, (_, dk) in enumerate(pairs))
        template = f"q_{n} = p_{m} {factors}"
    else:
        template = f"q_{n} = p_{n} (not strippable)"
    return StripReport(tuple(pairs), m, template)


def susy_polynomial(js: JordanStructure) -> np.ndarray:
    """Coefficients (highest power first) of det(E I - S) = prod (E - lambda_i)^{k_i}."""
    poly = np.array([1.0 + 0j])
    for ev, k in js.cells:
        for _ in range(k):
            poly = np.convolve(poly, np.array([1.0, -ev]))
    return poly


def polynomial_in_energy(coeffs: np.ndarray, e: complex) -> complex:
    return complex(np.polyval(coeffs, e))


def triangle_transform(chain: JordanChain, alphas) -> JordanChain:
    """Toeplitz lower-triangular basis change within one chain.

    psi'_i = sum_{j <= i} alphas[i - j] psi_j; the result satisfies the same
    chain relations.  The implied transformation of the conjugated basis is
    available via :func:`conjugate_triangle_matrix`.
    """
    alphas = [complex(a) for a in alphas]
    if not alphas or alphas[0] == 0:
        raise DegenerateTransform("leading coefficient must be nonzero")
    if len(alphas) > chain.size:
        raise ValueError("more coefficients than chain members")
    alphas = alphas + [0j] * (chain.size - len(alphas))
    new_fns = []
    for i in range(chain.size):
        terms = [fc.mul(fc.const(alphas[i - j]), chain.functions[j])
                 for j in range(i + 1) if alphas[i - j] != 0]
        new_fns.append(fc.add(*terms))
    return JordanChain(chain.eigenvalue, tuple(new_fns))


def triangle_matrix(alphas, size: int) -> np.ndarray:
    alphas = [complex(a) for a in alphas] + [0j] * size
    m = np.zeros((size, size), dtype=complex)
    for i in range(size):
        for j in range(i + 1):
            m[i, j] = alphas[i - j]
    return m


def conjugate_triangle_matrix(alphas, size: int) -> np.ndarray:
    """Matrix the conjugated basis must transform by to keep biorthogonality:
    the inverse conjugate transpose of the direct Toeplitz matrix."""
    return np.linalg.inv(triangle_matrix(alphas, size)).conj().T
