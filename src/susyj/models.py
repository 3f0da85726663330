"""Built-in exactly solvable partner-Hamiltonian families.

Three constructions seeded from the free particle:

* ``model_rank2``    -- reflectionless partner with a single size-2 Jordan
  cell at lambda = -alpha^2 (transformation pair: one solution plus one
  formal associated function);
* ``model_two_level`` -- two nondegenerate bound states at -(alpha +/- beta)^2
  whose beta -> 0 confluence produces the rank-2 cell;
* ``model_inverse_square`` -- complex-pole inverse-square partner with a
  normalizable zero-binorm state at the continuum threshold (full machinery
  for n = 1; bare chains and binorms for n > 1).

Every bundle is a verification fixture: construction re-derives the partner
potential and intertwiner through the Darboux engine and measures the
intertwining, kernel and chain residuals before returning.  The module also
hosts the level-confluence constructions (exact parameter derivatives), the
symmetry-operator checks, and the resolution-of-identity machinery including
the epsilon-regularized threshold variants.
"""

from __future__ import annotations

import cmath
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import darboux as dx
from . import funcalc as fc
from . import jordan as jd
from . import quadrature as qd
from .errors import (ClassMismatch, ExtrapolationUnstable, KappaMismatch,
                     ModelError, ParameterDomain)
from .funcalc import FuncExpr
from .operators import (DiffOperator, GridSpec, Hamiltonian, JordanChain,
                        annihilation_residual, chain_residual, default_probes,
                        intertwining_residual)

SQRT2PI = math.sqrt(2.0 * math.pi)

FREE_HAMILTONIAN = Hamiltonian(fc.const(0.0))


class ContinuumFamily:
    """psi(x; k) = sum_j c_j(k) a_j(x) exp(ikx).

    ``coefficient_fns`` are the scalar k-dependent weights (normalization
    included); ``components`` the spatial factors.  ``norm_fn`` records the
    branch normalization whose removal (``numerator_expr``) is single-valued
    in complex k, which is what the analytic-continuation limit checks use.
    ``band_transforms`` holds each continuum-transform k-band already computed
    on this family (see ``_continuum_apply``), so it lives as long as the family.
    """

    def __init__(self, coefficient_fns, components, norm_fn=None,
                 eigenvalue_fn=None, k_excluded=()):
        self.coefficient_fns = tuple(coefficient_fns)
        self.components = tuple(components)
        self.norm_fn = norm_fn or (lambda k: 1.0)
        self.eigenvalue_fn = eigenvalue_fn or (lambda k: k * k)
        self.k_excluded = tuple(k_excluded)
        self.band_transforms: dict = {}

    def expr(self, k: complex) -> FuncExpr:
        k = complex(k)
        wave = fc.exp(fc.mul(fc.const(1j * k), fc.X))
        terms = [fc.mul(fc.const(complex(cf(k))), comp)
                 for cf, comp in zip(self.coefficient_fns, self.components)]
        return fc.mul(fc.add(*terms), wave)

    def numerator_expr(self, k: complex) -> FuncExpr:
        k = complex(k)
        norm = complex(self.norm_fn(k))
        wave = fc.exp(fc.mul(fc.const(1j * k), fc.X))
        terms = [fc.mul(fc.const(complex(cf(k)) * norm), comp)
                 for cf, comp in zip(self.coefficient_fns, self.components)]
        return fc.mul(fc.add(*terms), wave)

    def values(self, xs, k: complex):
        xs = np.asarray(xs, dtype=float)
        acc = np.zeros(len(xs), dtype=complex)
        for cf, comp in zip(self.coefficient_fns, self.components):
            c = complex(cf(complex(k)))
            if c != 0:
                acc += c * comp.values(xs)
        return acc * np.exp(1j * complex(k) * xs)


@dataclass
class ModelBundle:
    """A partner pair with every closed-form object needed for verification."""

    name: str
    parameters: dict
    h_plus: Hamiltonian
    h_minus: Hamiltonian
    q_minus: DiffOperator | None
    q_plus: DiffOperator | None
    kernel_minus: dx.TransformationBasis | None
    kernel_plus: dx.TransformationBasis | None
    chains_minus: tuple[JordanChain, ...]
    chains_plus: tuple[JordanChain, ...]
    continuum: ContinuumFamily | None
    symmetry_op: DiffOperator | None
    symmetry_eigenvalue_fn: object | None
    symmetry_zero_modes: tuple[FuncExpr, ...]
    grid: GridSpec
    continuum_threshold: float | None
    diagnostics: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    @property
    def psi_zero_energy(self) -> FuncExpr | None:
        if self.continuum is None or 0.0 in self.continuum.k_excluded:
            return None
        return self.continuum.expr(0.0)


def _verify_bundle(bundle: ModelBundle, tol_intertwine=1e-8, tol_chain=1e-9):
    """Measure the defining residuals; raise ModelError when out of tolerance."""
    diag = bundle.diagnostics
    grid = bundle.grid
    if bundle.q_minus is not None:
        diag["intertwine_minus"] = intertwining_residual(
            bundle.h_plus, bundle.h_minus, bundle.q_minus, default_probes(), grid)
        diag["intertwine_plus"] = intertwining_residual(
            bundle.h_minus, bundle.h_plus, bundle.q_plus, default_probes(), grid)
    if bundle.kernel_minus is not None:
        diag["kernel_minus_annihilation"] = max(
            annihilation_residual(bundle.q_minus, e.function, grid)
            for e in bundle.kernel_minus.entries)
        diag["kernel_minus_chain"] = bundle.kernel_minus.validate(grid, tol=1e-6)
    if bundle.kernel_plus is not None:
        diag["kernel_plus_annihilation"] = max(
            annihilation_residual(bundle.q_plus, e.function, grid)
            for e in bundle.kernel_plus.entries)
        diag["kernel_plus_chain"] = bundle.kernel_plus.validate(grid, tol=1e-6)
    worst_chain = 0.0
    for chain in bundle.chains_minus:
        worst_chain = max(worst_chain, chain_residual(bundle.h_minus, chain, grid))
    for chain in bundle.chains_plus:
        worst_chain = max(worst_chain, chain_residual(bundle.h_plus, chain, grid))
    diag["chain_residual"] = worst_chain

    if diag.get("intertwine_minus", 0.0) > tol_intertwine \
            or diag.get("intertwine_plus", 0.0) > tol_intertwine:
        raise ModelError(f"intertwining residual out of tolerance: {diag}")
    if diag.get("kernel_minus_annihilation", 0.0) > tol_chain \
            or diag.get("kernel_plus_annihilation", 0.0) > tol_chain:
        raise ModelError(f"kernel annihilation residual out of tolerance: {diag}")
    if worst_chain > tol_chain:
        raise ModelError(f"chain residual out of tolerance: {diag}")


def _symmetry_operator(q_minus: DiffOperator, q_plus: DiffOperator) -> DiffOperator:
    return q_minus.compose(DiffOperator.d_dx().compose(q_plus))


def _rank2_grid(alpha, x0):
    l = max(12.0 / alpha, 8.0) + abs(x0)
    return GridSpec(-l, l, 401)


def model_rank2(alpha: float, x0: float, z: complex,
                grid: GridSpec | None = None) -> ModelBundle:
    """Reflectionless partner with one size-2 Jordan cell at -alpha^2."""
    alpha = float(alpha)
    x0 = float(x0)
    z = complex(z)
    if alpha <= 0:
        raise ParameterDomain("alpha must be positive")
    if z.imag == 0:
        raise ParameterDomain("Im z must be nonzero (real z makes the partner singular)")
    grid = grid or _rank2_grid(alpha, x0)
    lam0 = -alpha * alpha

    xi = fc.X - x0
    phi0 = fc.cosh(alpha * xi)
    phi1 = fc.add(fc.mul(fc.const(-1 / (2 * alpha)), fc.X - z, fc.sinh(alpha * xi)),
                  fc.mul(fc.const(1 / (4 * alpha ** 2)), fc.cosh(alpha * xi)))
    w_fn = fc.add(fc.sinh(2 * alpha * xi), fc.mul(fc.const(2 * alpha), fc.X - z))
    kernel_minus = dx.TransformationBasis(
        [dx.BasisEntry(phi0, lam0, 0), dx.BasisEntry(phi1, lam0, 1)], FREE_HAMILTONIAN)

    q_minus = dx.intertwiner(kernel_minus, grid)
    q_plus = q_minus.transpose()
    h_minus = Hamiltonian(dx.partner_potential(fc.const(0.0), kernel_minus, grid))

    c = (2 * alpha) ** 1.5
    phi0p = fc.quot(fc.mul(fc.const(c), phi0), w_fn)
    phi1p = fc.quot(fc.mul(fc.const(-c), phi1), w_fn)
    kernel_plus = dx.TransformationBasis(
        [dx.BasisEntry(phi0p, lam0, 0), dx.BasisEntry(phi1p, lam0, 1)], h_minus)

    wp = fc.quot(w_fn.derivative(), w_fn)
    wpp = fc.quot(w_fn.derivative().derivative(), w_fn)
    a2 = alpha * alpha
    # numerator convention for the continuation checks: (k^2 + alpha^2) psi
    continuum = ContinuumFamily(
        coefficient_fns=(
            lambda k: 1.0 / SQRT2PI,
            lambda k: 1j * k / (SQRT2PI * (a2 + k * k)),
            lambda k: -0.5 / (SQRT2PI * (a2 + k * k)),
        ),
        components=(fc.const(1.0), wp, wpp),
        norm_fn=lambda k: a2 + k * k,
    )

    r5 = _symmetry_operator(q_minus, q_plus)
    bundle = ModelBundle(
        name="rank2",
        parameters={"alpha": alpha, "x0": x0, "z": z},
        h_plus=FREE_HAMILTONIAN, h_minus=h_minus,
        q_minus=q_minus, q_plus=q_plus,
        kernel_minus=kernel_minus, kernel_plus=kernel_plus,
        chains_minus=(JordanChain(lam0, (phi0p, phi1p)),),
        chains_plus=(),
        continuum=continuum,
        symmetry_op=r5,
        symmetry_eigenvalue_fn=lambda k: 1j * k * (k * k + a2) ** 2,
        symmetry_zero_modes=(phi0p, phi1p),
        grid=grid,
        continuum_threshold=0.0,
    )
    _verify_bundle(bundle)
    return bundle


def model_two_level(alpha: float, beta: float, x0: float, z: complex,
                    grid: GridSpec | None = None) -> ModelBundle:
    """Partner with two nondegenerate bound states at -(alpha +/- beta)^2."""
    z = complex(z)
    x0 = float(x0)
    notes = []
    alpha_c = complex(alpha)
    if alpha_c.real > 0 and alpha_c.imag == 0:
        alpha = float(alpha_c.real)
    elif alpha_c.real == 0 and alpha_c.imag > 0:
        alpha = alpha_c
        notes.append("purely imaginary alpha accepted but untested against "
                     "the published family")
    else:
        raise ParameterDomain("alpha must be positive (or -i*alpha positive)")
    beta = float(beta)
    if z.imag == 0:
        raise ParameterDomain("Im z must be nonzero")
    if beta == 0:
        raise ParameterDomain("beta = 0 is the confluent case: use model_rank2")
    if not 0 < beta < math.pi / (2 * abs(z.imag)):
        raise ParameterDomain("beta must lie in (0, pi / (2 |Im z|))")
    if beta == alpha:
        raise ParameterDomain("beta = alpha collapses the lower level")
    grid = grid or _rank2_grid(abs(complex(alpha)), x0)

    kp, km = alpha + beta, alpha - beta
    lam_p, lam_m = -kp * kp, -km * km
    xi_p = (alpha * x0 + beta * z) / kp
    xi_m = (alpha * x0 - beta * z) / km
    phi_p = fc.cosh(fc.mul(fc.const(kp), fc.X - xi_p))
    phi_m = fc.cosh(fc.mul(fc.const(km), fc.X - xi_m))
    w_fn = fc.add(fc.sinh(fc.mul(fc.const(2 * alpha), fc.X - x0)),
                  fc.mul(fc.const(alpha / beta),
                         fc.sinh(fc.mul(fc.const(2 * beta), fc.X - z))))
    kernel_minus = dx.TransformationBasis(
        [dx.BasisEntry(phi_p, lam_p, 0), dx.BasisEntry(phi_m, lam_m, 0)],
        FREE_HAMILTONIAN)

    q_minus = dx.intertwiner(kernel_minus, grid)
    q_plus = q_minus.transpose()
    h_minus = Hamiltonian(dx.partner_potential(fc.const(0.0), kernel_minus, grid))

    psit_p = fc.quot(phi_m, w_fn)  # kernel of the transposed intertwiner
    psit_m = fc.quot(phi_p, w_fn)
    kernel_plus = dx.TransformationBasis(
        [dx.BasisEntry(psit_p, lam_p, 0), dx.BasisEntry(psit_m, lam_m, 0)], h_minus)

    # normalized bound states (binorm 1); constants follow from the closed-form
    # binorms -+ beta / (2 alpha (alpha +/- beta))
    c_p = math.sqrt(2) * 1j * alpha * cmath.sqrt(1 / beta + 1 / alpha)
    c_m = math.sqrt(2) * alpha * cmath.sqrt(1 / beta - 1 / alpha)
    psi_p = fc.mul(fc.const(c_p), psit_p)
    psi_m = fc.mul(fc.const(c_m), psit_m)

    a2b2 = alpha * alpha + beta * beta
    fourab = 4 * alpha * alpha * beta * beta

    def branch_norm(k):
        # positive root on the real axis; equals k^2 + o(k^2) at infinity
        return cmath.sqrt((k * k + a2b2) ** 2 - fourab)

    wp = fc.quot(w_fn.derivative(), w_fn)
    wpp = fc.quot(w_fn.derivative().derivative(), w_fn)
    continuum = ContinuumFamily(
        coefficient_fns=(
            lambda k: (a2b2 + k * k) / (SQRT2PI * branch_norm(k)),
            lambda k: 1j * k / (SQRT2PI * branch_norm(k)),
            lambda k: -0.5 / (SQRT2PI * branch_norm(k)),
        ),
        components=(fc.const(1.0), wp, wpp),
        norm_fn=branch_norm,
    )

    r5 = _symmetry_operator(q_minus, q_plus)
    bundle = ModelBundle(
        name="two_level",
        parameters={"alpha": alpha, "beta": beta, "x0": x0, "z": z},
        h_plus=FREE_HAMILTONIAN, h_minus=h_minus,
        q_minus=q_minus, q_plus=q_plus,
        kernel_minus=kernel_minus, kernel_plus=kernel_plus,
        chains_minus=(JordanChain(lam_p, (psi_p,)), JordanChain(lam_m, (psi_m,))),
        chains_plus=(),
        continuum=continuum,
        symmetry_op=r5,
        symmetry_eigenvalue_fn=lambda k: 1j * k * ((k * k + a2b2) ** 2 - fourab),
        symmetry_zero_modes=(psi_p, psi_m),
        grid=grid,
        continuum_threshold=0.0,
        notes=tuple(notes),
    )
    _verify_bundle(bundle)
    return bundle


def _double_factorial(n: int) -> int:
    if n <= 0:
        return 1
    return math.prod(range(n, 0, -2))


def inverse_square_chain(z: complex, n: int) -> JordanChain:
    """Threshold chain psi_j proportional to (x - z)^(2j - n), j = 0..floor((n-1)/2)."""
    fns = []
    for j in range((n - 1) // 2 + 1):
        coef = _double_factorial(2 * (n - j) - 1) / (
            _double_factorial(2 * j) * _double_factorial(2 * n - 1))
        fns.append(fc.mul(fc.const(coef), fc.powi(fc.X - fc.const(z), -(n - 2 * j))))
    return JordanChain(0.0, tuple(fns))


def model_inverse_square(z: complex, n: int = 1,
                         grid: GridSpec | None = None) -> ModelBundle:
    """Partner n(n+1)/(x-z)^2 with normalizable states at the threshold."""
    z = complex(z)
    n = int(n)
    if z.imag == 0:
        raise ParameterDomain("Im z must be nonzero")
    if n < 1:
        raise ParameterDomain("n must be a positive integer")
    grid = grid or GridSpec(-12, 12, 401)
    v2 = fc.mul(fc.const(n * (n + 1)), fc.powi(fc.X - fc.const(z), -2))
    h_minus = Hamiltonian(v2)
    chain = inverse_square_chain(z, n)

    if n > 1:
        bundle = ModelBundle(
            name="inverse_square", parameters={"z": z, "n": n},
            h_plus=FREE_HAMILTONIAN, h_minus=h_minus,
            q_minus=None, q_plus=None,
            kernel_minus=None, kernel_plus=None,
            chains_minus=(chain,), chains_plus=(),
            continuum=None, symmetry_op=None, symmetry_eigenvalue_fn=None,
            symmetry_zero_modes=(), grid=grid, continuum_threshold=0.0,
            notes=("resolution of identity unsupported for n > 1",),
        )
        _verify_bundle(bundle)
        return bundle

    lin = fc.X - fc.const(z)
    kernel_minus = dx.TransformationBasis([dx.BasisEntry(lin, 0.0, 0)], FREE_HAMILTONIAN)
    q_minus = dx.intertwiner(kernel_minus, grid)  # d/dx - 1/(x - z)
    q_plus = q_minus.transpose()
    psi0 = fc.powi(lin, -1)
    kernel_plus = dx.TransformationBasis([dx.BasisEntry(psi0, 0.0, 0)], h_minus)
    continuum = ContinuumFamily(
        coefficient_fns=(lambda k: 1.0 / SQRT2PI,
                         lambda k: -1.0 / (SQRT2PI * 1j * k)),
        components=(fc.const(1.0), psi0),
        k_excluded=(0.0,),
    )
    r3 = _symmetry_operator(q_minus, q_plus)
    bundle = ModelBundle(
        name="inverse_square", parameters={"z": z, "n": n},
        h_plus=FREE_HAMILTONIAN, h_minus=h_minus,
        q_minus=q_minus, q_plus=q_plus,
        kernel_minus=kernel_minus, kernel_plus=kernel_plus,
        chains_minus=(chain,), chains_plus=(),
        continuum=continuum,
        symmetry_op=r3,
        symmetry_eigenvalue_fn=lambda k: 1j * k ** 3,
        symmetry_zero_modes=(psi0,),
        grid=grid,
        continuum_threshold=0.0,
    )
    _verify_bundle(bundle)
    return bundle


BUILTIN_MODELS = {
    "rank2": model_rank2,
    "two_level": model_two_level,
    "inverse_square": model_inverse_square,
}


# -- level confluence -------------------------------------------------------------


def _two_level_family_exprs(alpha, x0, z):
    """phi_{+/-beta} and lambda_{+/-beta} with beta symbolic."""
    b = fc.param("beta")
    u = fc.X - x0
    zc = complex(z)
    arg_p = fc.add(fc.mul(fc.add(fc.const(alpha), b), u),
                   fc.mul(fc.const(-(zc - x0)), b))
    arg_m = fc.add(fc.mul(fc.add(fc.const(alpha), fc.mul(fc.const(-1.0), b)), u),
                   fc.mul(fc.const(zc - x0), b))
    phi_p, phi_m = fc.cosh(arg_p), fc.cosh(arg_m)
    lam_p = fc.mul(fc.const(-1.0), fc.powi(fc.add(fc.const(alpha), b), 2))
    lam_m = fc.mul(fc.const(-1.0), fc.powi(fc.add(fc.const(alpha), fc.mul(fc.const(-1.0), b)), 2))
    return phi_p, phi_m, lam_p, lam_m


def confluence_limit(alpha: float, x0: float, z: complex) -> JordanChain:
    """Size-2 cell from the exact beta-derivative of the two-level family.

    phi_1 = d/dbeta(phi_{+beta} - phi_{-beta}) / d/dbeta(lambda_{+beta} -
    lambda_{-beta}) at beta = 0, shifted by phi_0 / (4 alpha^2); this
    reproduces the rank-2 associated function exactly.
    """
    phi_p, phi_m, lam_p, lam_m = _two_level_family_exprs(alpha, x0, z)
    num = fc.add(phi_p.param_derivative("beta"),
                 fc.mul(fc.const(-1.0), phi_m.param_derivative("beta"))).bind({"beta": 0.0})
    dlam = fc.add(lam_p.param_derivative("beta"),
                  fc.mul(fc.const(-1.0), lam_m.param_derivative("beta")))
    dlam0 = complex(dlam.evaluate(0.0, {"beta": 0.0}))  # equals -4 alpha
    phi0 = fc.cosh(fc.mul(fc.const(alpha), fc.X - x0))
    phi1 = fc.add(fc.mul(fc.const(1.0 / dlam0), num),
                  fc.mul(fc.const(1.0 / (4 * alpha ** 2)), phi0))
    return JordanChain(-alpha * alpha, (phi0, phi1))


def confluence_fd_chain(alpha: float, x0: float, z: complex,
                        betas=(1e-2, 1e-3), grid: GridSpec | None = None,
                        tol: float = 1e-6) -> JordanChain:
    """Finite-difference-in-beta route to the same cell, Richardson extrapolated.

    The ratio (phi_{+b} - phi_{-b}) / (lambda_{+b} - lambda_{-b}) is even in
    beta, so two betas eliminate the O(beta^2) error.  Raises
    ExtrapolationUnstable when three or more betas disagree after pairwise
    extrapolation.
    """
    if len(betas) < 2:
        raise ValueError("need at least two beta values")
    grid = grid or _rank2_grid(alpha, x0)
    phi0 = fc.cosh(fc.mul(fc.const(alpha), fc.X - x0))

    def ratio(beta):
        phi_p, phi_m, lam_p, lam_m = _two_level_family_exprs(alpha, x0, z)
        num = fc.add(phi_p, fc.mul(fc.const(-1.0), phi_m)).bind({"beta": beta})
        dl = complex(fc.add(lam_p, fc.mul(fc.const(-1.0), lam_m))
                     .bind({"beta": beta}).evaluate(0.0))
        return fc.add(fc.mul(fc.const(1.0 / dl), num),
                      fc.mul(fc.const(1.0 / (4 * alpha ** 2)), phi0))

    candidates = [ratio(b) for b in betas]

    def extrapolate(fa, fb, ba, bb):
        wa = bb * bb / (bb * bb - ba * ba)
        wb = -ba * ba / (bb * bb - ba * ba)
        return fc.add(fc.mul(fc.const(wa), fa), fc.mul(fc.const(wb), fb))

    extraps = [extrapolate(candidates[i], candidates[i + 1], betas[i], betas[i + 1])
               for i in range(len(betas) - 1)]
    if len(extraps) > 1:
        xs = grid.points()
        a, b = extraps[-1].values(xs), extraps[-2].values(xs)
        spread = float((np.abs(a - b) / (1 + np.abs(a))).max())
        if spread > tol:
            raise ExtrapolationUnstable(f"beta extrapolations disagree by {spread:.3e}")
    return JordanChain(-alpha * alpha, (phi0, extraps[-1]))


def confluence_normalized_limits(alpha: float, x0: float, z: complex,
                                 betas=(2e-2, 1e-2, 5e-3),
                                 grid: GridSpec | None = None) -> float:
    """Defect of the normalized-eigenfunction limits
    2 sqrt(alpha) sqrt(beta) psi_{-beta} -> phi+_0  and
    -2 i sqrt(alpha) sqrt(beta) psi_{+beta} -> phi+_0 as beta -> 0."""
    grid = grid or _rank2_grid(alpha, x0)
    xs = grid.points()
    target = model_rank2(alpha, x0, z, grid).kernel_plus.entries[0].function.values(xs)

    worst = 0.0
    for sign in (+1, -1):
        series = []
        for beta in betas:
            b = model_two_level(alpha, beta, x0, z, grid)
            psi = b.chains_minus[0 if sign > 0 else 1].functions[0]
            pref = -2j * math.sqrt(alpha) if sign > 0 else 2 * math.sqrt(alpha)
            series.append(pref * math.sqrt(beta) * psi.values(xs))
        r0, r1, r2 = series
        extrap = (r0 - 6 * r1 + 8 * r2) / 3.0
        worst = max(worst, float(np.abs(extrap - target).max() / (1 + np.abs(target).max())))
    return worst


def confluence_dyad_limit(alpha: float, x0: float, z: complex, pairs,
                          betas=(2e-2, 1e-2, 5e-3),
                          grid: GridSpec | None = None) -> float:
    """Defect of the discrete-part limit
    psi_{+b}(x) psi_{+b}(x') + psi_{-b}(x) psi_{-b}(x')
      -> phi+_0(x) phi+_1(x') + phi+_1(x) phi+_0(x')."""
    grid = grid or _rank2_grid(alpha, x0)
    r2 = model_rank2(alpha, x0, z, grid)
    phi0p = r2.kernel_plus.entries[0].function
    phi1p = r2.kernel_plus.entries[1].function
    xs = np.array([p[0] for p in pairs], dtype=float)
    xps = np.array([p[1] for p in pairs], dtype=float)
    target = (phi0p.values(xs) * phi1p.values(xps)
              + phi1p.values(xs) * phi0p.values(xps))

    series = []
    for beta in betas:
        b = model_two_level(alpha, beta, x0, z, grid)
        pp = b.chains_minus[0].functions[0]
        pm = b.chains_minus[1].functions[0]
        series.append(pp.values(xs) * pp.values(xps) + pm.values(xs) * pm.values(xps))
    r0, r1, r2v = series
    extrap = (r0 - 6 * r1 + 8 * r2v) / 3.0
    return float(np.abs(extrap - target).max())


def _solve_kappa(difference: FuncExpr, phi0: FuncExpr, scale: complex,
                 sample_points=(0.35, -0.85, 1.45), tol: float = 1e-6) -> complex:
    """kappa with difference(x) = kappa * phi0(x) / scale at the sample points."""
    vals = []
    for x in sample_points:
        d = complex(difference.evaluate(x))
        p = complex(phi0.evaluate(x))
        vals.append(d * scale / p)
    if abs(vals[0] - vals[1]) > tol * (1 + abs(vals[0])):
        raise KappaMismatch(f"no single matching constant: {vals[0]} vs {vals[1]}")
    if abs(vals[0] - vals[2]) > tol * (1 + abs(vals[0])):
        raise KappaMismatch(f"cross-check failed at third point: {vals[0]} vs {vals[2]}")
    return vals[0]


def coalesce_triple(psis, lams, mu0: complex, param: str = "mu",
                    kappa: complex | None = None,
                    grid: GridSpec | None = None) -> JordanChain:
    """Size-3 cell from three coalescing levels given symbolically in ``param``.

    ``psis`` are three eigenfunction expressions (in x, parameterized by mu)
    and ``lams`` the three eigenvalue expressions (in mu only); all three
    levels must coalesce at mu0 with pairwise distinct first derivatives
    lambda'_j(mu0).  The matching constant kappa is solved numerically at two
    points and cross-checked at a third unless supplied.
    """
    mu0 = complex(mu0)
    lamd = [l.param_derivative(param) for l in lams]
    lamd0 = [complex(l.evaluate(0.0, {param: mu0})) for l in lamd]
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(lamd0[i] - lamd0[j]) < 1e-10 * (1 + abs(lamd0[i])):
                raise ParameterDomain(f"lambda'_{i} and lambda'_{j} coincide at mu0")
    lam0 = complex(lams[0].bind({param: mu0}).evaluate(0.0))
    phi0 = psis[0].bind({param: mu0})

    dpsi = [p.param_derivative(param) for p in psis]
    if kappa is None:
        lhs2 = fc.mul(fc.const(1.0 / (lamd0[1] - lamd0[2])),
                      fc.add(dpsi[1], fc.mul(fc.const(-1.0), dpsi[2]))).bind({param: mu0})
        lhs1_bare = fc.mul(fc.const(1.0 / (lamd0[0] - lamd0[2])),
                           fc.add(dpsi[0], fc.mul(fc.const(-1.0), dpsi[2]))).bind({param: mu0})
        difference = fc.add(lhs2, fc.mul(fc.const(-1.0), lhs1_bare))
        kappa = _solve_kappa(difference, phi0, lamd0[0] - lamd0[2])

    mu = fc.param(param)
    shift = fc.add(fc.const(1.0), fc.mul(fc.const(kappa),
                                         fc.add(mu, fc.const(-mu0))))
    psi_0 = [fc.mul(shift, psis[0]), psis[1], psis[2]]
    dpsi_0 = [p.param_derivative(param) for p in psi_0]
    psi_1 = []
    for j in (0, 1):
        den = fc.add(lamd[j], fc.mul(fc.const(-1.0), lamd[2]))
        psi_1.append(fc.quot(fc.add(dpsi_0[j], fc.mul(fc.const(-1.0), dpsi_0[2])), den))
    phi1 = psi_1[0].bind({param: mu0})
    dpsi_1 = [p.param_derivative(param) for p in psi_1]
    phi2 = fc.mul(fc.const(1.0 / (2 * (lamd0[0] - lamd0[1]))),
                  fc.add(dpsi_1[0], fc.mul(fc.const(-1.0), dpsi_1[1]))).bind({param: mu0})
    return JordanChain(lam0, (phi0, phi1, phi2))


def coalesce_mixed(psi10, psi11, lam1, psi2, lam2, mu0: complex, param: str = "mu",
                   kappa: complex | None = None) -> JordanChain:
    """Size-3 cell from a size-2 chain coalescing with a simple level.

    Uses the alternate top formula with the factor 2 (lambda'_2 - lambda'_1)
    and the derivative combination d(psi2_aux)/dmu - 2 d(psi11)/dmu.
    """
    mu0 = complex(mu0)
    lam1d = lam1.param_derivative(param)
    lam2d = lam2.param_derivative(param)
    l1d0 = complex(lam1d.evaluate(0.0, {param: mu0}))
    l2d0 = complex(lam2d.evaluate(0.0, {param: mu0}))
    if abs(l1d0 - l2d0) < 1e-10 * (1 + abs(l1d0)):
        raise ParameterDomain("lambda'_1 and lambda'_2 coincide at mu0")
    lam0 = complex(lam1.bind({param: mu0}).evaluate(0.0))
    phi0 = psi10.bind({param: mu0})
    phi1 = psi11.bind({param: mu0})

    if kappa is None:
        raw = fc.mul(fc.const(1.0 / (l1d0 - l2d0)),
                     fc.add(psi10.param_derivative(param),
                            fc.mul(fc.const(-1.0), psi2.param_derivative(param))
                            )).bind({param: mu0})
        # raw - kappa phi0 / (l1d0 - l2d0) must equal phi1
        difference = fc.add(raw, fc.mul(fc.const(-1.0), phi1))
        kappa = _solve_kappa(difference, phi0, l1d0 - l2d0)

    mu = fc.param(param)
    psi2_aux = fc.mul(fc.add(fc.const(1.0),
                             fc.mul(fc.const(kappa), fc.add(mu, fc.const(-mu0)))), psi2)
    den = fc.add(lam1d, fc.mul(fc.const(-1.0), lam2d))
    psi2_1 = fc.quot(fc.add(psi10.param_derivative(param),
                            fc.mul(fc.const(-1.0), psi2_aux.param_derivative(param))), den)
    phi2 = fc.mul(fc.const(1.0 / (2 * (l2d0 - l1d0))),
                  fc.add(psi2_1.param_derivative(param),
                         fc.mul(fc.const(-2.0), psi11.param_derivative(param))
                         )).bind({param: mu0})
    return JordanChain(lam0, (phi0, phi1, phi2))


# -- symmetry operator -------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryReport:
    commutation_residual: float
    antisymmetry_defect: float
    eigenvalue_residuals: dict
    zero_mode_residuals: tuple[float, ...]
    constant_image_spread: float | None

    @property
    def max_eigenvalue_residual(self) -> float:
        return max(self.eigenvalue_residuals.values(), default=0.0)


def symmetry_check(bundle: ModelBundle, k_values=(0.7, 1.3)) -> SymmetryReport:
    """Verify R h- = h- R, R^t = -R, the continuum eigenvalues, and zero modes."""
    if bundle.symmetry_op is None:
        raise ModelError("bundle has no symmetry operator")
    r = bundle.symmetry_op
    grid = bundle.grid
    xs = grid.points()

    commut = intertwining_residual(bundle.h_minus, bundle.h_minus, r,
                                   default_probes(), grid)

    rt = r.transpose()
    neg = -r
    anti = 0.0
    for a, b in zip(rt.coefficients, neg.coefficients):
        pts = fc.chebyshev_points(grid.x_min / 2, grid.x_max / 2, 32)
        av, bv = a.values(pts), b.values(pts)
        anti = max(anti, float((np.abs(av - bv) / (1 + np.abs(bv))).max()))

    eig_res = {}
    for k in k_values:
        psi = bundle.continuum.expr(k)
        lhs = r.apply_values(psi, xs)
        rhs = complex(bundle.symmetry_eigenvalue_fn(k)) * psi.values(xs)
        eig_res[k] = float((np.abs(lhs - rhs) / (1 + np.abs(rhs))).max())

    zero_res = []
    modes = list(bundle.symmetry_zero_modes)
    psi0e = bundle.psi_zero_energy
    if psi0e is not None:
        modes.append(psi0e)
    for f in modes:
        zero_res.append(annihilation_residual(r, f, grid))

    const_spread = None
    if psi0e is not None and bundle.q_plus is not None:
        img = bundle.q_plus.apply(psi0e).values(xs)
        const_spread = float(np.abs(img - img.mean()).max())
    return SymmetryReport(commut, anti, eig_res, tuple(zero_res), const_spread)


# -- resolution of identity ----------------------------------------------------------


VARIANT_DIRECT = "direct"            # no regulator: continuum plus discrete dyads
VARIANT_COUNTERTERM = "counterterm"  # |k| >= eps with the psi0 psi0 / (pi eps) subtraction
VARIANT_MODIFIED = "modified"        # counterterm modulated by 2 sin^2(eps (x-x')/2)


@dataclass(frozen=True)
class ROITestResult:
    label: str
    class_ok: bool
    per_eps_error: tuple[float, ...]
    extrapolated_error: float
    attribution: dict


@dataclass(frozen=True)
class ROIReport:
    variant: str
    eps_seq: tuple[float, ...]
    k_window: float
    results: tuple[ROITestResult, ...]


def _worker_count() -> int:
    try:
        return max(1, int(os.environ.get("SUSYJ_THREADS", "1")))
    except ValueError:
        return 1


class _InnerProducts:
    """Precomputed quadrature for d(k) = int psi(x';-k) f(x') dx' over a k band."""

    def __init__(self, family: ContinuumFamily, f: FuncExpr, k_lo: float, k_hi: float,
                 window: float, power_tail: bool, tail_scale: float = 200.0):
        self.family = family
        if power_tail:
            window = max(window, tail_scale / max(k_lo, 1e-6))
        # graded panels: the rule is not adaptive, so the core region must
        # resolve the component structure (scale ~ 1/alpha) while the far
        # tails only need to track the oscillation
        fine = min(np.pi / (2.0 * max(k_hi, 0.5)), 0.5)
        core = min(window, 16.0)
        nodes, weights = qd.gk_nodes(-core, core, fine)
        if window > core:
            coarse = 3.0 / max(k_hi, 0.05)
            left = qd.gk_nodes(-window, -core, coarse)
            right = qd.gk_nodes(core, window, coarse)
            nodes = np.concatenate([left[0], nodes, right[0]])
            weights = np.concatenate([left[1], weights, right[1]])
        self.nodes, self.weights = nodes, weights
        self.window = window
        fv = f.values(self.nodes)
        products = [self.weights * fv * c.values(self.nodes) for c in family.components]
        # columns Re b_0, Im b_0, Re b_1, Im b_1, ...: one real matmul serves
        # every component
        self.base = np.column_stack([part for b in products for part in (b.real, b.imag)])
        self.power_tail = power_tail
        if power_tail:
            self.boundary = []
            for comp in family.components:
                g = fc.mul(f, comp)
                d1 = g.derivative()
                d2 = d1.derivative()
                self.boundary.append({
                    side: tuple(complex(e.evaluate(side * window)) for e in (g, d1, d2))
                    for side in (+1, -1)})

    def component_integrals_pm(self, ks: np.ndarray):
        """I_j(+k) and I_j(-k) for an array of positive frequencies.

        Returned as two (len(ks), n_components) arrays.  Each chunk of the
        phase kx takes one real matmul of cos(kx) and one of sin(kx) against
        the real and imaginary parts of the bases, which give both signs of k.
        Fixed chunk size keeps the arithmetic tree (and hence the bits)
        independent of the worker count.
        """
        ks = np.asarray(ks, dtype=float)
        chunks = [(i, min(i + 64, len(ks))) for i in range(0, len(ks), 64)]

        def do_chunk(bounds):
            lo, hi = bounds
            phase = np.outer(ks[lo:hi], self.nodes)
            return np.cos(phase) @ self.base, np.sin(phase) @ self.base

        workers = _worker_count()
        if workers > 1 and len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(do_chunk, chunks))
        else:
            parts = [do_chunk(c) for c in chunks]
        cos_b = np.vstack([c for c, _ in parts])
        sin_b = np.vstack([s for _, s in parts])
        re_c, im_c = cos_b[:, 0::2], cos_b[:, 1::2]
        re_s, im_s = sin_b[:, 0::2], sin_b[:, 1::2]
        # (cos kx +- i sin kx)(Re b + i Im b)
        plus = (re_c - im_s) + 1j * (im_c + re_s)
        minus = (re_c + im_s) + 1j * (im_c - re_s)
        if self.power_tail:
            for sign_k, out in ((+1, plus), (-1, minus)):
                ik = 1j * sign_k * ks
                for j, bnd in enumerate(self.boundary):
                    for side in (+1, -1):
                        g0, g1, g2 = bnd[side]
                        phase = np.exp(ik * side * self.window)
                        term = g0 / ik - g1 / ik ** 2 + g2 / ik ** 3
                        out[:, j] += -phase * term if side > 0 else phase * term
        return plus, minus

    def d_batch_pm(self, ks: np.ndarray):
        """d(+k) and d(-k) = int psi(x'; -+k) f(x') dx' for positive k."""
        ks = np.asarray(ks, dtype=float)
        plus, minus = self.component_integrals_pm(ks)
        d_plus = np.zeros(len(ks), dtype=complex)   # d(k) needs I_j(-k)
        d_minus = np.zeros(len(ks), dtype=complex)  # d(-k) needs I_j(+k)
        for j, cf in enumerate(self.family.coefficient_fns):
            d_plus += np.array([complex(cf(-k)) for k in ks]) * minus[:, j]
            d_minus += np.array([complex(cf(k)) for k in ks]) * plus[:, j]
        return d_plus, d_minus


def _product_is_exponential(f: FuncExpr, family: ContinuumFamily) -> bool:
    for comp in family.components:
        for side in (+1, -1):
            cls = qd.classify(fc.mul(f, comp), side)
            if cls.kind != "exponential" or cls.rate >= 0:
                return False
    return True


def _decay_window(f: FuncExpr, family: ContinuumFamily, abs_tol: float) -> float:
    l = 8.0
    for comp in family.components:
        for side in (+1, -1):
            cls = qd.classify(fc.mul(f, comp), side)
            l = max(l, qd.window_for_side(cls, qd.QuadratureSpec(abs_tol=abs_tol), 32.0))
    return l


def _k_bands(k_lo: float, k_hi: float) -> list[tuple[float, float]]:
    """Positive-frequency bands on a fixed dyadic ladder 0.5 * 2^n.

    The ladder is absolute (not relative to k_lo), so bands above the lowest
    partial one coincide for different lower cutoffs and can be cached.
    """
    bands = []
    if k_lo < 0.5:
        if k_lo > 0:
            n = math.floor(math.log2(k_lo / 0.5)) + 1
            edge = 0.5 * 2.0 ** n
            if edge <= k_lo * (1 + 1e-12):
                edge *= 2
        else:
            edge = 0.5
        edge = min(edge, k_hi)
        bands.append((k_lo, edge))
        a = edge
    else:
        n = math.floor(math.log2(k_lo / 0.5))
        edge = 0.5 * 2.0 ** (n + 1)
        edge = min(edge, k_hi)
        bands.append((k_lo, edge))
        a = edge
    while a < k_hi:
        b = min(2 * a, k_hi)
        bands.append((a, b))
        a = b
    return bands


def _band_transform(family: ContinuumFamily, f: FuncExpr, a: float, b: float,
                    window: float, power_tail: bool, x_scale: float):
    """k-nodes, weights and (d(+k), d(-k)) of the band a <= k <= b."""
    inner = _InnerProducts(family, f, a, b, window, power_tail)
    # oscillation scale of d(k) is set by where the integrand mass sits
    # (core region); far-tail components are tiny and need no resolution
    l_eff = min(inner.window, 20.0)
    width = min(np.pi / (2 * (x_scale + l_eff)), (b - a) / 8.0)
    nodes, weights = qd.gk_nodes(a, b, width)
    return nodes, weights, inner.d_batch_pm(nodes)


def _continuum_apply(family: ContinuumFamily, f: FuncExpr, xs: np.ndarray,
                     k_lo: float, k_hi: float, weight_fn=None) -> np.ndarray:
    """int_{k_lo <= |k| <= k_hi} psi(x;k) d(k) [weight_fn(k)] dk on the grid xs.

    Each band's transform depends only on f, the band edges and the grid's
    extent, so it is computed once per family and reused by later calls with
    another lower cutoff or variant on the same test function.
    """
    exponential = _product_is_exponential(f, family)
    if not exponential and k_lo <= 1e-9:
        raise ClassMismatch(
            "slowly decaying test function requires the regularized variants")
    window = _decay_window(f, family, 1e-12) if exponential else 8.0

    comp_grid = np.vstack([c.values(xs) for c in family.components])
    x_scale = max(float(np.abs(xs).max()), 1.0)

    total = np.zeros(len(xs), dtype=complex)
    for a, b in _k_bands(max(k_lo, 0.0), k_hi):
        key = (f, a, b, x_scale)
        if key not in family.band_transforms:
            family.band_transforms[key] = _band_transform(
                family, f, a, b, window, not exponential, x_scale)
        nodes, weights, d_pm = family.band_transforms[key]
        phase = np.exp(1j * np.outer(nodes, xs))
        for sign, d in zip((+1, -1), d_pm):
            ks = sign * nodes
            if weight_fn is not None:
                d = d * np.array([weight_fn(k) for k in ks])
            coef = np.array([[complex(cf(k)) for k in ks]
                             for cf in family.coefficient_fns])
            psi_grid = (coef.T @ comp_grid) * (phase if sign > 0 else np.conj(phase))
            total += (weights * d) @ psi_grid
    return total


def _phase_moment(g: FuncExpr, k: float, spec=qd.DEFAULT_QUAD) -> complex:
    v, _ = qd.fourier_integral(g, k, spec)
    return v


def resolution_of_identity(bundle: ModelBundle, test_fns, eps_seq=(0.1, 0.05, 0.025),
                           k_window: float = 40.0, variant: str = "auto",
                           recon_grid: np.ndarray | None = None,
                           strict: bool = True) -> ROIReport:
    """Apply the model's resolution of identity to test functions.

    For the reflectionless families the direct decomposition (continuum
    integral plus discrete dyads over the normalizable chains) is used and
    eps_seq is ignored.  For the threshold model the two epsilon-regularized
    variants are available: "counterterm" subtracts psi0(x) psi0(x') /
    (pi eps); "modified" modulates the subtraction by 1 - 2 sin^2(eps(x-x')/2),
    which is the form able to reproduce the threshold state itself.  With
    ``strict`` a test function outside the variant's declared decay class
    raises ClassMismatch; otherwise it is processed and the failure reported.
    """
    if bundle.continuum is None:
        raise ModelError("bundle has no continuum family")
    if recon_grid is None:
        recon_grid = np.linspace(-6.0, 6.0, 121)
    xs = np.asarray(recon_grid, dtype=float)

    threshold_model = bool(bundle.continuum.k_excluded)
    if variant == "auto":
        variant = VARIANT_MODIFIED if threshold_model else VARIANT_DIRECT
    if variant == VARIANT_DIRECT and threshold_model:
        raise ModelError("threshold model requires a regularized variant")
    if variant != VARIANT_DIRECT and not threshold_model:
        raise ModelError(f"variant {variant!r} applies to the threshold model")

    results = []
    for idx, f in enumerate(test_fns):
        label = f"test_{idx}"
        fv = f.values(xs)
        scale = max(float(np.abs(fv).max()), 1e-30)

        if variant == VARIANT_DIRECT:
            cont = _continuum_apply(bundle.continuum, f, xs, 0.0, k_window)
            disc = np.zeros(len(xs), dtype=complex)
            for chain in bundle.chains_minus:
                p = chain.size
                overlaps = [qd.binorm_integral(chain.functions[p - 1 - i], f)[0]
                            for i in range(p)]
                for i in range(p):
                    disc += overlaps[i] * chain.functions[i].values(xs)
            err = float(np.abs(cont + disc - fv).max())
            results.append(ROITestResult(
                label, True, (err,), err,
                {"continuum": float(np.abs(cont).max()),
                 "discrete": float(np.abs(disc).max())}))
            continue

        # threshold variants
        psi0 = bundle.kernel_plus.entries[0].function
        cls_p = qd.classify(f, +1)
        cls_m = qd.classify(f, -1)

        def _ok(cls, need_power):
            if cls.kind == "exponential":
                return cls.rate < 0
            return cls.rate < need_power

        need = -1.0 if variant == VARIANT_COUNTERTERM else -0.5
        class_ok = _ok(cls_p, need) and _ok(cls_m, need)
        if strict and not class_ok:
            raise ClassMismatch(
                f"test function {idx} decays too slowly for variant {variant!r}")

        i0 = qd.binorm_integral(psi0, f)[0]
        psi0_grid = psi0.values(xs)
        per_eps = []
        recons = []
        attribution = {}
        for eps in eps_seq:
            cont = _continuum_apply(bundle.continuum, f, xs, eps, k_window)
            counter = -psi0_grid * (i0 / (np.pi * eps))
            if variant == VARIANT_MODIFIED:
                g = fc.mul(psi0, f)
                i_plus = _phase_moment(g, -eps)   # int exp(-i eps x') psi0 f
                i_minus = _phase_moment(g, +eps)  # int exp(+i eps x') psi0 f
                counter = -psi0_grid * (np.exp(1j * eps * xs) * i_plus
                                        + np.exp(-1j * eps * xs) * i_minus) / (2 * np.pi * eps)
            recon = cont + counter
            recons.append(recon)
            per_eps.append(float(np.abs(recon - fv).max()))
            attribution = {"continuum": float(np.abs(cont).max()),
                           "counterterm": float(np.abs(counter).max())}
        if len(recons) >= 3:
            r0, r1, r2 = recons[-3:]
            extrap = (r0 - 6 * r1 + 8 * r2) / 3.0
            extrap_err = float(np.abs(extrap - fv).max())
        else:
            extrap_err = per_eps[-1]
        results.append(ROITestResult(label, class_ok, tuple(per_eps),
                                     extrap_err, attribution))
    return ROIReport(variant, tuple(eps_seq) if variant != VARIANT_DIRECT else (),
                     k_window, tuple(results))


def threshold_counterterm_identity(bundle: ModelBundle, eps_seq=(0.1, 0.05, 0.025),
                                   x_primes=(-3.0, -1.2, 0.4, 2.1)) -> float:
    """Defect of the identity
    lim_eps int (2 / pi eps) sin^2(eps (x - x')/2) psi0^2(x) dx * psi0(x') = psi0(x')."""
    psi0 = bundle.kernel_plus.entries[0].function
    g = fc.mul(psi0, psi0)
    xp = np.asarray(x_primes, dtype=float)
    target = psi0.values(xp)
    vals = []
    for eps in eps_seq:
        s0 = qd.binorm_integral(psi0, psi0)[0]
        s_plus = _phase_moment(g, +eps)   # int exp(+i eps x) psi0^2 dx
        s_minus = _phase_moment(g, -eps)
        j = (2 / (np.pi * eps)) * (0.5 * s0
                                   - 0.25 * (np.exp(-1j * eps * xp) * s_plus
                                             + np.exp(1j * eps * xp) * s_minus))
        vals.append(j * target)
    r0, r1, r2 = vals[-3:]
    extrap = (r0 - 6 * r1 + 8 * r2) / 3.0
    return float(np.abs(extrap - target).max())


def weak_delta_check(bundle: ModelBundle, k_eval: float = 1.1, k_center: float = 2.0,
                     sigma: float = 0.5, k_window_pad: float = 4.0) -> float:
    """Weak continuum orthonormality against a Gaussian k-profile.

    Checks |int dk' fhat(k') int dx psi(x;k) psi(x;-k') - fhat(k_eval)| with
    the x integral taken after smearing, which is the distributional meaning
    of the delta-normalization.
    """
    family = bundle.continuum

    def fhat(k):
        return np.exp(-((k - k_center) ** 2) / (2 * sigma ** 2))

    lo, hi = k_center - k_window_pad * sigma - abs(k_eval), k_center + k_window_pad * sigma + abs(k_eval)
    k_nodes, k_weights = qd.gk_nodes(lo, hi, min(sigma / 2, 0.25))

    l_out = 30.0
    x_nodes, x_weights = qd.gk_nodes(-l_out, l_out, np.pi / (2 * (abs(hi) + 1)))
    comp_vals = [c.values(x_nodes) for c in family.components]

    g = np.zeros(len(x_nodes), dtype=complex)
    for j, (cf, cv) in enumerate(zip(family.coefficient_fns, comp_vals)):
        coef_k = np.array([complex(cf(-k)) for k in k_nodes])
        phases = np.exp(-1j * np.outer(k_nodes, x_nodes))
        g += (k_weights * fhat(k_nodes) * coef_k) @ phases * cv

    psi_k = np.zeros(len(x_nodes), dtype=complex)
    for cf, cv in zip(family.coefficient_fns, comp_vals):
        psi_k += complex(cf(k_eval)) * cv
    psi_k *= np.exp(1j * k_eval * x_nodes)
    value = np.sum(x_weights * psi_k * g)
    return float(abs(value - fhat(k_eval)))


def continuation_limit_defect(bundle: ModelBundle, sign: int = +1,
                              deltas=(2e-3, 1e-3, 5e-4)) -> float:
    """Defect of the bound-state limit of the continuum numerator.

    For the rank-2 model: (k^2 + alpha^2) psi(x;k) -> -+ sqrt(alpha/pi)
    exp(-+ alpha x0) phi+_0 as k -> +-i alpha.
    """
    p = bundle.parameters
    alpha, x0 = p["alpha"], p["x0"]
    xs = np.linspace(bundle.grid.x_min / 2, bundle.grid.x_max / 2, 101)
    phi0p = bundle.kernel_plus.entries[0].function.values(xs)
    target = (-sign) * math.sqrt(alpha / math.pi) * np.exp(-sign * alpha * x0) * phi0p
    series = []
    for d in deltas:
        k = sign * 1j * alpha * (1 - d)
        series.append(bundle.continuum.numerator_expr(k).values(xs))
    r0, r1, r2 = series
    extrap = (r0 - 6 * r1 + 8 * r2) / 3.0
    return float(np.abs(extrap - target).max() / (1 + np.abs(target).max()))


def two_level_continuum_limits(bundle: ModelBundle, deltas=(1e-3, 5e-4, 2.5e-4)) -> float:
    """Defect of both bound-state limits of the two-level continuum numerator."""
    p = bundle.parameters
    alpha, beta, x0, z = p["alpha"], p["beta"], p["x0"], p["z"]
    xs = np.linspace(bundle.grid.x_min / 2, bundle.grid.x_max / 2, 101)
    worst = 0.0
    psi_p = bundle.chains_minus[0].functions[0]
    psi_m = bundle.chains_minus[1].functions[0]
    cases = [
        (alpha + beta, +1, psi_p,
         +2j * alpha * beta / math.sqrt(math.pi) * cmath.sqrt(1 / beta + 1 / alpha)
         * cmath.exp(-(alpha * x0 + beta * z))),
        (alpha + beta, -1, psi_p,
         -2j * alpha * beta / math.sqrt(math.pi) * cmath.sqrt(1 / beta + 1 / alpha)
         * cmath.exp(+(alpha * x0 + beta * z))),
        (alpha - beta, +1, psi_m,
         -2 * alpha * beta / math.sqrt(math.pi) * cmath.sqrt(1 / beta - 1 / alpha)
         * cmath.exp(-(alpha * x0 - beta * z))),
        (alpha - beta, -1, psi_m,
         +2 * alpha * beta / math.sqrt(math.pi) * cmath.sqrt(1 / beta - 1 / alpha)
         * cmath.exp(+(alpha * x0 - beta * z))),
    ]
    for kappa, sign, state, const in cases:
        target = const * state.values(xs)
        series = []
        for d in deltas:
            k = sign * 1j * kappa * (1 - d)
            series.append(bundle.continuum.numerator_expr(k).values(xs))
        r0, r1, r2 = series
        extrap = (r0 - 6 * r1 + 8 * r2) / 3.0
        worst = max(worst, float(np.abs(extrap - target).max()
                                 / (1 + np.abs(target).max())))
    return worst


def spectral_decomposition_defect(bundle: ModelBundle, f: FuncExpr,
                                  k_window: float = 40.0,
                                  recon_grid: np.ndarray | None = None) -> float:
    """Defect of h- f rebuilt from the spectral form (continuum k^2 dyads,
    bound-state dyads at the cell eigenvalue, and the off-diagonal chain term)."""
    if recon_grid is None:
        recon_grid = np.linspace(-5.0, 5.0, 101)
    xs = np.asarray(recon_grid, dtype=float)
    direct = bundle.h_minus.apply(f).values(xs)

    cont = _continuum_apply(bundle.continuum, f, xs, 0.0, k_window,
                            weight_fn=lambda k: k * k)
    disc = np.zeros(len(xs), dtype=complex)
    for chain in bundle.chains_minus:
        lam = complex(chain.eigenvalue)
        p = chain.size
        overlaps = [qd.binorm_integral(chain.functions[p - 1 - i], f)[0]
                    for i in range(p)]
        for i in range(p):
            disc += lam * overlaps[i] * chain.functions[i].values(xs)
        # off-diagonal parts |psi_i><tilde psi_{i+1}|: tilde psi_{i+1}^* = psi_{p-2-i}
        for i in range(p - 1):
            ov = qd.binorm_integral(chain.functions[p - 2 - i], f)[0]
            disc += ov * chain.functions[i].values(xs)
    scale = max(float(np.abs(direct).max()), 1.0)
    return float(np.abs(cont + disc - direct).max() / scale)


# -- custom (JSON-specified) models --------------------------------------------------


def canonicalize_kernel(h: Hamiltonian, functions, grid: GridSpec) -> dx.TransformationBasis:
    """Order raw zero-modes into canonical chains using the induced matrix.

    The coefficient-space action of h is the transpose of the fitted matrix;
    its Jordan chains give linear combinations forming canonical chains.
    """
    entries = [dx.BasisEntry(g, 0.0, 0) for g in functions]
    raw = jd.build_smatrix(h, entries, grid)
    js = jd.jordan_form(raw.matrix.T)
    c = np.linalg.inv(js.transform)  # columns: top, A top, ..., eigenvector
    out = []
    pos = 0
    for lam, k in js.cells:
        block = [c[:, pos + i] for i in range(k)]
        for i in range(k):
            coeffs = block[k - 1 - i]  # eigenvector first
            combo = fc.add(*(fc.mul(fc.const(complex(coef)), g)
                             for coef, g in zip(coeffs, functions)))
            out.append(dx.BasisEntry(combo, lam, i))
        pos += k
    return dx.TransformationBasis(out, h)


def model_from_config(config: dict) -> ModelBundle:
    """Build a bundle from a CLI model description (built-in or custom)."""
    name = config.get("model")
    params = dict(config.get("parameters", {}))
    if name in BUILTIN_MODELS:
        return BUILTIN_MODELS[name](**params)
    if name != "custom":
        raise ModelError(f"unknown model {name!r}")

    v1 = fc.from_json_obj(config["potential"]) if "potential" in config else fc.const(0.0)
    h_plus = Hamiltonian(v1)
    entries = []
    for e in config["basis"]:
        lam = complex(e["lambda"]["re"], e["lambda"].get("im", 0.0))
        entries.append(dx.BasisEntry(fc.from_json_obj(e["expr"]), lam,
                                     int(e.get("chain_position", 0))))
    grid_cfg = config.get("grid", {})
    grid = GridSpec(grid_cfg.get("x_min", -12.0), grid_cfg.get("x_max", 12.0),
                    grid_cfg.get("n_points", 401))
    kernel_minus = dx.TransformationBasis(entries, h_plus)
    q_minus = dx.intertwiner(kernel_minus, grid)
    h_minus = Hamiltonian(dx.partner_potential(v1, kernel_minus, grid))
    raw_plus = dx.partner_kernel_functions(kernel_minus, grid)
    kernel_plus = canonicalize_kernel(h_minus, raw_plus, grid)
    kernel_plus = dx.TransformationBasis(kernel_plus.entries, h_minus)

    chains_minus = []
    for chain in kernel_plus.chains():
        flags = []
        for fn in chain.functions:
            cp = qd.classify(fn, +1)
            cm = qd.classify(fn, -1)
            flags.append(cp.normalizable and cm.normalizable)
        count = 0
        for fl in flags:
            if fl:
                count += 1
            else:
                break
        if count:
            chains_minus.append(JordanChain(chain.eigenvalue, chain.functions[:count]))

    bundle = ModelBundle(
        name="custom", parameters=params,
        h_plus=h_plus, h_minus=h_minus,
        q_minus=q_minus, q_plus=q_minus.transpose(),
        kernel_minus=kernel_minus, kernel_plus=kernel_plus,
        chains_minus=tuple(chains_minus), chains_plus=(),
        continuum=None, symmetry_op=None, symmetry_eigenvalue_fn=None,
        symmetry_zero_modes=(), grid=grid, continuum_threshold=None,
    )
    _verify_bundle(bundle)
    return bundle
