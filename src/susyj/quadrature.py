"""Complex-valued quadrature on the real line.

Provides an adaptive Gauss-Kronrod (G7/K15) integrator over finite windows,
asymptotic decay classification by envelope fitting on nested windows, binorm
integrals int f g dx with automatic window selection (exponential decay) or
1/x tail transformation (power decay), overlap integrals against bounded
oscillatory continuum functions, and single-frequency Fourier-type integrals
of decaying functions with integration-by-parts tail corrections.

All node evaluations are vectorized over numpy arrays and all reductions use
fixed summation orders, so results are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import funcalc as fc
from .errors import Inconclusive, NonIntegrable, SlowConvergence, TailUnbounded
from .funcalc import FuncExpr

# G7/K15 positive abscissae and weights (Kronrod 15-point rule).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
    0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469])

_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_W_KRON = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])


def gk_nodes(a: float, b: float, max_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Kronrod-15 nodes and weights on [a, b] with bounded panel width."""
    n = max(1, int(np.ceil((b - a) / max_width)))
    edges = np.linspace(a, b, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halves[:, None] * _NODES[None, :]).ravel()
    weights = (halves[:, None] * _W_KRON[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_levels: int = 15
    window: float | None = None  # forces the finite window [-window, window]

    def to_json_obj(self):
        return {"abs_tol": self.abs_tol, "rel_tol": self.rel_tol,
                "max_levels": self.max_levels, "window": self.window}


DEFAULT_QUAD = QuadratureSpec()


def adaptive_complex(values_fn, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUAD,
                     initial_panels: int = 8) -> tuple[complex, float]:
    """Adaptive G7/K15 integral of a complex integrand over [a, b].

    ``values_fn`` maps a float array to complex values and is called once per
    level, on the nodes of every panel of that level.  Panels whose
    Gauss/Kronrod discrepancy exceeds their share of the tolerance budget are
    bisected, at most ``spec.max_levels`` times.  Returns (value, error bound).
    """
    if b <= a:
        return 0j, 0.0
    span = b - a
    edges = np.linspace(a, b, max(1, initial_panels) + 1)
    lo, hi = edges[:-1], edges[1:]
    total = 0j
    err = 0.0
    depth = 0
    while True:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xs = (mid[:, None] + half[:, None] * _NODES).ravel()
        vals = np.asarray(values_fn(xs), dtype=complex).reshape(len(lo), 15)
        ik = half * np.sum(_W_KRON * vals, axis=1)
        ig = half * np.sum(_W_GAUSS * vals, axis=1)
        d = ik - ig
        # hypot is the scalar abs(); the vectorized complex abs rounds differently
        e = np.hypot(d.real, d.imag)
        if depth == 0:
            # the first level fixes the tolerance budget from a crude
            # whole-interval value, its panel sums added left to right
            rough = 0j
            for v in ik:
                rough += v
            budget = max(spec.abs_tol, spec.rel_tol * abs(rough)) / span
        done = (e <= budget * (hi - lo)) | (depth >= spec.max_levels)
        for v, ev in zip(ik[done], e[done]):
            total += v
            err += ev
        if done.all():
            return total, err
        lo, mid, hi = lo[~done], mid[~done], hi[~done]
        lo, hi = np.column_stack([lo, mid]).ravel(), np.column_stack([mid, hi]).ravel()
        depth += 1


# -- decay classification ------------------------------------------------------


@dataclass(frozen=True)
class ProbeSpec:
    r0: float = 8.0
    n_samples: int = 33


@dataclass(frozen=True)
class SideClass:
    """Asymptotic envelope of |f| on one side.

    ``kind`` is "exponential" (|f| ~ exp(rate * |x|)) or "power"
    (|f| ~ |x|**rate); decay corresponds to negative rate.  ``borderline``
    flags power envelopes within one unit of the square-integrability
    threshold, where a binary verdict is numerically delicate.
    """

    normalizable: bool
    kind: str
    rate: float
    amplitude: float
    borderline: bool = False


def _fit_window(f: FuncExpr, s_lo: float, s_hi: float, sign: int, n: int):
    """Envelope fits on one window, or "overflow"/"underflow" when the values
    saturate double range (decay or growth too fast to fit there)."""
    s = np.geomspace(s_lo, s_hi, n)
    vals = np.abs(f.values(sign * s))
    if not np.all(np.isfinite(vals)):
        return "overflow"
    keep = vals > 1e-300
    if keep.sum() < n // 2:
        return "underflow"
    s, vals = s[keep], vals[keep]
    logs = np.log(vals)
    fits = {}
    for kind, abscissa in (("exponential", s), ("power", np.log(s))):
        coef = np.polyfit(abscissa, logs, 1)
        resid = logs - np.polyval(coef, abscissa)
        fits[kind] = (float(coef[0]), float(coef[1]), float(np.abs(resid).max()))
    return fits


def classify(f: FuncExpr, side: int, probe: ProbeSpec = ProbeSpec()) -> SideClass:
    """Normalizability of f at +infinity (side=+1) or -infinity (side=-1).

    Fits exponential and power envelopes to |f| on the nested windows
    [r0, 2 r0] and [2 r0, 4 r0]; the better-fitting model decides whether
    int |f|^2 converges on that side.  Raises Inconclusive when the windows
    disagree on the verdict.  The verdict is invariant under scaling of f.
    """
    sign = 1 if side >= 0 else -1
    r = probe.r0
    windows = [(r, 2 * r), (2 * r, 4 * r)]
    picks = []
    for lo, hi in windows:
        fits = _fit_window(f, lo, hi, sign, probe.n_samples)
        if fits == "overflow":
            picks.append(("exponential", 1.0, 0.0))
            continue
        if fits == "underflow":
            # saturated double range on the way down: decisively normalizable
            picks.append(("exponential", -50.0, -700.0))
            continue
        kind = min(fits, key=lambda k: fits[k][2])
        rate, intercept, _ = fits[kind]
        picks.append((kind, rate, intercept))

    verdicts = []
    for kind, rate, _ in picks:
        if kind == "exponential":
            verdicts.append(rate < 0)
        else:
            verdicts.append(rate < -0.5)
    if verdicts[0] != verdicts[1]:
        raise Inconclusive(
            f"window verdicts disagree at side {sign:+d}: {picks}")
    kind, rate, intercept = picks[1]
    borderline = kind == "power" and -1.5 < rate <= -0.5
    return SideClass(verdicts[1], kind, rate, float(np.exp(intercept)), borderline)


def chain_side_count(functions, side: int, probe: ProbeSpec = ProbeSpec()):
    """Number of leading chain members normalizable at the given side.

    Returns (count, prefix_ok): ``prefix_ok`` is False when a normalizable
    member follows a non-normalizable one, which violates the expected
    prefix structure of canonical chains.
    """
    flags = [classify(f, side, probe).normalizable for f in functions]
    count = 0
    for flag in flags:
        if flag:
            count += 1
        else:
            break
    prefix_ok = all(not f for f in flags[count:])
    return count, prefix_ok


# -- binorms -------------------------------------------------------------------


def window_for_side(cls: SideClass, spec: QuadratureSpec, r_max: float) -> float:
    if cls.kind == "exponential":
        # amplitude * exp(rate * L) / |rate| < abs_tol / 10
        rate = min(cls.rate, -1e-3)
        l = (np.log(spec.abs_tol / 10.0 / max(cls.amplitude, 1e-300))
             + np.log(-rate)) / rate
        return float(np.clip(l, 8.0, 300.0))
    return r_max


def _transformed_tail(h: FuncExpr, l_side: float, side: int,
                      spec: QuadratureSpec) -> tuple[complex, float]:
    """Tail of a power-decaying integrand via the substitution x -> 1/t."""
    ht = fc.mul(h.substitute_var(fc.quot(fc.const(1.0), fc.X)),
                fc.powi(fc.X, -2))
    if side > 0:
        lo, hi = 0.0, 1.0 / l_side
    else:
        lo, hi = -1.0 / l_side, 0.0
    try:
        val, err = adaptive_complex(ht.values, lo, hi, spec, initial_panels=8)
    except FloatingPointError as exc:  # pragma: no cover - defensive
        raise TailUnbounded(str(exc)) from exc
    if not np.isfinite(val):
        raise TailUnbounded("transformed tail integrand not finite")
    return val, err


def binorm_integral(f: FuncExpr, g: FuncExpr, spec: QuadratureSpec = DEFAULT_QUAD,
                    probe: ProbeSpec = ProbeSpec()) -> tuple[complex, float]:
    """int f(x) g(x) dx over the real line (no conjugation).

    The product's decay is classified on each side first: exponential decay
    selects a finite window with a bounded tail remainder; power decay with
    exponent < -1 adds exactly transformed tail integrals; anything slower
    raises NonIntegrable / TailUnbounded.  Returns (value, error bound).
    """
    h = fc.mul(f, g)
    sides = {}
    for side in (+1, -1):
        cls = classify(h, side, probe)
        if cls.kind == "exponential" and cls.rate >= 0:
            raise NonIntegrable(f"integrand grows exponentially at side {side:+d}")
        if cls.kind == "power" and cls.rate > -1.2:
            raise TailUnbounded(
                f"power tail exponent {cls.rate:.2f} at side {side:+d} is too slow")
        sides[side] = cls

    if spec.window is not None:
        l_plus = l_minus = spec.window
    else:
        r_max = 4 * probe.r0
        l_plus = window_for_side(sides[+1], spec, r_max)
        l_minus = window_for_side(sides[-1], spec, r_max)

    n_panels = max(12, int(l_plus + l_minus) // 2)
    total, err = adaptive_complex(h.values, -l_minus, l_plus, spec, n_panels)
    for side, l_side in ((+1, l_plus), (-1, l_minus)):
        cls = sides[side]
        if cls.kind == "power":
            t_val, t_err = _transformed_tail(h, l_side, side, spec)
            total += t_val
            err += t_err
        else:
            err += cls.amplitude * np.exp(cls.rate * l_side) / max(-cls.rate, 1e-3)
    return total, err


@dataclass(frozen=True)
class BinormMatrix:
    """Pairwise binorms of a chain, with the canonical-pattern diagnostics.

    For a chain of length p the entries with i + j <= p - 2 must vanish and
    the anti-diagonal entries i + j = p - 1 must be mutually equal.
    """

    values: np.ndarray
    errors: np.ndarray
    pattern_violation: float
    antidiagonal_values: tuple[complex, ...]
    antidiagonal_spread: float

    @property
    def symmetry_defect(self) -> float:
        return float(np.abs(self.values - self.values.T).max())


def biorthogonality_matrix(chain, spec: QuadratureSpec = DEFAULT_QUAD,
                           probe: ProbeSpec = ProbeSpec()) -> BinormMatrix:
    """Full binorm matrix B[i, j] = int psi_i psi_j dx of one chain."""
    fns = list(chain.functions)
    p = len(fns)
    values = np.zeros((p, p), dtype=complex)
    errors = np.zeros((p, p))
    for i in range(p):
        for j in range(i, p):
            v, e = binorm_integral(fns[i], fns[j], spec, probe)
            values[i, j] = values[j, i] = v
            errors[i, j] = errors[j, i] = e
    violation = 0.0
    for i in range(p):
        for j in range(p):
            if i + j <= p - 2:
                violation = max(violation, abs(values[i, j]))
    anti = tuple(values[i, p - 1 - i] for i in range(p))
    spread = max(abs(a - anti[0]) for a in anti) if anti else 0.0
    return BinormMatrix(values, errors, violation, anti, spread)


# -- oscillatory integrals -------------------------------------------------------


def fourier_integral(g: FuncExpr, k: float, spec: QuadratureSpec = DEFAULT_QUAD,
                     probe: ProbeSpec = ProbeSpec(), tail_scale: float = 400.0
                     ) -> tuple[complex, float]:
    """int exp(i k x) g(x) dx for decaying g, with IBP tail corrections.

    For power-law g the window grows like tail_scale/|k| so that k L >> 1,
    and the tails are corrected by three integration-by-parts terms using the
    exact derivatives of g; the remainder |g''(L)| / |k|^3 is reported in the
    error bound.  For exponentially decaying g a fixed decay window suffices.
    """
    if abs(k) < 1e-12:
        return binorm_integral(g, fc.const(1.0), spec, probe)
    cls_p = classify(g, +1, probe)
    cls_m = classify(g, -1, probe)
    for side, cls in ((+1, cls_p), (-1, cls_m)):
        if cls.kind == "exponential" and cls.rate >= 0:
            raise NonIntegrable(f"integrand grows at side {side:+d}")
        if cls.kind == "power" and cls.rate > -0.99:
            raise TailUnbounded(f"power exponent {cls.rate:.2f} too slow at {side:+d}")

    def side_window(cls):
        if cls.kind == "exponential":
            return window_for_side(cls, spec, 4 * probe.r0)
        return max(4 * probe.r0, tail_scale / abs(k))

    l_plus = side_window(cls_p)
    l_minus = side_window(cls_m)

    def values_fn(xs):
        return g.values(xs) * np.exp(1j * k * xs)

    # panel width resolves both the oscillation and the structure near origin
    width = min(np.pi / (2 * abs(k)), 2.0)
    n_panels = int(np.ceil((l_plus + l_minus) / width))
    n_panels = min(max(n_panels, 12), 4000)
    total, err = adaptive_complex(values_fn, -l_minus, l_plus, spec, n_panels)

    d1 = g.derivative()
    d2 = d1.derivative()
    ik = 1j * k
    for side, l_side, cls in ((+1, l_plus, cls_p), (-1, l_minus, cls_m)):
        if cls.kind == "exponential":
            err += cls.amplitude * np.exp(cls.rate * l_side) / max(-cls.rate, 1e-3)
            continue
        xl = side * l_side
        g0, g1, g2 = (complex(e.evaluate(xl)) for e in (g, d1, d2))
        phase = np.exp(ik * xl)
        if side > 0:
            total += -phase * (g0 / ik - g1 / ik ** 2 + g2 / ik ** 3)
        else:
            total += phase * (g0 / ik - g1 / ik ** 2 + g2 / ik ** 3)
        err += abs(g2) / abs(k) ** 3
    return total, err


def continuum_overlap(f: FuncExpr, psi, k: float, spec: QuadratureSpec = DEFAULT_QUAD,
                      probe: ProbeSpec = ProbeSpec()) -> tuple[complex, float]:
    """int f(x) psi(x; k) dx for normalizable f against a bounded continuum state.

    ``psi`` is either a continuum family (anything with ``coefficient_fns``
    and ``components``, giving psi = sum_j c_j(k) a_j(x) exp(ikx)) or a plain
    expression.  The family path reduces to Fourier-type integrals of
    f * a_j and works for power-law decay; the expression path integrates
    directly when the product decays exponentially and otherwise falls back
    to Gaussian damping with Richardson extrapolation in the damping width.
    """
    if hasattr(psi, "coefficient_fns") and hasattr(psi, "components"):
        total = 0j
        err = 0.0
        for coef_fn, comp in zip(psi.coefficient_fns, psi.components):
            c = complex(coef_fn(k))
            if c == 0:
                continue
            v, e = fourier_integral(fc.mul(f, comp), k, spec, probe)
            total += c * v
            err += abs(c) * e
        return total, err

    h = fc.mul(f, psi)
    try:
        cls_p = classify(h, +1, probe)
        cls_m = classify(h, -1, probe)
        fast = (cls_p.kind == "exponential" and cls_p.rate < 0
                and cls_m.kind == "exponential" and cls_m.rate < 0)
    except Inconclusive:
        fast = False
    if fast:
        l_plus = window_for_side(cls_p, spec, 4 * probe.r0)
        l_minus = window_for_side(cls_m, spec, 4 * probe.r0)
        width = min(np.pi / (2 * (abs(k) + 1.0)), 1.0)
        panels = int(np.ceil((l_plus + l_minus) / width))
        total, err = adaptive_complex(h.values, -l_minus, l_plus, spec,
                                      min(max(panels, 12), 4000))
        err += (cls_p.amplitude * np.exp(cls_p.rate * l_plus) / max(-cls_p.rate, 1e-3)
                + cls_m.amplitude * np.exp(cls_m.rate * l_minus) / max(-cls_m.rate, 1e-3))
        return total, err

    # damped fallback: int h exp(-eps x^2), eps -> 0 by Richardson
    results = []
    eps_seq = (0.04, 0.02, 0.01)
    for eps in eps_seq:
        l = float(np.sqrt(40.0 / eps))
        width = min(np.pi / (2 * (abs(k) + 1.0)), 1.0)
        panels = min(max(int(np.ceil(2 * l / width)), 12), 4000)

        def damped(xs, _eps=eps):
            return h.values(xs) * np.exp(-_eps * xs * xs)

        v, _ = adaptive_complex(damped, -l, l, spec, panels)
        results.append(v)
    r0, r1, r2 = results
    extrap = (r0 - 6 * r1 + 8 * r2) / 3.0
    # agreement between the 3-point and 2-point extrapolants bounds what the
    # damping can deliver; a percent-level mismatch means it never stabilized
    stability = abs(extrap - (2 * r2 - r1))
    if stability > 0.02 * (1.0 + abs(extrap)):
        raise SlowConvergence("damped overlap failed to stabilize", stability)
    return extrap, float(stability)
