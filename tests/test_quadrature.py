import numpy as np
import pytest

from susyj import funcalc as fc
from susyj import operators as op
from susyj import quadrature as qd
from susyj.errors import Inconclusive, NonIntegrable, TailUnbounded

from conftest import rank2_pieces, two_level_pieces

GAUSS = fc.exp(fc.mul(fc.const(-1.0), fc.powi(fc.X, 2)))
PSI0 = fc.quot(fc.const(1.0), fc.X - fc.const(1j))  # threshold state, z = i
ALPHA = 1.0


def rank2_partner_kernel(alpha=1.0, x0=0.0, z=0.5j):
    basis, w, phi0m, phi1m = rank2_pieces(alpha, x0, z)
    c = (2 * alpha) ** 1.5
    phi0p = fc.quot(fc.mul(fc.const(c), phi0m), w)
    phi1p = fc.quot(fc.mul(fc.const(-c), phi1m), w)
    return phi0p, phi1p


def test_adaptive_gaussian():
    v, e = qd.adaptive_complex(GAUSS.values, -8, 8)
    assert abs(v - np.sqrt(np.pi)) < 1e-9
    assert e < 1e-8


def test_adaptive_oscillatory_complex():
    f = fc.mul(GAUSS, fc.exp(fc.mul(fc.const(4j), fc.X)))
    v, _ = qd.adaptive_complex(f.values, -8, 8, initial_panels=16)
    assert abs(v - np.sqrt(np.pi) * np.exp(-4.0)) < 1e-10


def _adaptive_panel_by_panel(values_fn, a, b, spec, initial_panels):
    """Reference adaptive G7/K15: one integrand call per initial panel to fix
    the budget, then one per level, with panel sums taken one row at a time."""
    edges = np.linspace(a, b, initial_panels + 1)
    work = [(lo, hi, 0) for lo, hi in zip(edges[:-1], edges[1:])]
    rough = 0j
    for lo, hi, _ in work:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        rough += half * np.sum(qd._W_KRON * values_fn(mid + half * qd._NODES))
    budget = max(spec.abs_tol, spec.rel_tol * abs(rough)) / (b - a)
    total, err = 0j, 0.0
    while work:
        xs = np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * qd._NODES
                             for lo, hi, _ in work])
        vals = np.asarray(values_fn(xs), dtype=complex).reshape(len(work), 15)
        next_work = []
        for (lo, hi, depth), v in zip(work, vals):
            half = 0.5 * (hi - lo)
            ik = half * np.sum(qd._W_KRON * v)
            e = abs(ik - half * np.sum(qd._W_GAUSS * v))
            if e <= budget * (hi - lo) or depth >= spec.max_levels:
                total += ik
                err += e
            else:
                mid = 0.5 * (lo + hi)
                next_work += [(lo, mid, depth + 1), (mid, hi, depth + 1)]
        work = next_work
    return total, err


# integrands with complex Gauss/Kronrod discrepancies, where a vectorized
# complex abs() rounds differently from the scalar one
OSCILLATORY = fc.mul(GAUSS, fc.exp(fc.mul(fc.const(1 + 4j), fc.X)))
POWER_LAW = fc.mul(PSI0, fc.quot(fc.const(1.0), fc.X - fc.const(-2 + 0.5j)))


@pytest.mark.parametrize("integrand, a, b, panels, spec", [
    (OSCILLATORY, -8.0, 8.0, 16, qd.DEFAULT_QUAD),
    (POWER_LAW, -40.0, 40.0, 40, qd.DEFAULT_QUAD),
    # tolerance out of reach: every level bisects until max_levels stops it
    (POWER_LAW, -40.0, 40.0, 40, qd.QuadratureSpec(1e-17, 1e-17, max_levels=3)),
])
def test_adaptive_one_call_per_level_same_bits(integrand, a, b, panels, spec):
    calls = []

    def values_fn(xs):
        calls.append(len(xs))
        return integrand.values(xs)

    got = qd.adaptive_complex(values_fn, a, b, spec, panels)
    assert len(calls) <= spec.max_levels + 1
    assert calls[0] == 15 * panels
    ref = _adaptive_panel_by_panel(integrand.values, a, b, spec, panels)
    assert got == ref


def test_classify_growing_cosh():
    cls = qd.classify(fc.cosh(ALPHA * fc.X), +1)
    assert not cls.normalizable
    assert cls.kind == "exponential"
    assert cls.rate == pytest.approx(ALPHA, rel=1e-6)


def test_classify_partner_kernel_decays_both_sides():
    phi0p, phi1p = rank2_partner_kernel()
    for f in (phi0p, phi1p):
        for side in (+1, -1):
            assert qd.classify(f, side).normalizable


def test_classify_gaussian():
    for side in (+1, -1):
        assert qd.classify(GAUSS, side).normalizable


def test_classify_power_borderline():
    cls = qd.classify(PSI0, +1)
    assert cls.normalizable
    assert cls.kind == "power"
    assert cls.rate == pytest.approx(-1.0, abs=0.05)
    assert cls.borderline


def test_classify_scale_invariance():
    f = fc.mul(fc.const(3.7e4 - 2e3j), PSI0)
    cls = qd.classify(f, -1)
    assert cls.normalizable and cls.borderline


def test_classify_handles_underflowing_decay():
    # e^{-4x^2} underflows double range inside the outer probe window
    f = fc.exp(fc.mul(fc.const(-4.0), fc.powi(fc.X, 2)))
    for side in (+1, -1):
        cls = qd.classify(f, side)
        assert cls.normalizable
    v, _ = qd.binorm_integral(f, f)
    assert abs(v - np.sqrt(np.pi / 8)) < 1e-9


def test_continuum_overlap_damped_fallback():
    # opaque slowly decaying integrand exercises the damped Richardson path
    k = 0.8
    psi = fc.exp(fc.mul(fc.const(1j * k), fc.X))
    g = fc.powi(fc.X - fc.const(1j), -2)
    v, err = qd.continuum_overlap(g, psi, k)
    assert abs(v - (-2 * np.pi * k * np.exp(-k))) < 5e-3
    assert err < 5e-3


def test_chain_side_count_prefix():
    phi0p, phi1p = rank2_partner_kernel()
    count, ok = qd.chain_side_count([phi0p, phi1p], +1)
    assert count == 2 and ok
    count, ok = qd.chain_side_count([fc.cosh(fc.X), fc.sinh(fc.X)], +1)
    assert count == 0 and ok


def test_binorm_self_overlap_vanishes():
    phi0p, phi1p = rank2_partner_kernel()
    for f in (phi0p, phi1p):
        v, e = qd.binorm_integral(f, f)
        assert abs(v) < 1e-8


def test_binorm_cross_overlap_is_one():
    phi0p, phi1p = rank2_partner_kernel()
    v, e = qd.binorm_integral(phi0p, phi1p)
    assert abs(v - 1.0) < 1e-6


def test_binorm_two_level_closed_form():
    alpha, beta = 1.0, 0.5
    basis, w = two_level_pieces(alpha=alpha, beta=beta)
    psit_p = fc.quot(basis.entries[1].function, w)
    v, _ = qd.binorm_integral(psit_p, psit_p)
    assert abs(v - (-beta / (2 * alpha * (alpha + beta)))) < 1e-6
    assert abs(v + 1.0 / 6.0) < 1e-6  # the specific value at these parameters


def test_binorm_threshold_state_zero():
    v, _ = qd.binorm_integral(PSI0, PSI0)
    assert abs(v) < 1e-8


def test_binorm_rejects_growth():
    with pytest.raises(NonIntegrable):
        qd.binorm_integral(fc.cosh(fc.X), fc.cosh(fc.X))


def test_binorm_rejects_slow_power_tail():
    with pytest.raises(TailUnbounded):
        qd.binorm_integral(PSI0, fc.const(1.0))


def test_biorthogonality_matrix_rank2_pattern():
    phi0p, phi1p = rank2_partner_kernel()
    chain = op.JordanChain(-1.0, (phi0p, phi1p))
    bm = qd.biorthogonality_matrix(chain)
    assert bm.pattern_violation < 1e-8          # B[0,0] = 0
    assert abs(bm.antidiagonal_values[0] - 1.0) < 1e-6
    assert bm.antidiagonal_spread < 1e-8        # both anti-diagonal entries equal
    assert bm.symmetry_defect < 1e-10


def test_biorthogonality_matrix_normalized_bound_state():
    f = fc.mul(fc.const(np.pi ** -0.25), fc.exp(fc.mul(fc.const(-0.5), fc.powi(fc.X, 2))))
    bm = qd.biorthogonality_matrix(op.JordanChain(0.5, (f,)))
    assert abs(bm.values[0, 0] - 1.0) < 1e-8


def test_biorthogonality_matrix_inverse_square_family_all_zero():
    # n = 3 chain at the continuum threshold: every mutual binorm vanishes
    z = 1j
    psi0 = fc.powi(fc.X - fc.const(z), -3)
    psi1 = fc.mul(fc.const(0.1), fc.powi(fc.X - fc.const(z), -1))
    chain = op.JordanChain(0.0, (psi0, psi1))
    bm = qd.biorthogonality_matrix(chain)
    assert np.abs(bm.values).max() < 1e-8


def test_fourier_integral_contour_values():
    g = fc.powi(fc.X - fc.const(1j), -2)
    for k in (0.5, 2.0):
        v, e = qd.fourier_integral(g, k)
        assert abs(v - (-2 * np.pi * k * np.exp(-k))) < 1e-7
    v, _ = qd.fourier_integral(g, -1.0)
    assert abs(v) < 1e-7


def test_fourier_integral_small_k():
    # k L >> 1 is maintained by the adaptive window even for small k
    g = fc.powi(fc.X - fc.const(1j), -2)
    k = 0.05
    v, _ = qd.fourier_integral(g, k)
    assert abs(v - (-2 * np.pi * k * np.exp(-k))) < 1e-6


def test_continuum_overlap_gaussian_fourier_pair():
    pw = fc.mul(fc.const(1 / np.sqrt(2 * np.pi)), fc.exp(fc.mul(fc.const(1.3j), fc.X)))
    v, _ = qd.continuum_overlap(GAUSS, pw, 1.3)
    expect = np.sqrt(np.pi) * np.exp(-1.3 ** 2 / 4) / np.sqrt(2 * np.pi)
    assert abs(v - expect) < 1e-6


def test_continuum_overlap_rank2_bound_states_orthogonal_to_continuum():
    # int phi+_{0,1} psi(x;k) dx = 0: continuum state assembled directly
    alpha, k = 1.0, 1.3
    basis, w, _, _ = rank2_pieces(alpha=alpha)
    phi0p, phi1p = rank2_partner_kernel(alpha=alpha)
    wp = fc.quot(w.derivative(), w)
    wpp = fc.quot(w.derivative().derivative(), w)
    bracket = fc.add(fc.const(1.0),
                     fc.mul(fc.const(1j * k / (alpha ** 2 + k ** 2)), wp),
                     fc.mul(fc.const(-0.5 / (alpha ** 2 + k ** 2)), wpp))
    psi_k = fc.mul(fc.const(1 / np.sqrt(2 * np.pi)), bracket,
                   fc.exp(fc.mul(fc.const(1j * k), fc.X)))
    for f in (phi0p, phi1p):
        v, _ = qd.continuum_overlap(f, psi_k, k)
        assert abs(v) < 1e-6


def test_binorm_error_bound_is_honest(rng):
    # the reported error bounds the defect against a straight high-res oracle
    phi0p, phi1p = rank2_partner_kernel()
    v, e = qd.binorm_integral(phi0p, phi1p)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    oracle = 0j
    edges = np.linspace(-30, 30, 121)
    h = fc.mul(phi0p, phi1p)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        oracle += half * np.sum(weights * h.values(mid + half * nodes))
    assert abs(v - oracle) < max(e, 1e-9) + 1e-9
