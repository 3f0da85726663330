"""Resolution-of-identity checks: the slow double-quadrature paths."""

import numpy as np
import pytest

from susyj import funcalc as fc
from susyj import models as md
from susyj.errors import ClassMismatch, ModelError

GAUSS = fc.exp(fc.mul(fc.const(-1.0), fc.powi(fc.X, 2)))


@pytest.fixture(scope="module")
def rank2():
    return md.model_rank2(1.0, 0.0, 0.5j)


@pytest.fixture(scope="module")
def threshold():
    return md.model_inverse_square(1j, 1)


def test_direct_reconstruction_rank2(rank2):
    rep = md.resolution_of_identity(rank2, [GAUSS], k_window=40.0)
    assert rep.variant == md.VARIANT_DIRECT
    assert rep.results[0].extrapolated_error < 1e-4
    assert rep.results[0].attribution["discrete"] > 0.1  # the cell genuinely contributes


def test_direct_reconstruction_two_level():
    b = md.model_two_level(1.0, 0.3, 0.0, 0.5j)
    f = fc.mul(fc.X, GAUSS)
    rep = md.resolution_of_identity(b, [f], k_window=40.0)
    assert rep.results[0].extrapolated_error < 1e-4


def test_direct_variant_rejected_for_threshold(threshold):
    with pytest.raises(ModelError):
        md.resolution_of_identity(threshold, [GAUSS], variant=md.VARIANT_DIRECT)


def test_modified_variant_reproduces_threshold_state(threshold):
    psi0 = threshold.kernel_plus.entries[0].function
    rep = md.resolution_of_identity(threshold, [psi0], variant="modified",
                                    eps_seq=(0.1, 0.05, 0.025), strict=False)
    r = rep.results[0]
    assert r.class_ok  # psi0 is plain square integrable, which this variant covers
    assert r.extrapolated_error < 1e-3
    # per-eps errors decrease monotonically along eps -> 0
    assert r.per_eps_error[0] > r.per_eps_error[1] > r.per_eps_error[2]


def test_counterterm_variant_fails_on_threshold_state(threshold):
    psi0 = threshold.kernel_plus.entries[0].function
    norm = float(np.abs(psi0.values(np.linspace(-6, 6, 121))).max())
    rep = md.resolution_of_identity(threshold, [psi0], variant="counterterm",
                                    strict=False)
    assert rep.results[0].extrapolated_error > 0.5 * norm
    with pytest.raises(ClassMismatch):
        md.resolution_of_identity(threshold, [psi0], variant="counterterm",
                                  strict=True)


def test_both_variants_reconstruct_gaussian(threshold):
    rep_m = md.resolution_of_identity(threshold, [GAUSS], variant="modified")
    rep_c = md.resolution_of_identity(threshold, [GAUSS], variant="counterterm")
    for rep in (rep_m, rep_c):
        r = rep.results[0]
        assert r.class_ok
        assert r.extrapolated_error < 2e-3
        assert r.per_eps_error[0] >= r.per_eps_error[-1]


def test_threshold_counterterm_identity(threshold):
    assert md.threshold_counterterm_identity(threshold) < 1e-3


def test_spectral_decomposition_consistency(rank2):
    assert md.spectral_decomposition_defect(rank2, GAUSS, k_window=60.0) < 1e-4


def test_thread_count_does_not_change_bits(monkeypatch):
    # a fresh bundle for each run: the band transforms it caches would
    # otherwise let the second run skip the threaded kernel altogether
    b1, b2 = md.model_rank2(1.0, 0.0, 0.5j), md.model_rank2(1.0, 0.0, 0.5j)
    rep1 = md.resolution_of_identity(b1, [GAUSS], k_window=20.0)
    monkeypatch.setenv("SUSYJ_THREADS", "4")
    assert b2.continuum.band_transforms == {}
    rep2 = md.resolution_of_identity(b2, [GAUSS], k_window=20.0)
    assert rep1.results[0].per_eps_error == rep2.results[0].per_eps_error
    assert rep1.results[0].extrapolated_error == rep2.results[0].extrapolated_error


def _component_integrals_exp(inner, family, f, ks):
    """Reference I_j(+-k): complex phase matrix exp(ikx) against w f a_j, plus
    the integration-by-parts tails of a power-law product beyond the window."""
    phase = np.exp(1j * np.outer(ks, inner.nodes))
    fv = f.values(inner.nodes)
    plus, minus = [], []
    for comp in family.components:
        b = inner.weights * fv * comp.values(inner.nodes)
        p, m = phase @ b, np.conj(phase) @ b
        if inner.power_tail:
            g = f * comp
            jets = [g, g.derivative(), g.derivative().derivative()]
            for sign_k, out in ((+1, p), (-1, m)):
                ik = 1j * sign_k * ks
                for side in (+1, -1):
                    g0, g1, g2 = (complex(e.evaluate(side * inner.window)) for e in jets)
                    term = np.exp(ik * side * inner.window) * (g0 / ik - g1 / ik ** 2 + g2 / ik ** 3)
                    out -= side * term
        plus.append(p)
        minus.append(m)
    return np.column_stack(plus), np.column_stack(minus)


@pytest.mark.parametrize("case", ["exponential", "power_tail"])
def test_real_phase_kernel_matches_complex_exp(case, rank2, threshold, monkeypatch):
    if case == "exponential":
        family, f, band, window = rank2.continuum, GAUSS, (2.0, 4.0), 12.0
    else:
        family, f, band, window = (threshold.continuum,
                                   threshold.kernel_plus.entries[0].function, (0.05, 0.1), 8.0)
    inner = md._InnerProducts(family, f, *band, window, power_tail=case == "power_tail")
    ks = np.linspace(*band, 150)  # spans three 64-row chunks
    got = inner.component_integrals_pm(ks)
    ref = _component_integrals_exp(inner, family, f, ks)
    # relative to the largest integral of the band: I_j(-k) of the threshold
    # state vanishes exactly, so its own size is the quadrature error
    scale = max(np.abs(r).max() for r in ref)
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert np.abs(g - r).max() <= 1e-13 * scale
    # the three chunks spread over workers give the same bits
    monkeypatch.setenv("SUSYJ_THREADS", "4")
    threaded = inner.component_integrals_pm(ks)
    for g, t in zip(got, threaded):
        assert np.array_equal(g, t)


def test_band_cache_does_not_change_bits():
    def counterterm(bundle):
        return md.resolution_of_identity(bundle, [bundle.kernel_plus.entries[0].function],
                                         variant="counterterm", strict=False)

    warm = md.model_inverse_square(1j, 1)
    md.resolution_of_identity(warm, [warm.kernel_plus.entries[0].function, GAUSS],
                              variant="modified", strict=False)
    filled = set(warm.continuum.band_transforms)
    rep_warm = counterterm(warm)
    # the counterterm run found every band of the threshold state computed
    assert set(warm.continuum.band_transforms) == filled

    fresh = md.model_inverse_square(1j, 1)
    assert fresh.continuum.band_transforms == {}
    assert counterterm(fresh) == rep_warm
    assert fresh.continuum.band_transforms is not warm.continuum.band_transforms
    assert not set(fresh.continuum.band_transforms) & set(warm.continuum.band_transforms)
