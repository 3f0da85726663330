import numpy as np
import pytest

from susyj import cli
from susyj import darboux as dx
from susyj import funcalc as fc
from susyj import jordan as jd
from susyj import models as md
from susyj import operators as op
from susyj import quadrature as qd
from susyj.errors import KappaMismatch, ModelError, ParameterDomain

ALPHA, X0, Z = 1.0, 0.0, 0.5j
GAUSS = fc.exp(fc.mul(fc.const(-1.0), fc.powi(fc.X, 2)))


@pytest.fixture(scope="module")
def rank2():
    return md.model_rank2(ALPHA, X0, Z)


@pytest.fixture(scope="module")
def two_level():
    return md.model_two_level(ALPHA, 0.3, X0, Z)


@pytest.fixture(scope="module")
def threshold():
    return md.model_inverse_square(1j, 1)


def test_rank2_partner_matches_closed_form(rank2):
    xs = rank2.grid.points()
    xi = fc.X - X0
    w = fc.add(fc.sinh(2 * ALPHA * xi), fc.mul(fc.const(2 * ALPHA), fc.X - Z))
    num = fc.add(fc.mul(fc.const(ALPHA), fc.X - Z, fc.sinh(2 * ALPHA * xi)),
                 fc.mul(fc.const(-2.0), fc.powi(fc.cosh(ALPHA * xi), 2)))
    closed = fc.mul(fc.const(-16 * ALPHA ** 2), fc.quot(num, fc.powi(w, 2)))
    got = rank2.h_minus.potential.values(xs)
    want = closed.values(xs)
    assert np.max(np.abs(got - want) / (1 + np.abs(want))) < 1e-10


def test_rank2_rejects_real_z():
    with pytest.raises(ParameterDomain):
        md.model_rank2(1.0, 0.0, 0.3 + 0j)


def test_rank2_pt_symmetric_configuration(rank2):
    xs = rank2.grid.points()
    v = rank2.h_minus.potential
    defect = np.abs(np.conj(v.values(-xs)) - v.values(xs)) / (1 + np.abs(v.values(xs)))
    assert defect.max() < 1e-9


def test_rank2_first_factor_image(rank2):
    # q_a phi1- = -sqrt(alpha/2) / phi0+ pointwise
    lad = dx.ladder(rank2.kernel_minus, rank2.grid)
    lhs = lad.factors[0].apply(rank2.kernel_minus.entries[1].function)
    phi0p = rank2.kernel_plus.entries[0].function
    xs = np.linspace(-6, 6, 101)
    want = -np.sqrt(ALPHA / 2) / phi0p.values(xs)
    got = lhs.values(xs)
    assert np.max(np.abs(got - want) / (1 + np.abs(want))) < 1e-10


def test_rank2_continuum_from_intertwiner(rank2):
    # q2- e^{ikx} = -(alpha^2+k^2) sqrt(2 pi) psi(x;k)
    k = 1.3
    xs = np.linspace(-8, 8, 161)
    wave = fc.exp(fc.mul(fc.const(1j * k), fc.X))
    lhs = rank2.q_minus.apply_values(wave, xs)
    rhs = -(ALPHA ** 2 + k ** 2) * np.sqrt(2 * np.pi) * rank2.continuum.values(xs, k)
    assert np.max(np.abs(lhs - rhs) / (1 + np.abs(rhs))) < 1e-9


def test_rank2_zero_energy_state_closed_form(rank2):
    xs = np.linspace(-7, 7, 141)
    xi = fc.X - X0
    w = fc.add(fc.sinh(2 * ALPHA * xi), fc.mul(fc.const(2 * ALPHA), fc.X - Z))
    closed = fc.mul(fc.const(1 / np.sqrt(2 * np.pi)),
                    fc.add(fc.const(1.0),
                           fc.mul(fc.const(-0.5 / ALPHA ** 2),
                                  fc.quot(w.derivative().derivative(), w))))
    got = rank2.psi_zero_energy.values(xs)
    assert np.max(np.abs(got - closed.values(xs))) < 1e-12


def test_rank2_smatrices_match(rank2):
    s_plus = jd.build_smatrix(rank2.h_plus, rank2.kernel_minus, rank2.grid)
    s_minus = jd.build_smatrix(rank2.h_minus, rank2.kernel_plus, rank2.grid)
    expected = np.array([[-1.0, 0.0], [1.0, -1.0]], dtype=complex)
    assert np.abs(s_plus.matrix - expected).max() < 1e-8
    assert np.abs(s_minus.matrix - expected).max() < 1e-8


def test_two_level_domain_errors():
    with pytest.raises(ParameterDomain):
        md.model_two_level(1.0, 1.0, 0.0, 0.5j)   # beta = alpha
    with pytest.raises(ParameterDomain):
        md.model_two_level(1.0, 0.0, 0.0, 0.5j)   # confluent case
    with pytest.raises(ParameterDomain):
        md.model_two_level(1.0, 0.3, 0.0, 0.5)    # real z
    with pytest.raises(ParameterDomain):
        md.model_two_level(1.0, 3.5, 0.0, 0.5j)   # beta beyond pi/(2 Im z)


def test_two_level_bound_state_normalization(two_level):
    for chain in two_level.chains_minus:
        v, _ = qd.binorm_integral(chain.functions[0], chain.functions[0])
        assert abs(v - 1.0) < 1e-6


def test_two_level_cross_binorms_vanish(two_level):
    psi_p = two_level.chains_minus[0].functions[0]
    psi_m = two_level.chains_minus[1].functions[0]
    v, _ = qd.binorm_integral(psi_p, psi_m)
    assert abs(v) < 1e-7
    k = 0.9
    for f in (psi_p, psi_m):
        v, _ = qd.continuum_overlap(f, two_level.continuum, k)
        assert abs(v) < 1e-6


def test_two_level_binorm_formula_sweep():
    for beta in (0.1, 0.3, 0.5):
        b = md.model_two_level(ALPHA, beta, X0, Z)
        psit_p = b.kernel_plus.entries[0].function
        psit_m = b.kernel_plus.entries[1].function
        vp, _ = qd.binorm_integral(psit_p, psit_p)
        vm, _ = qd.binorm_integral(psit_m, psit_m)
        assert abs(vp - (-beta / (2 * ALPHA * (ALPHA + beta)))) < 1e-6
        assert abs(vm - (+beta / (2 * ALPHA * (ALPHA - beta)))) < 1e-6


def test_two_level_continuum_limits(two_level):
    assert md.two_level_continuum_limits(two_level) < 1e-5


def test_threshold_psi0_binorm_and_orthogonality(threshold):
    psi0 = threshold.kernel_plus.entries[0].function
    v, _ = qd.binorm_integral(psi0, psi0)
    assert abs(v) < 1e-8
    for k in (0.7, 2.3):
        v, _ = qd.continuum_overlap(psi0, threshold.continuum, k)
        assert abs(v) < 1e-6


def test_threshold_state_as_continuum_limit(threshold):
    # psi0 = -sqrt(2 pi) lim_{k->0} i k psi(x;k)
    xs = np.linspace(-5, 5, 81)
    psi0 = threshold.kernel_plus.entries[0].function.values(xs)
    vals = []
    for m in (2, 3, 4, 5):
        k = 10.0 ** -m
        vals.append(-np.sqrt(2 * np.pi) * 1j * k * threshold.continuum.values(xs, k))
    # two Richardson levels (ratio 10) remove the k and k^2 terms
    r1 = [(10 * vals[i + 1] - vals[i]) / 9 for i in range(3)]
    r2 = (100 * r1[1] - r1[0]) / 99
    assert np.abs(r2 - psi0).max() < 1e-8
    # raw values approach linearly, each decade gaining one digit
    raw_errs = [np.abs(v - psi0).max() for v in vals]
    assert raw_errs[2] < 0.15 * raw_errs[1] < 0.15 ** 2 * raw_errs[0] / 0.15


def test_threshold_isospectral_maps(threshold):
    # q- e^{ikx}/sqrt(2pi) = ik psi(x;k) and q- const = -psi0/sqrt(2pi)
    k = 1.1
    xs = np.linspace(-6, 6, 101)
    wave = fc.mul(fc.const(1 / np.sqrt(2 * np.pi)),
                  fc.exp(fc.mul(fc.const(1j * k), fc.X)))
    lhs = threshold.q_minus.apply_values(wave, xs)
    rhs = 1j * k * threshold.continuum.values(xs, k)
    assert np.max(np.abs(lhs - rhs)) < 1e-10
    const = fc.const(1 / np.sqrt(2 * np.pi))
    psi0 = threshold.kernel_plus.entries[0].function
    lhs2 = threshold.q_minus.apply_values(const, xs)
    rhs2 = -psi0.values(xs) / np.sqrt(2 * np.pi)
    assert np.max(np.abs(lhs2 - rhs2)) < 1e-12


def test_inverse_square_family_n3_chain_and_binorms():
    b = md.model_inverse_square(1j, 3)
    chain = b.chains_minus[0]
    assert chain.size == 2
    assert op.chain_residual(b.h_minus, chain, b.grid) < 1e-9
    bm = qd.biorthogonality_matrix(chain)
    assert np.abs(bm.values).max() < 1e-8
    assert "unsupported" in b.notes[0]


def test_inverse_square_rejects_real_pole():
    with pytest.raises(ParameterDomain):
        md.model_inverse_square(2.0, 1)


def test_symmetry_rank2(rank2):
    rep = md.symmetry_check(rank2, k_values=(0.7, 1.3))
    assert rep.commutation_residual < 1e-8
    assert rep.antisymmetry_defect < 1e-9
    assert rep.max_eigenvalue_residual < 1e-7
    assert max(rep.zero_mode_residuals) < 1e-8
    assert rep.constant_image_spread < 1e-10
    # explicit eigenvalue at k = 1: i k (k^2 + alpha^2)^2 = 4i
    assert complex(rank2.symmetry_eigenvalue_fn(1.0)) == pytest.approx(4j)


def test_symmetry_two_level(two_level):
    rep = md.symmetry_check(two_level, k_values=(0.9,))
    assert rep.commutation_residual < 1e-8
    assert rep.max_eigenvalue_residual < 1e-7
    assert max(rep.zero_mode_residuals) < 1e-8


def test_symmetry_inverse_square(threshold):
    rep = md.symmetry_check(threshold, k_values=(0.7, 1.3))
    assert rep.commutation_residual < 1e-10
    assert rep.antisymmetry_defect < 1e-12
    assert rep.max_eigenvalue_residual < 1e-10
    # closed form: R3 = -d^3 + 3/(x-z)^2 d - 3/(x-z)^3
    u2 = fc.powi(fc.X - fc.const(1j), -2)
    u3 = fc.powi(fc.X - fc.const(1j), -3)
    expected = op.DiffOperator((fc.mul(fc.const(-3.0), u3), fc.mul(fc.const(3.0), u2),
                                fc.const(0.0), fc.const(-1.0)))
    assert op.operators_equal(threshold.symmetry_op, expected)


def _half_grid_points(bundle):
    """The 32 Chebyshev points on which symmetry_check compares R^t with -R."""
    return fc.chebyshev_points(bundle.grid.x_min / 2, bundle.grid.x_max / 2, 32)


def test_transpose_values_match_symbolic_transpose(rank2, threshold):
    pts = _half_grid_points(rank2)
    for q in (rank2.h_minus.as_operator(), rank2.q_minus, threshold.symmetry_op):
        symbolic = np.array([w.values(pts) for w in q.transpose().coefficients])
        jets = q.transpose_values(pts)
        assert jets.shape == symbolic.shape == (q.order + 1, len(pts))
        assert np.max(np.abs(jets - symbolic) / (1 + np.abs(symbolic))) <= 1e-13


def _symmetry_checks(bundle):
    report = cli.run_suites(bundle, ["symmetry"], dict(cli.DEFAULT_TOLERANCES))
    return {c["name"]: c for c in report["suites"]["symmetry"]["checks"]}


def test_antisymmetry_check_sees_perturbed_r():
    bundle = md.model_rank2(ALPHA, X0, Z)
    assert _symmetry_checks(bundle)["antisymmetry"]["passed"]
    r = bundle.symmetry_op
    for size in (1e-6, float("nan")):
        bump = fc.mul(fc.const(size), GAUSS)
        bundle.symmetry_op = op.DiffOperator((fc.add(r.coefficients[0], bump),)
                                             + r.coefficients[1:])
        assert not _symmetry_checks(bundle)["antisymmetry"]["passed"]


def test_symmetry_nan_residuals_fail_their_checks(monkeypatch, rank2):
    nan = float("nan")
    rep = md.SymmetryReport(0.0, 0.0, {0.7: 0.0, 1.3: nan}, (0.0, nan), None)
    assert np.isnan(rep.max_eigenvalue_residual)
    monkeypatch.setattr(md, "symmetry_check", lambda bundle: rep)
    checks = _symmetry_checks(rank2)
    assert not checks["eigenvalues"]["passed"]
    assert not checks["zero_modes"]["passed"]


def _mp_program(expr):
    """The distinct structures of an expression tree, children first, as
    (node, child positions) pairs; the last one is the root."""
    position, program = {}, []

    def visit(node):
        if id(node) not in position:
            kids = tuple(visit(c) for c in node.children())
            key = (type(node), getattr(node, "exponent", None),
                   getattr(node, "value", None), kids)
            if key not in position:
                position[key] = len(program)
                program.append((node, kids))
            position[id(node)] = position[key]
        return position[id(node)]

    visit(expr)
    return program


def _mp_value(program, x):
    """Value of a compiled tree at x in mpmath's working precision."""
    import mpmath
    unary = {fc.Exp: mpmath.exp, fc.Sinh: mpmath.sinh, fc.Cosh: mpmath.cosh,
             fc.Tanh: mpmath.tanh}
    vals = []
    for node, kids in program:
        args = [vals[i] for i in kids]
        if isinstance(node, fc.Const):
            v = mpmath.mpc(node.value)
        elif isinstance(node, fc.Var):
            v = x
        elif isinstance(node, fc.Sum):
            v = mpmath.fsum(args)
        elif isinstance(node, fc.Product):
            v = mpmath.fprod(args)
        elif isinstance(node, fc.Quotient):
            v = args[0] / args[1]
        elif isinstance(node, fc.PowInt):
            v = args[0] ** node.exponent
        else:
            v = unary[type(node)](args[0])
        vals.append(v)
    return vals[-1]


def test_transpose_values_against_mpmath():
    # row 0 of R^t is sum_k (-1)^k w_k^(k); R itself evaluated at 40 digits,
    # with mpmath's own high-precision differences for the derivatives
    mpmath = pytest.importorskip("mpmath")
    bundle = md.model_rank2(2.2497, 0.1463, 0.0249 + 0.6785j)
    r = bundle.symmetry_op
    pts = _half_grid_points(bundle)
    row0 = r.transpose_values(pts)[0]
    w0 = r.coefficients[0].values(pts)
    programs = [_mp_program(w) for w in r.coefficients]
    with mpmath.workdps(40):
        want = np.array([complex(mpmath.fsum(
            (-1) ** k * mpmath.diff(lambda t, p=p: _mp_value(p, t), mpmath.mpf(x), k)
            for k, p in enumerate(programs))) for x in pts])
    assert np.max(np.abs(row0 - want) / (1 + np.abs(w0))) <= 1e-9


def test_confluence_exact_route(rank2):
    chain = md.confluence_limit(ALPHA, X0, Z)
    xs = rank2.grid.points()
    target = rank2.kernel_minus.entries[1].function.values(xs)
    got = chain.functions[1].values(xs)
    assert np.max(np.abs(got - target) / (1 + np.abs(target))) < 1e-9
    assert op.chain_residual(md.FREE_HAMILTONIAN, chain, rank2.grid) < 1e-9


def test_confluence_fd_route(rank2):
    chain = md.confluence_fd_chain(ALPHA, X0, Z, betas=(1e-2, 1e-3))
    xs = rank2.grid.points()
    target = rank2.kernel_minus.entries[1].function.values(xs)
    got = chain.functions[1].values(xs)
    assert np.max(np.abs(got - target) / (1 + np.abs(target))) < 1e-6


def test_confluence_normalized_limits():
    assert md.confluence_normalized_limits(ALPHA, X0, Z) < 1e-6


def test_confluence_dyad_limit():
    pairs = [(-2.0, 1.0), (0.5, 0.5), (1.5, -2.5), (3.0, 0.0), (-1.0, -1.0),
             (2.0, 2.0), (-3.0, 1.5), (0.0, 1.0), (1.0, -0.5), (-0.5, 2.5)]
    assert md.confluence_dyad_limit(ALPHA, X0, Z, pairs) < 1e-5


def _cosh_level(c, z_c, rho=0.0, a=1.0, x0=0.0):
    mu = fc.param("mu")
    karg = fc.add(fc.const(a), fc.mul(fc.const(c), mu))
    center = fc.add(fc.const(a * x0), fc.mul(fc.const(c * z_c), mu))
    psi = fc.cosh(fc.add(fc.mul(karg, fc.X), fc.mul(fc.const(-1.0), center)))
    if rho:
        psi = fc.mul(fc.add(fc.const(1.0), fc.mul(fc.const(rho), mu)), psi)
    lam = fc.mul(fc.const(-1.0), fc.powi(karg, 2))
    return psi, lam


def test_coalesce_triple_admissible_family():
    # admissible: level centers z_c = Z + T/c make the first-order mismatch
    # proportional to the common eigenfunction
    zbase, tshift = 0.3 + 0.4j, 0.2 - 0.1j
    p1, l1 = _cosh_level(1.0, zbase + tshift / 1.0, rho=0.37 - 0.21j)
    p2, l2 = _cosh_level(-1.0, zbase + tshift / -1.0)
    p3, l3 = _cosh_level(2.0, zbase + tshift / 2.0)
    chain = md.coalesce_triple([p1, p2, p3], [l1, l2, l3], 0.0)
    assert chain.size == 3
    assert op.chain_residual(md.FREE_HAMILTONIAN, chain, op.GridSpec(-8, 8, 201)) < 1e-8


def test_coalesce_triple_rejects_degenerate_slopes():
    p1, l1 = _cosh_level(1.0, 0.3j)
    p2, l2 = _cosh_level(-1.0, -0.3j)
    p3, l3 = _cosh_level(2.0, 0.15j)
    with pytest.raises(ParameterDomain):
        md.coalesce_triple([p1, p2, p1], [l1, l2, l1], 0.0)


def test_coalesce_triple_inadmissible_family_raises():
    p1, l1 = _cosh_level(1.0, 0.4 + 0.5j)
    p2, l2 = _cosh_level(-1.0, -0.4 + 0.5j)
    p3, l3 = _cosh_level(2.0, 0.7 + 0.3j)
    with pytest.raises(KappaMismatch):
        md.coalesce_triple([p1, p2, p3], [l1, l2, l3], 0.0)


def test_coalesce_mixed_multiplicity():
    a, x0, c = 1.0, 0.0, 2.0
    z1 = 0.4 + 0.5j
    z2 = x0 + (1 - c) / c * (x0 - z1)
    mu = fc.param("mu")
    karg = fc.add(fc.const(a), mu)
    psi10 = fc.cosh(fc.mul(karg, fc.X - x0))
    psi11 = fc.add(
        fc.mul(fc.const(-0.5), fc.quot(fc.X - z1, karg),
               fc.sinh(fc.mul(karg, fc.X - x0))),
        fc.mul(fc.const(0.25), fc.quot(fc.const(1.0), fc.powi(karg, 2)),
               fc.cosh(fc.mul(karg, fc.X - x0))))
    lam1 = fc.mul(fc.const(-1.0), fc.powi(karg, 2))
    k2arg = fc.add(fc.const(a), fc.mul(fc.const(c), mu))
    psi2 = fc.cosh(fc.add(fc.mul(k2arg, fc.X),
                          fc.mul(fc.const(-1.0),
                                 fc.add(fc.const(a * x0), fc.mul(fc.const(c * z2), mu)))))
    lam2 = fc.mul(fc.const(-1.0), fc.powi(k2arg, 2))
    chain = md.coalesce_mixed(psi10, psi11, lam1, psi2, lam2, 0.0)
    assert chain.size == 3
    assert op.chain_residual(md.FREE_HAMILTONIAN, chain, op.GridSpec(-8, 8, 201)) < 1e-8


def test_continuation_limits(rank2):
    assert md.continuation_limit_defect(rank2, +1) < 1e-5
    assert md.continuation_limit_defect(rank2, -1) < 1e-5


def test_weak_delta_normalization(rank2):
    assert md.weak_delta_check(rank2) < 1e-4


def test_custom_model_roundtrip(rank2):
    # rebuild the rank-2 construction through the generic JSON path
    cfg = {
        "model": "custom",
        "basis": [e.to_json_obj() for e in rank2.kernel_minus.entries],
        "grid": {"x_min": -12.0, "x_max": 12.0, "n_points": 401},
    }
    b = md.model_from_config(cfg)
    xs = b.grid.points()
    want = rank2.h_minus.potential.values(xs)
    got = b.h_minus.potential.values(xs)
    assert np.max(np.abs(got - want) / (1 + np.abs(want))) < 1e-8
    # canonicalized partner kernel forms a normalizable size-2 chain
    assert len(b.chains_minus) == 1
    assert b.chains_minus[0].size == 2
    assert op.chain_residual(b.h_minus, b.chains_minus[0], b.grid) < 1e-7


def test_bundle_verification_rejects_corruption(rank2):
    import dataclasses
    bad = dataclasses.replace(
        rank2,
        chains_minus=(op.JordanChain(-1.0, (fc.add(
            rank2.chains_minus[0].functions[0], fc.mul(fc.const(0.01), GAUSS)),)),),
        diagnostics={})
    with pytest.raises(ModelError):
        md._verify_bundle(bad)
