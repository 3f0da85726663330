"""Command-line interface: build a model, run verification suites, emit reports.

Commands
--------
verify       run selected suites against a built-in or JSON-specified model
grid         dump potential and partner-kernel values to CSV for plotting
sweep        repeat a run along one parameter axis and tabulate a summary
list-models  show the built-in model names and their parameters

Reports are deterministic JSON (fixed key order, no wall-clock data); complex
numbers are serialized as {"re": ..., "im": ...} objects.  Exit status: 0 all
requested suites passed, 1 at least one suite failed, 2 model construction
error, 3 malformed configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys

import numpy as np

from . import __version__
from . import funcalc as fc
from . import index as ix
from . import jordan as jd
from . import models as md
from . import operators as op
from . import quadrature as qd
from .errors import ConfigError, ModelError, SusyjError

SUITES = ("intertwine", "chains", "binorms", "jordan", "index", "symmetry",
          "roi", "confluence")

DEFAULT_TOLERANCES = {
    "intertwine": 1e-8,
    "chains": 1e-9,
    "binorm_zero": 1e-8,
    "binorm_value": 1e-6,
    "smatrix": 1e-8,
    "closure": 1e-7,
    "symmetry_eigenvalue": 1e-7,
    "symmetry_zero_mode": 1e-8,
    "symmetry_antisymmetry": 1e-9,
    "roi_direct": 1e-4,
    "roi_threshold": 1e-3,
    "confluence_exact": 1e-9,
    "confluence_fd": 1e-6,
    "confluence_dyad": 1e-5,
}

_COMPLEX_RE = re.compile(
    r"^\s*([+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"([+-]\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)i\s*$")


def parse_complex(text: str) -> complex:
    """Complex literal of the form a+bi / a-bi; both parts are mandatory."""
    m = _COMPLEX_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse complex literal {text!r} (expected a+bi)")
    return complex(float(m.group(1)), float(m.group(2)))


def _c_obj(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _check(name, value, tolerance, error=None):
    if isinstance(value, complex):
        out = {"name": name, "value": _c_obj(value)}
        passed = abs(value) <= tolerance
    elif isinstance(value, bool):
        out = {"name": name, "value": value}
        passed = value
    else:
        out = {"name": name, "value": float(value)}
        passed = float(value) <= tolerance
    if error is not None:
        out["error"] = float(error)
    out["tolerance"] = tolerance if not isinstance(value, bool) else None
    out["passed"] = bool(passed)
    return out


def _deviation_check(name, value, target, tolerance, error=None):
    dev = abs(complex(value) - complex(target))
    out = {"name": name, "value": _c_obj(value), "target": _c_obj(target),
           "deviation": float(dev)}
    if error is not None:
        out["error"] = float(error)
    out["tolerance"] = tolerance
    out["passed"] = bool(dev <= tolerance)
    return out


def _info(name, value):
    """Informational entry: recorded in the report, never gates the verdict."""
    return {"name": name, "value": float(value), "tolerance": None, "passed": True}


# -- suites -------------------------------------------------------------------------


def suite_intertwine(bundle, tol):
    if bundle.q_minus is None:
        raise ModelError("model has no intertwiner; suite not applicable")
    checks = [
        _check("q_minus_h_plus", bundle.diagnostics["intertwine_minus"],
               tol["intertwine"]),
        _check("q_plus_h_minus", bundle.diagnostics["intertwine_plus"],
               tol["intertwine"]),
        _check("kernel_minus_annihilation",
               bundle.diagnostics["kernel_minus_annihilation"], tol["chains"]),
        _check("kernel_plus_annihilation",
               bundle.diagnostics["kernel_plus_annihilation"], tol["chains"]),
    ]
    return checks


def suite_chains(bundle, tol):
    checks = []
    for i, chain in enumerate(bundle.chains_minus):
        r = op.chain_residual(bundle.h_minus, chain, bundle.grid)
        checks.append(_check(f"chain_minus_{i}", r, tol["chains"]))
    if bundle.kernel_minus is not None:
        for i, chain in enumerate(bundle.kernel_minus.chains()):
            r = op.chain_residual(bundle.h_plus, chain, bundle.grid)
            checks.append(_check(f"kernel_minus_chain_{i}", r, tol["chains"]))
    return checks


def suite_binorms(bundle, tol, qspec=qd.DEFAULT_QUAD):
    checks = []
    for i, chain in enumerate(bundle.chains_minus):
        bm = qd.biorthogonality_matrix(chain, qspec)
        checks.append(_check(f"chain_{i}_pattern", bm.pattern_violation,
                             tol["binorm_zero"]))
        checks.append(_check(f"chain_{i}_antidiagonal_spread",
                             bm.antidiagonal_spread, tol["binorm_value"]))
        # chains at a continuum threshold carry the zero-binorm anomaly;
        # everywhere else the canonical normalization pins the binorm to 1
        at_threshold = (bundle.continuum_threshold is not None
                        and abs(complex(chain.eigenvalue)
                                - bundle.continuum_threshold) < 1e-10)
        target = 0.0 if at_threshold else 1.0
        checks.append(_deviation_check(f"chain_{i}_antidiagonal_value",
                                       bm.antidiagonal_values[0], target,
                                       tol["binorm_value"]))
    # cross-level orthogonality
    for i in range(len(bundle.chains_minus)):
        for j in range(i + 1, len(bundle.chains_minus)):
            v, e = qd.binorm_integral(bundle.chains_minus[i].functions[0],
                                      bundle.chains_minus[j].functions[0], qspec)
            checks.append(_check(f"cross_{i}_{j}", v, tol["binorm_value"], e))
    if bundle.name == "two_level":
        a = complex(bundle.parameters["alpha"]).real
        b = bundle.parameters["beta"]
        for label, entry, target in (
                ("upper", bundle.kernel_plus.entries[0], -b / (2 * a * (a + b))),
                ("lower", bundle.kernel_plus.entries[1], +b / (2 * a * (a - b)))):
            v, e = qd.binorm_integral(entry.function, entry.function)
            checks.append(_deviation_check(f"binorm_formula_{label}", v, target,
                                           tol["binorm_value"], e))
    return checks


def suite_jordan(bundle, tol, report):
    if bundle.kernel_minus is None:
        raise ModelError("model has no kernel basis; suite not applicable")
    s_plus = jd.build_smatrix(bundle.h_plus, bundle.kernel_minus, bundle.grid)
    js_plus = jd.jordan_form(s_plus)
    s_minus = jd.build_smatrix(bundle.h_minus, bundle.kernel_plus, bundle.grid)
    js_minus = jd.jordan_form(s_minus)
    strip = jd.strip_off_analysis(js_plus)
    poly = jd.susy_polynomial(js_plus)
    report["jordan_structure"] = js_plus.to_json_obj()
    report["jordan_structure"]["strip"] = {
        "pairs": [{"lambda": _c_obj(l), "delta_k": dk} for l, dk in strip.pairs],
        "reduced_order": strip.reduced_order,
        "template": strip.template,
    }
    report["susy_polynomial"] = [_c_obj(c) for c in poly]
    cells_p = sorted((round(ev.real, 6), round(ev.imag, 6), k) for ev, k in js_plus.cells)
    cells_m = sorted((round(ev.real, 6), round(ev.imag, 6), k) for ev, k in js_minus.cells)
    checks = [
        _check("smatrix_plus_fit", s_plus.fit_residual, tol["smatrix"]),
        _check("smatrix_minus_fit", s_minus.fit_residual, tol["smatrix"]),
        _check("structures_agree", cells_p == cells_m, None),
        _check("form_residual", js_plus.form_residual, tol["smatrix"]),
    ]
    # closure on plane waves: q+ (q- e^{ikx}) = P(k^2) e^{ikx}
    xs = np.linspace(bundle.grid.x_min / 2, bundle.grid.x_max / 2, 101)
    worst = 0.0
    for k in (0.5, 1.0, 2.0):
        wave = fc.exp(fc.mul(fc.const(1j * k), fc.X))
        qf = bundle.q_minus.apply(wave)
        lhs = bundle.q_plus.apply_values(qf, xs)
        rhs = jd.polynomial_in_energy(poly, k * k) * wave.values(xs)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / (1 + np.abs(rhs)))))
    checks.append(_check("polynomial_closure", worst, tol["closure"]))
    return checks


def suite_index(bundle, tol, report):
    rep = ix.index_report(bundle)
    report["index_report"] = rep.to_json_obj()
    checks = []
    for c, v, cnt in zip(rep.levels, rep.index_verdicts, rep.counting_verdicts):
        lam = complex(c.eigenvalue)
        label = f"{lam.real:+.4f}{lam.imag:+.4f}i"
        if not v.in_scope:
            checks.append(_check(f"level_{label}_out_of_scope", True, None))
            continue
        checks.append(_check(f"level_{label}_index_theorem", bool(v.holds), None))
        if cnt is not None:
            checks.append(_check(f"level_{label}_kernel_counting", bool(cnt), None))
    return checks


def suite_symmetry(bundle, tol, report):
    rep = md.symmetry_check(bundle)
    report["symmetry"] = {
        "commutation_residual": rep.commutation_residual,
        "antisymmetry_defect": rep.antisymmetry_defect,
        "eigenvalue_residuals": {str(k): v for k, v in rep.eigenvalue_residuals.items()},
        "zero_mode_residuals": list(rep.zero_mode_residuals),
        "constant_image_spread": rep.constant_image_spread,
    }
    checks = [
        _check("commutation", rep.commutation_residual, tol["intertwine"]),
        _check("antisymmetry", rep.antisymmetry_defect, tol["symmetry_antisymmetry"]),
        _check("eigenvalues", rep.max_eigenvalue_residual, tol["symmetry_eigenvalue"]),
        _check("zero_modes", float(np.max(rep.zero_mode_residuals)),
               tol["symmetry_zero_mode"]),
    ]
    if rep.constant_image_spread is not None:
        checks.append(_check("zero_energy_constant_image",
                             rep.constant_image_spread, tol["symmetry_zero_mode"]))
    return checks


def suite_roi(bundle, tol, report, eps_values=None):
    gauss = fc.exp(fc.mul(fc.const(-1.0), fc.powi(fc.X, 2)))
    checks = []
    eps_seq = tuple(eps_values) if eps_values else (0.1, 0.05, 0.025)
    if bundle.continuum is None:
        raise ModelError("model has no continuum family; suite not applicable")
    if bundle.continuum.k_excluded:
        psi0 = bundle.kernel_plus.entries[0].function
        rep_m = md.resolution_of_identity(bundle, [psi0, gauss], variant="modified",
                                          eps_seq=eps_seq, strict=False)
        rep_c = md.resolution_of_identity(bundle, [psi0], variant="counterterm",
                                          strict=False, eps_seq=eps_seq)
        norm = float(np.abs(psi0.values(np.linspace(-6, 6, 121))).max())
        report["roi"] = {
            "variant": rep_m.variant,
            "eps_seq": list(rep_m.eps_seq),
            "per_eps_error_threshold_state": list(rep_m.results[0].per_eps_error),
            "extrapolated_error_threshold_state": rep_m.results[0].extrapolated_error,
            "counterterm_variant_error": rep_c.results[0].extrapolated_error,
        }
        if len(eps_seq) >= 3:
            checks.append(_check("modified_reproduces_threshold_state",
                                 rep_m.results[0].extrapolated_error,
                                 tol["roi_threshold"]))
            checks.append(_check("modified_on_square_integrable",
                                 rep_m.results[1].extrapolated_error,
                                 5 * tol["roi_threshold"]))
            monotone = all(a >= b for a, b in zip(rep_m.results[0].per_eps_error,
                                                  rep_m.results[0].per_eps_error[1:]))
            checks.append(_check("residuals_nonincreasing", monotone, None))
        else:
            # single-epsilon run (sweep mode): the per-epsilon residual is
            # informational; monotonicity is judged across the sweep
            checks.append(_info("modified_threshold_state_residual",
                                rep_m.results[0].per_eps_error[-1]))
        checks.append(_check("counterterm_fails_as_predicted",
                             rep_c.results[0].extrapolated_error > 0.5 * norm, None))
    else:
        rep_d = md.resolution_of_identity(bundle, [gauss], k_window=40.0)
        report["roi"] = {
            "variant": rep_d.variant,
            "reconstruction_error": rep_d.results[0].extrapolated_error,
            "attribution": rep_d.results[0].attribution,
        }
        checks.append(_check("direct_reconstruction",
                             rep_d.results[0].extrapolated_error, tol["roi_direct"]))
    return checks


def suite_confluence(bundle, tol, report):
    p = bundle.parameters
    if "alpha" not in p:
        raise ModelError("confluence suite needs the reflectionless parameters")
    alpha = complex(p["alpha"]).real
    x0, z = p["x0"], p["z"]
    r2 = md.model_rank2(alpha, x0, z) if bundle.name != "rank2" else bundle
    xs = r2.grid.points()
    target = r2.kernel_minus.entries[1].function.values(xs)

    exact = md.confluence_limit(alpha, x0, z)
    d_exact = float(np.max(np.abs(exact.functions[1].values(xs) - target)
                           / (1 + np.abs(target))))
    fd = md.confluence_fd_chain(alpha, x0, z, betas=(1e-2, 1e-3))
    d_fd = float(np.max(np.abs(fd.functions[1].values(xs) - target)
                        / (1 + np.abs(target))))
    pairs = [(-2.0, 1.0), (0.5, 0.5), (1.5, -2.5), (3.0, 0.0), (-1.0, -1.0),
             (2.0, 2.0), (-3.0, 1.5), (0.0, 1.0), (1.0, -0.5), (-0.5, 2.5)]
    d_dyad = md.confluence_dyad_limit(alpha, x0, z, pairs)
    report["confluence"] = {"exact_route": d_exact, "fd_route": d_fd,
                            "dyad_limit": d_dyad}
    return [
        _check("exact_parameter_derivative", d_exact, tol["confluence_exact"]),
        _check("finite_difference_richardson", d_fd, tol["confluence_fd"]),
        _check("discrete_dyad_limit", d_dyad, tol["confluence_dyad"]),
    ]


def run_suites(bundle, suites, tolerances, eps_values=None,
               qspec=qd.DEFAULT_QUAD):
    report = {
        "artifact": {"name": "susyj", "version": __version__},
        "model": {"name": bundle.name,
                  "parameters": {k: (_c_obj(v) if isinstance(v, complex) else v)
                                 for k, v in bundle.parameters.items()}},
        "grid": bundle.grid.to_json_obj(),
        "quadrature": qspec.to_json_obj(),
        "tolerances": dict(sorted(tolerances.items())),
        "seed": None,
        "notes": list(bundle.notes),
        "suites": {},
    }
    all_passed = True
    for name in suites:
        if name == "intertwine":
            checks = suite_intertwine(bundle, tolerances)
        elif name == "chains":
            checks = suite_chains(bundle, tolerances)
        elif name == "binorms":
            checks = suite_binorms(bundle, tolerances, qspec)
        elif name == "jordan":
            checks = suite_jordan(bundle, tolerances, report)
        elif name == "index":
            checks = suite_index(bundle, tolerances, report)
        elif name == "symmetry":
            checks = suite_symmetry(bundle, tolerances, report)
        elif name == "roi":
            checks = suite_roi(bundle, tolerances, report, eps_values)
        elif name == "confluence":
            checks = suite_confluence(bundle, tolerances, report)
        else:  # pragma: no cover - guarded at parse time
            raise ConfigError(f"unknown suite {name!r}")
        passed = all(c["passed"] for c in checks)
        all_passed = all_passed and passed
        report["suites"][name] = {"passed": passed, "checks": checks}
    report["passed"] = all_passed
    return report


# -- configuration ------------------------------------------------------------------


MODEL_PARAM_FLAGS = {
    "rank2": ("alpha", "x0", "z"),
    "two_level": ("alpha", "beta", "x0", "z"),
    "inverse_square": ("z", "n"),
}


def _parser() -> argparse.ArgumentParser:
    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ConfigError(message)

    p = Parser(prog="susyj", description=__doc__,
               formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--model", help="built-in model name or 'custom'")
        sp.add_argument("--config", help="JSON model/run configuration file")
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--beta", type=float)
        sp.add_argument("--x0", type=float)
        sp.add_argument("--z", type=parse_complex, help="complex literal a+bi")
        sp.add_argument("--n", type=int)
        sp.add_argument("--grid", help="x_min:x_max:n_points")
        sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("verify", help="run verification suites")
    add_common(sp)
    sp.add_argument("--suites", default="intertwine,chains,binorms,jordan,index",
                    help="comma-separated subset of: " + ",".join(SUITES))
    sp.add_argument("--tol", action="append", default=[],
                    help="override, e.g. --tol intertwine=1e-7 (repeatable)")
    sp.add_argument("--format", choices=("json",), default="json")

    sp = sub.add_parser("grid", help="dump potential and kernel values to CSV")
    add_common(sp)
    sp.add_argument("--format", choices=("csv",), default="csv")

    sp = sub.add_parser("sweep", help="run suites along a parameter axis")
    add_common(sp)
    sp.add_argument("--axis", required=True,
                    help="name=v1,v2,... (model parameter or 'eps')")
    sp.add_argument("--suites", default="binorms")
    sp.add_argument("--tol", action="append", default=[])
    sp.add_argument("--format", choices=("json",), default="json")

    sub.add_parser("list-models", help="list built-in models")
    return p


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
    if getattr(args, "model", None):
        cfg["model"] = args.model
    params = dict(cfg.get("parameters", {}))
    for name in ("alpha", "beta", "x0", "z", "n"):
        v = getattr(args, name, None)
        if v is not None:
            params[name] = v
    for key, value in list(params.items()):
        if isinstance(value, str):
            params[key] = parse_complex(value)
        elif isinstance(value, dict):
            params[key] = complex(value.get("re", 0.0), value.get("im", 0.0))
    cfg["parameters"] = params
    if getattr(args, "grid", None):
        try:
            lo, hi, n = args.grid.split(":")
            cfg["grid"] = {"x_min": float(lo), "x_max": float(hi),
                           "n_points": int(n)}
        except ValueError as exc:
            raise ConfigError(f"bad --grid spec {args.grid!r}") from exc
    if "model" not in cfg:
        raise ConfigError("no model given (use --model or --config)")
    return cfg


def _quad_spec(cfg) -> qd.QuadratureSpec:
    q = cfg.get("quadrature", {})
    return qd.QuadratureSpec(
        abs_tol=float(q.get("abs_tol", qd.DEFAULT_QUAD.abs_tol)),
        rel_tol=float(q.get("rel_tol", qd.DEFAULT_QUAD.rel_tol)),
        max_levels=int(q.get("max_levels", qd.DEFAULT_QUAD.max_levels)),
        window=q.get("window"))


def _tolerances(tol_args) -> dict:
    tol = dict(DEFAULT_TOLERANCES)
    for item in tol_args or []:
        if "=" not in item:
            raise ConfigError(f"bad --tol {item!r} (expected name=value)")
        name, _, value = item.partition("=")
        if name not in tol:
            raise ConfigError(f"unknown tolerance {name!r}")
        v = float(value)
        if v <= 0:
            raise ConfigError("tolerance overrides must be positive")
        tol[name] = v
    return tol


def _suite_list(text) -> list[str]:
    suites = [s.strip() for s in text.split(",") if s.strip()]
    for s in suites:
        if s not in SUITES:
            raise ConfigError(f"unknown suite {s!r}")
    if not suites:
        raise ConfigError("empty suite list")
    return suites


def _build(cfg) -> md.ModelBundle:
    name = cfg["model"]
    try:
        if name in md.BUILTIN_MODELS:
            kwargs = dict(cfg.get("parameters", {}))
            if "grid" in cfg:
                g = cfg["grid"]
                kwargs["grid"] = op.GridSpec(g["x_min"], g["x_max"], g["n_points"])
            return md.BUILTIN_MODELS[name](**kwargs)
        return md.model_from_config(cfg)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for model {name!r}: {exc}") from exc
    except ModelError:
        raise
    except SusyjError as exc:
        raise ModelError(str(exc)) from exc


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    suites = _suite_list(args.suites)
    tol = _tolerances(args.tol)
    bundle = _build(cfg)
    report = run_suites(bundle, suites, tol, qspec=_quad_spec(cfg))
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["passed"] else 1


def cmd_grid(args) -> int:
    cfg = _load_config(args)
    bundle = _build(cfg)
    xs = bundle.grid.points()
    columns = [("x", xs.astype(float))]
    v2 = bundle.h_minus.potential.values(xs)
    columns += [("ReV2", v2.real), ("ImV2", v2.imag)]
    if bundle.kernel_plus is not None:
        for i, e in enumerate(bundle.kernel_plus.entries):
            vals = e.function.values(xs)
            columns += [(f"Rephi{i}p", vals.real), (f"Imphi{i}p", vals.imag)]
    rows = zip(*(col for _, col in columns))
    import io
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([name for name, _ in columns])
    for row in rows:
        writer.writerow([f"{v:.12g}" for v in row])
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    suites = _suite_list(args.suites)
    tol = _tolerances(args.tol)
    if "=" not in args.axis:
        raise ConfigError("axis must be name=v1,v2,...")
    name, _, values_text = args.axis.partition("=")
    values = [v for v in values_text.split(",") if v]
    if not values:
        raise ConfigError("empty sweep axis")
    reports = []
    summary = []
    for text in values:
        if name == "eps":
            eps = float(text)
            bundle = _build(cfg)
            report = run_suites(bundle, suites, tol, eps_values=(eps,))
            row = {"eps": eps}
            roi = report.get("roi", {})
            if "per_eps_error_threshold_state" in roi:
                row["residual"] = roi["per_eps_error_threshold_state"][0]
        else:
            cfg_i = dict(cfg)
            cfg_i["parameters"] = dict(cfg["parameters"])
            try:
                value = parse_complex(text)
            except ConfigError:
                try:
                    value = float(text)
                except ValueError as exc:
                    raise ConfigError(f"bad axis value {text!r}") from exc
            cfg_i["parameters"][name] = value
            bundle = _build(cfg_i)
            report = run_suites(bundle, suites, tol)
            row = {name: value if not isinstance(value, complex) else _c_obj(value)}
            if bundle.name == "two_level" and "binorms" in report["suites"]:
                for c in report["suites"]["binorms"]["checks"]:
                    if c["name"].startswith("binorm_formula"):
                        row[c["name"]] = c["value"]
                        row[c["name"] + "_target"] = c["target"]
        row["passed"] = report["passed"]
        summary.append(row)
        reports.append(report)
    out = {"axis": name, "values": values, "summary": summary, "reports": reports}
    ok = all(r["passed"] for r in reports)
    if name == "eps" and all("residual" in row for row in summary):
        # epsilon values are given largest first; residuals must not increase
        residuals = [row["residual"] for row in summary]
        out["residuals_nonincreasing"] = all(
            a >= b for a, b in zip(residuals, residuals[1:]))
        ok = ok and out["residuals_nonincreasing"]
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return 0 if ok else 1


def cmd_list_models(args) -> int:
    lines = []
    for name, flags in MODEL_PARAM_FLAGS.items():
        lines.append(f"{name}: parameters {', '.join(flags)}")
    lines.append("custom: JSON config with 'potential' and 'basis' entries")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "grid":
            return cmd_grid(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_list_models(args)
    except ModelError as exc:
        sys.stderr.write(f"model error: {exc}\n")
        return 2
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 3
    except SusyjError as exc:
        sys.stderr.write(f"model error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
