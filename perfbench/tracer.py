"""Spans and counters recorded around the public functions of each susyj layer.

The benchmark wraps functions from outside the program: ``src/`` is never
edited.  A function can be reached through several bindings -- the defining
module's attribute, a ``from .operators import chain_residual`` copy in
another module, or a value in a registry such as ``models.BUILTIN_MODELS`` --
so entering a ``Tracer`` replaces the function in every one of them, and
``unbound()`` lists any binding left unwrapped.

A span's self time is its duration minus the time covered by the spans it
encloses.  Work the benchmark does itself while tracing (counting expression
nodes) is taken off the tracer's clock, so it shows in no span.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass

# group -> (owner, attribute) pairs; owner is a susyj module name or
# "module.Class" for methods.  The groups name the per-layer metrics.
TARGETS = {
    "funcalc.values": [("funcalc.FuncExpr", "values"), ("funcalc.FuncExpr", "evaluate"),
                       ("funcalc", "evaluate")],
    "funcalc.jets": [("funcalc", "derivative_values")],
    "funcalc.diff": [("funcalc.FuncExpr", "derivative"), ("funcalc.FuncExpr", "param_derivative"),
                     ("funcalc", "derivative"), ("funcalc", "param_derivative")],
    "operators.algebra": [("operators.DiffOperator", "compose"),
                          ("operators.DiffOperator", "transpose"),
                          ("operators.DiffOperator", "apply")],
    "operators.residual": [("operators", "intertwining_residual"),
                           ("operators", "chain_residual"),
                           ("operators", "annihilation_residual"),
                           ("operators.DiffOperator", "apply_values"),
                           ("operators.Hamiltonian", "apply_values")],
    "darboux": [("darboux", "intertwiner"), ("darboux", "partner_potential"),
                ("darboux", "crum_wronskian"), ("darboux", "superpotentials"),
                ("darboux", "ladder")],
    "jordan.smatrix": [("jordan", "build_smatrix")],
    "jordan.form": [("jordan", "jordan_form")],
    "quadrature.classify": [("quadrature", "classify")],
    "quadrature.adaptive": [("quadrature", "adaptive_complex")],
    "quadrature.binorm": [("quadrature", "binorm_integral")],
    "quadrature.fourier": [("quadrature", "fourier_integral")],
    "quadrature.gk": [("quadrature", "gk_nodes")],
    "index.census": [("index", "census")],
    "models.build": [("models", "model_rank2"), ("models", "model_two_level"),
                     ("models", "model_inverse_square")],
    "models.symmetry": [("models", "symmetry_check")],
    "models.confluence": [("models", "confluence_limit"), ("models", "confluence_fd_chain"),
                          ("models", "confluence_dyad_limit")],
    "models.roi": [("models", "resolution_of_identity")],
}
SUITES = ("intertwine", "chains", "binorms", "jordan", "index", "symmetry", "roi", "confluence")
for _suite in SUITES:
    TARGETS[f"cli.suite.{_suite}"] = [("cli", f"suite_{_suite}")]

# Spans whose outermost instances should cover a traced call almost entirely.
COVER_GROUPS = frozenset(["models.build"] + [f"cli.suite.{s}" for s in SUITES])


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0   # inclusive; double counts recursion into the same function
    work: int = 0          # group-specific work count (points, nodes)


def _jet_points(args, kwargs, result):
    return int(result.size)  # (order + 1) * len(x)


def _gk_nodes(args, kwargs, result):
    return len(result[0])


WORK = {"funcalc.derivative_values": _jet_points, "quadrature.gk_nodes": _gk_nodes}


class Tracer:
    """Installs wrappers on enter, restores every original binding on exit."""

    def __init__(self, susyj_package, on_build=None):
        self._pkg = susyj_package
        self._on_build = on_build
        self._local = threading.local()
        self._paused = 0.0
        self.stats: dict[str, Stat] = {}
        self.groups: dict[str, list[str]] = {}
        self.cover_s = 0.0
        self._restore: list[tuple] = []
        self._originals: dict[int, str] = {}

    # -- clock -------------------------------------------------------------------

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def untimed(self, fn, *args):
        """Run ``fn`` with the tracer clock stopped."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._paused += time.perf_counter() - t0

    # -- installation ------------------------------------------------------------

    def _modules(self):
        import importlib
        import pkgutil
        return [importlib.import_module(f"{self._pkg.__name__}.{m.name}")
                for m in pkgutil.iter_modules(self._pkg.__path__)]

    def _resolve(self, owner):
        module, _, cls = owner.partition(".")
        obj = getattr(self._pkg, module)
        return getattr(obj, cls) if cls else obj

    def __enter__(self):
        modules = self._modules()
        for group, targets in TARGETS.items():
            self.groups[group] = []
            for owner, attr in targets:
                name = f"{owner}.{attr}"
                holder = self._resolve(owner)
                original = holder.__dict__[attr]
                wrapper = self._wrap(group, name, original)
                self.groups[group].append(name)
                self._originals[id(original)] = name
                if isinstance(holder, type):
                    self._set(holder, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapper)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is original:
                                    self._set_item(value, k, wrapper)
        return self

    def _set(self, obj, attr, value):
        self._restore.append((setattr, obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def _set_item(self, mapping, key, value):
        self._restore.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def __exit__(self, *exc):
        for setter, obj, key, value in reversed(self._restore):
            setter(obj, key, value)
        self._restore.clear()
        return False

    def unbound(self) -> list[str]:
        """Bindings in any susyj module or registry that still hold an original."""
        left = []
        for module in self._modules():
            for key, value in vars(module).items():
                values = value.values() if isinstance(value, dict) else (value,)
                for v in values:
                    name = self._originals.get(id(v))
                    if name is not None:
                        left.append(f"{module.__name__}.{key} -> {name}")
        for targets in TARGETS.values():
            for owner, attr in targets:
                holder = self._resolve(owner)
                if isinstance(holder, type) and id(holder.__dict__[attr]) in self._originals:
                    left.append(f"{owner}.{attr}")
        return left

    # -- spans -------------------------------------------------------------------

    def _frames(self):
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
            self._local.cover_depth = 0
        return frames

    def _wrap(self, group, name, fn):
        stat = self.stats.setdefault(name, Stat())
        work = WORK.get(name)
        counts_points = name == "quadrature.adaptive_complex"
        is_cover = group in COVER_GROUPS
        is_build = group == "models.build"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_points and args:
                args = (self._counting(stat, args[0]),) + args[1:]
            elif counts_points:
                kwargs["values_fn"] = self._counting(stat, kwargs["values_fn"])
            frames = self._frames()
            local = self._local
            outermost_cover = is_cover and local.cover_depth == 0
            if is_cover:
                local.cover_depth += 1
            frames.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                children = frames.pop()
                if frames:
                    frames[-1] += duration
                if is_cover:
                    local.cover_depth -= 1
                    if outermost_cover:
                        self.cover_s += duration
                stat.calls += 1
                stat.self_s += duration - children
                stat.total_s += duration
            if work is not None:
                stat.work += work(args, kwargs, result)
            if is_build and self._on_build is not None:
                self.untimed(self._on_build, result)
            return result

        return traced

    @staticmethod
    def _counting(stat, values_fn):
        def counted(xs):
            stat.work += len(xs)
            return values_fn(xs)
        return counted

    # -- results -----------------------------------------------------------------

    def group_stat(self, group) -> Stat:
        out = Stat()
        for name in self.groups[group]:
            s = self.stats[name]
            out.calls += s.calls
            out.self_s += s.self_s
            out.total_s += s.total_s
            out.work += s.work
        return out


def node_counts(roots) -> tuple[int, int]:
    """(distinct node objects, structurally unique nodes) reachable from roots.

    Structure is read through the public ``children()`` and, for leaves,
    ``to_json_obj()``; a power node's exponent is its public ``exponent``.
    """
    keys: dict[int, int] = {}      # id(node) -> structural key number
    interned: dict[tuple, int] = {}
    stack = [(r, False) for r in roots]
    while stack:
        node, expanded = stack.pop()
        if id(node) in keys:
            continue
        kids = node.children()
        if kids and not expanded:
            stack.append((node, True))
            stack.extend((c, False) for c in kids if id(c) not in keys)
            continue
        if kids:
            payload = (type(node).__name__, getattr(node, "exponent", None),
                       tuple(keys[id(c)] for c in kids))
        else:
            obj = node.to_json_obj()
            payload = (type(node).__name__, tuple(sorted((k, repr(v)) for k, v in obj.items())))
        keys[id(node)] = interned.setdefault(payload, len(interned))
    return len(keys), len(interned)


def bundle_roots(bundle) -> list:
    """Potentials, intertwiner and symmetry-operator coefficients of a bundle."""
    roots = [bundle.h_plus.potential, bundle.h_minus.potential]
    for operator in (bundle.q_minus, bundle.q_plus, bundle.symmetry_op):
        if operator is not None:
            roots.extend(operator.coefficients)
    return roots
