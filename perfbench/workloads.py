"""Seeded call lists for the three benchmark workloads.

Every call is the argv of one ``susyj verify`` invocation, written in
``--flag=value`` form: a complex literal with a leading minus sign, such as
``--z -1+0.5i``, would otherwise be read as a flag.

Points are drawn from the admissible domain documented in the README over the
ranges in ``RANGES``.  Which points abort, fail or pass depends sharply on
where they fall: on alpha and x0 for ``rank2``, and on alpha, beta and the
rest for ``two_level``.  So that every seed gives nearly the same mix, each
model's m points follow a fixed stratified design, and the seed only places
each point inside its cell.  The design is a multi-jittered layout in
alpha x beta (one point in every cell of an a x b grid with a b = m, and one
in each of m equal bins of either coordinate) and a Latin hypercube layout
in x0, Re z and |Im z| (one point in each of m equal bins), with as many
points of each sign of Im z.  Which bins go together is drawn once from
``DESIGN_SEED``; were it drawn from the run's seed as well, the number of
points that abort would swing by a fifth from seed to seed, and with it the
run's wall time.  No point is ever resampled, skipped or dropped, whatever
its verdict.
"""

from __future__ import annotations

import math

import numpy as np

DESIGN_SEED = 0
REFLECTIONLESS_SUITES = "intertwine,chains,binorms,jordan,index,symmetry,confluence"

# (low, high, scale) of each drawn coordinate; log scale draws log-uniformly.
RANGES = {
    "alpha": (0.25, 4.0, "log"),        # 1/alpha is the bound state's length scale
    "beta_share": (0.1, 0.9, "linear"),  # beta / min(alpha, pi / (2 |Im z|))
    "abs_im_z": (0.1, 2.0, "log"),      # distance of the shift from the real axis
    "x0": (-4.0, 4.0, "linear"),        # centre of the Jordan cell
    "re_z": (-2.0, 2.0, "linear"),      # position of the complex shift
    "threshold_abs_im_z": (0.25, 2.0, "log"),
}

# (calls, seconds) of one block, the seconds measured on a 2-core x86-64
# container.  A rank2/two_level block holds 16 points of each model.  A run
# holds the whole number of blocks nearest to --seconds, at least one, so the
# list is frozen by --seconds alone and two commits run the same calls.
BLOCKS = {"reflectionless_domain": (32, 17.0),
          "threshold_roi": (1, 8.0),
          "direct_roi": (32, 13.0)}


def _draw(name, u):
    lo, hi, scale = RANGES[name]
    if scale == "log":
        return math.exp(math.log(lo) + float(u) * (math.log(hi) - math.log(lo)))
    return lo + float(u) * (hi - lo)


def _latin(design, jitter, n):
    """n samples in [0, 1): one in each of n equal bins, the bins in the
    design's order, each sample placed in its bin by ``jitter``."""
    return (design.permutation(n) + jitter.random(n)) / n


def _multi_jittered(design, jitter, n):
    """n points in [0, 1)^2, one in each cell of an a x b grid (a b = n, a
    the largest factor of n not above its square root) and one in each of n
    equal bins of either coordinate; ``design`` lays out the bins and their
    order, ``jitter`` places each point in its bin."""
    a = max(f for f in range(1, math.isqrt(n) + 1) if n % f == 0)
    b = n // a
    # column i, row j; x takes sub-bin sx[i, j] of column i, y sub-bin sy[i, j] of row j
    sx = np.array([design.permutation(b) for _ in range(a)])
    sy = np.array([design.permutation(a) for _ in range(b)]).T
    i, j = np.divmod(np.arange(n), b)
    x = (i * b + sx[i, j] + jitter.random(n)) / n
    y = (j * a + sy[i, j] + jitter.random(n)) / n
    order = design.permutation(n)
    return x[order], y[order]


def _fmt_complex(z: complex) -> str:
    return f"{z.real!r}{z.imag:+}i"


def _model_points(design, jitter, model, m):
    """m parameter sets of ``model`` (rank2 or two_level)."""
    u_alpha, u_beta = _multi_jittered(design, jitter, m)
    u_im, u_x0, u_re = (_latin(design, jitter, m) for _ in range(3))
    signs = np.where(design.permutation(m) % 2 == 0, 1.0, -1.0)
    points = []
    for k in range(m):
        alpha = _draw("alpha", u_alpha[k])
        params = {"alpha": alpha, "x0": _draw("x0", u_x0[k]),
                  "z": complex(_draw("re_z", u_re[k]), signs[k] * _draw("abs_im_z", u_im[k]))}
        if model == "two_level":
            beta_max = min(alpha, math.pi / (2 * abs(params["z"].imag)))
            params["beta"] = _draw("beta_share", u_beta[k]) * beta_max
        points.append(params)
    return points


def _reflectionless_points(design, jitter, n):
    """n (model, parameters) pairs alternating rank2 / two_level."""
    per_model = {model: _model_points(design, jitter, model,
                                      n - n // 2 if model == "rank2" else n // 2)
                 for model in ("rank2", "two_level")}
    models = ["rank2" if i % 2 == 0 else "two_level" for i in range(n)]
    return [(model, per_model[model][i // 2]) for i, model in enumerate(models)]


def _argv(model, params, suites):
    argv = ["verify", f"--model={model}"]
    for key in ("alpha", "beta", "x0", "n"):
        if key in params:
            argv.append(f"--{key}={params[key]!r}")
    argv.append(f"--z={_fmt_complex(params['z'])}")
    argv.append(f"--suites={suites}")
    return argv


def call_list(workload: str, seed: int, seconds: float) -> list[list[str]]:
    """The argv list one run of ``workload`` executes, a function of its arguments."""
    if workload not in BLOCKS:
        raise ValueError(f"unknown workload {workload!r}")
    block_calls, block_seconds = BLOCKS[workload]
    n = block_calls * max(1, round(seconds / block_seconds))
    key = [sorted(BLOCKS).index(workload), n]
    design = np.random.default_rng([DESIGN_SEED, *key])
    jitter = np.random.default_rng([seed, *key])
    if workload == "threshold_roi":
        re_z, im_z = _multi_jittered(design, jitter, n)
        return [_argv("inverse_square",
                      {"n": 1, "z": complex(_draw("re_z", re_z[i]),
                                            (-1) ** i * _draw("threshold_abs_im_z", im_z[i]))},
                      "roi")
                for i in range(n)]
    suites = REFLECTIONLESS_SUITES if workload == "reflectionless_domain" else "roi"
    return [_argv(model, params, suites)
            for model, params in _reflectionless_points(design, jitter, n)]
