"""Benchmark of ``susyj verify``: closed loop, one client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nowhere else.  The run drives ``susyj.cli.main`` in
process over a call list made from the seed (see ``workloads.py``): each call
starts when the previous one returns.  Every report is parsed as strict JSON
(no NaN or Infinity) and validated against ``docs/schema.json``.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the tracer self-tests, the call list for half of ``--seconds`` untraced,
then the same list traced, and prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out`` appends the full record of the run, one call per entry, to a JSON
lines file that ``compare.py`` reads.
"""

from __future__ import annotations

import os

# The workload process runs BLAS single-threaded; SUSYJ_THREADS stays at the
# program default.  Both must be settled before numpy is first imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
os.environ.pop("SUSYJ_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from selftest import errors as selftest_errors  # noqa: E402
from tracer import Tracer, bundle_roots, node_counts  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "schema.json"
SETUP_REPEATS = 25
DOCUMENTED_EXITS = (0, 1, 2, 3)


def load_program():
    """Import susyj from this checkout's src/; exit non-zero if it is not there."""
    if not (SRC / "susyj" / "cli.py").is_file() or not SCHEMA.is_file():
        sys.exit(f"perfbench: no susyj source tree under {ROOT}")
    sys.path.insert(0, str(SRC))
    import susyj
    import susyj.cli
    if not Path(susyj.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported susyj from {susyj.__file__}, not from {SRC}")
    return susyj


def measure_setup() -> float:
    """Median time a fresh interpreter takes to import susyj.cli, timed inside it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import time; t = time.perf_counter(); import susyj.cli; "
                                 "print(time.perf_counter() - t)"]

    def once():
        return float(subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout)

    once()  # fills the bytecode cache
    return statistics.median(once() for _ in range(SETUP_REPEATS))


@dataclass
class Call:
    argv: list
    exit: int | None
    exception: str | None
    seconds: float
    stdout: str
    problem: str | None = None   # why the call counts as failed


def run_calls(main, calls, clock=time.perf_counter) -> tuple[list[Call], float]:
    """Run every argv through ``main`` in turn; return the calls and the wall time."""
    done = []
    start = clock()
    for argv in calls:
        out = io.StringIO()
        exit_code, exception = None, None
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                exit_code = main(list(argv))
        except Exception as exc:  # an uncaught program error fails this call, not the run
            exception = type(exc).__name__
        done.append(Call(argv, exit_code, exception, clock() - t0, out.getvalue()))
    return done, clock() - start


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


def check_calls(calls, validator) -> list[str]:
    """Mark failed calls; return the inconsistencies that make the run incorrect.

    A call fails unless it exits 0 with a report that is strict JSON, valid
    against the schema and says ``passed``.  The run is incorrect when a
    call exits with an undocumented code, or a well-formed report disagrees
    with its exit code, or a call exits 0 without a well-formed report.
    """
    wrong = []
    for i, c in enumerate(calls):
        if c.exception is not None:
            c.problem = f"raised {c.exception}"
            continue
        if c.exit not in DOCUMENTED_EXITS:
            c.problem = f"exit {c.exit}"
            wrong.append(f"call {i}: undocumented exit code {c.exit}")
            continue
        if c.exit in (2, 3):
            c.problem = f"exit {c.exit}"
            continue
        try:
            report = json.loads(c.stdout, parse_constant=_reject_constant)
            validator.validate(report)
        except Exception as exc:  # any parse or schema error makes the report unusable
            c.problem = f"exit {c.exit}, bad report: {type(exc).__name__}: {str(exc)[:120]}"
            if c.exit == 0:
                wrong.append(f"call {i}: exit 0 with a bad report")
            continue
        if report["passed"] != (c.exit == 0):
            c.problem = f"exit {c.exit} but report passed={report['passed']}"
            wrong.append(f"call {i}: {c.problem}")
        elif c.exit == 1:
            c.problem = "exit 1: " + ",".join(
                f"{s}:{ch['name']}" for s, v in report["suites"].items()
                for ch in v["checks"] if not ch["passed"])
    return wrong


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {**THREAD_ENV, "SUSYJ_THREADS": "unset (program default)"},
        "machine": platform.machine(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def src_line_metrics() -> dict:
    out = {}
    total = 0
    for path in sorted((SRC / "susyj").glob("*.py")):
        lines = path.read_bytes().count(b"\n")
        total += lines
        name = "package_init" if path.stem == "__init__" else path.stem
        out[f"{name}.src_lines"] = metric(lines, "lines")
    out["susyj.src_lines"] = metric(total, "lines")
    return out


def traced_run(susyj, calls, untraced_wall):
    """Per-layer metrics from one traced pass over the call list."""
    nodes = [0, 0]

    def count_nodes(bundle):
        distinct, unique = node_counts(bundle_roots(bundle))
        nodes[0] += distinct
        nodes[1] += unique

    with Tracer(susyj, on_build=count_nodes) as tracer:
        done, wall = run_calls(susyj.cli.main, calls, clock=tracer.clock)
    m = {}
    for group in tracer.groups:
        s = tracer.group_stat(group)
        if group.startswith("cli.suite."):
            m[f"{group}.s"] = metric(s.total_s, "s")
            continue
        m[f"{group}.calls"] = metric(s.calls, "count")
        m[f"{group}.self_s"] = metric(s.self_s, "s")
    m["funcalc.jets.points"] = metric(tracer.group_stat("funcalc.jets").work, "count")
    m["quadrature.adaptive.points"] = metric(tracer.group_stat("quadrature.adaptive").work, "count")
    m["quadrature.gk.nodes"] = metric(tracer.group_stat("quadrature.gk").work, "count")
    m["funcalc.nodes.distinct"] = metric(nodes[0], "count")
    m["funcalc.nodes.unique"] = metric(nodes[1], "count")
    m["cli.report_bytes"] = metric(sum(len(c.stdout.encode()) for c in done), "bytes")
    m["trace.wall_s"] = metric(wall, "s")
    m["trace.cover_ratio"] = metric(tracer.cover_s / wall, "1")
    m["trace_overhead_ratio"] = metric(wall / untraced_wall, "1")
    m.update(src_line_metrics())
    return done, m


def tail(times):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    if len(times) <= 10:
        return None
    ordered = sorted(times)
    k = len(ordered) - 11
    return round(100.0 * (k + 1) / len(ordered)), ordered[k]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BLOCKS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full run record to this JSON lines file")
    args = p.parse_args(argv)

    susyj = load_program()
    import jsonschema
    validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
    # a traced run passes over its list twice, so it takes half as many calls
    calls = workloads.call_list(args.workload, args.seed, args.seconds / (1 + args.trace))
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} calls={len(calls)} (closed loop, 1 client)")
    print("environment " + json.dumps(env, sort_keys=True))

    wrong = []
    if args.trace:
        wrong += [f"self-test: {e}" for e in selftest_errors(susyj)]
        print("self-tests " + ("FAILED: " + "; ".join(wrong) if wrong else "passed"))

    done, wall = run_calls(susyj.cli.main, calls)
    wrong += check_calls(done, validator)
    failed = sum(c.problem is not None for c in done)
    times = [c.seconds for c in done]
    if args.trace:
        traced, metrics = traced_run(susyj, calls, wall)
        wrong += [f"traced {w}" for w in check_calls(traced, validator)]
        wrong += [f"call {i}: traced report differs from the untraced one"
                  for i, (a, b) in enumerate(zip(done, traced)) if a.stdout != b.stdout]
        metrics["failed_ratio"] = metric(failed / len(done), "1")
    else:
        metrics = {
            "verify_s_p50": metric(statistics.median(times), "s"),
            "wall_s": metric(wall, "s"),
            "setup_s": metric(measure_setup(), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    for i, c in enumerate(done):
        status = c.exception or f"exit={c.exit}"
        print(f"call {i:3d} {c.seconds:8.4f}s {status:<18} {' '.join(c.argv[1:])}"
              + (f"  [{c.problem}]" if c.problem else ""))
    print(f"verify calls: n={len(times)}  p50 {statistics.median(times):.4f} s"
          + ("  p{} {:.4f} s".format(*tail(times)) if tail(times) else ""))
    print(f"failed_ratio {failed / len(done):.4f} ({failed} of {len(done)} calls)")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    for w in wrong:
        print(f"INCORRECT {w}")

    result = {"correct": not wrong, "attempted": len(done), "failed": failed, "metrics": metrics}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env, **result,
                  "calls": [{"argv": c.argv, "exit": c.exit, "exception": c.exception,
                             "seconds": c.seconds, "problem": c.problem} for c in done]}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
