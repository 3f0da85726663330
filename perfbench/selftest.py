"""Self-tests of the tracer: every binding counted, node counts pinned.

Both fail loudly when the program's structure moves under the benchmark,
for example when a new ``from .operators import ...`` binding appears or the
expression constructors change how many nodes they create.
"""

from __future__ import annotations

import contextlib
import io

from tracer import Tracer, node_counts

REFERENCE = ["verify", "--model=rank2", "--alpha=1", "--x0=0", "--z=0+0.5i",
             "--suites=intertwine"]

# One rank2 build checks its residuals in models._verify_bundle through the
# names models imported from operators, and validates both transformation
# bases through operators.chain_residual itself.
EXPECTED_CALLS = {
    "models.model_rank2": 1,
    "operators.intertwining_residual": 2,
    "operators.annihilation_residual": 4,
    "operators.chain_residual": 3,
    "cli.suite_intertwine": 1,
}

# rank2(alpha=1, x0=0, z=0.5i): node objects and structurally unique nodes of
# the symmetry operator's coefficients.
EXPECTED_SYMMETRY_NODES = (10805, 177)


def binding_errors(susyj) -> list[str]:
    errors = []
    with Tracer(susyj) as tracer:
        errors += [f"unwrapped binding {b}" for b in tracer.unbound()]
        with contextlib.redirect_stdout(io.StringIO()):
            code = susyj.cli.main(REFERENCE)
    if code != 0:
        errors.append(f"reference call exited {code}")
    for name, expected in EXPECTED_CALLS.items():
        got = tracer.stats[name].calls
        if got != expected:
            errors.append(f"{name}: counted {got} calls, expected {expected}")
    return errors


def node_count_errors(susyj) -> list[str]:
    bundle = susyj.models.model_rank2(1.0, 0.0, 0.5j)
    got = node_counts(bundle.symmetry_op.coefficients)
    if got != EXPECTED_SYMMETRY_NODES:
        return [f"rank2 symmetry operator nodes (distinct, unique) = {got}, "
                f"expected {EXPECTED_SYMMETRY_NODES}"]
    return []


def errors(susyj) -> list[str]:
    return binding_errors(susyj) + node_count_errors(susyj)
