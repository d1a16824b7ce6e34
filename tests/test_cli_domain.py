"""The CLI's accepted domain as one property: finite output or a DephaserError record, nothing else (ROADMAP item 9).

Every subcommand runs in process over a grid of baths from the edges of the floats: each call either exits 0 with
every value it prints finite, or exits 1 with a DephaserError record (or its IntegrationError subclass, from the
quadrature engines) on stderr and nothing on stdout.  A RuntimeWarning, a traceback or another record type is a
failure.
"""

import itertools
import json
import math
import warnings

from dephaser.cli import main

# the commands that take --engine run on every engine, except time-quad's measure, which alone would take about as
# long as the rest of the module; figures picks its own engine
_COMMANDS = [
    [c, "--engine", e]
    for c in ("gfun", "trdist", "measure", "echo")
    for e in ("analytic", "hight", "freq-quad", "time-quad")
    if (c, e) != ("measure", "time-quad")
] + [
    ["figures", "trd"],
    ["figures", "trd2t"],
]
_ETAS = ("1e-300", "1", "1e305")
_T1S = ("0", "1")
_BETAS = ("1e-3", "1", "933")
# one input at an edge of the floats or of its range on the default bath: a time whose t1 + t2 leaves the floats,
# gamma at either end, and K from none to its cap
_EDGES = (("--tmax", "1e308"), ("--gamma", "1e-300"), ("--gamma", "1e300"), ("--terms", "0"), ("--terms", "1000000"))
# the records a call may end in: DephaserError, or its IntegrationError subclass from the quadrature engines
_TYPED = ("DephaserError", "IntegrationError")
# figures trd draws the series truncated at K terms, so it rejects K = 0 as an input, with a ValueError
_REJECTED = {("figures", "trd", "--terms", "0"): "ValueError"}


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON value {name}")


def _finite_output(text: str) -> bool:
    """Whether every number of a CSV series or a JSON document is finite."""
    try:
        if text.startswith("{"):
            json.loads(text, parse_constant=_refuse_constant)
            return True
        return all(math.isfinite(float(v)) for line in text.splitlines()[1:] for v in line.split(","))
    except ValueError:
        return False


def _outcome(capsys, argv, typed=_TYPED):
    """None when the call kept the property, with a record of one of the types typed where it exits 1, else what it did
    instead."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except Exception as exc:  # an escape from main's error records
            return f"raised {type(exc).__name__}: {exc}"
    out, err = capsys.readouterr()
    if caught:
        return f"warned {caught[0].category.__name__}: {caught[0].message}"
    if rc == 0:
        return None if _finite_output(out) else f"exit 0 with a non-finite value: {out[:200]!r}"
    record = json.loads(err)["error"]
    if rc != 1 or out or record["type"] not in typed:
        return f"exit {rc}, {len(out)} bytes on stdout, {record}"
    return None


def test_every_subcommand_writes_finite_output_or_a_dephaser_error(capsys):
    failures = []
    for command, eta, t1, beta in itertools.product(_COMMANDS, _ETAS, _T1S, _BETAS):
        argv = command + ["--eta", eta, "--t1", t1, "--beta", beta, "--points", "3", "--tmax", "2"]
        outcome = _outcome(capsys, argv)
        if outcome is not None:
            failures.append(f"{' '.join(argv)}: {outcome}")
    assert not failures, "\n".join(failures)


def test_every_subcommand_at_the_edges_of_its_inputs(capsys):
    failures = []
    for command, edge in itertools.product(_COMMANDS, _EDGES):
        options = {"--points": "3", "--tmax": "2", edge[0]: edge[1]}
        argv = command + [v for option in options.items() for v in option]
        rejected = _REJECTED.get((*command, *edge))
        outcome = _outcome(capsys, argv, _TYPED if rejected is None else (rejected,))
        if outcome is not None:
            failures.append(f"{' '.join(argv)}: {outcome}")
    assert not failures, "\n".join(failures)
