"""The benchmark's workloads: the tasks of one pass and the checks on their outputs.

A pass builds its task list, then runs every task once and checks its
output.  A task fails on a nonzero CLI exit code, an exception, a digest
mismatch against ``reference.json`` or a value outside tolerance.

* ``exact``: in-process ``eptl`` CLI calls whose output is compared by
  sha256 against digests recorded when the benchmark was written, plus
  exact Gram determinants against their closed forms.  The exact ring
  (``LaurentPoly`` products and ``exact_div`` over ``Fraction``) does
  most of the work.
* ``relations``: the pinned cases of the algebra, intertwine and gram
  verification suites.  The same ring runs on sparse monomial matrices,
  so ``RingMatrix.__matmul__`` dominates.
* ``numeric``: transfer-matrix property defects, repeated
  ``transfer_matrix`` builds, a criticality scan and spectrum
  comparisons at points drawn from the seed.  ``act_on_link`` and link
  state construction do the work; the ring does almost none.
* ``smoke``: every task kind above at tiny sizes, for the self-tests.

Only ``numeric`` (and the numeric part of ``smoke``) draws inputs from
the seed.  Float outputs are checked against tolerances, never by digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

import eptl.cli
import eptl.intertwiner as itw
import eptl.transfer as trf
import eptl.verify as vfy
import numpy as np
from eptl.ring import LaurentPoly
from eptl.states import module_dim
from speed import SpeedClock

REFERENCE = Path(__file__).with_name("reference.json")

# verify's tolerances: transfer identities, the anisotropy expansion, spectra
TOL = {"commute": 1e-9, "translate": 1e-9, "crossing": 1e-9, "expansion": 1e-5, "spectrum": 1e-8}
# the CLI's default --tol, which scan-critical uses as its singular-value threshold
SINGULAR_TOL = 1e-8
# a drawn point whose smallest sine bracket is below this is drawn again
REJECT_BELOW = 1e-3

# Sizes keep one pass of each workload at about 6-8 s on a 2-core machine,
# so that a run of 30 s takes a median over several passes.
EXACT = {
    "det": [(6, 0), (6, 2), (5, 1)],
    "factorization": [(8, 0), (8, 2), (7, 1)],
    "gamma": [(6, 0), (6, 2), (5, 1)],
    "export": (8, 0),
    # every n <= 5: gram_det_exact(6, 0) alone takes about a minute
    "gram_det": (5, []),
}
RELATIONS = {"n_max": 7, "extra": []}
NUMERIC = {
    "defects": [(7, 1), (8, 2)],
    "transfer": ((8, 0), 2),
    "scan": ((8, 0), 10),
    "spectrum": (10, (0, 2, 4), 1),
}

WORKLOADS = {
    "exact": {"exact": EXACT},
    "relations": {"relations": RELATIONS},
    "numeric": {"numeric": NUMERIC},
    "smoke": {
        "exact": {
            "det": [(4, 0)],
            "factorization": [(4, 2)],
            "gamma": [(4, 0)],
            "export": (4, 0),
            "gram_det": (4, [(4, 0)]),
        },
        "relations": {"n_max": 3, "extra": [("algebra", 4, [2])]},
        "numeric": {
            "defects": [(4, 0)],
            "transfer": ((5, 1), 1),
            "scan": ((4, 0), 3),
            "spectrum": (6, (0,), 1),
        },
    },
}

perf = time.perf_counter


class CheckFailed(Exception):
    """A task ran, but its output is wrong."""


@dataclass
class Task:
    name: str
    fn: object  # () -> CLI output text, or None
    digest: bool = False  # compare the sha256 of the output with reference.json


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def within(value: float, tol: float, what: str):
    if not value <= tol:  # also rejects NaN
        raise CheckFailed(f"{what} {value:.3e} above {tol:g}")


def run_cli(argv, check=None):
    """Run ``eptl`` in process; returns its stdout, which ``check`` inspects."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = eptl.cli.main(argv)
    if code != 0:
        raise CheckFailed(f"exit code {code}: {err.getvalue().strip()[-300:]}")
    text = out.getvalue()
    if check is not None:
        check(text)
    return text


def _nd(n, d):
    return ["--n", str(n), "--d", str(d)]


# ---------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------

def _check_det(n, d):
    def check(text):
        det = LaurentPoly.from_json_dict(json.loads(text)["determinant"])
        if itw.matches_up_to_unit(det, itw.det_formulas(n, d, "intertwiner")) is None:
            raise CheckFailed("determinant differs from the bracket product")

    return check


def _check_flag(key, expect):
    def check(text):
        if json.loads(text)[key] != expect:
            raise CheckFailed(f"{key} is not {expect}")

    return check


def _gram_det(n, d):
    if not itw.matches_up_to_sign(itw.gram_det_exact(n, d), itw.det_formulas(n, d, "gram_tilde")):
        raise CheckFailed("Gram determinant differs from the bracket product")


def exact_tasks(spec):
    tasks = []
    for n, d in spec["det"]:
        argv = ["intertwiner", *_nd(n, d), "--check", "det", "--format", "json"]
        tasks.append(Task(f"cli/det/n{n}d{d}", lambda a=argv, c=_check_det(n, d): run_cli(a, c), True))
    for n, d in spec["factorization"]:
        argv = ["intertwiner", *_nd(n, d), "--check", "factorization"]
        check = _check_flag("ok", True)
        tasks.append(Task(f"cli/factorization/n{n}d{d}", lambda a=argv, c=check: run_cli(a, c), True))
    for n, d in spec["gamma"]:
        argv = ["projector", *_nd(n, d), "--check", "gamma"]
        check = _check_flag("block_diagonal", True)
        tasks.append(Task(f"cli/gamma/n{n}d{d}", lambda a=argv, c=check: run_cli(a, c), True))
    n, d = spec["export"]
    argv = ["export", "--what", "gram", *_nd(n, d), "--format", "json"]
    tasks.append(Task(f"cli/export-gram/n{n}d{d}", lambda a=argv: run_cli(a), True))
    n_max, skip = spec["gram_det"]
    for n in range(2, n_max + 1):
        for d in range(n % 2, n + 1, 2):
            if (n, d) not in skip:
                tasks.append(Task(f"gram-det/n{n}d{d}", lambda n=n, d=d: _gram_det(n, d)))
    return tasks


# ---------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------

def _case(fn):
    def run():
        witness = fn()
        if witness is not None:
            raise CheckFailed(witness)

    return run


def _fail(reason):
    def run():
        raise CheckFailed(reason)

    return run


def relations_tasks(spec, pinned):
    cases = {}
    calls = [(suite, spec["n_max"], None) for suite in ("algebra", "intertwine", "gram")]
    for suite, n_max, d_filter in calls + spec["extra"]:
        for name, fn in vfy.SUITES[suite](n_max, d_filter):
            cases.setdefault(name, fn)
    tasks = [Task(name, _case(cases[name]) if name in cases else _fail("case missing")) for name in pinned]
    tasks += [Task(name, _fail("case not pinned")) for name in cases if name not in set(pinned)]
    return tasks


# ---------------------------------------------------------------------
# numeric
# ---------------------------------------------------------------------

class Draws:
    """Points drawn from the seed; near-critical draws are counted and redrawn."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.rejected = 0

    def point(self, n, d, lam_range, mu_range):
        while True:
            lam, mu = self.rng.uniform(*lam_range), self.rng.uniform(*mu_range)
            brackets = itw.bracket_values(n, d, lam, mu)
            if not brackets or min(abs(b) for b in brackets) >= REJECT_BELOW:
                return lam, mu
            self.rejected += 1


# transfer-matrix property defects, called with (n, d, lam, nu1, nu2, mu)
DEFECTS = {
    "commute": lambda n, d, lam, nu1, nu2, mu: trf.commuting_family_defect(n, d, lam, nu1, nu2, mu),
    "translate": lambda n, d, lam, nu1, nu2, mu: trf.translation_invariance_defect(n, d, lam, nu1, mu),
    "crossing": lambda n, d, lam, nu1, nu2, mu: trf.crossing_defect(n, d, lam, nu1, mu),
    "expansion": lambda n, d, lam, nu1, nu2, mu: trf.expansion_defect(n, d, lam, mu),
}


def _defect(kind, args):
    def run():
        within(DEFECTS[kind](*args), TOL[kind], f"{kind} defect")

    return run


def _transfer(n, d, lam, nu, mu):
    t = trf.transfer_matrix(n, d, lam, nu, mu)
    dim = module_dim(n, d)
    if t.shape != (dim, dim) or not np.all(np.isfinite(t)) or not np.any(t):
        raise CheckFailed("transfer matrix is not a finite nonzero dim x dim matrix")


def _check_scan(steps):
    def check(text):
        rows = text.splitlines()[1:]
        if len(rows) != steps * steps:
            raise CheckFailed(f"{len(rows)} scan rows, expected {steps * steps}")
        for row in rows:
            fields = row.split(",")
            if (fields[2] == "1") != (float(fields[3]) < SINGULAR_TOL):
                raise CheckFailed(f"predictor disagrees with the singular value at {row}")

    return check


def _spectrum(n, d, lam, mu):
    dev, critical = vfy.spectrum_deviation(n, d, lam, mu)
    if critical:
        raise CheckFailed("drawn point is critical")
    within(dev, TOL["spectrum"], "eigenvalue deviation")


def numeric_tasks(spec, draws):
    tasks = []
    for n, d in spec["defects"]:
        for kind in DEFECTS:
            # the ranges of verify.transfer_cases
            lam, mu = draws.point(n, d, (0.4, 2.6), (0.1, 0.8))
            nu1, nu2 = draws.rng.uniform(0.0, 1.4), draws.rng.uniform(0.0, 1.4) + 0.1j
            tasks.append(Task(f"transfer/{kind}/n{n}d{d}", _defect(kind, (n, d, lam, nu1, nu2, mu))))
    (n, d), count = spec["transfer"]
    for k in range(count):
        lam, mu = draws.point(n, d, (0.4, 2.6), (0.1, 0.8))
        nu = draws.rng.uniform(0.0, 1.4)
        tasks.append(Task(f"transfer/matrix/n{n}d{d}/{k}", lambda a=(n, d, lam, nu, mu): _transfer(*a)))
    (n, d), steps = spec["scan"]
    argv = ["scan-critical", *_nd(n, d), "--lambda-range", f"0.3:2.8:{steps}",
            "--mu-range", f"0:1.2:{steps}", "--format", "csv"]
    tasks.append(Task(f"cli/scan-critical/n{n}d{d}", lambda a=argv, c=_check_scan(steps): run_cli(a, c)))
    n, sectors, count = spec["spectrum"]
    for d in sectors:
        for k in range(count):
            # the ranges of verify.spectrum_cases
            lam, mu = draws.point(n, d, (0.3, 2.7), (0.05, 0.9))
            tasks.append(Task(f"spectrum/n{n}d{d}/{k}", lambda a=(n, d, lam, mu): _spectrum(*a)))
    return tasks


# ---------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------

def build_tasks(workload, reference, draws):
    spec = WORKLOADS[workload]
    tasks = []
    if "exact" in spec:
        tasks += exact_tasks(spec["exact"])
    if "relations" in spec:
        tasks += relations_tasks(spec["relations"], reference["cases"][workload])
    if "numeric" in spec:
        tasks += numeric_tasks(spec["numeric"], draws)
    return tasks


def run_task(task, digests):
    """Run one task; returns (digest or None, output bytes).  Raises on failure."""
    out = task.fn()
    size = len(out.encode()) if isinstance(out, str) else 0
    if not task.digest:
        return None, size
    digest = sha256(out)
    if digest != digests.get(task.name):
        raise CheckFailed(f"digest {digest[:12]} differs from the reference")
    return digest, size


def run_pass(workload, seed, tracer=None, reference=None):
    """Run every task of a workload once; returns a JSON-able pass record.

    The pass is timed from the first task to the last checked output:
    ``pass_s`` in reference seconds (speed.py; the figure the benchmark
    gates on), ``cpu_s`` in CPU seconds and ``wall_s`` in wall seconds.
    With a tracer, it is installed before the tasks are built, because
    the verification suites bind layer functions when they yield cases.
    """
    if reference is None:
        reference = load_reference()
    digests = reference["digests"]
    draws = Draws(seed)
    records = []
    output_bytes = 0
    clock = SpeedClock(on_kernel=tracer.exclude if tracer is not None else None)
    if tracer is not None:
        tracer.install()
    try:
        tasks = build_tasks(workload, reference, draws)
        start = perf()
        clock.start()
        for task in tasks:
            r0 = clock.read()
            record = {"name": task.name, "ok": True, "digest": None, "detail": None}
            try:
                if tracer is None:
                    digest, size = run_task(task, digests)
                else:
                    tracer.task_id = task.name
                    digest, size = tracer.run_span(f"task:{task.name}", run_task, task, digests)
                record["digest"] = digest
                output_bytes += size
            except CheckFailed as exc:
                record.update(ok=False, detail=str(exc))
            except Exception as exc:  # a crashing task is a failed task, not a crashed pass
                record.update(ok=False, detail=f"exception: {exc!r}")
            record["ref_s"] = clock.read() - r0
            records.append(record)
        clock.stop()
        wall = perf() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "workload": workload,
        "seed": seed,
        "pass_s": clock.ref_s,
        "cpu_s": clock.work_s,
        "wall_s": wall,
        "kernel_runs": clock.kernel_runs,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "rejected_draws": draws.rejected,
        "output_bytes": output_bytes,
        "tasks": records,
    }
    if tracer is not None:
        result["trace"] = tracer.summary(wall, output_bytes)
    return result
