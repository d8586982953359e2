"""The benchmark's layer tracer (``perfbench/tracer.py``) binds eptl
functions and methods by name.  Installing it here makes a removed or
renamed traced function fail this suite, not only the benchmark's own
self-tests."""

import cmath
import fractions
import importlib.util
import sys
from pathlib import Path

import numpy.linalg

import eptl.cli  # noqa: F401  (loads every module the tracer patches)
from eptl import intertwiner as itw
from eptl import projectors as prj
from eptl import transfer as trf
from eptl import verify as vfy
from eptl.linkrep import RingMatrix
from eptl.ring import LaurentPoly
from eptl.spinrep import hamiltonian_numeric

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def bindings():
    owners = [m for name, m in sys.modules.items() if name == "eptl" or name.startswith("eptl.")]
    owners += [LaurentPoly, RingMatrix, fractions.Fraction, numpy.linalg]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_installs_counts_and_uninstalls():
    before = bindings()
    tracer = load_tracer_class()()
    tracer.install()
    try:
        assert vfy.hamiltonian_numeric is not hamiltonian_numeric
        u, v = cmath.exp(0.4j), cmath.exp(0.3j)
        vfy.itw.i_matrix_numeric(4, 0, u, v)
        vfy.spectrum_deviation(4, 0, 0.8, 0.3)
    finally:
        tracer.uninstall()
    assert bindings() == before
    assert vfy.hamiltonian_numeric is hamiltonian_numeric
    calls = {key: n for key, (n, _) in tracer.stats.items()}
    for key in (
        "intertwiner.i_matrix_numeric",
        "intertwiner.i_matrix",
        "spinrep.hamiltonian_numeric",
        "linkrep.to_numeric",
        "linalg",
    ):
        assert calls.get(key, 0) >= 1, key


def test_tracer_counts_each_transfer_matrix_call():
    original = trf.transfer_matrix
    tracer = load_tracer_class()()
    tracer.install()
    try:
        assert trf.transfer_matrix is not original
        # two members of the family: two calls, one sector
        trf.commuting_family_defect(5, 1, 1.1, 0.4, 0.3 + 0.1j, 0.3)
    finally:
        tracer.uninstall()
    assert trf.transfer_matrix is original
    metrics = tracer.summary(wall=1.0, output_bytes=0)["metrics"]
    assert metrics["transfer.matrix_calls"] == 2
    assert metrics["transfer.calls_per_sector"] == 2


def test_tracer_spans_cover_the_projector_layer():
    tracer = load_tracer_class()()
    tracer.install()
    try:
        ok, _ = prj.gamma_block_report(4, 0)
    finally:
        tracer.uninstall()
    assert ok
    calls = {key: n for key, (n, _) in tracer.stats.items()}
    for key in ("projectors.u_transform", "projectors.gamma_matrix", "projectors.wenzl_jones"):
        assert calls.get(key, 0) >= 1, key


def test_exact_sample_runs_over_gaussian_integers():
    tracer = load_tracer_class()()
    tracer.install()
    try:
        itw.det_exact(itw.i_matrix(4, 2))
        itw.gram_det_exact(4, 0)
        prj.k_factor(1, 1, mode="recursion")
        ok, _ = prj.gamma_block_report(4, 0)
    finally:
        tracer.uninstall()
    assert ok
    metrics = tracer.summary(wall=1.0, output_bytes=0)["metrics"]
    assert metrics["ring.poly_mul_calls"] > 0
    assert metrics["ring.fraction_ops"] == 0
    assert metrics["ring.integer_coeff_ratio"] == 1
