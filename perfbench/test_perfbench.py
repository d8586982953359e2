"""Self-tests for the benchmark.  Run with: python3 -m pytest perfbench"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import eptl.linkrep  # noqa: E402
import eptl.transfer  # noqa: E402
import eptl.verify  # noqa: E402
import numpy as np  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def failures(result):
    return {t["name"]: t["detail"] for t in result["tasks"] if not t["ok"]}


def test_smoke_pass_checks_every_task_kind():
    result = workloads.run_pass("smoke", 0)
    assert failures(result) == {}
    kinds = {t["name"].split("/")[0] + "/" + t["name"].split("/")[1] for t in result["tasks"]}
    for kind in ("cli/det", "cli/factorization", "cli/gamma", "cli/export-gram", "cli/scan-critical",
                 "transfer/commute", "transfer/translate", "transfer/crossing", "transfer/expansion",
                 "transfer/matrix", "algebra/link", "algebra/spin"):
        assert kind in kinds
    for prefix in ("gram-det/", "spectrum/", "intertwine/", "gram/"):
        assert any(t["name"].startswith(prefix) for t in result["tasks"])


def test_corrupted_reference_digest_is_a_failure():
    reference = workloads.load_reference()
    reference["digests"]["cli/det/n4d0"] = "0" * 64
    result = workloads.run_pass("smoke", 0, reference=reference)
    assert list(failures(result)) == ["cli/det/n4d0"]
    assert "digest" in failures(result)["cli/det/n4d0"]


def test_missing_and_unpinned_cases_are_failures():
    pinned = [name for name, _ in eptl.verify.SUITES["gram"](2, None)]
    pinned[0] = "gram/no-such-case"
    tasks = workloads.relations_tasks({"n_max": 2, "extra": []}, pinned)
    failed = []
    for task in tasks:
        try:
            task.fn()
        except workloads.CheckFailed as exc:
            failed.append((task.name, str(exc)))
    assert ("gram/no-such-case", "case missing") in failed
    assert any(reason == "case not pinned" for _, reason in failed)


@pytest.mark.parametrize("value", [1e-6, math.nan])
def test_out_of_tolerance_defect_is_a_failure(monkeypatch, value):
    monkeypatch.setattr(eptl.transfer, "commuting_family_defect", lambda *a: value)
    result = workloads.run_pass("smoke", 0)
    assert list(failures(result)) == ["transfer/commute/n4d0"]


def test_raising_task_is_a_failure(monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(eptl.verify, "spectrum_deviation", boom)
    result = workloads.run_pass("smoke", 0)
    assert list(failures(result)) == ["spectrum/n6d0/0"]
    assert "boom" in failures(result)["spectrum/n6d0/0"]


def test_crashing_worker_is_a_failure():
    passes, setups = run.run_passes("no-such-workload", 0, 0.1, 0, time.perf_counter())
    assert passes[0]["failed"] == passes[0]["attempted"] >= 1
    assert "exit code" in passes[0]["crashed"]


def test_tracer_leaves_return_values_unchanged():
    from eptl import cli, diagrams, intertwiner, ring, states

    def compute():
        p = ring.beta_poly() * ring.alpha_poly(3) + ring.trig_sin(3)
        basis = states.enumerate_states(4, 0)
        diag = diagrams.generator_diagram("e", 4, 2)
        m = eptl.linkrep.gram_matrix(4, 0)
        return {
            "poly": p,
            "div": (p * ring.beta_poly()).exact_div(ring.beta_poly()),
            "act": [diagrams.act_on_link(diag, w) for w in basis],
            "gram": m,
            "square": m @ m,
            "det": intertwiner.det_exact(intertwiner.i_matrix(4, 0)),
            "transfer": eptl.transfer.transfer_matrix(4, 0, 1.1, 0.3, 0.2),
            "svd": np.linalg.svd(intertwiner.i_matrix_numeric(4, 0, 1j, 0.6 + 0.8j), compute_uv=False),
            "json": workloads.run_cli(["export", "--what", "intertwiner", "--n", "4", "--d", "2", "--format", "json"]),
        }

    plain = compute()
    tracer = Tracer()
    tracer.install()
    try:
        assert hasattr(eptl.linkrep.gram_matrix, "__wrapped__")
        traced = compute()
    finally:
        tracer.uninstall()
    for key in plain:
        if isinstance(plain[key], np.ndarray):
            assert np.array_equal(plain[key], traced[key]), key
        else:
            assert plain[key] == traced[key], key
    assert tracer.stats["ring.poly_mul"][0] > 0 and tracer.stats["linalg"][0] == 1
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    assert not hasattr(eptl.linkrep.gram_matrix, "__wrapped__")


def test_traced_pass_reproduces_untraced_digests():
    plain = workloads.run_pass("smoke", 5)
    traced = workloads.run_pass("smoke", 5, tracer=Tracer())
    assert [(t["name"], t["ok"], t["digest"]) for t in plain["tasks"]] == [
        (t["name"], t["ok"], t["digest"]) for t in traced["tasks"]
    ]
    names = {m["name"] for m in BENCHMARK["per_layer"]} - {"trace.overhead_s"}
    assert set(traced["trace"]["metrics"]) == names


def test_wrapper_and_hook_time_is_not_charged_to_the_caller():
    tracer = Tracer()
    child = tracer._wrap("child", lambda: None, hook=lambda args, result: time.sleep(0.05))
    parent = tracer._wrap("parent", lambda: [child() for _ in range(4)])
    parent()
    assert tracer.stats["child"][0] == 4
    assert tracer.stats["parent"][1] < 0.02
    assert tracer.hook_s >= 0.2 and tracer.wrapper_s > 0


def test_speed_clock_keeps_its_kernel_out_of_the_work():
    excluded = []
    clock = speed.SpeedClock(on_kernel=excluded.append)
    c0 = time.process_time()
    clock.start()
    while time.process_time() - c0 < 1.0:
        speed.kernel(100)
    clock.stop()
    total = time.process_time() - c0
    assert clock.kernel_runs >= 4 and len(excluded) == clock.kernel_runs - 1
    assert total - clock.work_s > 0.005 * clock.kernel_runs  # each kernel run takes milliseconds
    assert 0.2 * clock.work_s < clock.ref_s < 5 * clock.work_s


def run_bench(cwd, *args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_by_name(trace, section):
    code, lines = run_bench(ROOT, "--workload", "smoke", "--seed", "2", "--seconds", "1", "--trace", str(trace))
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[section]
    }


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench(tmp_path, "--workload", "exact", "--seed", "0", "--seconds", "1")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
