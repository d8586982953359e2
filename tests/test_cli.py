import json

import pytest

from eptl import verify as vfy
from eptl.cli import MAX_SITES, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestEnumerate:
    def test_ascii(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--n", "4", "--d", "0")
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_json_roundtrip(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--n", "6", "--d", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["count"] == 15
        assert all(len(s["defects"]) == 2 for s in payload["states"])

    def test_parity_error_exit_code(self, capsys):
        code, _ = run_cli(capsys, "enumerate", "--n", "4", "--d", "1")
        assert code == 2

    def test_deterministic_output(self, capsys):
        _, out1 = run_cli(capsys, "enumerate", "--n", "5", "--d", "1", "--format", "json")
        _, out2 = run_cli(capsys, "enumerate", "--n", "5", "--d", "1", "--format", "json")
        assert out1 == out2


class TestMatrices:
    def test_gram_json_schema(self, capsys):
        code, out = run_cli(capsys, "gram", "--n", "4", "--d", "0", "--format", "json")
        payload = json.loads(out)
        assert payload["rows"] == payload["cols"] == 6
        from eptl.linkrep import gram_matrix
        from eptl.ring import LaurentPoly

        entry = LaurentPoly.from_json_dict(payload["entries"][0][0])
        assert entry == gram_matrix(4, 0)[0, 0]

    def test_gram_open_twists(self, capsys):
        code, out = run_cli(
            capsys,
            "gram", "--n", "5", "--d", "1", "--open", "--twists", "v", "--format", "csv",
        )
        assert code == 0
        assert out.startswith("row,col")

    def test_spin_ops(self, capsys):
        for op in ("e1", "omega", "omega-inv", "hamiltonian"):
            code, out = run_cli(
                capsys, "spin", "--n", "4", "--d", "2", "--op", op, "--format", "json"
            )
            assert code == 0
            assert json.loads(out)["rows"] == 4

    def test_export(self, capsys):
        code, out = run_cli(
            capsys, "export", "--what", "intertwiner", "--n", "4", "--d", "0",
            "--format", "json",
        )
        assert json.loads(out)["rows"] == 6


class TestChecks:
    def test_intertwiner_factorization(self, capsys):
        code, out = run_cli(
            capsys, "intertwiner", "--n", "5", "--d", "1", "--check", "factorization"
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_intertwiner_det(self, capsys):
        code, out = run_cli(capsys, "intertwiner", "--n", "4", "--d", "2", "--check", "det")
        assert code == 0
        assert json.loads(out)["matches_up_to_unit"] in ("+1", "-1", "+i", "-i")

    def test_projector_kfactor(self, capsys):
        code, out = run_cli(capsys, "projector", "--n", "6", "--d", "2", "--check", "kfactor")
        assert code == 0

    def test_projector_recursion(self, capsys):
        code, out = run_cli(capsys, "projector", "--n", "5", "--d", "1", "--check", "recursion")
        assert code == 0

    def test_transfer_all(self, capsys):
        code, out = run_cli(
            capsys,
            "transfer", "--n", "4", "--d", "0", "--lambda", "1.1", "--nu", "0.4",
            "--mu", "0.25", "--check", "all",
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_scan_critical_csv(self, capsys):
        code, out = run_cli(
            capsys,
            "scan-critical", "--n", "4", "--d", "2",
            "--lambda-range", "1.5707963267948966:1.5707963267948966:1",
            "--mu-range", "0.7853981633974483:0.7853981633974483:1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "lambda,mu,predicted_critical,min_singular_value,which_k,observed_critical"
        )
        fields = lines[1].split(",")
        assert fields[2] == "1"
        assert float(fields[3]) < 1e-8
        assert fields[5] == "1"

    def test_scan_critical_tol_sets_observed(self, capsys):
        def observed(tol):
            code, out = run_cli(
                capsys,
                "scan-critical", "--n", "4", "--d", "2",
                "--lambda-range", "1.1:1.1:1", "--mu-range", "0.3:0.3:1",
                "--format", "json", "--tol", tol,
            )
            assert code == 0
            return json.loads(out)[0]["observed_critical"]

        # a generic point: regular at the default threshold, singular below 10
        assert observed("1e-8") is False
        assert observed("10") is True

    def test_spectrum_json(self, capsys):
        code, out = run_cli(
            capsys,
            "spectrum", "--n", "4", "--d", "4", "--lambda", "0.9", "--mu", "0.2",
            "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert float(payload["max_pair_deviation"]) == 0.0
        assert payload["pairs"][0]["link"].startswith("0")


class TestVerify:
    def test_small_all_suite(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--suite", "gram", "--n-max", "4", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["cases"] > 0

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nope"])

    def test_byte_deterministic(self, capsys):
        args = ["verify", "--suite", "transfer", "--n-max", "5", "--seed", "7", "--format", "json"]
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        p1, p2 = json.loads(out1), json.loads(out2)
        p1.pop("wall_time_s"), p2.pop("wall_time_s")
        assert p1 == p2

    def test_critical_spectrum_case_is_skipped_not_passed(self, monkeypatch, capsys):
        # a deviation this large would fail if the case were compared
        monkeypatch.setattr(vfy, "spectrum_deviation", lambda n, d, lam, mu: (1.0, True))
        report = vfy.run_suite("spectrum", 3)
        assert report.failures == [] and report.ok
        assert [case for case, _ in report.skipped] == [
            "spectrum/n2d0", "spectrum/n2d2", "spectrum/n3d1", "spectrum/n3d3"
        ]
        code, out = run_cli(
            capsys, "verify", "--suite", "spectrum", "--n-max", "3", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0
        assert len(payload["skipped"]) == payload["cases"] == 4
        assert payload["skipped"][0]["reason"].startswith("critical point")
        code, out = run_cli(capsys, "verify", "--suite", "spectrum", "--n-max", "3")
        assert code == 0
        assert sum(line.startswith("SKIP spectrum/") for line in out.splitlines()) == 4

    def test_fixed_size_cases_follow_n_max(self):
        def names(n_max):
            return {case for suite in vfy.SUITES.values() for case, _ in suite(n_max)}

        for case, size in (
            ("projectors/wenzl-properties", 5),
            ("projectors/k-factors", 6),
        ):
            assert case not in names(size - 1)
            assert case in names(size)

    def test_n_max_below_two_rejected(self, capsys):
        code, _ = run_cli(capsys, "verify", "--n-max", "1")
        assert code == 2


def _no_work(*args, **kwargs):
    raise AssertionError("work started")


class TestSurface:
    @pytest.mark.parametrize(
        "argv",
        [
            ["transfer", "--n", "4", "--d", "0", "--lambda", "1.1", "--seed", "1"],
            ["transfer", "--n", "4", "--d", "0", "--lambda", "1.1", "--format", "json"],
            ["projector", "--n", "4", "--d", "0", "--format", "json"],
            ["enumerate", "--n", "4", "--d", "0", "--tol", "1e-6"],
            ["gram", "--n", "4", "--d", "0", "--threads", "2"],
            ["verify", "--threads", "2"],
            ["verify", "--tol", "1e-6"],
            ["verify", "--format", "csv"],
        ],
    )
    def test_removed_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_spectrum_reads_tol(self, capsys):
        argv = ["spectrum", "--n", "4", "--d", "2", "--lambda", "0.9", "--mu", "0.2", "--format", "json"]
        _, out = run_cli(capsys, *argv)
        assert json.loads(out)["critical_point"] is False
        # the smallest bracket here is about 0.5, so a tolerance of 1 flags it
        _, out = run_cli(capsys, *argv, "--tol", "1")
        assert json.loads(out)["critical_point"] is True

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        code = main(["enumerate", "--n", "4", "--d", "0", "--out", str(tmp_path / "no-dir" / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--n", "40", "--d", "0"],
            ["transfer", "--n", str(MAX_SITES + 1), "--d", "1", "--lambda", "1.1"],
            ["verify", "--n-max", str(MAX_SITES + 1)],
        ],
    )
    def test_size_above_budget_exits_two_before_work(self, argv, monkeypatch, capsys):
        monkeypatch.setattr("eptl.cli.enumerate_states", _no_work)
        monkeypatch.setattr("eptl.transfer.transfer_matrix", _no_work)
        monkeypatch.setattr(vfy, "run_suite", _no_work)
        code = main(argv)
        assert code == 2
        assert "MAX_SITES" in capsys.readouterr().err

    def test_size_at_budget_accepted(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--n", str(MAX_SITES), "--d", str(MAX_SITES))
        assert code == 0 and len(out.splitlines()) == 1
