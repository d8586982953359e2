import csv
import hashlib
import json
import random
import re
import warnings
from functools import reduce
from pathlib import Path

import pytest

from eptl import verify as vfy
from eptl.cli import MAX_SITES, _matrix_json, main
from eptl.intertwiner import i_matrix
from eptl.linkrep import gram_matrix
from eptl.ring import ONE, ZERO, GaussianInt, LaurentPoly
from eptl.spinrep import ebar_matrix, hamiltonian, omegabar_matrix
from oracles import dense, matrix_json_dict

TWO = LaurentPoly.const(2)


# one twist per defect for gram --open --twists; the sectors below have d <= 2
TWIST_TEXT = ("u^2 v^-1", "v")
TWISTS = (LaurentPoly.monomial(2, -1), LaurentPoly.monomial(0, 1))

# the flags of every command that prints one matrix, and that matrix at (n, d)
MATRIX_COMMANDS = {
    "gram": (["gram"], gram_matrix),
    "gram-open": (["gram", "--open"], lambda n, d: gram_matrix(n, d, mode="open")),
    "gram-twists": (["gram", "--open"], lambda n, d: gram_matrix(n, d, mode="open", twists=list(TWISTS[:d]))),
    "gram-row-first": (["gram", "--row-first"], lambda n, d: gram_matrix(n, d).transpose()),
    "spin-e1": (["spin", "--op", "e1"], lambda n, d: ebar_matrix(1, n, d)),
    "spin-omega": (["spin", "--op", "omega"], lambda n, d: omegabar_matrix(1, n, d)),
    "spin-omega-inv": (["spin", "--op", "omega-inv"], lambda n, d: omegabar_matrix(-1, n, d)),
    "spin-hamiltonian": (["spin", "--op", "hamiltonian"], hamiltonian),
    "intertwiner": (["intertwiner", "--check", "matrix"], i_matrix),
    "export-gram": (["export", "--what", "gram"], gram_matrix),
    "export-intertwiner": (["export", "--what", "intertwiner"], i_matrix),
    "export-spin-hamiltonian": (["export", "--what", "spin-hamiltonian"], hamiltonian),
}
MATRIX_SECTORS = [(2, 2), (4, 0), (5, 1), (6, 2)]
MATRIX_JSON_CASES = [
    pytest.param(name, n, d, id=f"{name}-n{n}d{d}")
    for name in MATRIX_COMMANDS
    for n, d in MATRIX_SECTORS
    if d or name != "gram-twists"  # no twist to give when d = 0
]


# the CLI outputs whose sha256 the benchmark pins, by task name: cli/<kind>/n<n>d<d>
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
PINNED_DIGESTS = json.loads(REFERENCE.read_text())["digests"]
DIGEST_COMMANDS = {
    "det": ["intertwiner", "--check", "det", "--format", "json"],
    "factorization": ["intertwiner", "--check", "factorization"],
    "gamma": ["projector", "--check", "gamma"],
    "export-gram": ["export", "--what", "gram", "--format", "json"],
}


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

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--n", "4", "--d", "2", "--format", "csv")
        rows = list(csv.reader(out.splitlines()))
        assert code == 0
        assert rows[0] == ["index", "ascii", "boundary_arcs", "arcs", "defects"]
        assert len(rows) == 1 + 4 and all(len(r[4].split(";")) == 2 for r in rows[1:])

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "states.txt"
        code, out = run_cli(capsys, "enumerate", "--n", "4", "--d", "0", "--out", str(path))
        assert code == 0 and out == ""
        assert len(path.read_text().splitlines()) == 6

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

    def test_gram_twists_parse_one_and_mixed_monomials(self, capsys):
        argv = ["gram", "--n", "4", "--d", "2", "--open", "--twists", "1,u^2 v^-1", "--format", "json"]
        code, out = run_cli(capsys, *argv)
        expect = gram_matrix(4, 2, mode="open", twists=[ONE, LaurentPoly.monomial(2, -1)])
        assert code == 0
        assert out == json.dumps(matrix_json_dict(expect), indent=1) + "\n"

    @pytest.mark.parametrize("twists", ["v,", ",v", "v, "])
    def test_gram_twists_refuse_an_empty_entry(self, capsys, twists):
        code = main(["gram", "--n", "4", "--d", "2", "--open", "--twists", twists])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: empty --twists entry")

    def test_gram_row_first_is_the_transpose(self, capsys):
        def cells(*flags):
            code, out = run_cli(capsys, "gram", "--n", "5", "--d", "1", "--format", "csv", *flags)
            assert code == 0
            return {(r[0], r[1]): tuple(r[2:]) for r in csv.reader(out.splitlines()[1:])}

        plain, row_first = cells(), cells("--row-first")
        assert row_first != plain  # d > 0: the Gram matrix is not symmetric
        assert row_first == {(j, i): (cl, rl, e) for (i, j), (rl, cl, e) in plain.items()}

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

    def test_export_gram(self, capsys):
        code, out = run_cli(capsys, "export", "--what", "gram", "--n", "4", "--d", "2", "--format", "json")
        assert code == 0
        assert out == json.dumps(matrix_json_dict(gram_matrix(4, 2)), indent=1) + "\n"

    @pytest.mark.parametrize("name, n, d", MATRIX_JSON_CASES)
    def test_matrix_json_is_json_dump_indent_1(self, capsys, tmp_path, name, n, d):
        flags, matrix_of = MATRIX_COMMANDS[name]
        argv = [*flags, "--n", str(n), "--d", str(d), "--format", "json"]
        if name == "gram-twists":
            argv += ["--twists", ",".join(TWIST_TEXT[:d])]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out == json.dumps(matrix_json_dict(matrix_of(n, d)), indent=1) + "\n"
        path = tmp_path / "m.json"
        assert run_cli(capsys, *argv, "--out", str(path)) == (0, "")
        assert path.read_bytes() == out.encode()

    def test_matrix_json_on_random_entries(self):
        rng = random.Random(1905)

        def poly():
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                scale = rng.choice((1, 7, 10**30))
                c = GaussianInt(rng.randint(-scale, scale), rng.choice((0, rng.randint(-scale, scale))))
                if c:
                    terms[rng.randint(-6, 6), rng.randint(-6, 6)] = c
            return LaurentPoly(terms)

        labels = ['a"b', "c\\d", "\u00e9\u2014x", ""]
        drawn = set()
        # pool == rows * cols: every entry distinct; a smaller pool repeats values
        for rows, cols, pool in [(0, 0, 1), (1, 0, 1), (1, 1, 1), (3, 4, 12), (6, 6, 36), (4, 3, 3), (6, 6, 5)]:
            values = {ZERO}
            while len(values) < pool:
                values.add(poly())
            values = list(values)
            if pool == rows * cols:
                cells = rng.sample(values, pool)
            else:
                cells = [rng.choice(values) for _ in range(rows * cols)]
            drawn.update(cells)
            # each entry its own object, so repeated values are equal, not identical
            grid = [[LaurentPoly(dict(e.terms)) for e in cells[i * cols : (i + 1) * cols]] for i in range(rows)]
            m = dense(grid, [rng.choice(labels) for _ in range(rows)], [rng.choice(labels) for _ in range(cols)])
            assert _matrix_json(m) == json.dumps(matrix_json_dict(m), indent=1)
        coeffs = [(k, c) for e in drawn for k, c in e.terms.items()]
        assert ZERO in drawn and any(c.im for _, c in coeffs) and any(abs(c.re) > 2**64 for _, c in coeffs)
        assert any(eu < 0 for (eu, _), _ in coeffs) and any(ev < 0 for (_, ev), _ in coeffs)

    def test_intertwiner_matrix_ascii(self, capsys):
        from eptl.intertwiner import i_matrix

        code, out = run_cli(capsys, "intertwiner", "--n", "4", "--d", "2", "--check", "matrix")
        m = i_matrix(4, 2)
        assert code == 0
        assert out.splitlines() == [
            " | ".join(repr(m[i, j]) for j in range(m.cols)) for i in range(m.rows)
        ]
        assert (m.rows, m.cols) == (4, 4)


class TestChecks:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_benchmark_digest(self, capsys, name):
        kind, n, d = re.fullmatch(r"cli/([a-z-]+)/n(\d+)d(\d+)", name).groups()
        code, out = run_cli(capsys, *DIGEST_COMMANDS[kind], "--n", n, "--d", d)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[name]

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

    def test_intertwiner_intertwine(self, capsys):
        code, out = run_cli(capsys, "intertwiner", "--n", "4", "--d", "2", "--check", "intertwine")
        assert code == 0
        assert out.startswith("suite intertwine: 2 cases, 0 failures") and out.endswith("[ok]\n")

    def test_projector_gamma(self, capsys):
        code, out = run_cli(capsys, "projector", "--n", "4", "--d", "0", "--check", "gamma")
        assert code == 0
        assert json.loads(out) == {"n": 4, "d": 0, "block_diagonal": True, "failures": 0}

    def test_projector_kfactor(self, capsys):
        code, out = run_cli(capsys, "projector", "--n", "6", "--d", "2", "--check", "kfactor")
        assert code == 0

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_projector_wj_prints_numerators_over_quantum_factorial(self, capsys, p):
        from eptl.cli import _ratio_repr
        from eptl.projectors import wenzl_jones

        code, out = run_cli(capsys, "projector", "--n", str(p), "--d", str(p % 2), "--check", "wj")
        assert code == 0
        wj = wenzl_jones(p)
        expect = [
            {"word": list(word), "coefficient": _ratio_repr(num, wj.den)}
            for num, word in wj.terms
        ]
        assert json.loads(out) == expect

    # the printed coefficient text, pinned literally so any change to it shows
    WJ_COEFFICIENTS = {
        2: ["(u^2) / ((-1) + (-1)*u^4)", "((-1) + (-1)*u^4) / ((-1) + (-1)*u^4)"],
        3: [
            "((-1)*u^4 + (-1)*u^8) / ((-1) + (-2)*u^4 + (-2)*u^8 + (-1)*u^12)",
            "(u^2 + (2)*u^6 + u^10) / ((-1) + (-2)*u^4 + (-2)*u^8 + (-1)*u^12)",
            "(u^2 + (2)*u^6 + u^10) / ((-1) + (-2)*u^4 + (-2)*u^8 + (-1)*u^12)",
            "((-1) + (-2)*u^4 + (-2)*u^8 + (-1)*u^12) / ((-1) + (-2)*u^4 + (-2)*u^8 + (-1)*u^12)",
            "((-1)*u^4 + (-1)*u^8) / ((-1) + (-2)*u^4 + (-2)*u^8 + (-1)*u^12)",
        ],
    }

    @pytest.mark.parametrize("p", [2, 3])
    def test_projector_wj_coefficient_text_is_pinned(self, capsys, p):
        code, out = run_cli(capsys, "projector", "--n", str(p), "--d", str(p % 2), "--check", "wj")
        assert code == 0
        assert [t["coefficient"] for t in json.loads(out)] == self.WJ_COEFFICIENTS[p]

    @pytest.mark.parametrize("n,d", [(6, 0), (7, 3)])
    def test_projector_wj_acts_on_n_strands(self, capsys, n, d):
        from eptl.projectors import wenzl_jones

        code, out = run_cli(capsys, "projector", "--n", str(n), "--d", str(d), "--check", "wj")
        assert code == 0
        assert len(json.loads(out)) == len(wenzl_jones(n).terms) > len(wenzl_jones(5).terms)

    def test_projector_wj_does_not_read_d(self, capsys):
        _, out0 = run_cli(capsys, "projector", "--n", "4", "--d", "0", "--check", "wj")
        _, out2 = run_cli(capsys, "projector", "--n", "4", "--d", "2", "--check", "wj")
        assert out0 == out2

    @pytest.mark.parametrize("check", ["det", "factorization"])
    def test_intertwiner_json_only_checks_take_format_json(self, capsys, check):
        argv = ["intertwiner", "--n", "4", "--d", "2", "--check", check]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--format", "json") == (code, out)
        json.loads(out)

    def test_intertwiner_intertwine_json(self, capsys):
        code, out = run_cli(
            capsys, "intertwiner", "--n", "4", "--d", "2", "--check", "intertwine", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "intertwine" and payload["cases"] == 2 and payload["ok"] is True

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

    def test_transfer_cross_reads_complex_nu(self, capsys):
        argv = ["transfer", "--n", "4", "--d", "0", "--lambda", "1.1", "--check", "cross"]

        def defect(nu):
            code, out = run_cli(capsys, *argv, "--nu", nu)
            assert code == 0
            return float(json.loads(out)["crossing_defect"])

        real, complex_ = defect("0.3"), defect("0.3+0.5j")
        assert complex_ != real and complex_ <= 1e-9

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

    def test_spectrum_csv_is_the_default(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--n", "4", "--d", "2", "--lambda", "0.9", "--mu", "0.2")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "index,link_re,link_im,spin_re,spin_im,abs_diff"
        assert len(lines) == 1 + 4 + 1 and lines[-1].startswith("# max deviation ")
        assert max(float(line.split(",")[5]) for line in lines[1:-1]) < 1e-8


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
            ("determinants/exact/n7d3", 7),
            ("determinants/exact/n7d5", 7),
            ("determinants/exact/n8d4", 8),
            ("determinants/exact/n8d6", 8),
            ("spectrum/n12d0", 12),
        ):
            assert case not in names(size - 1)
            assert case in names(size)

    @pytest.mark.parametrize("n,d", vfy.EXACT_DET_EXTRA)
    def test_exact_determinant_cases_past_six_sites_pass(self, n, d):
        assert dict(vfy.determinant_cases(8))[f"determinants/exact/n{n}d{d}"]() is None

    @pytest.mark.parametrize("d_filter", [[0], [1], [2], [0, 2], [3, 5]])
    def test_d_filter_is_honoured(self, d_filter):
        for suite in vfy.SUITES.values():
            for case, _ in suite(7, d_filter):
                sector = re.search(r"/n\d+d(\d+)", case)
                assert sector is None or int(sector.group(1)) in d_filter, case

    def test_d_filter_reaches_cases_without_d_in_their_name(self, monkeypatch):
        seen = {"gram": set(), "k": set()}
        gram_matrix = vfy.gram_matrix

        def record_gram(n, d, **kwargs):
            seen["gram"].add(d)
            return gram_matrix(n, d, **kwargs)

        def record_k(d, *args, **kwargs):
            seen["k"].add(d)
            return 1, 1

        monkeypatch.setattr(vfy, "gram_matrix", record_gram)
        monkeypatch.setattr(vfy.prj, "k_factor", record_k)
        cases = dict(vfy.projector_cases(6, [4]))
        assert cases["projectors/wenzl-properties"]() is None
        assert cases["projectors/k-factors"]() is None
        assert seen == {"gram": {4}, "k": {4}}
        # no K-factor is checked for d = 6, so the case is not reported as passed
        assert "projectors/k-factors" not in dict(vfy.projector_cases(6, [6]))

    def test_n_max_below_two_rejected(self, capsys):
        code, _ = run_cli(capsys, "verify", "--n-max", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "spectrum", "--n-max", "4", "--d", "5"],
            ["verify", "--d", "5", "--n-max", "4"],
        ],
    )
    def test_empty_selection_exits_two(self, argv, capsys):
        code, out = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        with pytest.raises(ValueError):
            vfy.run_suite("spectrum", 4, d_filter=[5])

    def test_numeric_determinant_case_passes(self):
        assert vfy.numeric_determinants(7, 1, 12345) is None

    def test_spectrum_case_compares_at_a_regular_point(self, monkeypatch):
        # the smallest bracket at (4,2), lambda 0.9, mu 0.2 is about 0.5
        assert vfy.spectra_agree(4, 2, 0.9, 0.2) is None
        monkeypatch.setattr(vfy, "spectrum_deviation", lambda n, d, lam, mu: (1.0, False))
        witness = vfy.spectra_agree(4, 2, 0.9, 0.2)
        assert not isinstance(witness, vfy.Skipped)
        assert witness == "eigenvalue deviation 1.000e+00 at lam=0.900000 mu=0.200000"

    def test_intertwine_case_detects_a_changed_entry(self, monkeypatch):
        from eptl import intertwiner as itw
        from eptl.ring import LaurentPoly
        from oracles import dense

        original = itw.i_matrix

        def changed(n, d):
            m = original(n, d)
            entries = m.entries
            entries[1][2] = entries[1][2] + LaurentPoly.one()
            return dense(entries, m.row_labels, m.col_labels)

        cases = dict(vfy.intertwine_cases(4, [2]))
        assert cases["intertwine/n4d2"]() is None
        monkeypatch.setattr(itw, "i_matrix", changed)
        witness = cases["intertwine/n4d2"]()
        assert witness is not None and witness.startswith("generator (")
        assert witness.endswith(original(4, 2).col_labels[2].ascii())

    @pytest.mark.parametrize("name", list(vfy.RELATIONS))
    @pytest.mark.parametrize("base", [vfy.omega_matrix, vfy.tau_matrix], ids=["link", "spin"])
    def test_relations_return_a_witness_on_a_perturbed_matrix(self, base, name):
        # e_4 acts as 2 e_3: scaled, and no longer commuting with e_2
        def token(tok, n, d):
            return base([("e", 3)], n, d).scale(TWO) if tok == ("e", 4) else base([tok], n, d)

        def perturbed(word, n, d):
            return reduce(lambda a, b: a @ b, (token(tok, n, d) for tok in word))

        witness = {
            "squares": "square relation fails at site 4",
            "distant-commute": "distant generators 2,4 do not commute",
            "contraction": "contraction fails at 1,4",
            "translate": "translation conjugation fails at 1",
            "power": "power relation fails, sign 1",
            "boundary-sandwich": "boundary contraction fails, sign 1",
            "wrap-weight": "wrap sandwich fails, start 2 sign 1",
        }
        assert vfy.RELATIONS[name](4, 2, base) is None
        assert vfy.RELATIONS[name](4, 2, perturbed) == witness[name]

    @pytest.mark.parametrize(
        "patch,witness",
        [
            ("gram_tilde", "periodic Gram determinant"),
            ("intertwiner", "intertwiner determinant"),
            ("leading_exponents", "leading exponents"),
        ],
    )
    def test_exact_determinant_case_names_the_broken_identity(self, monkeypatch, patch, witness):
        from eptl import intertwiner as itw

        assert vfy.exact_determinants(4, 0) is None
        if patch == "leading_exponents":
            monkeypatch.setattr(itw, "leading_exponents", lambda n, d: (0, 0))
        else:
            formulas = itw.det_formulas

            def changed(n, d, which):
                return formulas(n, d, which) * (TWO if which == patch else ONE)

            monkeypatch.setattr(itw, "det_formulas", changed)
        assert vfy.exact_determinants(4, 0) == witness

    def test_exact_determinant_case_eliminates_once(self, monkeypatch):
        # the Gram determinant and the checks of det I share one Bareiss run
        from eptl import intertwiner as itw

        sizes = []
        det_exact = itw.det_exact

        def counting(m):
            sizes.append(m.rows)
            return det_exact(m)

        monkeypatch.setattr(itw, "det_exact", counting)
        itw.gram_det_exact.cache_clear()
        itw.i_det_exact.cache_clear()
        assert vfy.exact_determinants(5, 1) is None
        assert sizes == [10]

    def test_failed_factorization_fails_the_determinant_suite(self, monkeypatch, capsys):
        from eptl import intertwiner as itw
        from eptl.linkrep import RingMatrix

        gram_matrix = itw.gram_matrix

        def changed(n, d):
            g = gram_matrix(n, d)
            columns = [dict(col) for col in g.columns]
            columns[0][0] = columns[0].get(0, ZERO) + ONE
            return RingMatrix(columns, g.row_labels, g.col_labels)

        monkeypatch.setattr(itw, "gram_matrix", changed)
        itw.gram_det_exact.cache_clear()  # a cached determinant would skip the check
        with pytest.raises(ValueError, match="n=4 d=0: 1 mismatched entries"):
            itw.gram_det_exact(4, 0)
        code, out = run_cli(capsys, "verify", "--suite", "determinants", "--n-max", "4")
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
        assert failed == [
            f"FAIL determinants/exact/n{n}d{d}: exception: ValueError("
            f"'Gram factorization fails at n={n} d={d}: 1 mismatched entries')"
            for n, d in ((2, 0), (2, 2), (3, 1), (3, 3), (4, 0), (4, 2), (4, 4))
        ]
        assert out.splitlines()[-1].startswith("suite determinants: 7 cases, 7 failures")


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
            ["scan-critical", "--n", "4", "--d", "0", "--lambda-range", "1:2:2", "--mu-range", "0:1:2",
             "--format", "ascii"],
            ["spectrum", "--n", "4", "--d", "0", "--lambda", "0.9", "--format", "ascii"],
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

    @pytest.mark.parametrize("n,d", [(8, 0), (9, 1), (12, 0)])
    def test_det_past_the_arc_budget_exits_two_before_work(self, n, d, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr("eptl.intertwiner.i_matrix", _no_work)
        monkeypatch.setattr("eptl.intertwiner.det_exact", _no_work)
        out = tmp_path / "det.json"
        code = main(["intertwiner", "--n", str(n), "--d", str(d), "--check", "det", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "check,n,d", [("gamma", 11, 1), ("gamma", 12, 0), ("recursion", 10, 2), ("recursion", 12, 6)]
    )
    def test_projector_past_its_site_budget_exits_two_before_work(self, check, n, d, monkeypatch, capsys):
        monkeypatch.setattr("eptl.projectors.gamma_block_report", _no_work)
        monkeypatch.setattr("eptl.projectors.gram_recursion_check", _no_work)
        code = main(["projector", "--n", str(n), "--d", str(d), "--check", check])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "desk budget" in captured.err

    @pytest.mark.parametrize("n,d", [(9, 1), (12, 0)])
    def test_projector_wj_past_its_site_budget_exits_two_before_work(self, n, d, monkeypatch, capsys):
        monkeypatch.setattr("eptl.projectors.wenzl_jones", _no_work)
        code = main(["projector", "--n", str(n), "--d", str(d), "--check", "wj"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "desk budget" in captured.err

    @pytest.mark.parametrize(
        "check,fmt",
        [("det", "csv"), ("det", "ascii"), ("factorization", "csv"), ("factorization", "ascii"),
         ("intertwine", "csv")],
    )
    def test_intertwiner_format_its_check_ignores_exits_two_before_work(self, check, fmt, monkeypatch, capsys):
        for target in ("eptl.intertwiner.i_matrix", "eptl.intertwiner.factorization_check"):
            monkeypatch.setattr(target, _no_work)
        monkeypatch.setattr(vfy, "run_suite", _no_work)
        code = main(["intertwiner", "--n", "4", "--d", "2", "--check", check, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and f"--format {fmt}" in captured.err

    @pytest.mark.parametrize("check,n,d", [("gamma", 10, 0), ("gamma", 10, 2), ("recursion", 9, 1)])
    def test_projector_at_its_site_budget_is_admitted(self, check, n, d, monkeypatch, capsys):
        monkeypatch.setattr("eptl.projectors.gamma_block_report", lambda n, d: (True, []))
        monkeypatch.setattr("eptl.projectors.gram_recursion_check", lambda n, d: True)
        code, out = run_cli(capsys, "projector", "--n", str(n), "--d", str(d), "--check", check)
        assert code == 0
        assert json.loads(out)["n"] == n

    def test_det_within_the_arc_budget_runs(self, capsys):
        code, out = run_cli(capsys, "intertwiner", "--n", "7", "--d", "1", "--check", "det")
        assert code == 0
        assert json.loads(out)["matches_up_to_unit"] is not None

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate"],
            ["gram"],
            ["spin", "--op", "e1"],
            *(["intertwiner", "--check", c] for c in ("matrix", "factorization", "det", "intertwine")),
            *(["projector", "--check", c] for c in ("wj", "gamma", "kfactor", "recursion")),
            *(
                ["transfer", "--lambda", "1.1", "--check", c]
                for c in ("commute", "translate", "cross", "expand", "all")
            ),
            ["scan-critical", "--lambda-range", "1:2:2", "--mu-range", "0:1:2"],
            ["spectrum", "--lambda", "0.9"],
            *(["export", "--what", w] for w in ("gram", "intertwiner", "spin-hamiltonian")),
        ],
    )
    def test_impossible_sector_exits_two_before_work(self, argv, monkeypatch, capsys):
        for target in (
            "eptl.cli.enumerate_states", "eptl.cli.gram_matrix", "eptl.cli.hamiltonian",
            "eptl.intertwiner.i_matrix", "eptl.projectors.wenzl_jones",
            "eptl.projectors.k_factor", "eptl.transfer.transfer_matrix",
        ):
            monkeypatch.setattr(target, _no_work)
        monkeypatch.setattr(vfy, "run_suite", _no_work)
        code = main([*argv, "--n", "4", "--d", "1"])
        assert code == 2
        assert "defect count 1 incompatible with 4 sites" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["transfer", "--lambda", "nan"],
            ["transfer", "--lambda", "inf"],
            ["transfer", "--lambda", "1.1", "--mu=-inf"],
            ["transfer", "--lambda", "1.1", "--nu", "nan"],
            ["transfer", "--lambda", "1.1", "--nu", "0.3+infj"],
            ["spectrum", "--lambda", "nan"],
            ["spectrum", "--lambda", "0.9", "--tol", "nan"],
            ["scan-critical", "--lambda-range", "1:2:2", "--mu-range", "0:1:2", "--tol", "nan"],
        ],
    )
    def test_non_finite_float_exits_two_before_work(self, argv, monkeypatch, capsys):
        for target in (
            "eptl.transfer.transfer_matrix", "eptl.verify.sorted_spectra",
            "eptl.intertwiner.critical_scan",
        ):
            monkeypatch.setattr(target, _no_work)
        code = main([*argv, "--n", "4", "--d", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "is not a finite number" in captured.err

    @pytest.mark.parametrize("flag", ["--lambda-range", "--mu-range"])
    @pytest.mark.parametrize("spec", ["1:inf:2", "nan:nan:1"])
    def test_non_finite_scan_range_exits_two_without_warnings(self, flag, spec, capsys):
        ranges = {"--lambda-range": "1:2:2", "--mu-range": "0:1:2", flag: spec}
        argv = ["scan-critical", "--n", "4", "--d", "0"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, *(x for item in ranges.items() for x in item)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "is not a finite number" in captured.err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in captured.err

    @pytest.mark.parametrize("check", ["all", "expand"])
    @pytest.mark.parametrize("lam", ["0", "3.141592653589793"])
    def test_expansion_runs_and_passes_where_sin_lambda_vanishes(self, lam, check, capsys):
        code = main(["transfer", "--n", "4", "--d", "0", "--lambda", lam, "--check", check])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["ok"] is True

    def test_recursion_without_defects_exits_two(self, capsys):
        # d = 0 is refused as it is, not rewritten to d = 1
        code = main(["projector", "--n", "6", "--d", "0", "--check", "recursion"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "at least one defect" in captured.err

    def test_kfactor_without_arcs_exits_two(self, monkeypatch, capsys):
        # at d = n the only r is 0, where both modes give 1 by construction
        monkeypatch.setattr("eptl.projectors.k_factor", _no_work)
        code = main(["projector", "--n", "4", "--d", "4", "--check", "kfactor"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["spin", "--op", "e1"],
            ["spin", "--op", "hamiltonian"],
            ["export", "--what", "spin-hamiltonian"],
        ],
    )
    @pytest.mark.parametrize("n", [0, 1])
    def test_spin_generators_need_two_sites(self, argv, n, capsys):
        # the link side refuses n < 2 in generator_diagram; so does the spin side
        code = main([*argv, "--n", str(n), "--d", str(n)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "e generators need at least 2 sites" in captured.err

    def test_gram_on_no_sites_is_one(self, capsys):
        # no translation acts on 0 sites; the one empty state closes to 1
        code, out = run_cli(capsys, "gram", "--n", "0", "--d", "0")
        assert code == 0 and out == "(1)\n"

    @pytest.mark.parametrize("n", [0, 1])
    def test_intertwine_check_below_two_sites_names_n(self, n, capsys):
        code = main(["intertwiner", "--check", "intertwine", "--n", str(n), "--d", str(n)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"--n {n} is below 2" in captured.err and "n_max" not in captured.err

    @pytest.mark.parametrize("check", ["all", "expand"])
    def test_expansion_on_one_site_names_the_check(self, check, capsys):
        # --check all does not drop it: a check that cannot run is no pass
        code = main(["transfer", "--n", "1", "--d", "1", "--lambda", "1.0", "--check", check])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "the expansion check (--check expand) needs at least 2 sites" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["spin", "--op", "omega"],
            ["spin", "--op", "omega-inv"],
            ["transfer", "--lambda", "1.0"],
            ["scan-critical", "--lambda-range", "0.5:1:2", "--mu-range", "0.1:0.2:2"],
            ["spectrum", "--lambda", "1.0"],
        ],
    )
    def test_translation_needs_one_site(self, argv, capsys):
        code = main([*argv, "--n", "0", "--d", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "the translation needs at least one site" in captured.err

    def test_size_at_budget_accepted(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--n", str(MAX_SITES), "--d", str(MAX_SITES))
        assert code == 0 and len(out.splitlines()) == 1
