"""Command-line front end.

Subcommands: enumerate, gram, spin, intertwiner, projector, transfer,
scan-critical, spectrum, verify, export.  Exit codes: 0 all checks pass,
1 verification failure, 2 usage or domain error (including a size above
MAX_SITES, a --d that is no defect count on --n sites, an intertwiner
--check det with more than DET_MAX_ARCS = 3 arcs (n - d)/2, an intertwiner
--format that its --check does not honour (INTERTWINER_FORMATS), a
projector --check wj, gamma or recursion past PROJECTOR_MAX_SITES, a non-finite
--lambda, --mu, --nu, --tol or --lambda-range/--mu-range bound, a
transfer expansion check or an intertwiner --check intertwine on fewer
than 2 sites, a verify run that selects no case, and an unwritable
--out).  All floating numbers are emitted with 17 significant digits;
the randomized verify suites take --seed.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

import numpy as np

from . import intertwiner as itw
from . import projectors as prj
from . import transfer as trf
from . import verify as vfy
from .linkrep import _label_str, gram_matrix
from .ring import ONE, LaurentPoly
from .spinrep import ebar_matrix, hamiltonian, omegabar_matrix
from .states import enumerate_states, module_dim

# the largest --n / --n-max accepted: the README's desk budget of the one-time
# transfer table build; larger sizes exit 2 before any work starts
MAX_SITES = 12

# the most arcs (n - d)/2 for intertwiner --check det: det_exact(I) takes
# 82 CPU s at (12,6), three arcs, and over ten minutes at (8,0), four
DET_MAX_ARCS = 3

# the most sites for projector --check wj, gamma and recursion: wj takes 0.17 s
# at 7 and 0.78 s at 8, gamma 76 CPU s at (10,0) and 266 s at (11,1), recursion
# 38 s at (9,3) and over 150 s at (10,2)
PROJECTOR_MAX_SITES = {"wj": 8, "gamma": 10, "recursion": 9}

# the --format values each intertwiner --check honours; the last one is its default
INTERTWINER_FORMATS = {
    "matrix": ("json", "csv", "ascii"),
    "factorization": ("json",),
    "det": ("json",),
    "intertwine": ("json", "ascii"),
}


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}j"


def _ratio_repr(num: LaurentPoly, den: LaurentPoly) -> str:
    """num/den as text, with the monomial common to both taken out."""
    su, sv = map(min, zip(num.min_exponents(), den.min_exponents()))
    num, den = num.shift(-su, -sv), den.shift(-su, -sv)
    return repr(num) if den == ONE else f"({num!r}) / ({den!r})"


def _parse_monomial(text: str) -> LaurentPoly:
    """Parse twist entries like '1', 'v', 'v^-2', 'u^2 v^-1', 'u*v'; an
    empty or blank entry is refused."""
    parts = text.replace("*", " ").split()
    if not parts:
        raise ValueError(f"empty --twists entry {text!r}")
    if parts == ["1"]:
        return LaurentPoly.one()
    eu = ev = 0
    for part in parts:
        var = part[0]
        if var not in ("u", "v"):
            raise ValueError(f"cannot parse monomial part {part!r}")
        power = 1
        if len(part) > 1:
            if part[1] != "^":
                raise ValueError(f"cannot parse monomial part {part!r}")
            power = int(part[2:])
        if var == "u":
            eu += power
        else:
            ev += power
    return LaurentPoly.monomial(eu, ev)


def _block(items: list, depth: int, brackets: str = "[]") -> str:
    """A json container in indent=1 layout, its items already rendered one level deeper."""
    if not items:
        return brackets
    pad = "\n" + " " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * depth + brackets[1]


def _indent1(x, depth: int) -> str:
    """json.dumps(x, indent=1) for x nested depth levels deep; the leaves and
    keys go through json.dumps without indent, which runs the C encoder."""
    if isinstance(x, dict):
        return _block([json.dumps(k) + ": " + _indent1(v, depth + 1) for k, v in x.items()], depth, "{}")
    if isinstance(x, list):
        return _block([_indent1(v, depth + 1) for v in x], depth)
    return json.dumps(x)


def _matrix_json(m) -> str:
    """The bytes of json.dumps(<rows, cols, labels, entries>, indent=1); each
    distinct entry, always at depth 3, is rendered once.  Entries are looked
    up by id first, since hashing a LaurentPoly costs more; the dense rows
    keep every entry alive, so no id is reused."""
    text, by_id = {}, {}
    rows = []
    for row in m.entries:
        cells = []
        for e in row:
            t = by_id.get(id(e))
            if t is None:
                t = text.get(e)
                if t is None:
                    t = text[e] = _indent1(e.to_json_dict(), 3)
                by_id[id(e)] = t
            cells.append(t)
        rows.append(_block(cells, 2))
    head = {
        "rows": m.rows,
        "cols": m.cols,
        "row_labels": [_label_str(x) for x in m.row_labels],
        "col_labels": [_label_str(x) for x in m.col_labels],
    }
    items = [json.dumps(k) + ": " + _indent1(v, 1) for k, v in head.items()]
    return _block(items + ['"entries": ' + _block(rows, 1)], 0, "{}")


def _emit_matrix(m, fmt: str, out):
    if fmt == "json":
        out.write(_matrix_json(m) + "\n")
    elif fmt == "csv":
        out.write("row,col,row_label,col_label,entry\n")
        for i in range(m.rows):
            for j in range(m.cols):
                out.write(
                    f'{i},{j},"{_label_str(m.row_labels[i])}",'
                    f'"{_label_str(m.col_labels[j])}","{m[i, j]!r}"\n'
                )
    else:
        for i in range(m.rows):
            out.write(" | ".join(repr(m[i, j]) for j in range(m.cols)) + "\n")


def cmd_enumerate(args, out) -> int:
    states = enumerate_states(args.n, args.d)
    if args.format == "json":
        payload = {
            "n": args.n,
            "d": args.d,
            "count": len(states),
            "states": [
                {
                    "arcs": [list(p) for p in w.pairs],
                    "defects": list(w.defects),
                    "boundary_arcs": w.boundary_arcs,
                    "ascii": w.ascii(),
                }
                for w in states
            ],
        }
        json.dump(payload, out, indent=1)
        out.write("\n")
    elif args.format == "csv":
        out.write("index,ascii,boundary_arcs,arcs,defects\n")
        for k, w in enumerate(states):
            arcs = ";".join(f"{i}-{j}" for i, j in w.pairs)
            defects = ";".join(str(p) for p in w.defects)
            out.write(f'{k},"{w.ascii()}",{w.boundary_arcs},"{arcs}","{defects}"\n')
    else:
        for w in states:
            out.write(w.ascii() + "\n")
    return 0


def cmd_gram(args, out) -> int:
    twists = None
    mode = "open" if args.open else "tilde"
    if args.twists:
        twists = [_parse_monomial(t) for t in args.twists.split(",")]
    m = gram_matrix(args.n, args.d, mode=mode, twists=twists)
    _emit_matrix(m.transpose() if args.row_first else m, args.format, out)
    return 0


def cmd_spin(args, out) -> int:
    op = args.op
    if op == "hamiltonian":
        m = hamiltonian(args.n, args.d)
    elif op in ("omega", "omega-inv"):
        m = omegabar_matrix(1 if op == "omega" else -1, args.n, args.d)
    elif op.startswith("e"):
        m = ebar_matrix(int(op[1:]), args.n, args.d)
    else:
        raise ValueError(f"unknown spin operator {op!r}")
    _emit_matrix(m, args.format, out)
    return 0


def cmd_intertwiner(args, out) -> int:
    n, d = args.n, args.d
    if args.check == "matrix":
        _emit_matrix(itw.i_matrix(n, d), args.format, out)
        return 0
    if args.check == "factorization":
        ok, report = itw.factorization_check(n, d)
        out.write(json.dumps(report | {"ok": ok}) + "\n")
        return 0 if ok else 1
    if args.check == "det":
        det = itw.i_det_exact(n, d)
        formula = itw.det_formulas(n, d, "intertwiner")
        unit = itw.matches_up_to_unit(det, formula)
        out.write(
            json.dumps(
                {
                    "n": n,
                    "d": d,
                    "determinant": det.to_json_dict(),
                    "closed_form": formula.to_json_dict(),
                    "matches_up_to_unit": unit,
                }
            )
            + "\n"
        )
        return 0 if unit is not None else 1
    if args.check == "intertwine":
        if n < 2:  # run_suite would name its own --n-max
            raise ValueError(f"--n {n} is below 2, the smallest size the intertwine check runs at")
        report = vfy.run_suite("intertwine", n, d_filter=[d])
        _print_report(report, out, args.format)
        return 0 if report.ok else 1
    raise ValueError(f"unknown check {args.check!r}")


def cmd_projector(args, out) -> int:
    n, d = args.n, args.d
    if args.check == "wj":
        wj = prj.wenzl_jones(n)
        payload = [
            {"word": list(word), "coefficient": _ratio_repr(num, wj.den)}
            for num, word in wj.terms
        ]
        out.write(json.dumps(payload, indent=1) + "\n")
        return 0
    if args.check == "gamma":
        ok, failures = prj.gamma_block_report(n, d)
        out.write(json.dumps({"n": n, "d": d, "block_diagonal": ok, "failures": len(failures)}) + "\n")
        return 0 if ok else 1
    if args.check == "kfactor":
        if d == n:  # the only r would be 0, where both modes give 1 by construction
            raise ValueError("the K-factor check needs fewer defects than sites")
        rows = []
        ok = True
        for r in range(0, (n - d) // 2 + 1):
            closed = prj.k_factor(d, r, n_ambient=n, mode="closed_form")
            rec = prj.k_factor(d, r, n_ambient=n, mode="recursion")
            agree = prj.same_ratio(closed, rec)
            ok = ok and agree
            rows.append({"r": r, "recursion_matches_closed_form": agree})
        out.write(json.dumps(rows) + "\n")
        return 0 if ok else 1
    if args.check == "recursion":
        ok = prj.gram_recursion_check(n, d)
        out.write(json.dumps({"n": n, "d": d, "recursion_holds": ok}) + "\n")
        return 0 if ok else 1
    raise ValueError(f"unknown check {args.check!r}")


def cmd_transfer(args, out) -> int:
    n, d = args.n, args.d
    lam, mu = args.lam, args.mu
    nu = complex(args.nu)
    results = {}
    if args.check in ("commute", "all"):
        results["commute_defect"] = trf.commuting_family_defect(n, d, lam, nu, nu + 0.31, mu)
    if args.check in ("translate", "all"):
        results["translate_defect"] = trf.translation_invariance_defect(n, d, lam, nu, mu)
    if args.check in ("cross", "all"):
        results["crossing_defect"] = trf.crossing_defect(n, d, lam, nu, mu)
    if args.check in ("expand", "all"):
        if n < 2:  # never left out of --check all: a check that cannot run does not pass
            raise ValueError(f"the expansion check (--check expand) needs at least 2 sites, --n is {n}")
        results["expansion_defect"] = trf.expansion_defect(n, d, lam, mu)
    ok = all(v <= trf.DEFECT_TOL for v in results.values())
    payload = {k: _fmt(v) for k, v in results.items()} | {"ok": ok}
    out.write(json.dumps(payload) + "\n")
    return 0 if ok else 1


def _parse_range(spec: str):
    lo, hi, steps = spec.split(":")
    lo, hi, steps = float(lo), float(hi), int(steps)
    if not (cmath.isfinite(lo) and cmath.isfinite(hi)):
        raise ValueError(f"range {spec} has a bound that is not a finite number")
    if steps < 1:
        raise ValueError("need at least one step")
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]


def cmd_scan_critical(args, out) -> int:
    rows = itw.critical_scan(
        args.n,
        args.d,
        _parse_range(args.lambda_range),
        _parse_range(args.mu_range),
        singular_tol=args.tol,
    )
    if args.format == "json":
        payload = [
            {
                "lambda": _fmt(r["lambda"]),
                "mu": _fmt(r["mu"]),
                "predicted_critical": r["predicted_critical"],
                "min_singular_value": _fmt(r["min_singular_value"]),
                "which_k": r["which_k"],
                "observed_critical": r["observed_critical"],
            }
            for r in rows
        ]
        out.write(json.dumps(payload, indent=1) + "\n")
    else:
        out.write("lambda,mu,predicted_critical,min_singular_value,which_k,observed_critical\n")
        for r in rows:
            out.write(
                f"{_fmt(r['lambda'])},{_fmt(r['mu'])},{int(r['predicted_critical'])},"
                f"{_fmt(r['min_singular_value'])},{r['which_k']},{int(r['observed_critical'])}\n"
            )
    return 0


def cmd_spectrum(args, out) -> int:
    n, d, lam, mu = args.n, args.d, args.lam, args.mu
    critical = itw.nearest_bracket(n, d, lam, mu)[1] < args.tol
    e1, e2 = vfy.sorted_spectra(n, d, lam, mu)
    dev = float(np.max(np.abs(e1 - e2))) if len(e1) else 0.0
    if args.format == "json":
        payload = {
            "n": n,
            "d": d,
            "lambda": _fmt(lam),
            "mu": _fmt(mu),
            "critical_point": critical,
            "max_pair_deviation": _fmt(dev),
            "pairs": [
                {"link": _fmt_complex(a), "spin": _fmt_complex(b)}
                for a, b in zip(e1, e2)
            ],
        }
        json.dump(payload, out, indent=1)
        out.write("\n")
    else:
        if critical:
            out.write("# warning: bracket predictor fires, point is critical\n")
        out.write("index,link_re,link_im,spin_re,spin_im,abs_diff\n")
        for k, (a, b) in enumerate(zip(e1, e2)):
            out.write(
                f"{k},{_fmt(a.real)},{_fmt(a.imag)},{_fmt(b.real)},"
                f"{_fmt(b.imag)},{_fmt(abs(a - b))}\n"
            )
        out.write(f"# max deviation {_fmt(dev)}\n")
    return 0


def _print_report(report, out, fmt: str):
    if fmt == "json":
        json.dump(report.to_dict(), out, indent=1)
        out.write("\n")
        return
    for case, witness in report.failures:
        out.write(f"FAIL {case}: {witness}\n")
    for case, reason in report.skipped:
        out.write(f"SKIP {case}: {reason}\n")
    status = "ok" if report.ok else "FAILED"
    out.write(
        f"suite {report.suite}: {report.cases} cases, "
        f"{len(report.failures)} failures, {report.wall_time:.2f}s [{status}]\n"
    )


def cmd_verify(args, out) -> int:
    d_filter = [int(x) for x in args.d.split(",")] if args.d else None
    report = vfy.run_suite(args.suite, args.n_max, d_filter=d_filter, seed=args.seed)
    _print_report(report, out, args.format)
    return 0 if report.ok else 1


def cmd_export(args, out) -> int:
    n, d = args.n, args.d
    if args.what == "gram":
        m = gram_matrix(n, d)
    elif args.what == "intertwiner":
        m = itw.i_matrix(n, d)
    elif args.what == "spin-hamiltonian":
        m = hamiltonian(n, d)
    else:
        raise ValueError(f"unknown export {args.what!r}")
    _emit_matrix(m, args.format, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eptl",
        description="Exact periodic Temperley-Lieb toolkit: twisted link modules, "
        "spin modules, the intertwiner between them, and their determinants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "csv", "ascii")):
        p.add_argument("--n", type=int, required=True, help="number of sites")
        p.add_argument("--d", type=int, required=True, help="number of defects")
        if formats:  # the last one listed is the default
            p.add_argument("--format", choices=formats, default=formats[-1])
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("enumerate", help="list the link-state basis")
    common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("gram", help="Gram matrix of the bilinear form")
    common(p)
    p.add_argument("--open", action="store_true", help="restrict to boundary-free states")
    p.add_argument("--twists", default=None, help="comma-separated per-defect twist monomials")
    p.add_argument("--row-first", action="store_true", help="pair row state in the first slot")
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("spin", help="spin-chain operator matrices")
    common(p)
    p.add_argument("--op", required=True, help="e<i>, omega, omega-inv, or hamiltonian")
    p.set_defaults(fn=cmd_spin)

    p = sub.add_parser("intertwiner", help="the link-to-spin map and its determinant")
    common(p, formats=())
    p.add_argument("--format", choices=INTERTWINER_FORMATS["matrix"], default=None)
    p.add_argument(
        "--check",
        choices=["matrix", "factorization", "det", "intertwine"],
        default="matrix",
    )
    p.set_defaults(fn=cmd_intertwiner)

    p = sub.add_parser("projector", help="projector layer checks")
    common(p, formats=())
    p.add_argument("--check", choices=["wj", "gamma", "kfactor", "recursion"], default="gamma")
    p.set_defaults(fn=cmd_projector)

    p = sub.add_parser("transfer", help="transfer-matrix property checks")
    common(p, formats=())
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--nu", default="0.3", help="anisotropy (complex accepted)")
    p.add_argument("--mu", type=float, default=0.3)
    p.add_argument(
        "--check", choices=["commute", "translate", "cross", "expand", "all"], default="all"
    )
    p.set_defaults(fn=cmd_transfer)

    p = sub.add_parser("scan-critical", help="grid scan of the criticality predictor")
    common(p, formats=("json", "csv"))
    p.add_argument("--lambda-range", required=True, help="lo:hi:steps")
    p.add_argument("--mu-range", required=True, help="lo:hi:steps")
    p.add_argument("--tol", type=float, default=1e-8, help="singular-value threshold")
    p.set_defaults(fn=cmd_scan_critical)

    p = sub.add_parser("spectrum", help="compare the two module Hamiltonians")
    common(p, formats=("json", "csv"))
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, default=0.3)
    p.add_argument("--tol", type=float, default=1e-8, help="bracket criticality threshold")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        choices=sorted(vfy.SUITES) + ["all"],
        default="all",
    )
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--d", default=None, help="comma-separated defect filter")
    p.add_argument("--format", choices=["json", "ascii"], default="ascii")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("export", help="export core matrices")
    common(p)
    p.add_argument("--what", choices=["gram", "intertwiner", "spin-hamiltonian"], required=True)
    p.set_defaults(fn=cmd_export)

    return parser


def _check_size(args):
    for flag in ("n", "n_max"):
        size = getattr(args, flag, None)
        if size is not None and size > MAX_SITES:
            raise ValueError(f"--{flag.replace('_', '-')} {size} exceeds MAX_SITES = {MAX_SITES}")


def _check_budget(args):
    if getattr(args, "check", None) == "det" and (args.n - args.d) // 2 > DET_MAX_ARCS:
        raise ValueError(
            f"--check det at --n {args.n} --d {args.d} has {(args.n - args.d) // 2} arcs,"
            f" more than the desk budget of {DET_MAX_ARCS}"
        )
    cap = PROJECTOR_MAX_SITES.get(args.check) if args.command == "projector" else None
    if cap is not None and args.n > cap:
        raise ValueError(
            f"projector --check {args.check} at --n {args.n} exceeds its desk budget of {cap} sites"
        )


def _resolve_format(args):
    if args.command != "intertwiner":
        return
    honoured = INTERTWINER_FORMATS[args.check]
    if args.format is None:
        args.format = honoured[-1]
    elif args.format not in honoured:
        raise ValueError(
            f"intertwiner --check {args.check} does not take --format {args.format};"
            f" it takes {', '.join(honoured)}"
        )


def _check_finite(args):
    for flag in ("lam", "mu", "nu", "tol"):
        x = getattr(args, flag, None)
        if x is not None and not cmath.isfinite(complex(x)):
            name = "lambda" if flag == "lam" else flag
            raise ValueError(f"--{name} {x} is not a finite number")


def _check_sector(args):
    n = getattr(args, "n", None)
    if n is not None and not module_dim(n, args.d):
        raise ValueError(f"defect count {args.d} incompatible with {n} sites")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_size(args)
        _check_finite(args)
        _check_sector(args)
        _resolve_format(args)
        _check_budget(args)
        if args.out is None:
            return args.fn(args, sys.stdout)
        with open(args.out, "w") as out:
            return args.fn(args, out)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
