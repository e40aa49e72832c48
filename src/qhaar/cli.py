"""Batch command-line interface.

Subcommands: dim, gram, wg, moment, lp, dn, selectp, converge, check.
Outputs are deterministic: exact rationals are serialized as "p/q" strings,
reals are printed via mpmath.nstr at a fixed digit count with the working
precision (qnum.PRECISION_BITS) recorded alongside.  Exit codes: 0 success,
2 parse/config error, 3 resource limit, 4 invariant-check failure.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import io
import json
import sys
from fractions import Fraction

import mpmath

from . import __version__, ncpoly, pairings, qnum, rapid_decay, weingarten
from .errors import InvalidArgumentError, QhaarError, ResourceLimitError

FLOAT_DIGITS = 25


def _fmt_real(x) -> str:
    return mpmath.nstr(mpmath.mpf(x), FLOAT_DIGITS, strip_zeros=False)


def _fmt_int(n: int) -> str:
    # Decimal converts an int exactly, without str()'s 4300-digit limit.
    return format(decimal.Decimal(n), "f")


def _fmt_rat(x: Fraction) -> str:
    num = _fmt_int(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_fmt_int(x.denominator)}"


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise InvalidArgumentError(f"expected comma-separated integers, got {text!r}") from None


def _emit(rows: list[dict], header: list[str], fmt: str, out_path: str | None,
          config: dict, meta: dict):
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
        w.writeheader()
        for row in rows:
            w.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps({"config": config, "rows": rows, "meta": meta}, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _meta(args) -> dict:
    """Run metadata; a subcommand without --kmax (dn) reports the default."""
    return {
        "precision_bits": qnum.PRECISION_BITS,
        "kmax": getattr(args, "kmax", weingarten.DEFAULT_KMAX),
        "version": __version__,
    }


# -- subcommands ----------------------------------------------------------

def cmd_dim(args) -> int:
    rows = [{"k": k, "dim": _fmt_int(qnum.dim_irrep(k, args.N))} for k in range(args.kmax + 1)]
    _emit(rows, ["k", "dim"], args.format, args.out, {"N": args.N, "kmax": args.kmax}, _meta(args))
    return 0


def cmd_gram(args) -> int:
    if args.k > args.kmax:
        raise ResourceLimitError(f"k={args.k} exceeds kmax={args.kmax}", required_k=args.k)
    pattern = tuple(args.pattern) if args.pattern else None
    g = pairings.gram_matrix(args.k, args.N, pattern)
    rows = [{"row": i, "entries": " ".join(map(_fmt_int, r))}
            for i, r in enumerate(g)]
    _emit(rows, ["row", "entries"], args.format, args.out,
          {"k": args.k, "N": args.N, "pattern": args.pattern}, _meta(args))
    return 0


def cmd_wg(args) -> int:
    pattern = tuple(args.pattern) if args.pattern else None
    t = weingarten.weingarten_table(args.k, args.N, pattern, kmax=args.kmax)
    rows = [{"row": i, "entries": " ".join(_fmt_rat(t.wg(i, j)) for j in range(t.size))}
            for i in range(t.size)]
    _emit(rows, ["row", "entries"], args.format, args.out,
          {"k": args.k, "N": args.N, "pattern": args.pattern}, _meta(args))
    return 0


def cmd_moment(args) -> int:
    poly = ncpoly.parse_poly(args.word)
    value = ncpoly.state_eval(poly, args.N, kmax=args.kmax)
    if not value.is_real:
        print(f"{_fmt_rat(value.re)}+{_fmt_rat(value.im)}i")
    else:
        print(_fmt_rat(value.re))
    return 0


def cmd_lp(args) -> int:
    poly = ncpoly.parse_poly(args.poly)
    if args.scale and args.N is not None:
        poly = ncpoly.scaled_generators(poly, args.N)
    with mpmath.workprec(qnum.PRECISION_BITS):
        print(_fmt_real(ncpoly.lp_norm(poly, args.p, args.N, kmax=args.kmax)))
    return 0


def cmd_dn(args) -> int:
    trunc = rapid_decay.TruncationLimits(r_max=args.rmax, nk_max=args.nkmax)
    rows = []
    for N in _parse_int_list(args.N_list):
        b = rapid_decay.dn_constant(N, trunc)
        rows.append({
            "N": N,
            "scanned_max": _fmt_real(b.value),
            "rigorous_upper": _fmt_real(mpmath.mpf(b.rigorous_upper.numerator)
                                        / b.rigorous_upper.denominator),
            "tail_error": _fmt_real(mpmath.mpf(b.tail_error.numerator)
                                    / b.tail_error.denominator),
            "argmax": "/".join("inf" if x == float("inf") else str(x) for x in b.argmax),
        })
    _emit(rows, ["N", "scanned_max", "rigorous_upper", "tail_error", "argmax"],
          args.format, args.out, {"N_list": args.N_list, "rmax": args.rmax,
                                  "nkmax": args.nkmax}, _meta(args))
    return 0


def cmd_selectp(args) -> int:
    m, p, achieved = rapid_decay.select_p(args.degree, args.epsilon,
                                          rapid_decay.d_star_upper())
    with mpmath.workprec(qnum.PRECISION_BITS):
        print(f"m={m} p={p} achieved={_fmt_real(achieved)}")
    return 0


def cmd_converge(args) -> int:
    N_list, p_list = _parse_int_list(args.N_list), _parse_int_list(args.p_list)
    if any(N < 2 for N in N_list):
        raise QhaarError("all N must be >= 2")
    if not args.no_rd and any(N < 3 for N in N_list):
        raise QhaarError("RD bounds require N >= 3 (pass --no-rd for N = 2)")
    if any(p < 2 or p % 2 for p in p_list):
        raise QhaarError("all p must be even and >= 2")
    P = ncpoly.parse_poly(args.poly)
    rows = []
    with mpmath.workprec(qnum.PRECISION_BITS):
        limit_norms = {p: ncpoly.lp_norm(P, p, None) for p in p_list}
        uppers = {} if args.no_rd else {
            N: rapid_decay.rigorous_upper_bound(N)[0] for N in N_list}
        for N in N_list:
            PN = ncpoly.scaled_generators(P, N)
            l2 = None  # read only by rd_bound
            if not args.no_rd:
                try:
                    l2 = ncpoly.lp_norm(PN, 2, N, kmax=args.kmax)
                except ResourceLimitError:
                    pass  # unread: each p below fails on (w* w)^(p/2), w a top-degree word
            for p in p_list:
                try:
                    fin = ncpoly.lp_norm(PN, p, N, kmax=args.kmax)
                except ResourceLimitError as exc:
                    rows.append({"N": str(N), "p": p,
                                 "lp_finite": f"error(k={exc.required_k},N={N})",
                                 "lp_limit": _fmt_real(limit_norms[p]),
                                 "gap": "", "rd_bound": ""})
                    continue
                rows.append({"N": str(N), "p": p, "lp_finite": _fmt_real(fin),
                             "lp_limit": _fmt_real(limit_norms[p]),
                             "gap": _fmt_real(abs(fin - limit_norms[p])),
                             "rd_bound": "" if args.no_rd
                             else _fmt_real(rapid_decay.rd_bound(uppers[N], P.degree, l2))})
        for p in p_list:
            rows.append({"N": "inf", "p": p, "lp_finite": "",
                         "lp_limit": _fmt_real(limit_norms[p]), "gap": "", "rd_bound": ""})
    _emit(rows, ["N", "p", "lp_finite", "lp_limit", "gap", "rd_bound"], args.format, args.out,
          {"polynomial": args.poly, "N_list": N_list, "p_list": p_list, "format": args.format},
          _meta(args))
    return 0


def cmd_check(args) -> int:
    """Quick invariant suite; exit 4 on any failure."""
    failures = []

    def check(name, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    check("q-integers at N=3", [qnum.q_int(a, 3) for a in range(5)] == [0, 1, 3, 8, 21])
    check("fusion dimension identity",
          all(qnum.dim_irrep(n, N) * qnum.dim_irrep(k, N)
              == sum(qnum.dim_irrep(l, N) for l in qnum.fusion_summands(n, k))
              for N in (3, 5) for n in range(6) for k in range(6)))
    check("catalan counts", [len(pairings.enumerate_nc_pairings(k)) for k in (2, 4, 6, 8)]
          == [1, 2, 5, 14])
    u11_2, u11_4 = (weingarten.GeneratorWord(((1, 1, "1"),) * n, "o+") for n in (2, 4))
    check("h(u11 u11) = 1/N",
          all(weingarten.haar_moment(u11_2, N) == Fraction(1, N) for N in range(2, 9)))
    check("h(u11^4) = 2/(N(N+1))",
          all(weingarten.haar_moment(u11_4, N) == Fraction(2, N * (N + 1))
              for N in range(2, 9)))
    check("unitarity contraction",
          all(weingarten.unitarity_contraction(u11_4, N, 2)
              == weingarten.haar_moment(u11_2, N) for N in (3, 5)))
    b = rapid_decay.dn_constant(3, rapid_decay.TruncationLimits(r_max=24, nk_max=12))
    with mpmath.workprec(qnum.PRECISION_BITS):
        upper = mpmath.mpf(b.rigorous_upper.numerator) / b.rigorous_upper.denominator
    check("D_N bracket at N=3", 1 < b.value <= upper)
    if failures:
        print(f"{len(failures)} invariant check(s) failed", file=sys.stderr)
        return 4
    print("all invariant checks passed")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="qhaar",
                                 description="Exact O_N^+/U_N^+ Haar moments and RD bounds")
    sub = ap.add_subparsers(dest="command", required=True)

    options = {
        "--kmax": dict(type=int, default=weingarten.DEFAULT_KMAX),
        "--out": dict(default=None),
        "--format": dict(choices=["csv", "json"], default="csv"),
    }

    def common(p, *names):
        """Register the shared options a subcommand reads (all three by default)."""
        for name in names or options:
            p.add_argument(name, **options[name])

    p = sub.add_parser("dim", help="quantum dimensions [k+1]_q")
    p.add_argument("--N", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("gram", help="exact Gram matrix of NC pairings")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--pattern", default=None, help="color pattern, e.g. '1*1*'")
    common(p)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("wg", help="exact Weingarten matrix")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--pattern", default=None)
    common(p)
    p.set_defaults(func=cmd_wg)

    p = sub.add_parser("moment", help="Haar moment of a generator word")
    p.add_argument("word", help="e.g. 'x[1,1]*x[1,1]' or 'v[1,1]*v*[1,1]'")
    p.add_argument("--N", type=int, required=True)
    common(p, "--kmax")
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("lp", help="L^p norm of a polynomial")
    p.add_argument("poly")
    p.add_argument("--N", type=int, default=None, help="dimension; omit for the free limit")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--scale", action="store_true", help="substitute sqrt(N)-scaled generators")
    common(p, "--kmax")
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("dn", help="rapid decay constants D_N")
    p.add_argument("--N-list", dest="N_list", default="3,5,10,20,50")
    p.add_argument("--rmax", type=int, default=rapid_decay.TruncationLimits.r_max)
    p.add_argument("--nkmax", type=int, default=rapid_decay.TruncationLimits.nk_max)
    common(p, "--out", "--format")
    p.set_defaults(func=cmd_dn)

    p = sub.add_parser("selectp", help="even p achieving a (1+eps) L^p-L^inf bound")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=cmd_selectp)

    p = sub.add_parser("converge", help="finite-N vs free-limit L^p sweep")
    p.add_argument("--poly", required=True)
    p.add_argument("--N-list", dest="N_list", default="4,8,16")
    p.add_argument("--p-list", dest="p_list", default="2,4")
    p.add_argument("--no-rd", action="store_true", help="skip the RD bound column")
    common(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("check", help="run the quick invariant suite")
    p.set_defaults(func=cmd_check)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except QhaarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
