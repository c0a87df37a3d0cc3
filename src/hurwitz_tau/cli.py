"""Command-line front end.

Subcommands: hurwitz, weighted, tau-coeffs, chartable, phi, verify.
All rationals cross this boundary as "p/q" strings, partitions as
bracketed part lists; output is byte-stable for identical flags.
Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from itertools import permutations, product
from math import factorial

from . import analytic
from .algebra import format_rational, parse_rational
from .errors import HurwitzTauError, ScaleGuardError, SingularParameterError, UsageError
from .hurwitz import ProfileTuple, hurwitz_number, hurwitz_oracle, riemann_hurwitz
from .characters import character_table
from .partitions import (
    colength,
    enumerate_partitions,
    format_partition,
    identity_cycle_type,
    parse_partition,
    weight,
    z_of,
)
from .tau_series import tau_double_table, tau_single_table
from .weights import (
    WeightGen,
    profile_multisets,
    quantum_weight_factor,
    weight_factor_tilde,
    weighted_hurwitz,
    weighted_hurwitz_terms,
)


def parse_profiles(text: str) -> tuple:
    """Parse comma-joined bracket groups: ``"[2],[2,1]"``."""
    groups = []
    depth = 0
    start = None
    for i, ch in enumerate(text):
        if ch == "[":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise UsageError(
                    f"bad profile list {text!r}: unmatched ']' at position {i}",
                    code="bad-partition",
                )
            if depth == 0:
                groups.append(text[start : i + 1])
        elif depth == 0 and ch not in ", \t":
            raise UsageError(
                f"bad profile list {text!r}: unexpected character {ch!r} at position {i}",
                code="bad-partition",
            )
    if depth != 0:
        raise UsageError(
            f"bad profile list {text!r}: unclosed '['", code="bad-partition"
        )
    if not groups:
        raise UsageError(
            f"bad profile list {text!r}: no bracket groups found", code="bad-partition"
        )
    return tuple(parse_partition(g) for g in groups)


def _parse_rational_list(text: str) -> tuple[Fraction, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_rational(piece.strip()) for piece in text.split(","))


# the family flags each --gen kind reads; "--c ''" counts as not given
_GEN_FLAGS = {"trivial": (), "finite": ("c",), "rational": ("c", "d"),
              "quantum": ("q", "m")}


def weight_gen_from_args(args) -> WeightGen:
    kind = args.gen
    for flag in ("c", "d", "q", "m"):
        if getattr(args, flag, None) not in (None, "") and flag not in _GEN_FLAGS[kind]:
            raise UsageError(f"--{flag} is not a parameter of --gen {kind}",
                             code="unused-flag")
    if kind == "trivial":
        return WeightGen.trivial()
    if kind == "finite":
        return WeightGen.finite_product(_parse_rational_list(args.c or ""))
    if kind == "rational":
        return WeightGen.rational(
            _parse_rational_list(args.c or ""), _parse_rational_list(args.d or "")
        )
    if not args.q:
        raise UsageError("--gen quantum needs --q", code="missing-flag")
    return WeightGen.quantum(parse_rational(args.q), getattr(args, "m", None))


def emit_table(columns: list[str], rows: list[tuple], fmt: str) -> str:
    """Render rows of values, in column order, as CSV or JSON, byte-stable."""
    if fmt == "json":
        return json.dumps([dict(zip(columns, row)) for row in rows])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


# -- subcommands ------------------------------------------------------------

def _cmd_hurwitz(args) -> int:
    profiles = parse_profiles(args.profiles)
    pt = ProfileTuple(args.n, profiles)
    value = hurwitz_number(pt)
    chi, genus = riemann_hurwitz(pt)
    out = {
        "N": pt.N,
        "profiles": [list(p) for p in pt.profiles],
        "H": format_rational(value),
        "d": pt.d,
        "chi": chi,
        "g": format_rational(genus),
    }
    if args.oracle:
        out["oracle"] = format_rational(hurwitz_oracle(pt))
    print(json.dumps(out))
    return 0


def _cmd_weighted(args) -> int:
    G = weight_gen_from_args(args)
    mu = parse_partition(args.mu)
    nu = parse_partition(args.nu) if args.nu else identity_cycle_type(weight(mu))
    if args.trace:
        terms = weighted_hurwitz_terms(G, args.deg, mu, nu)
        total = sum((t.value for t in terms), Fraction(0))
    else:
        total = weighted_hurwitz(G, args.deg, mu, nu)
    out = {
        "gen": G.describe(),
        "d": args.deg,
        "mu": list(mu),
        "nu": list(nu),
        "H": format_rational(total),
    }
    if args.trace:
        out["terms"] = [
            {
                "mu_block": [list(p) for p in t.mu_block],
                "nu_block": [list(p) for p in t.nu_block],
                "arrangements": t.arrangements,
                "W": format_rational(t.factor),
                "H": format_rational(t.base),
            }
            for t in terms
        ]
    print(json.dumps(out))
    return 0


def _cmd_tau_coeffs(args) -> int:
    G = weight_gen_from_args(args)
    table = tau_double_table(G, args.order, args.nmax)
    rows = []
    for n in range(args.nmax + 1):
        labels = {mu: format_partition(mu) for mu in enumerate_partitions(n)}
        rows += [(labels[mu], labels[nu], d, format_rational(table.entry(mu, nu, n + d)))
                 for mu in labels for nu in labels for d in range(args.order + 1)]
    print(emit_table(["mu", "nu", "d", "H"], rows, args.format))
    return 0


def _cmd_chartable(args) -> int:
    columns = character_table(args.n)
    labels = [format_partition(mu) for mu, _, _ in columns]
    # column mu lists chi_lam(mu) per lam; lam and mu share one enumeration
    rows = [(lam, *chi) for lam, chi in zip(labels, zip(*(chi for _, chi, _ in columns)))]
    print(emit_table(["lambda", *labels], rows, "csv"))
    return 0


def _cmd_phi(args) -> int:
    G = weight_gen_from_args(args)
    beta = parse_rational(args.beta)
    p = analytic.phi_k(G, beta, args.k, args.order)
    out = {
        "k": p.k,
        "beta": format_rational(p.beta),
        "lead_exp": p.lead_exp,
        "coeffs": [format_rational(c) for c in p.coeffs],
    }
    print(json.dumps(out))
    return 0


# -- verification suites ----------------------------------------------------
# Each suite yields its report lines: PASS or FAIL from _line, and SKIP for a
# check that cannot run at these parameters, which is reported, not failed.

def _line(name: str, ok: bool, detail: str = "") -> str:
    suffix = f": {detail}" if detail else ""
    return f"{'PASS' if ok else 'FAIL'} {name}{suffix}"


def _singular_line(name: str, exc: SingularParameterError, note: str = "") -> str:
    """The line of a check that met a singular point: a calibration that
    failed is a FAIL, with the note; any other singular point is a SKIP."""
    if exc.code == "calibration-failed":
        return _line(name, False, f"{exc}{note}")
    return f"SKIP {name}: unconstructible here ({exc})"


def _suite_hurwitz(nmax: int):
    if nmax < 2:
        yield ("SKIP character sum = factorization oracle: "
               f"no sheet count N in the empty range 2..{nmax}")
    for N in range(2, nmax + 1):
        parts = enumerate_partitions(N)
        bad = 0
        cases = 0
        for k in (1, 2, 3):
            for profs in product(parts, repeat=k):
                pt = ProfileTuple(N, profs)
                cases += 1
                if hurwitz_number(pt) != hurwitz_oracle(pt):
                    bad += 1
        yield _line(f"character sum = factorization oracle, N={N}", bad == 0,
                    f"{cases} profile tuples")


def _quantum_prefix_sums(q: Fraction, profiles) -> Fraction:
    """Quantum dual weight factor from its definition over orderings:
    (-1)^(d-k)/k! sum over the k! orderings of the profile colengths of
    prod_t 1/(1 - q^(t-th prefix sum)).  Shares no code with the weights
    module's set-partition sum, so it checks that sum; k! terms, so kept to
    few profiles.
    """
    exps = [colength(p) for p in profiles]
    total = Fraction(0)
    for order in permutations(exps):
        term = Fraction(1)
        prefix = 0
        for e in order:
            prefix += e
            term /= 1 - q ** prefix
        total += term
    k = len(exps)
    return (-1) ** (sum(exps) - k) * total / factorial(k)


_QUANTUM_CUT_MAX = 1024


def _suite_weights(G: WeightGen):
    if G.q is not None:
        # Cut at c_i = q^i, i < T, the dual factor of k <= 4 profiles loses its
        # non-decreasing index chains that reach T: at most |q|^T / (1 - |q|)^k.
        # T is the least with that below 2^-56, 2^16 under the 2^-40 bound, so
        # the check sees the closed form, not the cut; T = 61 at |q| = 1/2.
        # T and the bit size of every q^i grow together as |q| -> 1, so the
        # cut stops at _QUANTUM_CUT_MAX terms (T = 991 at 19/20).
        tail_cap = Fraction(1, 2 ** 56) * (1 - abs(G.q)) ** 4
        trunc = [Fraction(1)]
        while abs(trunc[-1] * G.q) >= tail_cap:
            if len(trunc) == _QUANTUM_CUT_MAX:
                raise ScaleGuardError(
                    f"quantum tail check is capped at {_QUANTUM_CUT_MAX} terms of "
                    f"the cut; q={G.q} needs more"
                )
            trunc.append(trunc[-1] * G.q)
        worst = Fraction(0)
        bad = cases = 0
        # d <= 4, so at most 4 profiles and 24 orderings each
        for N in range(1, 5):
            for d in range(1, 5):
                for profiles, _ in profile_multisets(N, d):
                    closed = quantum_weight_factor(G.q, profiles)
                    worst = max(worst, abs(closed - weight_factor_tilde(trunc, profiles)))
                    cases += 1
                    if closed != _quantum_prefix_sums(G.q, profiles):
                        bad += 1
        yield _line("quantum closed form vs truncated dual weight factor",
                    worst < Fraction(1, 2 ** 40), f"worst gap {float(worst):.3e} < 2^-40")
        yield _line("quantum closed form = prefix sums over all orderings", bad == 0,
                    f"{cases} profile multisets, N <= 4, d <= 4")
    else:
        yield "SKIP quantum tail comparison: generating function is not quantum"


def _suite_tau(G: WeightGen, nmax: int, order: int):
    # every key read below is in range: |mu| = |nu| = n <= nmax, d <= order
    table = tau_double_table(G, order, nmax)
    bad = cases = bad_d0 = 0
    for n in range(nmax + 1):
        parts = enumerate_partitions(n)
        for mu in parts:
            for nu in parts:
                if table.entry(mu, nu, n) != Fraction(mu == nu, z_of(mu)):
                    bad_d0 += 1
                for d in range(order + 1):
                    cases += 1
                    if table.entry(mu, nu, n + d) != weighted_hurwitz(G, d, mu, nu):
                        bad += 1
    yield _line("series coefficients = direct weighted counts", bad == 0,
                f"{cases} (mu, nu, d) cases, |mu| <= {nmax}, d <= {order}")
    single = tau_single_table(G, order, nmax)
    bad = 0
    for (mu, d), v in single.items():
        n = weight(mu)
        bad += v != table.entry(mu, identity_cycle_type(n), n + d)
    yield _line("single series = double series at identity profile", bad == 0)
    yield _line("d=0 coefficients are delta_(mu,nu)/z_mu", bad_d0 == 0)
    bad = sum(1 for (mu, nu, e), v in table.coeffs.items() if table.entry(nu, mu, e) != v)
    yield _line("table is symmetric in (mu, nu)", bad == 0)


def _suite_analytic(G: WeightGen, beta: Fraction, kmax: int, order: int):
    for identity, check, kmin in (("recursion", analytic.check_recursion, 2),
                                  ("spectral", analytic.check_spectral, 1)):
        if kmax < kmin:
            yield f"SKIP {identity} identity: no k in the empty range {kmin}..{kmax}"
        for k in range(kmin, kmax + 1):
            name = f"{identity} identity k={k}"
            try:
                rep = check(G, beta, k, order)
            except SingularParameterError as exc:
                yield _singular_line(name, exc)
                continue
            note = f"orders 0..{rep.checked_order}"
            if rep.ode_checked:
                note += ", cleared ODE form included"
            if rep.capped:
                note += f" (window capped: {rep.cap_reason})"
            yield _line(name, rep.ok, note)
    xs = [Fraction(1, 100), Fraction(1, 200), Fraction(1, 300)]
    J = max(order // 2, 8)
    # a PASS on the truncated quantum product G_M is no PASS on G itself
    truncation = f", G truncated at M={G.M}" if G.q is not None else ""
    for n in (1, 2, 3):
        name = f"determinant representation n={n}"
        if abs(beta) == 1:  # every power of beta is +-1, so calibration is refused
            yield f"SKIP {name}: calibration cannot separate beta powers at |beta| = 1"
            continue
        try:
            # the rows, the Wronskian and the prefactor use rho_-n .. rho_(J-n);
            # rho_0 = 1, so the capped order is never below n
            Jn, reason = analytic.max_regular_order(G, beta, n, J)
            e = analytic.calibrate_det_exponent(G, beta, n, Jn, compare_deg=min(5, 1 - n + Jn))
            det = analytic.tau_det_rep(G, beta, xs[:n], Jn)
            wr = analytic.tau_wronskian(G, beta, xs[:n], Jn)
        except SingularParameterError as exc:
            yield _singular_line(name, exc, truncation)
            continue
        note = f"calibrated beta exponent {e}, Wronskian equal exactly"
        if reason:
            note += f", orders 0..{Jn} (window capped: {reason})"
        yield _line(name, e == analytic.det_rep_calibration(n) and det.value == wr.value,
                    note + truncation)


def _cmd_verify(args) -> int:
    G = weight_gen_from_args(args)
    beta = parse_rational(args.beta)
    # every selected suite runs before anything prints, so a usage or
    # parameter error met by a later suite leaves no partial report
    lines: list[str] = []
    if args.suite in ("hurwitz", "all"):
        lines += _suite_hurwitz(args.n)
    if args.suite in ("weights", "all"):
        lines += _suite_weights(G)
    if args.suite in ("tau", "all"):
        lines += _suite_tau(G, args.nmax, min(args.order, 3))
    if args.suite in ("analytic", "all"):
        lines += _suite_analytic(G, beta, args.kmax, args.order)
    failures = sum(line.startswith("FAIL ") for line in lines)
    lines.append(f"FAILURES: {failures}" if failures else "ALL CHECKS PASSED")
    print("\n".join(lines))
    return 1 if failures else 0


class _Parser(argparse.ArgumentParser):
    """Argument errors leave as UsageError JSON; flags are spelled in full (no --m for --mu)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}", code="bad-argument")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hurwitz-tau",
        description="Exact weighted Hurwitz numbers and their generating series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gen_flags(p):
        p.add_argument("--gen", default="trivial",
                       choices=["trivial", "finite", "rational", "quantum"])
        p.add_argument("--c", help="comma-separated rational c parameters")
        p.add_argument("--d", help="comma-separated rational d parameters")
        p.add_argument("--q", help="quantum parameter, |q| < 1")

    p = sub.add_parser("hurwitz", help="classical Hurwitz number from profiles")
    p.add_argument("--n", type=int, required=True, help="sheet count N")
    p.add_argument("--profiles", required=True, help='e.g. "[2],[2]"')
    p.add_argument("--oracle", action="store_true",
                   help="also run the factorization-counting oracle")
    p.set_defaults(func=_cmd_hurwitz)

    p = sub.add_parser("weighted", help="weighted Hurwitz number")
    add_gen_flags(p)
    p.add_argument("--deg", type=int, required=True, help="total weighted colength d")
    p.add_argument("--mu", required=True, help='partition, e.g. "[2,1]"')
    p.add_argument("--nu", help="partition; defaults to the identity cycle type")
    p.add_argument("--trace", action="store_true",
                   help="list the contributing profile configurations")
    p.set_defaults(func=_cmd_weighted)

    p = sub.add_parser("tau-coeffs", help="table of series coefficients")
    add_gen_flags(p)
    p.add_argument("--order", type=int, default=2, help="beta order D")
    p.add_argument("--nmax", type=int, default=3, help="largest profile weight")
    p.add_argument("--out", "--format", dest="format", default="csv",
                   choices=["csv", "json"])
    p.set_defaults(func=_cmd_tau_coeffs)

    p = sub.add_parser("chartable", help="character table of S_n as CSV")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_chartable)

    p = sub.add_parser("phi", help="adapted basis series coefficients")
    add_gen_flags(p)
    p.add_argument("--beta", required=True, help='rational, e.g. "1/5"')
    p.add_argument("--k", type=int, required=True, help="basis index >= 1")
    p.add_argument("--order", type=int, default=12, help="series order J")
    p.add_argument("--m", type=int, help="quantum product truncation M")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("verify", help="run verification suites")
    add_gen_flags(p)
    p.add_argument("--suite", default="all",
                   choices=["hurwitz", "weights", "tau", "analytic", "all"])
    p.add_argument("--beta", default="1/5", help="evaluation point for analytic checks")
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--order", type=int, default=12,
                   help="series order for analytic checks (the tau suite caps d at 3)")
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--n", type=int, default=4, help="largest sheet count for the oracle sweep")
    p.add_argument("--m", type=int, help="quantum product truncation M")
    p.set_defaults(func=_cmd_verify)
    parser.commands = sub.choices
    return parser


# built on the first run, not at import, and reused by every later run
_parser: argparse.ArgumentParser | None = None


def run(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        command = _parser.commands.get(argv[0]) if argv else None
        if command is None:
            args = _parser.parse_args(argv)
        else:
            # a known subcommand parses its own flags, as argparse's subparser
            # step would, and what is left over is the top-level error
            args, rest = command.parse_known_args(argv[1:])
            if rest:
                _parser.error(f"unrecognized arguments: {' '.join(rest)}")
        # before Python 3.13, argparse stores --flag=-- as [] and skips type=
        # and choices=; no flag here takes a list
        for dest, value in vars(args).items():
            if isinstance(value, list):
                (command or _parser).error(f"argument --{dest}: expected one argument")
        return args.func(args)
    except HurwitzTauError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
