import csv
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction as F
from functools import cache
from itertools import combinations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz_tau import analytic, cli, weights
from hurwitz_tau.cli import emit_table, parse_profiles, run
from hurwitz_tau.errors import UsageError
from hurwitz_tau.partitions import colength
from hurwitz_tau.tau_series import extract_H, tau_double_table


def capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


def test_parse_profiles():
    assert parse_profiles("[2],[2]") == ((2,), (2,))
    assert parse_profiles("[3,1,1], [2,2,1]") == ((3, 1, 1), (2, 2, 1))
    for bad in ("", "[2", "2]", "[2]x[2]", "[2],[0]"):
        with pytest.raises(UsageError):
            parse_profiles(bad)


def test_hurwitz_command(capsys):
    code = run(["hurwitz", "--n", "2", "--profiles", "[2],[2]"])
    out, _ = capture(capsys)
    assert code == 0
    assert out.strip() == (
        '{"N": 2, "profiles": [[2], [2]], "H": "1/2", "d": 2, "chi": 2, "g": "0"}'
    )
    data = json.loads(out)
    assert data["H"] == "1/2"


def test_hurwitz_command_usage_error(capsys):
    code = run(["hurwitz", "--n", "3", "--profiles", "[2],[2]"])
    out, err = capture(capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "profile-weight-mismatch"


def test_weighted_command(capsys):
    code = run([
        "weighted", "--gen", "rational", "--c", "1", "--d", "1/3",
        "--deg", "2", "--mu", "[2,1]", "--nu", "[3]",
    ])
    out, _ = capture(capsys)
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"gen", "d", "mu", "nu", "H"}
    code = run([
        "weighted", "--gen", "finite", "--c", "1",
        "--deg", "1", "--mu", "[2]", "--nu", "[1,1]", "--trace",
    ])
    out, _ = capture(capsys)
    data = json.loads(out)
    assert data["H"] == "1/2"
    assert data["terms"] == [
        {"mu_block": [[2]], "nu_block": [], "arrangements": 1, "W": "1", "H": "1/2"}
    ]


def test_weighted_trace_terms_sum(capsys):
    code = run([
        "weighted", "--gen", "quantum", "--q", "1/2",
        "--deg", "2", "--mu", "[3]", "--trace",
    ])
    out, _ = capture(capsys)
    assert code == 0
    data = json.loads(out)
    assert data["nu"] == [1, 1, 1]  # defaulted to the identity type
    assert len(data["terms"]) >= 1


def test_tau_coeffs_trivial_rows_vanish(capsys):
    code = run(["tau-coeffs", "--gen", "trivial", "--order", "2", "--nmax", "2"])
    out, _ = capture(capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mu,nu,d,H"
    for line in lines[1:]:
        d, h = line.rsplit(",", 2)[-2:]
        if d != "0":
            assert h == "0"


def test_tau_coeffs_json_round_trip(capsys):
    args = ["tau-coeffs", "--gen", "quantum", "--q", "1/2",
            "--order", "2", "--nmax", "2", "--format", "json"]
    run(args)
    first, _ = capture(capsys)
    run(args)
    second, _ = capture(capsys)
    assert first == second  # byte-stable
    rows = json.loads(first)
    # dual-path value: quantum weight factor 1/(1-q) = 2 times the classical
    # three-point count 1/2
    assert {"mu": "[2]", "nu": "[1,1]", "d": 1, "H": "1"} in rows


def test_tau_coeffs_out_flag_alias(capsys):
    run(["tau-coeffs", "--gen", "trivial", "--out", "json"])
    out, _ = capture(capsys)
    json.loads(out)


def test_chartable(capsys):
    code = run(["chartable", "--n", "3"])
    out, _ = capture(capsys)
    assert code == 0
    assert out.strip().splitlines() == [
        'lambda,[3],"[2,1]","[1,1,1]"',
        "[3],1,1,1",
        '"[2,1]",-1,0,2',
        '"[1,1,1]",1,-1,1',
    ]


def test_phi_command(capsys):
    code = run(["phi", "--gen", "rational", "--c", "1",
                "--beta", "1", "--k", "1", "--order", "3"])
    out, _ = capture(capsys)
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"] == ["1", "1", "1", "1"]
    assert data["lead_exp"] == 0


def test_phi_bad_rational(capsys):
    code = run(["phi", "--gen", "trivial", "--beta", "1/x", "--k", "1"])
    _, err = capture(capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "bad-rational"
    assert "position 2" in payload["message"]


def test_verify_all_passes(capsys):
    code = run(["verify", "--suite", "all", "--gen", "rational",
                "--c", "1", "--d", "1/3", "--n", "3"])
    out, _ = capture(capsys)
    assert code == 0
    assert "ALL CHECKS PASSED" in out
    assert "FAIL" not in out


def test_verify_reports_failure_exit_code(capsys):
    # beta = 1/3 makes k = 4 unconstructible: reported as SKIP, while the
    # oracle sweep and remaining identities still pass
    code = run(["verify", "--suite", "analytic", "--gen", "rational",
                "--c", "1", "--d", "1/3", "--beta", "1/3",
                "--kmax", "4", "--order", "12"])
    out, _ = capture(capsys)
    assert code == 0
    assert "SKIP" in out


# beta = 1/3 meets the pole of G at 9 * beta = 3: rho_9 does not exist
POLE_ARGV = ["verify", "--suite", "analytic", "--gen", "rational", "--c", "1",
             "--d", "1/3", "--beta", "1/3", "--kmax", "6", "--order", "24"]


def test_verify_determinant_window_capped_at_pole(capsys):
    code = run(POLE_ARGV)
    out, _ = capture(capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if "determinant representation" in ln]
    assert len(lines) == 3
    reason = "(window capped: rho_9 undefined: G(9*beta) is singular"
    # rows, Wronskian and prefactor use rho_-n .. rho_(J-n): J = 8 + n
    for n, line in zip((1, 2, 3), lines):
        assert line.startswith(
            f"PASS determinant representation n={n}: calibrated beta exponent {-n}, "
            f"Wronskian equal exactly, orders 0..{8 + n} {reason}"
        )
    assert out.endswith("ALL CHECKS PASSED\n")


def test_verify_capped_determinant_negative_control(capsys, monkeypatch):
    # phi_1's x^2 coefficient off by 2^-50 (as in the analytic negative
    # control): a capped window must still report the calibration failure
    real = analytic.phi_k

    def perturbed(G, beta, k, J):
        p = real(G, beta, k, J)
        if k != 1:
            return p
        return replace(p, coeffs=p.coeffs[:2] + (p.coeff(2) + F(1, 2 ** 50),) + p.coeffs[3:])

    monkeypatch.setattr(analytic, "phi_k", perturbed)
    code = run(POLE_ARGV)
    out, _ = capture(capsys)
    assert code == 1
    lines = [ln for ln in out.splitlines() if "determinant representation" in ln]
    assert len(lines) == 3
    for n, line in zip((1, 2, 3), lines):
        assert line == (f"FAIL determinant representation n={n}: "
                        "calibration is not a pure beta power: mismatch at (2,)")


def test_verify_quantum_determinant_negative_control(capsys, monkeypatch):
    # the determinant lines run on the truncated product G_M and say so; a
    # direct route one factor short (M - 1) must make every line FAIL
    argv = ["verify", "--suite", "analytic", "--gen", "quantum", "--q", "1/2",
            "--m", "40", "--beta", "1/23", "--kmax", "6", "--order", "24"]
    assert run(argv) == 0
    out, _ = capture(capsys)
    lines = [ln for ln in out.splitlines() if "determinant representation" in ln]
    assert lines == [f"PASS determinant representation n={n}: calibrated beta exponent {-n}, "
                     "Wronskian equal exactly, G truncated at M=40" for n in (1, 2, 3)]
    real = analytic.tau_direct_polynomial

    def short(G, beta, n, max_deg):
        return real(replace(G, M=G.M - 1), beta, n, max_deg)

    monkeypatch.setattr(analytic, "tau_direct_polynomial", short)
    assert run(argv) == 1
    out, _ = capture(capsys)
    lines = [ln for ln in out.splitlines() if "determinant representation" in ln]
    assert lines == [f"FAIL determinant representation n={n}: calibration is not a pure "
                     "beta power: mismatch at (2,), G truncated at M=40" for n in (1, 2, 3)]
    assert out.endswith("FAILURES: 3\n")


def test_byte_identical_output(capsys):
    args = ["hurwitz", "--n", "4", "--profiles", "[2,1,1],[2,2],[3,1]"]
    run(args)
    first = capture(capsys)
    run(args)
    second = capture(capsys)
    assert first == second


def test_emit_table_edge_cases():
    assert emit_table(["mu", "H"], [], "csv") == "mu,H"  # header only
    one = emit_table(["mu", "H"], [("[2,1]", "1/2")], "csv")
    assert one == 'mu,H\n"[2,1]",1/2'
    assert json.loads(emit_table(["mu", "H"], [], "json")) == []
    # keys come out in column order, not sorted
    one = emit_table(["nu", "d", "H"], [("[1]", 0, "1")], "json")
    assert one == '[{"nu": "[1]", "d": 0, "H": "1"}]'


@pytest.mark.parametrize("gen", [
    ["--gen", "trivial"],
    ["--gen", "quantum", "--q=-7/10"],
    ["--gen", "rational", "--c=2/3,-5/7", "--d=1/3,3/11"],
], ids=["trivial", "quantum", "rational"])
@pytest.mark.parametrize("order, nmax", [(0, 0), (2, 3), (3, 5)])
def test_tau_coeffs_csv_and_json_carry_the_same_rows(capsys, gen, order, nmax):
    argv = ["tau-coeffs", *gen, "--order", str(order), "--nmax", str(nmax)]
    assert run([*argv, "--out", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capture(capsys)[0]))
    assert run([*argv, "--out", "json"]) == 0
    objects = json.loads(capture(capsys)[0])
    assert header == ["mu", "nu", "d", "H"]
    assert [list(obj) for obj in objects] == [header] * len(objects)
    # every (mu, nu, d) with |mu| = |nu| <= nmax, d <= order, once
    assert len(rows) == (order + 1) * sum(p * p for p in (1, 1, 2, 3, 5, 7)[:nmax + 1])
    assert rows == [[str(v) for v in obj.values()] for obj in objects]


def test_phi_quantum_needs_truncation(capsys):
    code = run(["phi", "--gen", "quantum", "--q", "1/2",
                "--beta", "1/9", "--k", "2", "--order", "4"])
    _, err = capture(capsys)
    assert code == 2
    assert json.loads(err)["error"] == "quantum-needs-truncation"


@pytest.mark.parametrize("argv, error", [
    (["hurwitz", "--n", "2", "--profiles", "[²]"], "bad-partition"),
    (["weighted", "--deg", "1", "--mu", "[²]"], "bad-partition"),
    (["phi", "--beta", "²/3", "--k", "1"], "bad-rational"),
    (["weighted", "--gen", "finite", "--c", "¹", "--deg", "2", "--mu", "[2]"],
     "bad-rational"),
], ids=["hurwitz-profiles", "weighted-mu", "phi-beta", "weighted-c"])
def test_unicode_digits_are_usage_errors(capsys, argv, error):
    # superscript digits are str.isdigit() but not int(): they must be refused
    # by the parser, not reach int() and leave a traceback
    code = run(argv)
    out, err = capture(capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("argv, error, pos", [
    (["phi", "--beta", "9" * 5000 + "/3", "--k", "1"], "bad-rational", 4300),
    (["hurwitz", "--n", "2", "--profiles", "[" + "9" * 5000 + "]"], "bad-partition", 1),
], ids=["phi-beta", "hurwitz-profiles"])
def test_digit_runs_past_int_limit_are_usage_errors(capsys, argv, error, pos):
    # int() refuses more digits than sys.get_int_max_str_digits(); the parsers
    # must refuse them first instead of leaving a ValueError traceback
    code = run(argv)
    out, err = capture(capsys)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == error
    assert payload["message"].endswith(
        f"more than {sys.get_int_max_str_digits()} digits at position {pos}")


def test_family_flags_outside_gen_are_usage_errors(capsys):
    cases = [
        (["weighted", "--c", "1", "--deg", "2", "--mu", "[2,1]"], "--c", "trivial"),
        (["weighted", "--gen", "finite", "--c", "1", "--d", "1/3", "--deg", "2",
          "--mu", "[2,1]"], "--d", "finite"),
        (["weighted", "--gen", "quantum", "--q", "1/2", "--c", "5", "--deg", "2",
          "--mu", "[2,1]"], "--c", "quantum"),
        (["phi", "--gen", "rational", "--c", "1", "--beta", "1/5", "--k", "1",
          "--m", "7"], "--m", "rational"),
    ]
    for argv, flag, kind in cases:
        code = run(argv)
        out, err = capture(capsys)
        assert (code, out) == (2, ""), argv
        assert json.loads(err) == {"error": "unused-flag",
                                   "message": f"{flag} is not a parameter of --gen {kind}"}
    # an empty value is no value
    assert run(["weighted", "--c", "", "--deg", "2", "--mu", "[2,1]"]) == 0
    assert '"gen": "trivial"' in capture(capsys)[0]


def test_phi_negative_quantum_truncation(capsys):
    # an empty product would silently stand in for G = 1
    code = run(["phi", "--gen", "quantum", "--q", "1/2", "--beta", "1/23", "--k", "2",
                "--order", "3", "--m", "-1"])
    out, err = capture(capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "bad-truncation"


def test_parser_errors_are_structured(capsys):
    # "-1/3" after a space reads as a flag, so --d has no value
    code = run(["verify", "--suite", "analytic", "--gen", "rational",
                "--c", "1", "--d", "-1/3", "--beta", "1/3"])
    out, err = capture(capsys)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "bad-argument"
    assert "--d" in payload["message"]


@pytest.mark.parametrize("argv, rest", [
    (["weighted", "--gen", "quantum", "--q", "1/2", "--m", "40", "--deg", "1", "--mu", "[2]"],
     "--m 40"),
    (["verify", "--suite", "tau", "--ord", "1"], "--ord 1"),
], ids=["weighted-m-for-mu", "verify-ord-for-order"])
def test_abbreviated_flags_are_usage_errors(capsys, argv, rest):
    # an abbreviation would read --m as --mu (then overwritten) and --ord as --order
    code = run(argv)
    out, err = capture(capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "bad-argument",
                               "message": f"hurwitz-tau: unrecognized arguments: {rest}"}


@pytest.mark.parametrize("argv, error", [
    (["--gen", "quantum", "--q", "1/2"], "quantum-needs-truncation"),
    (["--beta", "0"], "bad-beta"),
    (["--order", "-1"], "bad-order"),
    (["--gen", "quantum", "--q", "1/2", "--m", "-3"], "bad-truncation"),
], ids=["quantum-without-m", "zero-beta", "negative-order", "quantum-negative-m"])
def test_verify_error_leaves_no_partial_report(capsys, argv, error):
    # the hurwitz, weights and tau suites pass before the analytic one stops
    code = run(["verify", "--suite", "all"] + argv)
    out, err = capture(capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("suite", ["analytic", "all"])
@pytest.mark.parametrize("beta", ["1", "-1"])
def test_verify_at_unit_beta_skips_only_the_determinant_lines(capsys, suite, beta):
    # every power of beta is +-1 there, so the calibration refuses it; the
    # determinant lines are skipped, and the identity lines run and hold
    with pytest.raises(UsageError) as exc:
        analytic.calibrate_det_exponent(weights.WeightGen.trivial(), F(beta), 1, 8, 3)
    assert exc.value.code == "bad-beta"
    code = run(["verify", "--suite", suite, f"--beta={beta}"])
    out, err = capture(capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert [ln for ln in lines if "determinant representation" in ln] == [
        f"SKIP determinant representation n={n}: calibration cannot separate beta powers "
        "at |beta| = 1" for n in (1, 2, 3)]
    assert [ln for ln in lines if " identity k=" in ln] == (
        [f"PASS recursion identity k={k}: orders 0..12" for k in (2, 3, 4)]
        + [f"PASS spectral identity k={k}: orders 0..12, cleared ODE form included"
           for k in (1, 2, 3, 4)])
    assert lines[-1] == "ALL CHECKS PASSED"


def test_phi_quantum_prints_long_exact_coefficients(capsys):
    # numerators past Python's default 4300-digit int-to-str limit
    code = run(["phi", "--gen", "quantum", "--q", "1/2", "--beta", "1/23",
                "--k", "1", "--order", "20", "--m", "40"])
    out, err = capture(capsys)
    assert code == 0
    assert err == ""
    data = json.loads(out)
    assert data["lead_exp"] == 0
    assert len(data["coeffs"]) == 21
    assert max(len(c) for c in data["coeffs"]) > 4300


def test_weighted_quantum_double_numbers_equal_table(capsys):
    # a quantum query with nu != (1^N) is a double Hurwitz number: it prints
    # the double-series table entry, with and without --trace
    table = tau_double_table(weights.WeightGen.quantum(F(1, 2)), 2, 4)
    for d, mu, nu in ((1, (2,), (2,)), (2, (2, 1, 1), (3, 1)), (1, (3,), (2, 1))):
        for trace in ([], ["--trace"]):
            code = run(["weighted", "--gen", "quantum", "--q", "1/2", "--deg", str(d),
                        "--mu", str(list(mu)), "--nu", str(list(nu)), *trace])
            out, err = capture(capsys)
            assert (code, err) == (0, "")
            assert F(json.loads(out)["H"]) == extract_H(table, d, mu, nu), (d, mu, nu)
    assert extract_H(table, 1, (3,), (2, 1)) != 0


@pytest.mark.parametrize("argv, error", [
    (["--deg", "0", "--mu", "[2]", "--nu", "[3]"], "weight-mismatch"),
    (["--gen", "rational", "--c", "1", "--d", "1/3", "--deg", "2",
      "--mu", "[2]", "--nu", "[1,1,1]"], "weight-mismatch"),
    (["--gen", "finite", "--c", "1", "--deg", "-1", "--mu", "[2]", "--nu", "[2]"],
     "bad-degree"),
], ids=["weight-mismatch", "weight-mismatch-rational", "bad-degree"])
@pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["plain", "trace"])
def test_weighted_odd_total_usage_errors(capsys, argv, error, trace):
    # every argv has an odd total colength: the input check comes before the
    # parity zero
    code = run(["weighted", *argv, *trace])
    out, err = capture(capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["plain", "trace"])
def test_weighted_quantum_odd_total_prints_zero(capsys, trace):
    # a quantum double query at an odd total colength is 0, like any other G
    code = run(["weighted", "--gen", "quantum", "--q", "1/2", "--deg", "2",
                "--mu", "[3]", "--nu", "[2,1]", *trace])
    out, err = capture(capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["H"] == "0"


def test_parser_built_once(capsys, monkeypatch):
    built = []

    def counting():
        built.append(1)
        return real()

    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    assert run(["chartable", "--n", "2"]) == 0
    assert run(["weighted", "--deg", "1", "--mu", "[2]", "--nu", "[2]"]) == 0
    capture(capsys)
    # an argument error leaves the cached parser usable
    assert run(["chartable", "--n", "x"]) == 2
    out, err = capture(capsys)
    assert out == "" and json.loads(err)["error"] == "bad-argument"
    assert run(["hurwitz", "--n", "2", "--profiles", "[2],[2]"]) == 0
    out, _ = capture(capsys)
    assert json.loads(out)["H"] == "1/2"
    # a flag given to one call does not stick to the next
    weighted = ["weighted", "--gen", "finite", "--c", "1", "--deg", "1",
                "--mu", "[2]", "--nu", "[1,1]"]
    assert run(weighted + ["--trace"]) == 0
    out, _ = capture(capsys)
    assert "terms" in json.loads(out)
    assert run(weighted) == 0
    out, _ = capture(capsys)
    assert json.loads(out) == {"gen": "finite_product(c=[1], d=[])", "d": 1,
                               "mu": [2], "nu": [1, 1], "H": "1/2"}
    assert built == [1]


DISPATCH = json.loads((Path(__file__).parent / "data" / "cli_dispatch.json").read_text())


@pytest.mark.parametrize("case", DISPATCH, ids=lambda case: " ".join(case["argv"]) or "empty")
def test_dispatch_output_is_unchanged(capsys, monkeypatch, case):
    # usage errors and help text, recorded when the top-level parser still
    # parsed every argv: a known subcommand now parses its own flags, and the
    # bytes on stdout and stderr and the exit code must not move
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = run(case["argv"])
    except SystemExit as exc:
        code = exc.code
    out, err = capture(capsys)
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def test_cli_output_matches_golden(capsys):
    # stdout of weighted with and without --trace at odd and even totals for
    # four families, hurwitz --oracle, phi and chartable; the printed bytes
    # are part of the CLI contract
    assert len(GOLDEN) > 100
    changed = []
    for case in GOLDEN:
        code = run(case["argv"])
        out, err = capture(capsys)
        if (code, out, err) != (0, case["stdout"], ""):
            changed.append(" ".join(case["argv"]))
    assert changed == []


def _weight_sum_without_block_sign(profiles, power_sum):
    """weights._weight_sum with (-1)^(|B|-1) dropped from every block."""
    exps = tuple(sorted(colength(p) for p in profiles))

    @cache
    def over(rest):
        if not rest:
            return 1
        others = rest[1:]
        total = 0
        for size in range(len(others) + 1):
            for chosen in combinations(range(len(others)), size):
                left = tuple(e for i, e in enumerate(others) if i not in chosen)
                total += power_sum(sum(rest) - sum(left)) * factorial(size) * over(left)
        return total

    return F(over(exps), factorial(len(exps)))


def test_verify_weights_negative_control(capsys, monkeypatch):
    argv = ["verify", "--suite", "weights", "--gen", "quantum", "--q", "1/2"]
    assert run(argv) == 0
    capture(capsys)
    monkeypatch.setattr(weights, "_weight_sum", _weight_sum_without_block_sign)
    assert weights.quantum_weight_factor(F(1, 2), [(2,), (2,)]) == F(4, 3)  # not 8/3
    code = run(argv)
    out, _ = capture(capsys)
    assert code == 1
    # both sides of the tail comparison share the mutant; the ordered sums do not
    tail, ordered, summary = out.splitlines()
    assert tail.startswith("PASS quantum closed form vs truncated dual weight factor")
    assert ordered == ("FAIL quantum closed form = prefix sums over all orderings: "
                       "27 profile multisets, N <= 4, d <= 4")
    assert summary == "FAILURES: 1"


@pytest.mark.parametrize("q", ["2/3", "-7/10", "9/10"])
def test_verify_weights_tail_passes_for_larger_q(capsys, q):
    # at these q a 61-term cut of the dual factor already misses more than 2^-40
    assert run(["verify", "--suite", "weights", "--gen", "quantum", f"--q={q}", "--m", "40"]) == 0
    out, _ = capture(capsys)
    assert out.startswith("PASS quantum closed form vs truncated dual weight factor")


def test_verify_weights_quantum_cut_budget(capsys):
    # q = 99/100 needs a 5696-term cut; the check stops building it at 1024
    start = time.perf_counter()
    code = run(["verify", "--suite", "weights", "--gen", "quantum", "--q=99/100", "--m", "40"])
    elapsed = time.perf_counter() - start
    out, err = capture(capsys)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "scale-guard"
    assert "1024 terms" in payload["message"]
    assert elapsed < 5


@pytest.mark.parametrize("n", [1, 0, -3])
def test_verify_hurwitz_empty_range_skips(capsys, n):
    assert run(["verify", "--suite", "hurwitz", "--n", str(n)]) == 0
    out, _ = capture(capsys)
    assert out == ("SKIP character sum = factorization oracle: "
                   f"no sheet count N in the empty range 2..{n}\nALL CHECKS PASSED\n")


@pytest.mark.parametrize("kmax", [1, 0, -3])
def test_verify_analytic_empty_range_skips(capsys, kmax):
    assert run(["verify", "--suite", "analytic", "--kmax", str(kmax)]) == 0
    lines = capture(capsys)[0].splitlines()
    skips = [f"SKIP recursion identity: no k in the empty range 2..{kmax}"]
    if kmax < 1:
        skips.append(f"SKIP spectral identity: no k in the empty range 1..{kmax}")
    assert lines[:len(skips)] == skips
    # the spectral k = 1 check still runs when only the recursion range is empty
    assert ("PASS spectral identity k=1" in "\n".join(lines)) == (kmax == 1)
    assert lines[-1] == "ALL CHECKS PASSED"


@pytest.fixture
def weighed_configs_cleared_after():
    """No weight a test patched in outlives it in the weighed-configuration cache."""
    yield
    weights._weighed_configs.cache_clear()


def test_verify_tau_rational_weight_negative_control(capsys, monkeypatch,
                                                     weighed_configs_cleared_after):
    # the series route builds G from series products, the direct route from
    # the power sums; a wrong sign on the d power sum must show as FAIL
    argv = ["verify", "--suite", "tau", "--gen", "rational", "--c", "1", "--d=1/3"]
    assert run(argv) == 0
    capture(capsys)

    def flipped(c, d, profiles):
        return weights._weight_sum(
            profiles, lambda m: sum(F(x) ** m for x in c) + sum((-F(x)) ** m for x in d))

    monkeypatch.setattr(weights, "rational_weight_factor", flipped)
    # the warm run above cached its weighed configurations with the real factor
    weights._weighed_configs.cache_clear()
    code = run(argv)
    out, _ = capture(capsys)
    assert code == 1
    assert out.startswith("FAIL series coefficients = direct weighted counts")


@pytest.mark.parametrize("argv", [
    ["chartable", "--n=--"],
    ["weighted", "--deg=--", "--mu", "[2]"],
    ["weighted", "--deg", "1", "--mu=--"],
    ["weighted", "--gen=--", "--deg", "1", "--mu", "[2]"],
    ["tau-coeffs", "--out=--"],
    ["weighted", "--gen", "finite", "--c=--", "--deg", "1", "--mu", "[2]"],
    ["verify", "--suite=--"],
], ids=lambda argv: " ".join(argv))
def test_double_dash_flag_value_is_a_usage_error(capsys, argv):
    # before Python 3.13, argparse stores --flag=-- as [] and skips type= and
    # choices=; the error code differs by version, the ending does not
    code = run(argv)
    out, err = capture(capsys)
    assert (code, out) == (2, "")
    assert set(json.loads(err)) == {"error", "message"}


# every value any flag may draw, on top of its own good ones
_BAD_VALUES = ["--", "", "1/0", "[0]", "[2", "²"]


def _ints(cap):
    return [str(i) for i in range(-1, cap + 1)]


_GEN_VALUES = {"--gen": ["trivial", "finite", "rational", "quantum", "nosuch"],
               "--c": ["1", "2/3,-5/7", "-1"], "--d": ["1/3", "-1/3"],
               "--q": ["1/2", "-7/10", "99/100"]}
_PARTITIONS = ["[1]", "[2]", "[1,1]", "[2,1]", "[3]", "[2,2]"]
# per subcommand, each flag and its good values (None for a switch), --gen first
_ARGV_FLAGS = {
    "hurwitz": {"--n": _ints(4), "--profiles": ["[2],[2]", "[2,1],[3],[1,1,1]", "[1]"],
                "--oracle": None},
    "weighted": {**_GEN_VALUES, "--deg": _ints(3), "--mu": _PARTITIONS,
                 "--nu": _PARTITIONS, "--trace": None},
    "tau-coeffs": {**_GEN_VALUES, "--order": _ints(4), "--nmax": _ints(2),
                   "--out": ["csv", "json", "xml"]},
    "chartable": {"--n": _ints(4)},
    "phi": {**_GEN_VALUES, "--beta": ["1/5", "1", "-1/3", "0"], "--k": _ints(3),
            "--order": _ints(4), "--m": _ints(4)},
    "verify": {**_GEN_VALUES, "--suite": ["hurwitz", "weights", "tau", "analytic", "all",
                                          "nosuch"],
               "--beta": ["1/5", "1", "-1/3", "0"], "--kmax": _ints(2), "--order": _ints(4),
               "--nmax": _ints(2), "--n": _ints(4), "--m": _ints(4)},
}
# always given: the size flags, so that no default makes a run large, and
# the flags most subcommands require
_ALWAYS = {"--n", "--nmax", "--order", "--deg", "--kmax", "--k", "--profiles", "--mu",
           "--beta"}


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(sorted(_ARGV_FLAGS)))
    argv = [command]
    gen = "trivial"
    for flag, good in _ARGV_FLAGS[command].items():
        if flag in _ALWAYS:
            present = True
        elif flag in ("--c", "--d", "--q", "--m") and flag[2:] not in cli._GEN_FLAGS.get(gen, ()):
            present = draw(st.integers(0, 9)) == 0  # a flag of another family, now and then
        else:
            present = draw(st.booleans())
        if not present:
            continue
        if good is None:
            argv.append(flag)
            continue
        value = draw(st.sampled_from(_BAD_VALUES if draw(st.integers(0, 9)) == 0 else good))
        if flag == "--gen":
            gen = value
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=_cli_argv())
def test_every_argv_ends_in_a_result_a_fail_line_or_a_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert set(json.loads(err.getvalue())) == {"error", "message"}, argv
