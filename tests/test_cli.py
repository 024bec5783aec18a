"""Command-line interface: exit codes, output text, and argument parsing."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from finsum import cli, corpus, dsl, errors
from finsum.cli import UsageError, main, parse_grid
from finsum.errors import (ArityError, DivisionByZero, DslSyntaxError, EvalTypeError,
                           FinsumError, FormatError, NegativeExponent, PoleError,
                           ShapeError, UnboundVariable)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOOD_CLOSED = {
    "name": "alt-binom-basic",
    "status": "verified",
    "lhs": {"kind": "closed", "sums": [
        {"coeff": "sign(k)*binom(n, k)/(k + 1)", "lower": "0", "upper": "n"}]},
    "rhs": {"kind": "closed", "expr": "1/(n + 1)"},
    "n": [0, 8],
}

STANDARD = {
    "name": "binomial-theorem-basic",
    "status": "verified",
    "lhs": {"kind": "standard", "terms": [
        {"coeff": "binom(n, k)", "t_exp": [1, 0, 0],
         "base": "1-t", "base_exp": [-1, 1, 0], "lower": "0", "upper": "n"}]},
    "rhs": {"kind": "standard", "terms": [{"coeff": "1"}]},
    "n": [0, 8],
}

PLUS_T = {
    "name": "plus-t-seed",
    "status": "verified",
    "lhs": {"kind": "standard", "terms": [
        {"coeff": "kron(n, k)", "base": "1+t", "base_exp": [1, 0, 0],
         "lower": "0", "upper": "n"}]},
    "rhs": {"kind": "standard", "terms": [
        {"coeff": "binom(n, k)", "t_exp": [1, 0, 0], "lower": "0", "upper": "n"}]},
    "n": [0, 8],
}


def write(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


EXIT_CODES = [
    (FinsumError, 1),
    (NegativeExponent, 2), (PoleError, 2), (DivisionByZero, 2), (EvalTypeError, 2), (UnboundVariable, 2),
    (DslSyntaxError, 2), (ArityError, 2), (UsageError, 2),
    (FormatError, 3), (ShapeError, 4),
]


class TestExitCodes:
    def test_table_covers_every_error_class(self):
        classes = {c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, FinsumError)}
        assert classes | {UsageError} == {c for c, _ in EXIT_CODES}

    @pytest.mark.parametrize("error, code", EXIT_CODES, ids=[c.__name__ for c, _ in EXIT_CODES])
    def test_error_ends_a_command_with_its_code(self, capsys, monkeypatch, error, code):
        def fail(args):
            raise error("boom", 0) if error is DslSyntaxError else error("boom")

        monkeypatch.setattr(cli, "cmd_eval", fail)
        assert error.exit_code == code
        got, out, err = run(capsys, "eval", "1")
        assert got == code
        assert out == ""
        assert err.startswith("error: boom")


class TestParseGrid:
    def test_ranges_and_lists(self):
        def typed(values):
            return [(v, type(v)) for v in values]
        half_ = Fraction(3, 2)
        assert typed(parse_grid("1,2,5/2")) == [(1, int), (2, int), (Fraction(5, 2), Fraction)]
        assert typed(parse_grid("0..2")) == [(0, int), (1, int), (2, int)]
        assert typed(parse_grid("1..2:1/2")) == [(1, int), (half_, Fraction), (2, int)]
        assert typed(parse_grid("-1..0")) == [(-1, int), (0, int)]

    def test_rejections(self):
        with pytest.raises(UsageError):
            parse_grid("0..2:2")
        with pytest.raises(UsageError):
            parse_grid("x")
        with pytest.raises(UsageError):
            parse_grid("1/3")
        # range bounds and steps are read as half-integers too
        for text in ("0..x", "1/0", "0..2:1/0", "0..1/3", "x..2", "0..2:1/4"):
            with pytest.raises(UsageError):
                parse_grid(text)


class TestEval:
    def test_exact_output(self, capsys):
        code, out, _ = run(capsys, "eval", "H(5/2)")
        assert code == 0
        assert out.strip() == "46/15 - 2*L"

    def test_bindings(self, capsys):
        code, out, _ = run(capsys, "eval",
                           "sum(k,0,n,sign(k)*binom(n,k)/(k+1))", "--bind", "n=4")
        assert code == 0
        assert out.strip() == "1/5"

    def test_half_binding(self, capsys):
        code, out, _ = run(capsys, "eval", "binom(n, 2)", "--bind", "n=5/2")
        assert code == 0
        assert out.strip() == "15/8"

    def test_float_flag(self, capsys):
        code, out, _ = run(capsys, "eval", "H(1/2)", "--float")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "2 - 2*L"
        assert abs(float(lines[1]) - 0.6137056388801094) < 1e-12

    def test_precision_without_float_exits_2(self, capsys):
        assert run(capsys, "eval", "1/2", "--precision", "50") == (
            2, "", "error: --precision applies only with --float\n")
        code, out, _ = run(capsys, "eval", "1/2", "--precision", "50", "--float")
        assert code == 0 and out.splitlines()[0] == "1/2"

    @pytest.mark.parametrize("precision", ["5", "9", "0", "-3"])
    def test_low_precision_exits_2_before_any_output(self, capsys, precision):
        assert run(capsys, "eval", "1/2", "--float", "--precision", precision) == (
            2, "", f"error: --precision must be at least 10, got {precision}\n")
        code, out, _ = run(capsys, "eval", "1/2", "--float", "--precision", "10")
        assert code == 0 and out.splitlines()[0] == "1/2"

    def test_usage_errors_exit_2(self, capsys):
        assert run(capsys, "eval", "1 +")[0] == 2          # syntax
        assert run(capsys, "eval", "H(n)")[0] == 2         # unbound
        assert run(capsys, "eval", "H(n)", "--bind", "n=-2")[0] == 2  # pole
        assert run(capsys, "eval", "1/n", "--bind", "n=0")[0] == 2    # div zero
        assert run(capsys, "eval", "1", "--bind", "q=1")[0] == 2      # bad var
        assert run(capsys, "nosuchcommand")[0] == 2

    @pytest.mark.parametrize("argv", [["-(1)"], ["-k", "--bind", "k=1"], ["--bind", "k=1", "-k"]])
    def test_expression_starting_with_minus(self, capsys, argv):
        assert run(capsys, "eval", *argv) == (0, "-1\n", "")

    def test_unknown_option_still_exits_2(self, capsys):
        code, out, err = run(capsys, "eval", "--bogus", "1")
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == "finsum: error: unrecognized arguments: --bogus"
        assert run(capsys, "eval", "-k", "-n", "--bind", "k=1")[0] == 2
        assert run(capsys, "eval")[0] == 2

    @pytest.mark.parametrize("expr, message", [
        ("Hm(-1,2)", "Hm(-1, 2) needs n >= 0 and m >= 1"),
        ("Hm(2,0)", "Hm(2, 0) needs n >= 0 and m >= 1"),
        ("O(-2)", "O(-2) needs n >= 0"),
        ("Om(1,0)", "Om(1, 0) needs n >= 0 and m >= 1"),
    ])
    def test_harmonic_argument_errors_name_the_dsl_function(self, capsys, expr, message):
        assert run(capsys, "eval", expr) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("expr", ["binom(1)", "sum(k,0)"])
    def test_arity_error_exits_2(self, capsys, expr):
        code, out, err = run(capsys, "eval", expr)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "argument" in err

    @pytest.mark.parametrize("nest, depth", [
        (lambda d: "(" * d + "1" + ")" * d, 200),
        (lambda d: "1^" * d + "1", 600),
        (lambda d: "0 + " + "-" * d + "1", 600),
        (lambda d: "H(" * d + "1" + ")" * d, 200),
    ], ids=["parentheses", "power", "unary-minus", "call-arguments"])
    def test_deep_nesting_exits_2(self, capsys, nest, depth):
        assert dsl.MAX_DEPTH == 100
        code, out, err = run(capsys, "eval", nest(depth))
        assert code == 2
        assert out == ""
        assert err.startswith("error: expression nests more than 100 levels deep")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert run(capsys, "eval", nest(101))[0] == 2
        assert run(capsys, "eval", nest(100))[:2] == (0, "1\n")

    def test_numeric_t(self, capsys):
        # bound to a number, t is a scalar and U(...) stays a usage error
        code, out, err = run(capsys, "eval", "U(2)", "--bind", "t=1/2")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: U(...) is only meaningful in polynomial context"]
        code, out, _ = run(capsys, "eval", "t^2+1", "--bind", "t=1/2")
        assert code == 0
        assert out.strip() == "5/4"

    def test_too_long_to_print_exits_2(self, capsys):
        # a result past the interpreter's int-to-str digit limit
        code, out, err = run(capsys, "eval", "2^(10^6)")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: an integer of 1000001 bits is too long to print in decimal"]

    def test_long_flat_chains(self, capsys):
        # a flat chain of + or * runs as one loop, not 3,000 nested calls
        code, out, _ = run(capsys, "eval", "+".join(["1"] * 3000))
        assert code == 0
        assert out.strip() == "3000"
        code, out, _ = run(capsys, "eval", "*".join(["k"] * 3000), "--bind", "k=1")
        assert code == 0
        assert out.strip() == "1"

    def test_long_flat_mixed_product(self, capsys):
        # 5,000 operands of * and / run as one product, and the message of a
        # zero divisor renders the whole chain by one loop
        chain = "k" + "".join("/k*r" if i % 2 else "*k/r" for i in range(2499))   # k*k/r
        assert chain.count("k") + chain.count("r") == 4999
        code, out, _ = run(capsys, "eval", chain + "*r", "--bind", "k=3", "--bind", "r=1/2")
        assert (code, out) == (0, "9\n")
        code, out, err = run(capsys, "eval", chain + "/(k-k)", "--bind", "k=3", "--bind", "r=1/2")
        assert (code, out) == (2, "")
        assert err.startswith("error: division by zero in k*k/r/k*r*k/r") and err.endswith("*k/r/(k - k)\n")

    @pytest.mark.parametrize("binding", ["k=x", "k=1/0", "k=1/3"])
    def test_bad_binding_text_exits_2(self, capsys, binding):
        code, out, err = run(capsys, "eval", "1", "--bind", binding)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_long_chain_in_an_error_message(self, capsys):
        # the message renders the whole 3,000-term numerator by one loop
        code, out, err = run(capsys, "eval", "(" + "+".join(["1"] * 3000) + ")/(k-k)",
                             "--bind", "k=1")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: division by zero in (1 + 1 + ")

    def test_too_long_literal_exits_2(self, capsys):
        code, out, err = run(capsys, "eval", "1 + " + "7" * 5000)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: integer literal of 5000 digits is too long at offset 4"]


class TestVerify:
    def test_matching_entry_exits_0(self, capsys, tmp_path):
        path = write(tmp_path, GOOD_CLOSED)
        code, out, _ = run(capsys, "verify", path)
        assert code == 0
        assert "ok " in out and "1 entry, 0 mismatched" in out

    def test_mismatch_exits_1(self, capsys, tmp_path):
        doc = dict(GOOD_CLOSED)
        doc["rhs"] = {"kind": "closed", "expr": "2/(n + 1)"}
        path = write(tmp_path, doc)
        code, out, _ = run(capsys, "verify", path)
        assert code == 1
        assert "FAIL" in out

    def test_json_format(self, capsys, tmp_path):
        path = write(tmp_path, GOOD_CLOSED)
        code, out, _ = run(capsys, "verify", path, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data[0]["name"] == "alt-binom-basic"
        assert data[0]["matched"] is True

    def test_deeply_nested_document_exits_2(self, capsys, tmp_path):
        doc = dict(GOOD_CLOSED, rhs={"kind": "closed", "expr": "(" * 200 + "1" + ")" * 200})
        code, out, err = run(capsys, "verify", write(tmp_path, doc))
        assert code == 2
        assert out == ""
        assert err.startswith("error: expression nests more than 100 levels deep")
        assert "Traceback" not in err

    def test_bad_document_exits_3(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(capsys, "verify", str(path))[0] == 3
        path2 = write(tmp_path, {"name": "x"}, "missing.json")
        assert run(capsys, "verify", path2)[0] == 3

    def test_malformed_entry_fields_exit_3(self, capsys, tmp_path):
        bad_witness = dict(GOOD_CLOSED, status="disputed", witness={"n": 1, "rhs": "0"})
        zero_witness = dict(bad_witness, witness={"n": 1, "lhs": "1/0", "rhs": "0"})
        poly_witness = {"name": "poly-claim", "status": "disputed",
                        "lhs": {"kind": "poly", "expr": "t"}, "rhs": {"kind": "poly", "expr": "2*t"},
                        "witness": {"n": 0, "lhs": "1", "rhs": "2"}}
        reads_r = dict(GOOD_CLOSED, rhs={"kind": "closed", "expr": "r"})  # and has no grid
        reads_k = dict(GOOD_CLOSED, rhs={"kind": "closed", "expr": "k+1"})  # k is bound by no sum
        for doc in (dict(GOOD_CLOSED, n="bad"), bad_witness, zero_witness, poly_witness, reads_r,
                    reads_k):
            code, _, err = run(capsys, "verify", write(tmp_path, doc))
            assert code == 3
            assert "Traceback" not in err
        assert err == "error: alt-binom-basic: standalone expression reads k outside a sum\n"

    def test_inadmissible_parameters_exit_2(self, capsys, tmp_path):
        path = write(tmp_path, GOOD_CLOSED)
        assert run(capsys, "verify", path, "--s", "0")[0] == 2
        assert run(capsys, "verify", path, "--r", "-2")[0] == 2
        assert run(capsys, "verify", path, "--s", "-1")[0] == 2

    @pytest.mark.parametrize("grid, unbound", [
        (["--r", "1"], "s"), (["--s", "1"], "r"), (["--u", "1"], "r, s")])
    def test_grid_leaving_a_read_parameter_unbound_exits_2(self, capsys, tmp_path, grid, unbound):
        # refused before any entry runs, including an earlier path that reads no grid
        closed = write(tmp_path, GOOD_CLOSED)
        path = str(corpus.DEFAULT_DIR / "dattoli-rs.json")
        assert run(capsys, "verify", closed, path, *grid, "--n", "0..2") == (
            2, "", f"error: dattoli-rs: the command-line grid leaves {unbound} unbound\n")

    @pytest.mark.parametrize("flags", [
        ("--n", "0..x"), ("--n", "1/0"), ("--n", "0..2:1/0"), ("--n", "0..1/3"),
        ("--r", "x"), ("--s", "1..1/0"),
    ])
    def test_bad_grid_text_exits_2(self, capsys, tmp_path, flags):
        code, out, err = run(capsys, "verify", write(tmp_path, GOOD_CLOSED), *flags)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_long_flat_closed_expression(self, capsys, tmp_path):
        doc = {"name": "flat-sum", "status": "verified", "n": [0, 2],
               "lhs": {"kind": "closed", "expr": "+".join(["1"] * 3000)},
               "rhs": {"kind": "closed", "expr": "3000"}}
        code, out, _ = run(capsys, "verify", write(tmp_path, doc))
        assert code == 0
        assert "flat-sum expected=equal actual=equal" in out

    def test_n_override(self, capsys, tmp_path):
        path = write(tmp_path, GOOD_CLOSED)
        code, out, _ = run(capsys, "verify", path, "--n", "0..3")
        assert code == 0

    def test_n_list_checks_exactly_those_values(self, capsys, tmp_path, monkeypatch):
        seen = []
        run_entry = cli.corpus.run_entry

        def spy(entry):
            seen.append(entry.n_values)
            return run_entry(entry)

        monkeypatch.setattr(cli.corpus, "run_entry", spy)
        path = write(tmp_path, GOOD_CLOSED)
        assert run(capsys, "verify", path, "--n", "1,2,5")[0] == 0
        assert seen == [(1, 2, 5)]

    @pytest.mark.parametrize("doc", [
        dict(GOOD_CLOSED, lhs={"kind": "closed", "expr": "1"}, rhs={"kind": "closed", "expr": "2"},
             n=[3, 1]),
        dict(GOOD_CLOSED, lhs={"kind": "closed", "expr": "1"}, rhs={"kind": "closed", "expr": "2"},
             n=[0, 0], parity="odd"),
        dict(STANDARD, lhs={"kind": "poly", "expr": "t"}, rhs={"kind": "poly", "expr": "t^2"},
             n=[3, 1]),
        dict(GOOD_CLOSED, lhs={"kind": "closed", "expr": "r"}, rhs={"kind": "closed", "expr": "s"},
             grid={"r": ["1"], "s": ["2"]}),
    ], ids=["empty-n-range", "parity-leaves-none", "poly-empty-n-range", "only-pair-inadmissible"])
    def test_document_without_a_point_exits_3(self, capsys, tmp_path, doc):
        code, out, err = run(capsys, "verify", write(tmp_path, doc))
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "leaves no" in err

    def test_misspelt_parity_exits_3(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", write(tmp_path, dict(GOOD_CLOSED, parity="evn")))
        assert (code, out) == (3, "")
        assert err == "error: alt-binom-basic: 'parity' must be \"even\" or \"odd\", not 'evn'\n"

    @pytest.mark.parametrize("entry, flags, message", [
        ("dattoli-rs.json", ["--r", "1", "--s", "2"], "no admissible (r, s) point"),
        ("binomial-theorem.json", ["--r", "1/2", "--n", "0..2"], "reads no grid (--r)"),
    ], ids=["grid-leaves-no-point", "grid-for-a-polynomial-entry"])
    def test_command_line_that_checks_nothing_exits_2(self, capsys, entry, flags, message):
        code, out, err = run(capsys, "verify", str(corpus.DEFAULT_DIR / entry), *flags)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err

    def test_negative_t_exponent_exits_2(self, capsys, tmp_path):
        # exit 1 would read as a mismatch
        doc = dict(STANDARD, lhs={"kind": "standard", "terms": [{"coeff": "1", "t_exp": [1, 0, -1]}]})
        code, out, err = run(capsys, "verify", write(tmp_path, doc))
        assert (code, out, err) == (2, "", "error: t^-1 at k=0, n=0\n")

    def test_unknown_flags_exit_2(self, capsys, tmp_path):
        path = write(tmp_path, GOOD_CLOSED)
        assert run(capsys, "verify", path, "--jobs", "2")[0] == 2
        path = write(tmp_path, STANDARD)
        assert run(capsys, "transform", path, "--op", "beta", "--format", "json")[0] == 2


class TestTransform:
    def test_beta_prints_weights(self, capsys, tmp_path):
        path = write(tmp_path, STANDARD)
        code, out, _ = run(capsys, "transform", path, "--op", "beta")
        assert code == 0
        assert "beta_transform(binomial-theorem-basic)" in out
        assert "1/binom(k + r, k + s)" not in out  # this seed has b = n - k
        assert "1/binom(n + r, k + s)" in out
        assert "1/(k + s)" in out

    def test_beta_check_exits_0(self, capsys, tmp_path):
        path = write(tmp_path, STANDARD)
        code, out, _ = run(capsys, "transform", path, "--op", "beta",
                           "--check", "--n", "0..6")
        assert code == 0
        assert "check: equal" in out

    def test_chained_derivative_check(self, capsys, tmp_path):
        path = write(tmp_path, STANDARD)
        code, out, _ = run(capsys, "transform", path, "--op", "beta,dds",
                           "--check", "--n", "0..5",
                           "--r", "1,2", "--s", "1,2")
        assert code == 0
        assert "d/ds(beta_transform(binomial-theorem-basic))" in out
        assert "H(" in out  # harmonic bracket rendered

    def test_failing_check_prints_points(self, capsys, tmp_path):
        # a false seed (rhs 2, not 1) whose lhs is undefined at n = 1
        doc = dict(STANDARD, name="false-seed", rhs={"kind": "standard", "terms": [{"coeff": "2"}]})
        doc["lhs"] = {"kind": "standard", "terms": [
            dict(STANDARD["lhs"]["terms"][0], coeff="binom(n, k)*(n - 1)/(n - 1)")]}
        path = write(tmp_path, doc)
        code, out, _ = run(capsys, "transform", path, "--op", "beta", "--check", "--n", "0..3")
        assert code == 1
        assert out.splitlines()[-3:] == [
            "check: NOT equal over n=0..3, 14 grid point(s)",
            "  first failure at (n=0, r=1/2, s=1/2): 2 vs 4",
            "  undefined at (n=1, r=1/2, s=1/2): division by zero in binom(n, k)*(n - 1)/(n - 1)",
        ]
        code, out, _ = run(capsys, "transform", path, "--op", "beta", "--check", "--n", "0..3",
                           "--r", "1", "--s", "1")
        assert code == 1
        assert out.splitlines()[-2:] == [
            "  first failure at (n=0, r=1, s=1): 1 vs 2",
            "  undefined at (n=1, r=1, s=1): division by zero in binom(n, k)*(n - 1)/(n - 1)",
        ]

    def test_unflipped_base_exits_4_with_hint(self, capsys, tmp_path):
        path = write(tmp_path, PLUS_T)
        code, _, err = run(capsys, "transform", path, "--op", "beta")
        assert code == 4
        assert "--negate-t" in err

    def test_negate_t_fixes_it(self, capsys, tmp_path):
        path = write(tmp_path, PLUS_T)
        code, out, _ = run(capsys, "transform", path, "--op", "beta",
                           "--negate-t", "--check", "--n", "0..5")
        assert code == 0
        assert "check: equal" in out

    def test_central_v(self, capsys, tmp_path):
        path = write(tmp_path, PLUS_T)
        code, out, _ = run(capsys, "transform", path, "--op", "central_v",
                           "--v", "1", "--check", "--n", "0..6")
        assert code == 0
        assert "central_v(plus-t-seed, v=1)" in out
        assert "central_v_dual(plus-t-seed, v=1)" in out
        assert out.count("check: equal") == 2

    def test_central_v_of_a_long_flat_coefficient(self, capsys, tmp_path):
        # doubling k in a 1,500-term f loops down its chain, not 1,500 calls deep
        f = " + ".join(["kron(n, k)"] + ["0"] * 1499)
        doc = dict(PLUS_T, name="long-f", lhs={"kind": "standard", "terms": [
            dict(PLUS_T["lhs"]["terms"][0], coeff=f)]})
        code, out, _ = run(capsys, "transform", write(tmp_path, doc), "--op", "central_v",
                           "--v", "0", "--check", "--n", "0..3")
        assert code == 0
        tail = " + 0" * 1499
        weight = "(1/2^k) * binom(2*k, k) * 1/binom(k, 0)"
        dual_weight = "(1/2^(2*k)) * binom(2*k, k) * 1/binom(k, 0)"
        half_range = "k=floor((0 + 1)/2)..floor(n/2)"
        check = "check: equal over n=0..3, 1 grid point(s)"
        assert out.splitlines() == [
            "# central_v(long-f, v=0)",
            f"lhs: sum(k=0..n) (kron(n, k){tail})*{weight}",
            f"rhs: sum({half_range}) binom(n, 2*k)*{dual_weight}",
            check,
            "# central_v_dual(long-f, v=0)",
            f"lhs: sum(k=0..n) sign(k)*binom(n, k)*{weight}",
            f"rhs: sum({half_range}) (kron(n, 2*k){tail})*{dual_weight}",
            check,
        ]

    def test_central_uv_needs_params(self, capsys, tmp_path):
        path = write(tmp_path, PLUS_T)
        assert run(capsys, "transform", path, "--op", "central_uv")[0] == 2
        assert run(capsys, "transform", path, "--op", "central_uv",
                   "--u", "1/2", "--v", "0")[0] == 2
        code, out, _ = run(capsys, "transform", path, "--op", "central_uv",
                           "--u", "1", "--v", "0", "--check", "--n", "0..5")
        assert code == 0
        assert "check: equal" in out

    @pytest.mark.parametrize("grid, unbound", [(["--r", "1"], "s"), (["--v", "1"], "r")])
    def test_check_on_a_grid_without_r_or_s_exits_2(self, capsys, tmp_path, grid, unbound):
        path = write(tmp_path, STANDARD)
        code, _, err = run(capsys, "transform", path, "--op", "beta", "--check", *grid)
        assert code == 2
        assert err.splitlines() == [f"error: variable {unbound!r} is unbound"]

    @pytest.mark.parametrize("op, grid, unbound", [
        ("beta", ["--u", "1"], "r"), ("beta", ["--r", "1", "--v", "1"], "s"),
        ("beta,ddr", ["--s", "1"], "r")])
    def test_grid_leaving_a_read_parameter_unbound_prints_nothing(self, capsys, tmp_path,
                                                                  op, grid, unbound):
        # refused before any output, not after the transform is printed
        path = write(tmp_path, STANDARD)
        assert run(capsys, "transform", path, "--op", op, "--check", *grid) == (
            2, "", f"error: variable {unbound!r} is unbound\n")

    @pytest.mark.parametrize("argv, message", [
        (["--op", "beta", "--check", "--r", "1", "--s", "2"],
         "the grid leaves no admissible (r, s) point"),
        (["--op", "beta", "--r", "1", "--n", "0..3"], "nothing reads --n, --r without --check"),
        (["--op", "beta", "--v", "1"], "nothing reads --v without --check"),
        (["--op", "central_v", "--v", "1", "--u", "1"], "nothing reads --u without --check"),
    ], ids=["grid-leaves-no-point", "grid-without-check", "v-without-central-op",
            "u-without-central-uv"])
    def test_flags_that_nothing_reads_exit_2(self, capsys, argv, message):
        path = str(corpus.DEFAULT_DIR / "binom-harmonic-gf.json")
        code, out, err = run(capsys, "transform", path, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_central_ops_read_u_and_v_without_check(self, capsys, tmp_path):
        path = write(tmp_path, PLUS_T)
        assert run(capsys, "transform", path, "--op", "central_v", "--v", "1")[0] == 0
        assert run(capsys, "transform", path, "--op", "central_uv", "--u", "1", "--v", "0")[0] == 0

    def test_unknown_op_exits_2(self, capsys, tmp_path):
        path = write(tmp_path, STANDARD)
        assert run(capsys, "transform", path, "--op", "gamma")[0] == 2

    def test_dds_without_beta_exits_4(self, capsys, tmp_path):
        path = write(tmp_path, STANDARD)
        assert run(capsys, "transform", path, "--op", "dds")[0] == 4

    def test_loaded_display_differentiates(self, capsys):
        # its coefficients are split into factors at load, so d/dr applies
        path = str(corpus.DEFAULT_DIR / "dattoli-rs.json")
        code, out, err = run(capsys, "transform", path, "--op", "ddr", "--check", "--n", "0..3")
        assert (code, err) == (0, "")
        assert out.splitlines()[:3] == [
            "# d/dr(dattoli-rs)",
            "lhs: sum(k=0..n) binom(n, k)/(k + 2) * 1/(k + s) * 1/binom(n + r, k + s)"
            " * [-H(n + r) + H(-k + n + r - s)]",
            "rhs: sum(k=0..n) sign(k)*binom(n, k)/((k + 1)*(k + 2)) * 1/(k + s)"
            " * 1/binom(k + r, k + s) * [-H(k + r) + H(r - s)]"]
        assert out.splitlines()[3].startswith("check: equal over n=0..3")
        # a standalone expression differentiates as k-free parts after the sums
        path = str(corpus.DEFAULT_DIR / "alt-binom-harmonic-rs.json")
        code, out, err = run(capsys, "transform", path, "--op", "dds", "--check")
        assert (code, err) == (0, "")
        assert out.splitlines()[2].endswith(
            "  +  sum(k=0..0) H(n) * 1/(r - s + 1) * (-s) * 1/binom(n + r, r - s + 1)"
            " * [1/(r - s + 1) + 1/(s) - H(r - s + 1) + H(n + s - 1)]")
        assert out.splitlines()[3].startswith("check: equal over n=0..8")

    def test_coefficient_reading_r_or_s_does_not_differentiate(self, capsys, tmp_path):
        side = {"kind": "closed", "sums": [
            {"coeff": "s^2*binom(n,k)*rbinom(n+r,k+s)", "lower": "0", "upper": "n"}]}
        doc = {"name": "s-outside", "lhs": side, "rhs": side,
               "grid": {"r": ["1"], "s": ["1"]}}
        code, out, err = run(capsys, "transform", write(tmp_path, doc), "--op", "dds")
        assert (code, out) == (4, "")
        assert err == "error: s-outside: coefficient s^2*binom(n, k) reads s outside the factors\n"

    def test_check_of_two_empty_sides_exits_4(self, capsys):
        # both sides of this derivative are 0: --check used to report them equal
        path = str(corpus.DEFAULT_DIR / "alt-recip-shift.json")
        assert run(capsys, "transform", path, "--op", "dds", "--check") == (
            4, "", "error: d/ds(alt-recip-shift): both sides are 0,"
            " so --check has nothing to check\n")
        assert run(capsys, "transform", path, "--op", "dds") == (
            0, "# d/ds(alt-recip-shift)\nlhs: 0\nrhs: 0\n", "")


@pytest.mark.parametrize("argv, message", [
    (["verify", "dattoli-rs.json", "--r", "1/2", "--s", "1/2", "--u", "1"],
     "dattoli-rs: nothing reads --u"),
    (["verify", None, "--v", "0", "--u", "1"],
     "alt-binom-basic: nothing reads --u, --v"),
    (["transform", "kb-standard-delta.json", "--op", "central_v", "--v", "1", "--check",
      "--r", "1/2", "--u", "2"], "central_v(kb-standard-delta, v=1): nothing reads --r, --u"),
    (["transform", "kb-standard-delta.json", "--op", "central_uv", "--u", "1", "--v", "0",
      "--check", "--s", "1"], "central_uv(kb-standard-delta, u=1, v=0): nothing reads --s"),
    (["transform", "binom-harmonic-gf.json", "--op", "beta", "--check", "--r", "1", "--s", "1",
      "--u", "1"], "beta_transform(binom-harmonic-gf): nothing reads --u"),
], ids=["verify", "verify-reads-no-grid", "central-v-check", "central-uv-check", "beta-check"])
def test_grid_flag_that_nothing_reads_exits_2(capsys, tmp_path, argv, message):
    # a grid flag is never parsed and then ignored; each unread one is named
    command, name, *flags = argv
    path = str(corpus.DEFAULT_DIR / name) if name else write(tmp_path, GOOD_CLOSED)
    assert run(capsys, command, path, *flags) == (2, "", f"error: {message}\n")


PINNED_TRANSFORMS = [
    ("--op", "beta"), ("--op", "beta", "--negate-t"), ("--op", "beta,dds"),
    ("--op", "beta,ddr"), ("--op", "dds"), ("--op", "ddr"), ("--op", "central_v", "--v", "1"),
    ("--op", "central_uv", "--u", "1", "--v", "2"),
]


def transform_digests(capsys):
    """{document file name: sha256 over the exit code, stdout and stderr of
    ``finsum transform`` of that document with each of ``PINNED_TRANSFORMS``}
    for every shipped document."""
    digests = {}
    for file_name in corpus.load_manifest()["entries"]:
        digest = hashlib.sha256()
        for ops in PINNED_TRANSFORMS:
            result = run(capsys, "transform", str(corpus.DEFAULT_DIR / file_name), *ops)
            digest.update(repr((ops, *result)).encode())
        digests[file_name] = digest.hexdigest()
    return digests


def test_transform_render_is_pinned(capsys):
    """The text of every transform output, error or exit code that the
    shipped documents produce under eight transform chains (888 runs)."""
    pinned = json.loads((Path(__file__).parent / "transform_render_sha256.json").read_text())
    got = transform_digests(capsys)
    assert len(got) == 111
    assert got == pinned


class TestCorpusCommand:
    def test_run_subset(self, capsys):
        code, out, _ = run(capsys, "corpus", "run",
                           "--name", "binomial-theorem",
                           "--name", "alt-recip-shift", "--jobs", "2")
        assert code == 0
        assert "2 entries, 0 mismatched" in out

    def test_unknown_name_exits_2_before_any_entry_runs(self, capsys):
        code, out, err = run(capsys, "corpus", "run", "--name", "nope",
                             "--name", "binomial-theorem", "--name", "binomial-theorm")
        assert (code, out) == (2, "")
        assert err == "error: no corpus entry named 'binomial-theorm', 'nope'\n"
        # a known name whose status the filter excludes is no error
        code, out, err = run(capsys, "corpus", "run", "--name", "binomial-theorem",
                             "--status", "disputed")
        assert (code, out, err) == (0, "0 entries, 0 mismatched\n", "")

    @pytest.mark.parametrize("jobs", ["-3", "0"])
    def test_jobs_below_one_exits_2(self, capsys, jobs):
        code, out, err = run(capsys, "corpus", "run", "--jobs", jobs, "--name", "dattoli-r1")
        assert (code, out) == (2, "")
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"

    def test_status_filter(self, capsys):
        code, out, _ = run(capsys, "corpus", "run",
                           "--status", "erratum_claimed")
        assert code == 0
        assert "expected=unequal actual=unequal" in out

    def test_witness_at_a_pole_prints_every_row(self, capsys, tmp_path, monkeypatch):
        # the replay's PoleError used to end the run with only "error: H_-1 is a pole"
        shipped = corpus.DEFAULT_DIR / "binomial-theorem.json"
        (tmp_path / "binomial-theorem.json").write_text(shipped.read_text())
        (tmp_path / "pole.json").write_text(json.dumps({
            "name": "harmonic-pole-claim", "status": "disputed",
            "lhs": {"kind": "closed", "expr": "H(n)"}, "rhs": {"kind": "closed", "expr": "2"},
            "n": [0, 3], "witness": {"n": -1, "lhs": "0", "rhs": "2"}}))
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"entries": ["binomial-theorem.json", "pole.json"]}))
        monkeypatch.setenv("FINSUM_CORPUS_DIR", str(tmp_path))
        code, out, err = run(capsys, "corpus", "run")
        assert (code, err) == (1, "")
        rows = out.splitlines()
        assert rows[0].startswith("ok  binomial-theorem ")
        assert rows[1].startswith("FAIL harmonic-pole-claim expected=unequal actual=unequal")
        assert rows[1].endswith("(stored witness not reproduced)]")
        assert rows[2] == "2 entries, 1 mismatched"

    @pytest.mark.parametrize("manifest, entry_text, message", [
        ({"entries": ["bad.json"]}, "{not json", "corpus file bad.json: not valid JSON"),
        (["bad.json"], None, "needs a list of file names in 'entries'"),
        ({"paper_equations": []}, None, "needs a list of file names in 'entries'"),
        ({"entries": "bad.json"}, None, "needs a list of file names in 'entries'"),
        ({"entries": [], "paper_equations": ["eq.1"]}, None, "objects of strings"),
        ({"entries": [], "paper_equations": [{"label": "a", "category": 3}]}, None,
         "objects of strings"),
    ], ids=["entry-not-json", "manifest-list", "no-entries", "entries-string",
            "item-not-object", "category-not-string"])
    def test_malformed_corpus_exits_3(self, capsys, tmp_path, monkeypatch,
                                      manifest, entry_text, message):
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        if entry_text is not None:
            (tmp_path / "bad.json").write_text(entry_text)
        monkeypatch.setenv("FINSUM_CORPUS_DIR", str(tmp_path))
        code, out, err = run(capsys, "corpus", "run")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert message in err


class TestModuleEntry:
    def test_python_m_finsum_runs_the_cli(self):
        import finsum
        src = str(Path(finsum.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "finsum", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: finsum ")
        assert "{verify,transform,corpus,eval}" in done.stdout
