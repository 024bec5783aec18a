"""Command-line interface: exit codes, output text, and argument parsing."""

import json
from fractions import Fraction

import pytest

from finsum import cli
from finsum.cli import UsageError, main, parse_grid
from finsum.field import HalfInt


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


class TestParseGrid:
    def test_ranges_and_lists(self):
        assert parse_grid("1,2,5/2") == [HalfInt(2), HalfInt(4), HalfInt(5)]
        assert parse_grid("0..2") == [HalfInt(0), HalfInt(2), HalfInt(4)]
        assert parse_grid("1..2:1/2") == [HalfInt(2), HalfInt(3), HalfInt(4)]
        assert parse_grid("-1..0") == [HalfInt(-2), HalfInt(0)]

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

    def test_usage_errors_exit_2(self, capsys):
        assert run(capsys, "eval", "1 +")[0] == 2          # syntax
        assert run(capsys, "eval", "H(n)")[0] == 2         # unbound
        assert run(capsys, "eval", "H(n)", "--bind", "n=-2")[0] == 2  # pole
        assert run(capsys, "eval", "1/n", "--bind", "n=0")[0] == 2    # div zero
        assert run(capsys, "eval", "1", "--bind", "q=1")[0] == 2      # bad var
        assert run(capsys, "nosuchcommand")[0] == 2

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

    def test_bad_document_exits_3(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(capsys, "verify", str(path))[0] == 3
        path2 = write(tmp_path, {"name": "x"}, "missing.json")
        assert run(capsys, "verify", path2)[0] == 3

    def test_malformed_entry_fields_exit_3(self, capsys, tmp_path):
        bad_witness = dict(GOOD_CLOSED, status="disputed", witness={"n": 1, "rhs": "0"})
        for doc in (dict(GOOD_CLOSED, n="bad"), bad_witness):
            code, _, err = run(capsys, "verify", write(tmp_path, doc))
            assert code == 3
            assert "Traceback" not in err

    def test_inadmissible_parameters_exit_2(self, capsys, tmp_path):
        path = write(tmp_path, GOOD_CLOSED)
        assert run(capsys, "verify", path, "--s", "0")[0] == 2
        assert run(capsys, "verify", path, "--r", "-2")[0] == 2
        assert run(capsys, "verify", path, "--s", "-1")[0] == 2

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

    def test_central_uv_needs_params(self, capsys, tmp_path):
        path = write(tmp_path, PLUS_T)
        assert run(capsys, "transform", path, "--op", "central_uv")[0] == 2
        assert run(capsys, "transform", path, "--op", "central_uv",
                   "--u", "1/2", "--v", "0")[0] == 2
        code, out, _ = run(capsys, "transform", path, "--op", "central_uv",
                           "--u", "1", "--v", "0", "--check", "--n", "0..5")
        assert code == 0
        assert "check: equal" in out

    def test_unknown_op_exits_2(self, capsys, tmp_path):
        path = write(tmp_path, STANDARD)
        assert run(capsys, "transform", path, "--op", "gamma")[0] == 2

    def test_dds_without_beta_exits_4(self, capsys, tmp_path):
        path = write(tmp_path, STANDARD)
        assert run(capsys, "transform", path, "--op", "dds")[0] == 4


class TestCorpusCommand:
    def test_run_subset(self, capsys):
        code, out, _ = run(capsys, "corpus", "run",
                           "--name", "binomial-theorem",
                           "--name", "alt-recip-shift", "--jobs", "2")
        assert code == 0
        assert "2 entries, 0 mismatched" in out

    def test_status_filter(self, capsys):
        code, out, _ = run(capsys, "corpus", "run",
                           "--status", "erratum_claimed")
        assert code == 0
        assert "expected=unequal actual=unequal" in out

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
