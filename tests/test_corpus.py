"""Corpus loading, grid construction, verdict matching, witness replay, and
the coverage checklist."""

import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from finsum import cli, corpus
from finsum.beta import PointResult
from finsum.corpus import (_document_grid, check_coverage, corpus_dir, grid_points,
                           load_entries, load_entry, load_manifest, parse_half,
                           run_corpus, run_entry)
from finsum.errors import FormatError
from finsum.field import SymConst


GOOD_CLOSED = {
    "name": "alt-binom-basic",
    "status": "verified",
    "lhs": {"kind": "closed", "sums": [
        {"coeff": "sign(k)*binom(n, k)/(k + 1)", "lower": "0", "upper": "n"}]},
    "rhs": {"kind": "closed", "expr": "1/(n + 1)"},
    "n": [0, 8],
}

BAD_CLOSED = {
    "name": "alt-binom-off-by-sign",
    "status": "disputed",
    "lhs": {"kind": "closed", "sums": [
        {"coeff": "sign(k)*binom(n, k)/(k + 1)", "lower": "0", "upper": "n"}]},
    "rhs": {"kind": "closed", "expr": "-1/(n + 1)"},
    "n": [1, 8],
    "witness": {"n": 1, "lhs": "1/2", "rhs": "-1/2"},
}

POLE_WITNESS = {
    "name": "harmonic-pole-claim",
    "status": "disputed",
    "lhs": {"kind": "closed", "expr": "H(n)"},
    "rhs": {"kind": "closed", "expr": "2"},
    "n": [0, 3],
    "witness": {"n": -1, "lhs": "0", "rhs": "2"},
}

GOOD_POLY = {
    "name": "binomial-theorem-basic",
    "status": "verified",
    "lhs": {"kind": "standard", "terms": [
        {"coeff": "binom(n, k)", "t_exp": [1, 0, 0],
         "base": "1-t", "base_exp": [-1, 1, 0], "lower": "0", "upper": "n"}]},
    "rhs": {"kind": "poly", "expr": "1 + 0*t"},
    "n": [0, 8],
}


class TestParseHalf:
    def test_values(self):
        for text, want in (("3", 3), ("-1/2", Fraction(-1, 2)), (2, 2), ("4/2", 2)):
            got = parse_half(text)
            assert got == want and type(got) is type(want)


def _build_grid(spec):
    """A document's grid text parsed, then its product taken, as load_entry does."""
    return grid_points(_document_grid(spec, "grid"))


class TestBuildGrid:
    def test_empty_spec(self):
        assert _build_grid(None) == ({},)
        assert _build_grid({}) == ({},)
        assert grid_points({}) == ({},)

    def test_cartesian_product(self):
        grid = _build_grid({"u": ["0", "1"], "v": ["0", "1", "2"]})
        assert len(grid) == 6

    def test_inadmissible_rs_pairs_dropped(self):
        grid = _build_grid({"r": ["1", "2"], "s": ["1", "2", "3"]})
        # dropped: (1,2), (1,3), (2,3) have r - s negative integers
        assert len(grid) == 3
        for g in grid:
            assert g["r"] >= g["s"]

    def test_r_alone_is_not_filtered(self):
        grid = _build_grid({"r": ["1", "2", "3"]})
        assert len(grid) == 3

    def test_parsed_values_in_normal_form(self):
        values = _document_grid({"s": ["1/2", "2/2"], "r": ["3"]}, "grid")
        assert values == {"r": [3], "s": [Fraction(1, 2), 1]}
        assert list(values) == ["r", "s"] and type(values["s"][1]) is int
        assert grid_points(values) == ({"r": 3, "s": Fraction(1, 2)}, {"r": 3, "s": 1})


class TestLoadEntry:
    def test_expected_defaults_by_status(self):
        assert load_entry(GOOD_CLOSED).expected == "equal"
        assert load_entry(BAD_CLOSED).expected == "unequal"
        doc = dict(GOOD_CLOSED)
        doc["status"] = "check"
        with pytest.raises(FormatError):
            load_entry(doc)

    def test_explicit_expected_overrides(self):
        doc = dict(GOOD_CLOSED)
        doc["status"] = "check"
        doc["expected"] = "equal"
        assert load_entry(json.dumps(doc)).expected == "equal"
        doc["expected"] = "sometimes"
        with pytest.raises(FormatError):
            load_entry(doc)

    def test_unequal_requires_witness(self):
        doc = dict(BAD_CLOSED)
        doc.pop("witness")
        with pytest.raises(FormatError):
            load_entry(doc)

    def test_witness_parsing(self):
        doc = dict(BAD_CLOSED)
        doc["witness"] = {"n": 2, "params": {"r": "1/2"},
                         "lhs": "1 - 2*L", "rhs": "0"}
        w = load_entry(doc).witness
        assert isinstance(w, PointResult)
        assert w.n == 2
        assert w.params == (("r", Fraction(1, 2)),)
        assert w.lhs.render() == "1 - 2*L"
        assert w.rhs.is_zero

    @pytest.mark.parametrize("n_range", ["bad", [0], [0, 1, 2], [0, "8"], [0, 8.0], [0, True]])
    def test_malformed_n_range(self, n_range):
        doc = dict(GOOD_CLOSED, n=n_range)
        with pytest.raises(FormatError):
            load_entry(doc)

    @pytest.mark.parametrize("witness", [
        {"lhs": "1/2", "rhs": "-1/2"},
        {"n": 1, "rhs": "-1/2"},
        {"n": 1, "lhs": "1/2"},
        {"n": "1", "lhs": "1/2", "rhs": "-1/2"},
        {"n": True, "lhs": "1/2", "rhs": "-1/2"},
        {"n": 1, "lhs": 1, "rhs": "-1/2"},
        [1, "1/2", "-1/2"],
        {"n": 1, "lhs": "1 + foo", "rhs": "-1/2"},
        {"n": 1, "lhs": "1/2", "rhs": "L^-1"},
        {"n": 1, "lhs": "1/0", "rhs": "-1/2"},
    ])
    def test_malformed_witness(self, witness):
        doc = dict(BAD_CLOSED, witness=witness)
        with pytest.raises(FormatError, match="alt-binom-off-by-sign: "):
            load_entry(doc)

    def test_witness_on_a_polynomial_document_is_format_error(self):
        # a closed witness's shape; its replay used to end in AttributeError
        doc = {"name": "poly-claim", "status": "disputed",
               "lhs": {"kind": "poly", "expr": "t"}, "rhs": {"kind": "poly", "expr": "2*t"},
               "witness": {"n": 0, "lhs": "1", "rhs": "2"}}
        with pytest.raises(FormatError, match="poly-claim: a polynomial witness needs integers"
                                              " n and power >= 0 and string lhs, rhs"):
            load_entry(doc)

    @pytest.mark.parametrize("doc, message", [
        (dict(GOOD_CLOSED, rhs={"kind": "closed", "expr": "r"}), "'grid' leaves r unbound"),
        (dict(GOOD_CLOSED, rhs={"kind": "closed", "expr": "1/(n + 1) + 0*(r + s)"},
              grid={"r": ["1"]}), "'grid' leaves s unbound"),
        (dict(BAD_CLOSED, rhs={"kind": "closed", "expr": "-1/(n + 1) + 0*u"}, grid={"u": ["0"]}),
         "witness leaves u unbound"),
    ], ids=["no-grid", "grid-without-s", "witness-without-u"])
    def test_unbound_grid_parameter_is_format_error(self, doc, message):
        # an entry reading r with no r on its grid used to stop a whole corpus run at
        # its first point, exit 2
        with pytest.raises(FormatError, match=f"{doc['name']}: {message}"):
            load_entry(doc)

    @pytest.mark.parametrize("grid", [{"r": ["x"]}, {"r": 3}, {"r": ["1/3"]}, {"r": ["1/0"]}, "r",
                                      {"q": ["1"]}, {"n": ["1"]}])
    def test_malformed_grid(self, grid):
        doc = dict(GOOD_CLOSED, grid=grid)
        with pytest.raises(FormatError):
            load_entry(doc)

    @pytest.mark.parametrize("params", [{"r": "x"}, {"r": "1/3"}, ["r", "1/2"], {"k": "1"}])
    def test_malformed_witness_params(self, params):
        doc = dict(BAD_CLOSED, witness={"n": 1, "params": params, "lhs": "1/2", "rhs": "-1/2"})
        with pytest.raises(FormatError):
            load_entry(doc)

    @pytest.mark.parametrize("doc", [
        dict(GOOD_CLOSED, n=[3, 1]),
        dict(GOOD_CLOSED, n=[0, 0], parity="odd"),
        dict(GOOD_POLY, n=[3, 1]),
        dict(GOOD_CLOSED, grid={"r": ["1"], "s": ["2"]}),
        dict(GOOD_CLOSED, grid={"r": []}),
    ], ids=["empty-n-range", "parity-leaves-none", "poly-empty-n-range",
            "only-pair-inadmissible", "empty-grid-list"])
    def test_document_without_a_point_is_format_error(self, doc):
        # a run over no point would report "equal" having checked nothing
        with pytest.raises(FormatError, match="leaves no"):
            load_entry(doc)

    @pytest.mark.parametrize("parity", ["evn", "Even", "", None, 0, ["even"]])
    def test_unknown_parity_is_format_error(self, parity):
        # a misspelt parity used to check every n and report "equal"
        with pytest.raises(FormatError, match="'parity' must be"):
            load_entry(dict(GOOD_CLOSED, parity=parity))

    def test_n_range_default_and_parity(self):
        doc = dict(GOOD_CLOSED)
        doc.pop("n")
        assert load_entry(doc).n_values == tuple(range(0, 17))
        doc["n"] = [0, 9]
        doc["parity"] = "even"
        assert load_entry(doc).n_values == (0, 2, 4, 6, 8)
        doc["parity"] = "odd"
        assert load_entry(doc).n_values == (1, 3, 5, 7, 9)


class TestRunEntry:
    def test_closed_equal(self):
        report = run_entry(load_entry(GOOD_CLOSED))
        assert report.actual == "equal" and report.matched

    def test_closed_unequal_with_witness(self):
        report = run_entry(load_entry(BAD_CLOSED))
        assert report.actual == "unequal" and report.matched
        assert "n=1" in report.detail

    def test_wrong_witness_fails_matching(self):
        doc = dict(BAD_CLOSED)
        doc["witness"] = {"n": 1, "lhs": "1/2", "rhs": "1/3"}
        report = run_entry(load_entry(doc))
        assert report.actual == "unequal" and not report.matched
        assert "witness" in report.detail

    def test_witness_at_a_pole_is_unmatched(self):
        # the replay's PoleError used to escape run_entry
        report = run_entry(load_entry(POLE_WITNESS))
        assert report.actual == "unequal" and not report.matched
        assert report.detail.endswith("(stored witness not reproduced)")

    def test_expected_equal_but_unequal_mismatches(self):
        doc = dict(BAD_CLOSED)
        doc["status"] = "verified"
        doc.pop("witness")
        report = run_entry(load_entry(doc))
        assert report.actual == "unequal" and not report.matched

    def test_check_entry_drift_is_unmatched(self):
        doc = json.loads((corpus.DEFAULT_DIR / "sqharmonic-full-particular.json").read_text())
        assert doc["status"] == "check"
        doc["rhs"] = doc["lhs"]
        report = run_entry(load_entry(doc))
        assert report.actual == "equal" and not report.matched

    def test_poly_entry(self):
        report = run_entry(load_entry(GOOD_POLY))
        assert report.actual == "equal" and report.matched
        doc = dict(GOOD_POLY)
        doc["rhs"] = {"kind": "poly", "expr": "1 + t"}
        report = run_entry(load_entry(doc))
        assert report.actual == "unequal" and not report.matched
        assert "t^1" in report.detail


POLY_CLAIM = {
    "name": "poly-claim",
    "status": "disputed",
    "lhs": {"kind": "poly", "expr": "t"},
    "rhs": {"kind": "poly", "expr": "2*t"},
    "n": [0, 2],
    "witness": {"n": 0, "power": 1, "lhs": "1", "rhs": "2"},
}


class TestPolyWitness:
    """A disputed polynomial document ships with the first difference of its
    sides at one n, and that difference is replayed."""

    @staticmethod
    def run_in_dir(tmp_path, witness):
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"entries": ["poly-claim.json"], "paper_equations": []}))
        (tmp_path / "poly-claim.json").write_text(json.dumps(dict(POLY_CLAIM, witness=witness)))
        return run_corpus(tmp_path)

    def test_true_witness_is_unequal_and_matched(self, tmp_path):
        entry = load_entry(POLY_CLAIM)
        assert entry.witness == corpus.PolyWitness(0, 1, SymConst.parse("1"), SymConst.parse("2"))
        report, = self.run_in_dir(tmp_path, POLY_CLAIM["witness"])
        assert (report.expected, report.actual, report.matched) == ("unequal", "unequal", True)
        assert report.detail == "unequal at n=0, t^1: lhs=1, rhs=2"

    @pytest.mark.parametrize("witness", [
        {"n": 0, "power": 1, "lhs": "1", "rhs": "3"},
        {"n": 0, "power": 0, "lhs": "0", "rhs": "0"},
        {"n": 0, "power": 2, "lhs": "1", "rhs": "2"},
        {"n": 0, "power": 1, "lhs": "1", "rhs": "2*L"},
    ])
    def test_wrong_witness_is_unmatched(self, tmp_path, witness):
        report, = self.run_in_dir(tmp_path, witness)
        assert report.actual == "unequal" and not report.matched
        assert report.detail.endswith("(stored witness not reproduced)")

    def test_witness_at_an_n_that_fails_is_unmatched(self):
        doc = dict(POLY_CLAIM, lhs={"kind": "poly", "expr": "t^n"},
                   witness={"n": -1, "power": 1, "lhs": "1", "rhs": "2"})
        report = run_entry(load_entry(doc))
        assert report.actual == "unequal" and not report.matched

    @pytest.mark.parametrize("witness", [
        {"n": 0, "lhs": "1", "rhs": "2"},
        {"n": 0, "power": -1, "lhs": "1", "rhs": "2"},
        {"n": 0, "power": "1", "lhs": "1", "rhs": "2"},
        {"n": 0, "power": True, "lhs": "1", "rhs": "2"},
        {"n": 0, "power": 1.0, "lhs": "1", "rhs": "2"},
        {"n": "0", "power": 1, "lhs": "1", "rhs": "2"},
        {"power": 1, "lhs": "1", "rhs": "2"},
        {"n": 0, "power": 1, "lhs": 1, "rhs": "2"},
        {"n": 0, "power": 1, "lhs": "1 + foo", "rhs": "2"},
        {"n": 0, "power": 1, "lhs": "1", "rhs": "1/0"},
        [0, 1, "1", "2"],
    ])
    def test_malformed_witness_is_format_error(self, tmp_path, witness):
        with pytest.raises(FormatError, match="poly-claim: "):
            load_entry(dict(POLY_CLAIM, witness=witness))
        path = tmp_path / "poly-claim.json"
        path.write_text(json.dumps(dict(POLY_CLAIM, witness=witness)))
        assert cli.main(["verify", str(path)]) == 3


class TestShippedCorpus:
    def test_manifest_lists_every_file(self):
        directory = corpus_dir()
        manifest = load_manifest()
        files = {p.name for p in directory.glob("*.json")} - {"manifest.json"}
        assert set(manifest["entries"]) == files
        assert manifest["entries"] == sorted(manifest["entries"])

    def test_entries_all_load(self):
        entries = load_entries()
        assert len(entries) >= 100
        names = [e.name for e in entries]
        assert len(names) == len(set(names))

    def test_env_override(self, tmp_path, monkeypatch):
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"entries": ["only.json"], "paper_equations": []}))
        (tmp_path / "only.json").write_text(json.dumps(GOOD_CLOSED))
        monkeypatch.setenv("FINSUM_CORPUS_DIR", str(tmp_path))
        entries = load_entries()
        assert [e.name for e in entries] == ["alt-binom-basic"]
        assert check_coverage() == []

    @pytest.mark.parametrize("item", ["eq.1", {"label": "a", "category": 3}])
    def test_malformed_checklist_is_format_error(self, tmp_path, monkeypatch, item):
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"entries": [], "paper_equations": [item]}))
        monkeypatch.setenv("FINSUM_CORPUS_DIR", str(tmp_path))
        with pytest.raises(FormatError):
            check_coverage()

    def test_generator_reproduces_shipped_corpus(self, tmp_path):
        script = Path(__file__).resolve().parent.parent / "scripts" / "build_corpus.py"
        subprocess.run([sys.executable, str(script), "--out", str(tmp_path)],
                       check=True, capture_output=True)
        shipped = corpus.DEFAULT_DIR
        built = sorted(p.name for p in tmp_path.iterdir())
        assert built == sorted(p.name for p in shipped.iterdir())
        for name in built:
            assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name

    def test_coverage_check_passes(self):
        assert check_coverage() == []

    def test_suite_references_name_a_test(self):
        # check_coverage only sees that a suite reference is not empty; a
        # renamed test would leave it dangling
        root = Path(__file__).resolve().parent.parent
        refs = [item["category"][len("suite:"):] for item in load_manifest()["paper_equations"]
                if item.get("category", "").startswith("suite:")]
        assert refs
        for ref in refs:
            path, _, name = ref.partition("::")
            assert re.search(rf"^\s*def {name}\(", (root / path).read_text(), re.M), ref

    def test_coverage_check_catches_problems(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({
            "entries": ["only.json"],
            "paper_equations": [
                {"label": "a", "category": "entry:missing-name"},
                {"label": "a", "category": "definition"},
                {"label": "b", "category": "suite:"},
                {"label": "c", "category": "mystery"},
                {"category": "definition"},
            ]}))
        (tmp_path / "only.json").write_text(json.dumps(GOOD_CLOSED))
        problems = check_coverage(tmp_path)
        assert len(problems) == 5

    def test_run_corpus_subset_parallel(self):
        names = {"binomial-theorem", "alt-recip-shift", "alt-harmonic-shift"}
        reports = run_corpus(names=names, jobs=2)
        assert {r.name for r in reports} == names
        assert all(r.matched for r in reports)
        by_name = {r.name: r for r in reports}
        assert by_name["alt-harmonic-shift"].actual == "unequal"
