"""
Command-line behaviour: output shapes, determinism, and exit codes.

Core claims:
    - compute emits the schema {"circles", "truncation", "terms"} and is
      byte-identical across runs; its JSON for the nine corpus words at
      degrees 1-3 is pinned by a SHA-256
    - verify reports carry the schema keys and exit 0 on true identities;
      verify recursion --all-S --format json at hopf+ crossing 4 and
      trefoil crossing 5 is pinned by a SHA-256 each;
      degree-sum passes on a 12-circle nest, which has more type
      matrices of degree 2 than the enumeration limit allows
    - enumerate lists diagrams and ends text output with "count: n"
    - selftest runs named sections and emits {"pass", "sections"} JSON;
      a section's text line ends "(N checks)"
    - verify theorem and recursion --all-S and selftest --json print no
      measured field, so a run from cold caches and a warm rerun print
      the same bytes
    - exit codes: 2 for unreadable input (a file that is not UTF-8, a
      position too long to convert, a position in non-ASCII digits), bad JSON or a non-integer type
      matrix entry (an empty --S included), 3 for validation failures,
      4 for unsupported
      truncation (a degree-sum --k over it names the degree-k sum), each
      with one error line and no traceback; a plain
      ValueError from inside the library is a fault, not exit 3
    - --S and --relabel are parsed before the word is loaded, so a bad
      flag exits 2 even when the word itself is invalid; an empty --S
      (exit 2) or --relabel (exit 3) is refused, not read as absent
    - zero circles fail enumerate --k, an empty --S fails enumerate, and
      a negative --degree fails verify theorem and recursion under --all-S
      with the --S path's message, each with exit 3
    - enumerate reads the circle count off --S, and --circles given with
      --S exits 2
    - each verify identity declares exactly the flags it reads: a flag
      it does not read (--relabel on degree-sum or recursion, --k on
      theorem, --all-S on degree-sum, --max-degree anywhere), a missing
      required one (--k, --crossing, --S or --all-S, enumerate's --k or
      --S) and a flag placed before the identity are usage errors, exit 2
      with a usage message and nothing on stdout
    - conflicting selectors (--S with --all-S on verify, --S with --k on
      enumerate) are usage errors, exit 2, instead of one being ignored
    - --all-S sweeps every S up to --degree, and a --degree over what the
      word supports exits 4 before listing any type matrix, so verify
      theorem and recursion at --degree 1000 return at once
    - hostile sizes end at once with their documented code: an S entry
      of 99999999 on verify theorem exits 4 before any factorial, and an
      enumeration over the limit (100000 circles, degree 99999999 or 40,
      or S = [[99999999]]) exits 3 before walking; a crossing identity
      reports a fault of S before a fault of the crossing, and verify
      theorem, like recursion, reports an S of the wrong size (exit 3)
      before a truncation the word does not support; a word file longer
      than MAX_WORD_CHARS (/dev/zero) exits 2 after reading that much
    - a degree list is bounded by its matchings alone: enumerate on 21
      circles at degree 1 exits 0 with count 231, while verify theorem
      --all-S at degree 1 on a 21-circle nest, which lists every dense S,
      exits 3
    - a closed stdout pipe leaves the exit code to the command's verdict
      and writes nothing to stderr
    - a word nested 600 levels deep computes
    - --corpus NAME always loads the bundled word, whatever the
      environment holds
    - every kzlab line of the README's "Command line" block exits 0 and
      prints the same bytes from cold caches and warm
    - every name in kzlab.__all__ and kzlab.qtangle.__all__ resolves, and
      every name in kzlab.__all__ but __version__ appears in a code span
      of the README
    - an unknown corpus name (a non-str included) is refused by
      corpus_path, corpus_linking and load_corpus_word with one
      CorpusLookupError message naming the known words
    - importing kzlab and kzlab.cli without site loads none of
      dataclasses, inspect, importlib.resources and pathlib
"""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import kzlab
import kzlab.cli
import kzlab.qtangle
from kzlab.cli import build_parser, main
from kzlab.qtangle.corpus import corpus_linking, corpus_names, corpus_path

COMPUTE_SHA256 = \
    "dff7d14752dbe01652115939d4aa682be38fa5824bd74da2217197cc88c4e64c"
# verify recursion --all-S --format json at one crossing, per word.
RECURSION_SHA256 = {
    ("hopf+", "4"): "365a24a790b8c364c29da362164fc05d2efb3e166a9079051b6a8b9c6369ab07",
    ("trefoil", "5"): "cdf410e92e330217859a34643fe618f08a64182b9f3f9aa54a3c9cba52dfb030",
}


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _usage_error(capsys, *argv):
    """Assert that argparse refuses argv, exit 2 with a usage message and
    nothing on stdout, and return stderr."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert info.value.code == 2 and not captured.out, argv
    assert captured.err.startswith("usage:"), argv
    return captured.err


# == 1. compute ==============================================================


class TestCompute:
    def test_json_schema_and_determinism(self, capsys):
        argv = ("compute", "--corpus", "hopf+", "--degree", "2",
                "--format", "json")
        code, first, _ = _run(capsys, *argv)
        assert code == 0
        data = json.loads(first)
        assert set(data) == {"circles", "truncation", "terms"}
        assert data["circles"] == 2 and data["truncation"] == 2
        term = data["terms"][0]
        assert set(term) == {"diagram", "coeff"}
        assert set(term["diagram"]) == {"circles", "chords"}
        code, second, _ = _run(capsys, *argv)
        assert code == 0 and second == first

    def test_text_lists_degrees(self, capsys):
        code, out, _ = _run(capsys, "compute", "--corpus", "u1",
                            "--degree", "2")
        assert code == 0
        assert "word: u1" in out
        assert "degree 1 (sum 1/2):" in out
        assert "(1 1)" in out

    def test_relabel_flag(self, capsys):
        code, plain, _ = _run(capsys, "compute", "--corpus", "chain2",
                              "--degree", "1", "--format", "json")
        code2, moved, _ = _run(capsys, "compute", "--corpus", "chain2",
                               "--degree", "1", "--format", "json",
                               "--relabel", "2,1")
        assert code == code2 == 0
        assert json.loads(plain) == json.loads(moved)

    def test_corpus_output_is_pinned(self, capsys):
        # compute --format json for every corpus word at degrees 1-3, in
        # corpus order.  The digest was taken before the kernels updated
        # terms in place and finalize summed by code; an engine change
        # must print the same bytes.
        out = []
        for name in corpus_names():
            for degree in ("1", "2", "3"):
                code, text, _ = _run(capsys, "compute", "--corpus", name,
                                     "--degree", degree, "--format", "json")
                assert code == 0, (name, degree)
                out.append(text)
        assert hashlib.sha256("".join(out).encode()).hexdigest() == COMPUTE_SHA256


# == 2. verify ===============================================================


class TestVerify:
    def test_theorem_single_type(self, capsys):
        code, out, _ = _run(capsys, "verify", "theorem", "--corpus", "trefoil",
                            "--S", "[[1]]", "--degree", "2")
        assert code == 0
        assert "pass" in out and "3/2" in out

    def test_theorem_sweep_json_is_byte_identical(self, capsys):
        # From cold caches, then warm.
        argv = ("verify", "theorem", "--corpus", "chain3", "--all-S",
                "--degree", "2", "--format", "json")
        kzlab.clear_caches()
        code, first, _ = _run(capsys, *argv)
        code2, second, _ = _run(capsys, *argv)
        assert code == code2 == 0
        assert first == second
        reports = json.loads(first)
        assert all(set(r) == {"word", "S", "N", "lhs", "rhs", "pass"}
                   for r in reports)
        # The sweep runs up to --degree.
        degrees = [kzlab.TypeMatrix(report["S"]).degree for report in reports]
        assert degrees == sorted(degrees) and set(degrees) == {0, 1, 2}

    def test_degree_sum(self, capsys):
        code, out, _ = _run(capsys, "verify", "degree-sum", "--corpus",
                            "hopf+", "--k", "2", "--degree", "2")
        assert code == 0 and "pass" in out

    def test_recursion(self, capsys):
        code, out, _ = _run(capsys, "verify", "recursion", "--corpus",
                            "hopf+", "--crossing", "4",
                            "--S", "[[0,1],[1,0]]", "--degree", "2")
        assert code == 0
        assert "variation-series" in out and "smoothing-inversion" in out

    @pytest.mark.parametrize("name, crossing", sorted(RECURSION_SHA256))
    def test_recursion_sweep_json_is_pinned(self, capsys, name, crossing):
        # One crossing-change context serves every S of the sweep; the
        # bytes are those each S's own check_recursion call printed.
        code, out, _ = _run(capsys, "verify", "recursion", "--corpus", name,
                            "--crossing", crossing, "--all-S", "--format", "json")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == RECURSION_SHA256[name, crossing]

    def test_degree_sum_on_a_twelve_circle_nest(self, capsys, tmp_path):
        # 12 nested circles, four kinked by x+ and two by x-: the diagonal
        # entries (half the writhe) sum to -1, so the degree-2 sum of the
        # linking monomials is (-1)**2 / 2!.
        kinks = [1, 0, 1, -1, 0, 1, 0, 0, 1, -1, 0, 0]
        closures = ["cap@1" if not sign else
                    ("x+@1" if sign > 0 else "x-@1") + " ; cap'@1"
                    for sign in kinks]
        path = tmp_path / "nest12.qtw"
        path.write_text(" ; ".join(["cup@1"] * 12 + closures) + "\n",
                        encoding="utf-8")
        code, out, _ = _run(capsys, "verify", "degree-sum", "--word",
                            str(path), "--k", "2", "--degree", "3",
                            "--format", "json")
        assert code == 0
        (report,) = json.loads(out)
        assert report["pass"] and report["lhs"] == report["rhs"] == "1/2"

    def test_word_file_input(self, capsys, tmp_path):
        path = tmp_path / "mine.qtw"
        path.write_text("cup@1 ; x-@1 ; cap'@1\n", encoding="utf-8")
        code, out, _ = _run(capsys, "verify", "theorem", "--word", str(path),
                            "--S", "[[1]]", "--degree", "2")
        assert code == 0 and "1/2" in out


# == 3. enumerate and selftest ===============================================


class TestEnumerate:
    def test_text_count(self, capsys):
        code, out, _ = _run(capsys, "enumerate", "--circles", "1", "--k", "3")
        assert code == 0
        assert out.strip().splitlines()[-1] == "count: 5"

    def test_json_by_type(self, capsys):
        code, out, _ = _run(capsys, "enumerate",
                            "--S", "[[0,1],[1,0]]", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["circles"] == 2 and data["count"] == 1
        assert data["diagrams"][0]["chords"] == [[[1, 0], [2, 0]]]
        # The circle count is read off S, so --circles is not read with it.
        code, out, err = _run(capsys, "enumerate", "--circles", "2",
                              "--S", "[[0,1],[1,0]]", "--format", "json")
        assert code == 2 and not out
        assert err.startswith("error: --circles is not read with --S")


class TestSelftest:
    def test_named_section_json(self, capsys):
        code, out, _ = _run(capsys, "selftest", "--section", "pentagon",
                            "--json")
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert [s["section"] for s in data["sections"]] == ["pentagon"]
        assert all(s["pass"] for s in data["sections"])

    def test_text_verdict_line(self, capsys):
        code, out, _ = _run(capsys, "selftest", "--section", "enumeration")
        assert code == 0
        section, verdict = out.strip().splitlines()
        assert section.startswith("[pass] enumeration: ")
        assert section.endswith(" (283 checks)")
        assert verdict == "all sections pass"


@pytest.mark.parametrize("argv", [
    ("verify", "recursion", "--corpus", "hopf+", "--crossing", "4", "--all-S",
     "--format", "json"),
    ("selftest", "--json"),
], ids=["recursion", "selftest"])
def test_cold_and_warm_runs_print_the_same_bytes(capsys, argv):
    # Nothing measured is printed, so a run from cold caches and a warm
    # rerun agree byte for byte.
    kzlab.clear_caches()
    code, cold, _ = _run(capsys, *argv)
    code2, warm, _ = _run(capsys, *argv)
    assert code == code2 == 0
    assert cold == warm
    assert '"ms"' not in cold


# == 4. exit codes ===========================================================


class TestExitCodes:
    def test_unreadable_word_file(self, capsys):
        code, _, err = _run(capsys, "compute", "--word", "/no/such/file.qtw")
        assert code == 2 and "error:" in err

    def test_bad_type_matrix_json(self, capsys):
        code, _, err = _run(capsys, "verify", "theorem", "--corpus", "u0",
                            "--S", "[[oops")
        assert code == 2 and "error:" in err
        for argv in (("verify", "theorem", "--corpus", "u0", "--S", ""),
                     ("enumerate", "--circles", "1", "--S", "")):
            code, out, err = _run(capsys, *argv)
            assert code == 2 and not out, argv
            assert err.startswith("error: --S is not valid JSON"), argv

    def test_non_integer_type_matrix(self, capsys):
        for text in ("[[0,1.9],[1.9,0]]", "[[0,true],[true,0]]"):
            code, out, err = _run(capsys, "verify", "theorem", "--corpus",
                                  "hopf+", "--S", text)
            assert code == 2 and "error:" in err and not out, text

    def test_word_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.qtw"
        path.write_bytes(b"cup@1 ; cap@1 # \xe9\xff\n")
        code, _, err = _run(capsys, "compute", "--word", str(path))
        assert code == 2 and err.startswith("error:")

    def test_non_ascii_digit_position(self, capsys, tmp_path):
        # Arabic-Indic one: a malformed slice, not cup@1;cap@1.
        path = tmp_path / "indic.qtw"
        path.write_text("cup@\u0661;cap@\u0661\n", encoding="utf-8")
        code, out, err = _run(capsys, "compute", "--word", str(path))
        assert code == 2 and not out
        assert err.startswith("error: line 1: malformed slice")

    def test_position_too_long(self, capsys, tmp_path):
        path = tmp_path / "long.qtw"
        path.write_text("cup@" + "1" * 5000 + "\n", encoding="utf-8")
        code, _, err = _run(capsys, "compute", "--word", str(path))
        assert code == 2 and "position too long" in err

    def test_enumerate_needs_a_selector(self, capsys):
        err = _usage_error(capsys, "enumerate", "--circles", "1")
        assert "one of the arguments --k --S is required" in err

    def test_conflicting_selectors_are_usage_errors(self, capsys):
        for argv in (("verify", "theorem", "--corpus", "hopf+",
                      "--S", "[[0,1],[1,0]]", "--all-S"),
                     ("enumerate", "--circles", "2", "--S", "[[0,1],[1,0]]",
                      "--k", "5")):
            with pytest.raises(SystemExit) as info:
                main(list(argv))
            captured = capsys.readouterr()
            assert info.value.code == 2 and not captured.out, argv
            assert captured.err.startswith("usage:"), argv
            assert "not allowed with argument" in captured.err, argv

    def test_recursion_rejects_negative_crossing(self, capsys):
        code, _, err = _run(capsys, "verify", "recursion", "--corpus",
                            "hopf-", "--crossing", "4",
                            "--S", "[[0,1],[1,0]]", "--degree", "2")
        assert code == 3 and "error:" in err

    def test_bad_relabel_length(self, capsys):
        code, _, err = _run(capsys, "compute", "--corpus", "hopf+",
                            "--degree", "1", "--relabel", "1,2,3")
        assert code == 3 and "error:" in err
        # An empty permutation is refused too, not read as no --relabel.
        for argv in (("compute", "--corpus", "hopf+", "--relabel", ""),
                     ("verify", "theorem", "--corpus", "hopf+",
                      "--S", "[[0,1],[1,0]]", "--relabel", "")):
            code, out, err = _run(capsys, *argv)
            assert code == 3 and not out, argv
            assert err.startswith("error: perm must be a permutation"), argv

    def test_unsupported_truncation(self, capsys):
        code, _, err = _run(capsys, "compute", "--corpus", "hopf+",
                            "--degree", "9")
        assert code == 4 and "error:" in err

    def test_invalid_type_matrix(self, capsys):
        for text in ("[[0,1],[1]]", "[[0,1],[2,0]]", "[[0,-1],[-1,0]]"):
            code, out, err = _run(capsys, "verify", "theorem", "--corpus",
                                  "hopf+", "--S", text)
            assert code == 3 and "error:" in err and not out, text

    def test_degree_sum_degree_range(self, capsys):
        for k, expected in (("-1", 3), ("9", 4)):
            code, out, err = _run(capsys, "verify", "degree-sum", "--corpus",
                                  "hopf+", "--k", k)
            assert code == expected and "error:" in err and not out, k
        # The refusal names the sum, not a type matrix degree-sum never reads.
        assert err == ("error: the degree-9 sum needs degree 9 but the series "
                       "is truncated at 3\n")

    def test_out_of_range_arguments_exit_3(self, capsys):
        for argv in (("enumerate", "--circles", "0", "--k", "1"),
                     ("enumerate", "--circles", "1", "--k", "-1"),
                     ("compute", "--corpus", "hopf+", "--degree", "-1"),
                     ("verify", "theorem", "--corpus", "hopf+", "--S", "[[1]]")):
            code, out, err = _run(capsys, *argv)
            assert code == 3 and err.startswith("error:") and not out, argv
        # --relabel is not a flag of these identities, so argparse refuses
        # it before any range check.
        for argv in (("verify", "degree-sum", "--corpus", "hopf+", "--k", "1",
                      "--relabel", "7,7,7"),
                     ("verify", "recursion", "--corpus", "hopf+", "--crossing", "4",
                      "--S", "[[0,1],[1,0]]", "--relabel", "9")):
            err = _usage_error(capsys, *argv)
            assert "unrecognized arguments: --relabel" in err, argv

    def test_zero_circles_fail_both_enumerate_selectors(self, capsys):
        code, out, err = _run(capsys, "enumerate", "--circles", "0", "--k", "0")
        assert code == 3 and not out
        assert err == "error: --circles must be at least 1\n"
        code, out, err = _run(capsys, "enumerate", "--S", "[]")
        assert code == 3 and not out
        assert err == "error: --S must have at least one row\n"

    def test_flags_are_parsed_before_the_word_is_loaded(self, capsys, tmp_path):
        # The word file is invalid (exit 3), but the bad flag is found first.
        path = tmp_path / "bad.qtw"
        path.write_text("cap@1\n", encoding="utf-8")
        for argv in (("verify", "theorem", "--word", str(path), "--S", "[[0"),
                     ("compute", "--word", str(path), "--relabel", "x"),
                     ("enumerate", "--circles", "0", "--S", "[[")):
            code, out, err = _run(capsys, *argv)
            assert code == 2 and err.startswith("error:") and not out, argv
        code, _, _ = _run(capsys, "compute", "--word", str(path))
        assert code == 3

    def test_negative_degree_under_all_s_exits_3(self, capsys):
        errors = set()
        for identity in (("theorem",), ("recursion", "--crossing", "4")):
            for chosen in (("--all-S",), ("--S", "[[0,1],[1,0]]")):
                code, out, err = _run(capsys, "verify", *identity, "--corpus",
                                      "hopf+", *chosen, "--degree", "-1")
                assert code == 3 and not out, (identity, chosen)
                errors.add(err)
        assert errors == {
            "error: truncation degree must be a nonnegative int\n"}

    def test_all_s_over_the_truncation_exits_4_before_listing(self):
        # Up to degree 1000 there are more type matrices than could be
        # listed; each argv is refused at once, in a fresh process.
        for argv, degree in (
                (("theorem", "--corpus", "chain3", "--degree", "1000"), 1000),
                (("theorem", "--corpus", "chain3", "--degree", "4"), 4),
                (("recursion", "--corpus", "hopf+", "--crossing", "4",
                  "--degree", "1000"), 1000)):
            argv = ("verify", *argv, "--all-S")
            proc = subprocess.run([sys.executable, "-m", "kzlab.cli", *argv],
                                  capture_output=True, text=True, timeout=30)
            assert proc.returncode == 4 and not proc.stdout, argv
            assert proc.stderr == (f"error: truncation degree {degree} exceeds "
                                   "the supported maximum 3 for this word\n"
                                   ), argv

    def test_hostile_argv_end_with_their_exit_code(self):
        # Each would hang, or run out of memory, without the check made
        # before any work; each runs in a fresh process.
        huge = "99999999"
        for argv, expected in (
                (("verify", "theorem", "--corpus", "hopf+",
                  "--S", f"[[0,{huge}],[{huge},0]]"), 4),
                (("verify", "theorem", "--corpus", "chain3",
                  "--S", f"[[0,{huge},0],[{huge},0,0],[0,0,0]]"), 4),
                (("verify", "recursion", "--corpus", "hopf+", "--crossing", "1",
                  "--S", "[[0,2],[2,0]]", "--degree", "1"), 4),
                # The S size is checked before the truncation, as in recursion.
                (("verify", "theorem", "--corpus", "hopf+",
                  "--S", "[[0,1,0],[1,0,0],[0,0,0]]", "--degree", "5"), 3),
                (("enumerate", "--circles", "100000", "--k", "1"), 3),
                (("enumerate", "--circles", "3", "--k", huge), 3),
                (("enumerate", "--S", f"[[{huge}]]"), 3),
                (("enumerate", "--circles", "1", "--k", "40"), 3),
                (("verify", "degree-sum", "--corpus", "hopf+", "--k", "99"), 4),
                # Read up to the word-file bound, then refused.
                (("compute", "--word", "/dev/zero", "--degree", "1"), 2)):
            proc = subprocess.run([sys.executable, "-m", "kzlab.cli", *argv],
                                  capture_output=True, text=True, timeout=30)
            assert proc.returncode == expected and not proc.stdout, argv
            assert proc.stderr.startswith("error:"), argv
            assert proc.stderr.count("\n") == 1, argv

    def test_degree_lists_past_the_dense_bound_exit_0(self, capsys, tmp_path):
        # A degree list is bounded by its matchings; --all-S shows every S,
        # so it stays bounded by their dense entries (231 * 21 ** 2).
        code, out, err = _run(capsys, "enumerate", "--circles", "21", "--k", "1")
        assert code == 0 and not err
        assert out.splitlines()[-1] == "count: 231"
        path = tmp_path / "nest21.qtw"
        path.write_text("cup@1\n" * 21 + "cap@1\n" * 21, encoding="utf-8")
        code, out, err = _run(capsys, "verify", "theorem", "--word", str(path),
                              "--all-S", "--degree", "1")
        assert code == 3 and not out
        assert err.startswith("error: the entry count of the degree-1 type matrices")

    def test_internal_value_error_propagates(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(kzlab.cli, "integrate", broken)
        with pytest.raises(ValueError, match="internal fault") as info:
            main(["compute", "--corpus", "hopf+", "--degree", "1"])
        assert type(info.value) is ValueError
        assert capsys.readouterr().err == ""

    def test_deep_nesting_computes(self, tmp_path):
        # 600 levels is past the recursion limit of a recursive tree.
        path = tmp_path / "deep.qtw"
        path.write_text("cup@1\n" * 600 + "cap@1\n" * 600, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "kzlab.cli", "compute", "--word",
             str(path), "--degree", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "circles: 600  truncation: 1" in proc.stdout.splitlines()

    def test_subprocess_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kzlab.cli", "enumerate",
             "--circles", "1", "--k", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip().splitlines()[-1] == "count: 2"
        bad = subprocess.run(
            [sys.executable, "-m", "kzlab.cli", "compute",
             "--corpus", "nope"],
            capture_output=True, text=True)
        assert bad.returncode == 2

    def test_closed_stdout_keeps_the_verdict(self):
        # The reader of stdout has gone before the first line is written.
        for argv in (("compute", "--corpus", "trefoil", "--format", "json"),
                     ("verify", "theorem", "--corpus", "hopf+", "--all-S")):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "kzlab.cli", *argv],
                    stdout=write_end, stderr=subprocess.PIPE, text=True)
            finally:
                os.close(write_end)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == "", argv


# == 5. parser surface =======================================================


def _subcommands(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


WORD_FLAGS = ["-h", "--help", "--word", "--corpus", "--degree", "--format"]


class TestParserSurface:
    def test_each_identity_declares_the_flags_it_reads(self):
        identities = _subcommands(_subcommands(build_parser())["verify"])
        flags = {name: [option for action in p._actions
                        for option in action.option_strings]
                 for name, p in identities.items()}
        assert flags == {
            "theorem": WORD_FLAGS + ["--relabel", "--S", "--all-S"],
            "degree-sum": WORD_FLAGS + ["--k"],
            "recursion": WORD_FLAGS + ["--S", "--all-S", "--crossing"],
        }

    def test_inapplicable_missing_and_misplaced_flags_are_usage_errors(
            self, capsys):
        hopf = ("--corpus", "hopf+")
        S = ("--S", "[[0,1],[1,0]]")
        for argv in (("theorem", *hopf, *S, "--k", "7", "--crossing", "99"),
                     ("degree-sum", *hopf, "--k", "1", "--all-S"),
                     ("recursion", *hopf, "--crossing", "4", *S, "--k", "9"),
                     ("degree-sum", *hopf, "--k", "1", "--S", "[[0]]"),
                     ("theorem", *hopf),
                     ("degree-sum", *hopf),
                     ("recursion", *hopf, *S),
                     ("recursion", *hopf, "--crossing", "4"),
                     ("theorem", *hopf, "--all-S", "--max-degree", "3"),
                     ("recursion", *hopf, "--crossing", "4", "--all-S",
                      "--max-degree", "3"),
                     (*hopf, "theorem", *S)):
            _usage_error(capsys, "verify", *argv)
        # At the command line too, with no traceback.
        proc = subprocess.run(
            [sys.executable, "-m", "kzlab.cli", "verify", "degree-sum",
             *hopf, "--k", "1", "--all-S"], capture_output=True, text=True)
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr.startswith("usage:")
        assert "Traceback" not in proc.stderr


# == 6. corpus lookup and the README ========================================


class TestCorpusLookup:
    def test_a_name_always_loads_the_bundled_word(self, capsys, tmp_path,
                                                  monkeypatch):
        # A kinked unknot named u0, where the corpus's own u0 has no kink.
        (tmp_path / "u0.qtw").write_text("cup@1 ; x-@1 ; cap'@1\n",
                                         encoding="utf-8")
        monkeypatch.setenv("KZLAB_CORPUS_DIR", str(tmp_path))
        assert os.path.dirname(corpus_path("u0")) != str(tmp_path)
        code, out, _ = _run(capsys, "compute", "--corpus", "u0",
                            "--degree", "1")
        assert code == 0 and "degree 1 (sum 0):" in out

    @pytest.mark.parametrize("name", ["nonesuch", "U0", ["u0"], None])
    def test_an_unknown_name_is_refused_alike(self, name):
        message = (f"unknown corpus word {name!r}; known: "
                   f"{', '.join(corpus_names())}")
        for lookup in (corpus_path, corpus_linking, kzlab.load_corpus_word):
            with pytest.raises(kzlab.CorpusLookupError) as refused:
                lookup(name)
            assert str(refused.value) == message, lookup


def test_readme_command_lines_exit_0(capsys):
    # The kzlab lines of the README's "Command line" code block.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("kzlab ")]
    assert commands
    for line in commands:
        # Twice, the first time from cold caches: the output is the same
        # bytes.
        kzlab.clear_caches()
        code, cold, _ = _run(capsys, *shlex.split(line)[1:])
        code2, warm, _ = _run(capsys, *shlex.split(line)[1:])
        assert code == code2 == 0, line
        assert cold == warm, line


def test_readme_names_every_public_name():
    # Each name in kzlab.__all__ but the version, as a whole word inside
    # one `code` span of the README.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    spans = " ".join(re.findall(r"`[^`\n]+`", readme.read_text(encoding="utf-8")))
    missing = [name for name in kzlab.__all__ if name != "__version__"
               and not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", spans)]
    assert not missing


# == 7. package surface ======================================================


def test_import_leaves_out_unused_stdlib_modules():
    # Records are NamedTuples and the corpus is read by a str file path,
    # so neither dataclasses (and its inspect), importlib.resources nor
    # pathlib loads.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import kzlab, kzlab.cli, sys; print(sorted({'dataclasses', 'inspect', "
         "'importlib.resources', 'pathlib'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_exported_name_resolves():
    for package in (kzlab, kzlab.qtangle):
        missing = [name for name in package.__all__
                   if not hasattr(package, name)]
        assert missing == [], package.__name__
