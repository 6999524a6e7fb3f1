"""Setup-file grammar, the analyze pipeline, report documents, corpus runner."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fibrephi import (
    GREVLEX,
    Ideal,
    PolynomialRing,
    analyze,
    cli,
    geometry,
    groebner,
    parse_polynomial,
)
from fibrephi.cli import (
    EXIT_CORPUS_MISMATCH,
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    analysis_document,
    compare_expectations,
    load_setup,
    main,
    required_max_power,
    run_corpus,
    run_stratify,
    run_verify_power,
)
from fibrephi.errors import FibrephiError, ResourceLimitError, SetupError

from conftest import cap_block_bases


def write(tmp_path: Path, text: str, name="case.setup") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def analyzed_document(setup_file, max_power=0, seed=0, include_timings=False):
    report = analyze(setup_file.setup, max_power, seed)
    return analysis_document(setup_file, report, include_timings)


MINIMAL = """\
vars_target: y
vars_source: x
source_ideal: y*x - 1
"""


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


def test_load_quadric_cone_fixture(fixture_dir):
    loaded = load_setup(fixture_dir / "quadric_cone.setup")
    assert loaded.setup.dims() == {"N": 3, "n": 3, "k": 1, "r": 1, "m": 3}
    assert loaded.expect["phi_exact"] == "2"


def test_load_family_fixture(fixture_dir):
    loaded = load_setup(fixture_dir / "cyclic_forms_n2_l2.setup")
    assert loaded.setup.dims() == {"N": 2, "n": 2, "k": 3, "r": 2, "m": 3}


def test_defaults_and_comments(tmp_path):
    loaded = load_setup(write(tmp_path, MINIMAL + "# trailing comment\n"))
    assert loaded.setup.target_ideal.is_zero_ideal and loaded.setup.N == 1
    assert not loaded.setup.assert_target_locally_irreducible


def test_zero_source_generator_rejected(tmp_path):
    path = write(tmp_path, MINIMAL.replace("y*x - 1", "0"))
    with pytest.raises(SetupError, match="at least one source generator is required"):
        load_setup(path)


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, MINIMAL + "colour: blue\n")
    with pytest.raises(SetupError) as err:
        load_setup(path)
    assert "colour" in str(err.value)


def test_line_without_a_colon_rejected(tmp_path):
    path = write(tmp_path, MINIMAL + "assert_target_pure_dimensional true\n")
    with pytest.raises(SetupError, match=":4: expected 'key: value'$"):
        load_setup(path)


def test_repeated_variable_name_rejected(tmp_path):
    path = write(tmp_path, MINIMAL.replace("vars_source: x", "vars_source: x x"))
    with pytest.raises(SetupError) as err:
        load_setup(path)
    assert str(err.value) == f"{path}: duplicate variable name 'x'"


def test_duplicate_key_rejected(tmp_path):
    path = write(tmp_path, MINIMAL + "vars_target: z\n")
    with pytest.raises(SetupError):
        load_setup(path)


def test_missing_required_key(tmp_path):
    path = write(tmp_path, "vars_target: y\nvars_source: x\n")
    with pytest.raises(SetupError):
        load_setup(path)


def test_inconsistent_target_declarations(tmp_path):
    text = MINIMAL + "target_equals_ambient: true\ntarget_ideal: y\n"
    with pytest.raises(SetupError):
        load_setup(write(tmp_path, text))
    text = "vars_target: y\nvars_source: x\nsource_ideal: x\ntarget_equals_ambient: false\n"
    path = write(tmp_path, text, name="other.setup")
    with pytest.raises(SetupError) as err:
        load_setup(path)
    assert str(path) in str(err.value) and "target_ideal" in str(err.value)


def test_parse_error_carries_location(tmp_path):
    path = write(tmp_path, MINIMAL.replace("y*x - 1", "y*x - "))
    with pytest.raises(SetupError) as err:
        load_setup(path)
    assert "source_ideal" in str(err.value)


@pytest.mark.parametrize(
    "line, message",
    [
        ("source_ideal: y1*x, y2 + z", "(source_ideal): unknown variable 'z' (column 26)"),
        (
            "ambient_target_ideal:  y1^2,  y2*w   # w is not a variable",
            "(ambient_target_ideal): unknown variable 'w' (column 34)",
        ),
    ],
    ids=["source", "ambient"],
)
def test_parse_error_reports_file_line_and_column(line, message, tmp_path):
    text = "vars_target: y1 y2\nvars_source: x\n# comment\n\n" + line + "\n"
    if not line.startswith("source_ideal"):
        text += "source_ideal: y1*x\n"
    path = write(tmp_path, text)
    with pytest.raises(SetupError) as err:
        load_setup(path)
    assert str(err.value) == f"{path}:5 {message}"


def test_deep_nesting_is_a_setup_error_at_its_column(tmp_path, capsys):
    value = "(" * 400 + "y1*x - y2" + ")" * 400
    path = write(tmp_path, f"vars_target: y1 y2\nvars_source: x\nsource_ideal: {value}\n")
    with pytest.raises(SetupError) as err:
        load_setup(path)
    message = str(err.value)
    prefix = f"{path}:3 (source_ideal): parentheses nested too deeply (column "
    assert message.startswith(prefix) and message.endswith(")")
    column = int(message[len(prefix) : -1])
    assert f"source_ideal: {value}"[column - 1] == "("
    assert main(["analyze", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: {prefix}")


def test_expect_block_does_not_influence_computation(tmp_path):
    plain = load_setup(write(tmp_path, MINIMAL))
    with_expect = load_setup(
        write(tmp_path, MINIMAL + "expect:\n  phi_exact: 7\n", name="exp.setup")
    )
    assert plain.setup.dims() == with_expect.setup.dims()
    report = analyzed_document(with_expect)
    assert report.document["phi_exact"] != 7


def test_digest_is_of_the_loaded_text(tmp_path):
    path = write(tmp_path, MINIMAL)
    loaded = load_setup(path)
    report = analyze(loaded.setup)
    path.write_text(MINIMAL + "# edited after loading\n", encoding="utf-8")
    document = analysis_document(loaded, report).document
    assert document["input_digest"] == hashlib.sha256(MINIMAL.encode("utf-8")).hexdigest()
    path.unlink()
    assert analysis_document(loaded, report).document == document
    assert run_stratify(loaded).document["input_digest"] == document["input_digest"]


# ---------------------------------------------------------------------------
# analyze pipeline
# ---------------------------------------------------------------------------


def test_analyze_quadric_cone(fixture_dir):
    loaded = load_setup(fixture_dir / "quadric_cone.setup")
    report = analyzed_document(loaded, max_power=3)
    doc = report.document
    assert doc["phi_upper"] == 2 and doc["phi_lower"] == 2 and doc["phi_exact"] == 2
    assert doc["exactness_tag"] == "bounds-meet"
    assert doc["fibred_powers"] == [
        {"i": 1, "verdict": False},
        {"i": 2, "verdict": False},
        {"i": 3, "verdict": True},
    ]
    assert doc["multiplicity_bound"] == 2
    assert doc["oracle"]["mismatches"] == 0
    assert report.exit_code == EXIT_OK


def test_analyze_family_instance(fixture_dir):
    loaded = load_setup(fixture_dir / "cyclic_forms_n3_l2.setup")
    report = analyzed_document(loaded)
    doc = report.document
    assert doc["phi_exact"] == 1 and doc["exactness_tag"] == "smooth-target"
    assert doc["vertical"]["verdict"] is False


def test_analyze_vertical_fixture(fixture_dir):
    loaded = load_setup(fixture_dir / "line_times_fibre.setup")
    report = analyzed_document(loaded)
    doc = report.document
    assert doc["phi_exact"] == 0
    assert doc["vertical"]["verdict"] is True
    assert doc["vertical"]["witness"] == "y"
    assert doc["vertical"]["detail"] == "zero set of y has dimension 1 >= n + i*lambda = 1"
    setup = loaded.setup
    slow = geometry._vertical(setup.total_ideal, setup.n)
    assert (str(slow.witness), slow.detail) == ("x", "component inside the zero set of y")


def test_analyze_infinity_serialization(fixture_dir):
    loaded = load_setup(fixture_dir / "graph_line.setup")
    doc = analyzed_document(loaded).document
    assert doc["phi_upper"] == "infinity"
    assert doc["phi_exact"] == "infinity"


def test_analyze_is_byte_deterministic(fixture_dir):
    loaded = load_setup(fixture_dir / "quadric_cone.setup")
    first = analyzed_document(loaded, max_power=2, seed=11).to_json()
    second = analyzed_document(loaded, max_power=2, seed=11).to_json()
    assert first == second


def test_timings_are_opt_in(fixture_dir):
    loaded = load_setup(fixture_dir / "hyperbola.setup")
    assert "timings" not in analyzed_document(loaded).document
    assert "timings" in analyzed_document(loaded, include_timings=True).document


def test_stratify_document(fixture_dir):
    loaded = load_setup(fixture_dir / "blowup_chart.setup")
    doc = run_stratify(loaded).document
    assert {(s["j"], s["image_dim"]) for s in doc["strata"]} == {(0, 2), (1, 0)}


def test_verify_power_document(fixture_dir):
    loaded = load_setup(fixture_dir / "quadric_cone.setup")
    doc = run_verify_power(loaded, 3).document
    assert doc["vertical"]["verdict"] is True
    assert doc["power"] == 3
    assert run_verify_power(loaded, 2).document["vertical"]["verdict"] is False


def test_verify_power_builds_no_grevlex_basis_of_x(fixture_dir, buchberger_runs):
    # verify-power reads neither m nor X's grevlex basis
    loaded = load_setup(fixture_dir / "cyclic_forms_n3_l3.setup")
    setup = loaded.setup
    doc = run_verify_power(loaded, 3).document
    assert doc["vertical"]["verdict"] is True
    assert doc["generators"] == [str(g) for g in geometry.fibred_power(setup, 3).generators]
    assert GREVLEX not in setup.total_ideal._cache
    arity = setup.ring.arity
    in_x = [order for order, seq in buchberger_runs if any(len(m) == arity for d in seq for m in d)]
    assert in_x and GREVLEX not in in_x


@pytest.mark.parametrize("i", [2, 3])
def test_verify_power_without_a_stratification_takes_the_saturation_path(
    fixture_dir, monkeypatch, i
):
    # The dimension counts decide the quadric cone's powers 2 and 3.  A
    # stratification that runs out of nodes leaves them nothing to read, so
    # the saturation path decides, with the same verdict.  The lowered cap
    # needs a fresh setup: the first one keeps its stratification.
    path = fixture_dir / "quadric_cone.setup"
    counted = run_verify_power(load_setup(path), i).document["vertical"]
    assert "n + i*lambda" in counted["detail"]
    monkeypatch.setattr(geometry, "STRATIFY_MAX_NODES", 0)
    loaded = load_setup(path)
    with pytest.raises(ResourceLimitError):
        loaded.setup.stratification
    saturated = run_verify_power(loaded, i).document["vertical"]
    assert "n + i*lambda" not in saturated["detail"]
    assert saturated["verdict"] is counted["verdict"]


@pytest.mark.parametrize("i", [2, 3])
def test_verify_power_with_a_capped_block_basis_of_x_takes_the_saturation_path(
    fixture_dir, monkeypatch, i
):
    # A cap on X's block basis, which both the emptiness check and the
    # stratification read: the setup still loads, the stratification meets
    # the cap, and the saturation path decides with the counts' verdict.
    path = fixture_dir / "quadric_cone.setup"
    uncapped = load_setup(path)
    counted = run_verify_power(uncapped, i).document["vertical"]
    assert "n + i*lambda" in counted["detail"]
    cap_block_bases(monkeypatch, uncapped.setup.ring)
    loaded = load_setup(path)
    with pytest.raises(ResourceLimitError):
        loaded.setup.stratification
    saturated = run_verify_power(loaded, i).document["vertical"]
    assert "n + i*lambda" not in saturated["detail"]
    assert saturated["verdict"] is counted["verdict"]


def test_missing_attestation_yields_inconclusive_exit(tmp_path):
    # without the irreducibility attestation the vertical test cannot run
    loaded = load_setup(write(tmp_path, MINIMAL))
    report = analyzed_document(loaded)
    assert report.document["vertical"]["verdict"] is None
    assert report.exit_code == 2
    assert any("skipped" in w for w in report.document["warnings"])


def test_a_high_power_saturation_analyzes(tmp_path, capsys):
    # The cell closure saturates (y1^65*y2, y1*x^2 + x - 1) by y1: its
    # certificate needs y1^65, past any small exponent, and the reduction
    # budget bounds that work instead
    path = write(
        tmp_path,
        "vars_target: y1 y2\n"
        "vars_source: x\n"
        "ambient_target_ideal: 0\n"
        "target_equals_ambient: false\n"
        "target_ideal: y1^65*y2\n"
        "source_ideal: y1*x^2 + x - 1\n",
    )
    assert main(["analyze", str(path)]) == EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert "pieces [1, 1]" in out
    assert "stratum j=0: image dim 1, image ideal (y1*y2)" in out
    assert main(["stratify", str(path)]) == EXIT_OK


def test_non_pure_source_withholds_bounds(tmp_path):
    # a plane union a line: pieces of dimensions 2 and 1
    text = (
        "vars_target: y\n"
        "vars_source: x1 x2\n"
        "source_ideal: x1*y, x1*x2\n"
        "assert_target_locally_irreducible: true\n"
    )
    report = analyzed_document(load_setup(write(tmp_path, text)))
    doc = report.document
    assert doc["purity"]["pure"] is False
    assert doc["purity"]["piece_dims"] == [2, 1]
    assert doc["phi_upper"] is None and doc["phi_lower"] is None
    assert any("non-pure" in w for w in doc["warnings"])


def analyze_to_json(path: Path, out: Path) -> tuple[int, dict]:
    code = main(["analyze", str(path), "--json", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_groebner_basis_size_cap_is_an_error(monkeypatch, fixture_dir, capsys):
    monkeypatch.setattr(groebner, "GROEBNER_MAX_BASIS", 1)
    ring = PolynomialRing((), ("x", "y"))
    squares = Ideal(ring, [parse_polynomial("x^2", ring), parse_polynomial("y^2", ring)])
    with pytest.raises(ResourceLimitError, match="^Groebner basis size cap exceeded$"):
        squares.groebner_basis()
    assert main(["analyze", str(fixture_dir / "quadric_cone.setup")]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: Groebner basis size cap exceeded\n"


def test_exhausted_split_depth_leaves_purity_unconfirmed(monkeypatch, fixture_dir, tmp_path):
    monkeypatch.setattr(geometry, "SPLIT_DEPTH", 0)
    code, doc = analyze_to_json(fixture_dir / "line_times_fibre.setup", tmp_path / "out.json")
    assert code == EXIT_INCONCLUSIVE
    assert doc["purity"]["pure"] is None
    assert "purity of the source is unconfirmed (splitting cap)" in doc["warnings"]
    assert "bounds unavailable: purity unconfirmed" in doc["warnings"]
    assert "bounds unavailable: non-pure source" not in doc["warnings"]


def test_an_uncertified_piece_leaves_purity_unconfirmed(tmp_path):
    # the plane a + b + c = y and the line a = 1, b = 2, c = y off it: one
    # piece of dimension 3 that hides the line, with no purity certificate
    text = (
        "vars_target: y\n"
        "vars_source: a b c\n"
        "ambient_target_ideal: 0\n"
        "target_equals_ambient: true\n"
        "source_ideal: (a + b + c - y)*(a - 1), (a + b + c - y)*(b - 2), (a + b + c - y)*(c - y)\n"
        "assert_target_locally_irreducible: true\n"
        "assert_target_pure_dimensional: true\n"
    )
    code, doc = analyze_to_json(write(tmp_path, text), tmp_path / "out.json")
    assert code == EXIT_INCONCLUSIVE
    assert doc["purity"] == {"pure": None, "dim": 3, "piece_dims": [3]}
    assert doc["phi_upper"] is None and doc["phi_lower"] is None
    assert "purity of the source is unconfirmed (a piece has no purity certificate)" in doc["warnings"]
    assert not any("splitting cap" in w for w in doc["warnings"])


# ---------------------------------------------------------------------------
# expectations and corpus
# ---------------------------------------------------------------------------


def test_required_max_power():
    assert required_max_power({}) == 0
    assert required_max_power({"fibred_powers": "1:false, 3:true"}) == 3


@pytest.mark.parametrize(
    "key, value",
    [
        ("phi_upper", "two"),
        ("phi_lower", "1.5"),
        ("phi_exact", "two"),
        ("strata", "0:one"),
        ("pure", "maybe"),
        ("pure_dim", "x"),
        ("lambda", ""),
        ("vertical", "perhaps"),
        ("fibred_powers", "first:false"),
        ("fibred_powers", "1:unknown"),
        ("multiplicity_bound", "many"),
        ("phi_exact", "-1"),
        ("phi_upper", "-2"),
        ("phi_lower", "-1"),
        ("strata", "0:-1"),
        ("strata", "-1:0"),
        ("pure_dim", "-1"),
        ("lambda", "-1"),
        ("multiplicity_bound", "-1"),
        ("fibred_powers", "0:false"),
        ("fibred_powers", "1:false, -2:true"),
    ],
)
def test_malformed_expect_value_is_a_setup_error(key, value, tmp_path, capsys):
    path = write(tmp_path, MINIMAL + f"expect:\n  {key}: {value}\n")
    with pytest.raises(SetupError, match=f":5: malformed {key} value"):
        load_setup(path)
    assert main(["corpus", str(tmp_path)]) == EXIT_ERROR
    assert f"{path}:5: malformed {key} value" in capsys.readouterr().err


def test_unknown_expect_key_is_a_setup_error(tmp_path):
    path = write(tmp_path, MINIMAL + "expect:\n  colour: blue\n")
    with pytest.raises(SetupError, match=":5: unknown expect key 'colour'$"):
        load_setup(path)


@pytest.mark.parametrize(
    "expect_lines, message",
    [
        ("expect:\n  phi_exact: 1\n  phi_exact: infinity\n", ":6: duplicate expect key 'phi_exact'"),
        ("expect:\n  phi_exact: 1\nexpect:\n  pure: true\n", ":6: duplicate key 'expect'"),
    ],
    ids=["key", "block"],
)
def test_repeated_expectation_is_a_setup_error(expect_lines, message, tmp_path, capsys):
    path = write(tmp_path, MINIMAL + expect_lines)
    with pytest.raises(SetupError, match=message):
        load_setup(path)
    assert main(["corpus", str(tmp_path)]) == EXIT_ERROR
    assert f"{path}{message}" in capsys.readouterr().err


def test_inline_expect_value_is_a_setup_error(tmp_path, capsys):
    # a value on the 'expect:' line itself would otherwise be dropped unchecked
    path = write(tmp_path, MINIMAL + "expect: phi_exact: 7\n")
    with pytest.raises(SetupError, match=":4: expect values go on indented lines"):
        load_setup(path)
    assert main(["corpus", str(tmp_path)]) == EXIT_ERROR
    assert f"{path}:4: expect values go on indented lines" in capsys.readouterr().err


def test_non_ascii_digit_is_a_setup_error(tmp_path, capsys):
    path = write(tmp_path, MINIMAL.replace("y*x - 1", "x^\u00b2 - y"))
    assert main(["stratify", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "source_ideal" in captured.err
    assert "unexpected character '\u00b2'" in captured.err


def test_runaway_power_is_a_setup_error(tmp_path, capsys):
    path = write(tmp_path, MINIMAL.replace("y*x - 1", "(x+y+1)^200"))
    assert main(["stratify", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "source_ideal" in captured.err
    assert "term products" in captured.err


@pytest.mark.parametrize(
    "key",
    ["target_equals_ambient", "assert_target_locally_irreducible", "assert_target_pure_dimensional"],
)
def test_malformed_boolean_value_carries_its_line(key, tmp_path):
    path = write(tmp_path, MINIMAL + "# a comment line still counts\n" + f"{key}: maybe\n")
    with pytest.raises(SetupError) as err:
        load_setup(path)
    assert str(err.value) == f"{path}:5: expected true/false, got 'maybe'"


def test_compare_expectations_reports_drift():
    document = {"phi_upper": 2, "strata": [{"j": 0, "image_dim": 3}]}
    assert compare_expectations(document, {"phi_upper": "2"}) == []
    problems = compare_expectations(document, {"phi_upper": "infinity", "strata": "0:1"})
    assert len(problems) == 2


def test_corpus_on_shipped_fixtures(fixture_dir):
    reports, exit_code = run_corpus(fixture_dir)
    assert exit_code == EXIT_OK
    assert len(reports) == 12
    assert all(not r.mismatches for r in reports)


def test_corpus_flags_mismatch(tmp_path, fixture_dir):
    good = (fixture_dir / "hyperbola.setup").read_text(encoding="utf-8")
    bad = good.replace("phi_upper: infinity", "phi_upper: 1")
    write(tmp_path, bad, name="wrong.setup")
    reports, exit_code = run_corpus(tmp_path)
    assert exit_code == EXIT_CORPUS_MISMATCH
    assert reports[0].mismatches


def test_corpus_requires_fixtures(tmp_path):
    with pytest.raises(SetupError):
        run_corpus(tmp_path)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def test_main_analyze_roundtrip(fixture_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", str(fixture_dir / "blowup_chart.setup"), "--json", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "phi_exact = 1" in printed
    document = json.loads(out.read_text(encoding="utf-8"))
    assert document["phi_exact"] == 1


def test_main_corpus(fixture_dir, capsys):
    assert main(["corpus", str(fixture_dir)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "quadric_cone.setup" in printed and "MISMATCH" not in printed


def test_main_corpus_prints_inconclusive_and_mismatch_lines(tmp_path, capsys):
    # without the attestation the vertical verdict and the lower bound stay
    # undecided, which the expect values 'inconclusive' and 'none' state
    undecided = MINIMAL + "expect:\n  vertical: inconclusive\n  phi_lower: none\n"
    first = write(tmp_path, undecided, name="a.setup")
    second = write(tmp_path, undecided + "  phi_upper: 1\n", name="b.setup")
    assert main(["corpus", str(tmp_path)]) == EXIT_CORPUS_MISMATCH
    assert capsys.readouterr().out.splitlines() == [
        f"{first}  inconclusive",
        f"{second}  MISMATCH",
        "    phi_upper: expected 1, got 'infinity'",
    ]


def test_main_reports_errors(tmp_path, capsys):
    missing = tmp_path / "nope.setup"
    assert main(["analyze", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_verify_power(fixture_dir, capsys):
    code = main(["verify-power", str(fixture_dir / "graph_line.setup"), "--i", "2"])
    assert code == EXIT_OK
    assert "vertical = False" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# error paths and exit codes
# ---------------------------------------------------------------------------


def test_directory_as_setup_file_is_a_setup_error(fixture_dir, capsys):
    with pytest.raises(SetupError):
        load_setup(fixture_dir)
    assert main(["analyze", str(fixture_dir)]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_byte_order_mark_is_accepted(fixture_dir, tmp_path):
    # the digest stays that of the bytes read, the mark included
    plain = fixture_dir / "quadric_cone.setup"
    data = b"\xef\xbb\xbf" + plain.read_bytes()
    marked = tmp_path / "marked.setup"
    marked.write_bytes(data)
    expected, loaded = load_setup(plain), load_setup(marked)
    assert loaded.setup == expected.setup and loaded.expect == expected.expect
    assert loaded.input_digest == hashlib.sha256(data).hexdigest() != expected.input_digest
    documents = [analyzed_document(f, max_power=2).document for f in (expected, loaded)]
    for document in documents:
        del document["input"], document["input_digest"]
    assert documents[0] == documents[1]


def test_non_utf8_setup_file_is_a_setup_error(tmp_path, capsys):
    path = tmp_path / "latin1.setup"
    path.write_bytes(MINIMAL.encode("utf-8") + b"# caf\xe9\n")
    with pytest.raises(SetupError):
        load_setup(path)
    assert main(["stratify", str(path)]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_unwritable_json_output_is_an_error(fixture_dir, tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    setup = str(fixture_dir / "graph_line.setup")
    assert main(["verify-power", setup, "--i", "1", "--json", str(out)]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_1_and_help_exits_0(fixture_dir, capsys):
    setup = str(fixture_dir / "hyperbola.setup")
    assert main(["analyze"]) == EXIT_ERROR
    assert main(["analyze", setup, "--max-power", "x"]) == EXIT_ERROR
    assert main(["--help"]) == EXIT_OK
    assert "usage:" in capsys.readouterr().out


def test_the_argument_parser_is_built_once_and_not_at_import():
    assert cli.build_arg_parser() is cli.build_arg_parser()
    # a fresh interpreter: importing the module builds no parser, the first
    # build does
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import fibrephi.cli\n"
        "print(len(built))\n"
        "fibrephi.cli.build_arg_parser()\n"
        "print(len(built) > 0)\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.split() == ["0", "True"]


def test_repeated_main_calls_keep_their_arguments_apart(fixture_dir, tmp_path, capsys):
    setup = str(fixture_dir / "hyperbola.setup")
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", setup, "--timings", "--json", str(first)]) == EXIT_OK
    assert main(["analyze", setup, "--json", str(second)]) == EXIT_OK
    assert "timings" in json.loads(first.read_text(encoding="utf-8"))
    assert "timings" not in json.loads(second.read_text(encoding="utf-8"))

    setup = str(fixture_dir / "quadric_cone.setup")
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    code = main(["verify-power", setup, "--i", "2", "--json", str(before)])
    capsys.readouterr()
    assert main(["verify-power", setup]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("usage: fibrephi verify-power")
    assert main(["--help"]) == EXIT_OK
    assert "usage: fibrephi" in capsys.readouterr().out
    assert main(["verify-power", setup, "--i", "2", "--json", str(after)]) == code
    assert after.read_bytes() == before.read_bytes()


def test_negative_max_power_is_an_error(fixture_dir, capsys):
    path = fixture_dir / "hyperbola.setup"
    with pytest.raises(FibrephiError):
        analyze(load_setup(path).setup, max_power=-1)
    assert main(["analyze", str(path), "--max-power", "-1"]) == EXIT_ERROR
    assert "max_power" in capsys.readouterr().err
