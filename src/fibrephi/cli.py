"""Batch interface: setup files, JSON report documents, corpus runs.

Setup files are line-oriented UTF-8 with ``#`` comments::

    vars_target: y1 y2 y3 y4
    vars_source: x
    ambient_target_ideal: y1*y4 - y2*y3
    target_equals_ambient: true
    source_ideal: y1*x^2 + y4*x + y2 - y3
    assert_target_locally_irreducible: true
    assert_target_pure_dimensional: true
    expect:
      phi_exact: 2

The optional ``expect`` block (indented lines) never influences computation;
the corpus runner compares reports against it and fails on drift.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import FibrephiError, ParseError, SetupError
from .geometry import (
    ProjectionSetup,
    Stratification,
    VerticalResult,
    fibred_power,
    has_vertical_component,
    make_setup,
)
from .invariant import ExtendedNat, PhiReport, analyze
from .parser import parse_polynomial_list
from .poly import PolynomialRing

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_CORPUS_MISMATCH = 3

_KNOWN_KEYS = {
    "vars_target",
    "vars_source",
    "ambient_target_ideal",
    "target_equals_ambient",
    "target_ideal",
    "source_ideal",
    "assert_target_locally_irreducible",
    "assert_target_pure_dimensional",
}


@dataclass
class SetupFile:
    """A parsed setup file: the setup, the SHA-256 of the bytes it was parsed
    from, and any expected-results block."""

    path: Path
    setup: ProjectionSetup
    input_digest: str
    expect: dict[str, str] = field(default_factory=dict)


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _parse_bool(value: str, where: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise SetupError(f"{where}: expected true/false, got {value!r}")


def load_setup(path: str | Path) -> SetupFile:
    """Parse and validate a setup file; derived dimensions are recomputed.

    The file is read once: the digest is of the very bytes that were parsed,
    a leading UTF-8 byte-order mark included.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SetupError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise SetupError(f"{path}: not UTF-8 text ({exc})") from exc
    lines = text.splitlines()
    keys: dict[str, tuple[int, str]] = {}
    expect: dict[str, str] = {}
    in_expect = False
    for lineno, raw in enumerate(lines, start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        indented = line[0].isspace()
        body = line.strip()
        if in_expect and indented:
            key, _, value = body.partition(":")
            key = key.strip()
            if key not in _EXPECT:
                raise SetupError(f"{where}: unknown expect key {key!r}")
            if key in expect:
                raise SetupError(f"{where}: duplicate expect key {key!r}")
            value = value.strip()
            try:
                _EXPECT[key][0](value)
            except (ValueError, SetupError) as exc:
                raise SetupError(f"{where}: malformed {key} value {value!r}") from exc
            expect[key] = value
            continue
        in_expect = False
        key, sep, value = body.partition(":")
        key = key.strip()
        if not sep:
            raise SetupError(f"{where}: expected 'key: value'")
        if key in keys:
            raise SetupError(f"{where}: duplicate key {key!r}")
        if key == "expect":
            if value.strip():
                raise SetupError(f"{where}: expect values go on indented lines below 'expect:'")
            keys[key] = (lineno, "")
            in_expect = True
            continue
        if key not in _KNOWN_KEYS:
            raise SetupError(f"{where}: unknown key {key!r}")
        keys[key] = (lineno, value.strip())

    def need(key: str) -> str:
        if key not in keys:
            raise SetupError(f"{path}: missing required key {key!r}")
        return keys[key][1]

    def flag(key: str, default: str) -> bool:
        lineno, value = keys.get(key, (0, default))
        return _parse_bool(value, f"{path}:{lineno}")

    def split_names(text: str) -> list[str]:
        return [n for n in text.replace(",", " ").split() if n]

    target_names = split_names(need("vars_target"))
    source_names = split_names(need("vars_source"))
    try:
        ring = PolynomialRing(target_names, source_names)
    except FibrephiError as exc:
        raise SetupError(f"{path}: {exc}") from exc

    def poly_list(key: str):
        lineno, value = keys.get(key, (0, "0"))
        if value == "0":
            return []
        line = lines[lineno - 1]
        start = line.index(value, line.index(":") + 1)  # columns before the value
        try:
            return parse_polynomial_list(value, ring)
        except ParseError as exc:
            raise SetupError(
                f"{path}:{lineno} ({key}): {exc.args[0]} (column {start + exc.column})"
            ) from exc

    ambient = poly_list("ambient_target_ideal")
    if flag("target_equals_ambient", "true") == ("target_ideal" in keys):
        raise SetupError(f"{path}: give target_ideal exactly when target_equals_ambient is false")
    target = None
    if "target_ideal" in keys:
        target = poly_list("target_ideal")
    need("source_ideal")
    sources = poly_list("source_ideal")
    loc_irr = flag("assert_target_locally_irreducible", "false")
    pure_dim = flag("assert_target_pure_dimensional", "false")

    try:
        setup = make_setup(
            ring,
            ambient_target_generators=ambient,
            source_generators=sources,
            target_generators=target,
            assert_target_locally_irreducible=loc_irr,
            assert_target_pure_dimensional=pure_dim,
        )
    except SetupError as exc:
        raise SetupError(f"{path}: {exc}") from exc
    return SetupFile(
        path=path,
        setup=setup,
        input_digest=hashlib.sha256(data).hexdigest(),
        expect=expect,
    )


# ---------------------------------------------------------------------------
# report documents
# ---------------------------------------------------------------------------


@dataclass
class ReportDocument:
    """Machine-readable result of one command run."""

    document: dict
    inconclusive: bool = False
    mismatches: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.document, indent=2) + "\n"

    @property
    def exit_code(self) -> int:
        if self.mismatches:
            return EXIT_CORPUS_MISMATCH
        return EXIT_INCONCLUSIVE if self.inconclusive else EXIT_OK


def _ext(value: ExtendedNat | None):
    return None if value is None else value.json_value()


def _ideal_json(ideal) -> list[str]:
    return [str(g) for g in ideal.generators]


def _strata_json(strat: Stratification) -> dict:
    """The ``strata``, ``fibre_dimensions`` and ``lambda`` fields of a document."""
    out = []
    for s in strat.strata:
        out.append(
            {
                "j": s.fibre_dim,
                "image_dim": s.image_dim,
                "image_ideal": _ideal_json(s.image_ideal),
                "cells": [
                    {
                        "closure": _ideal_json(c.closure),
                        "inequations": [str(h) for h in c.inequations],
                    }
                    for c in s.cells
                ],
            }
        )
    return {
        "strata": out,
        "fibre_dimensions": list(strat.fibre_dimensions),
        "lambda": strat.min_fibre_dim,
    }


def _vertical_json(v: VerticalResult) -> dict:
    return {
        "verdict": v.verdict,
        "witness": None if v.witness is None else str(v.witness),
        "detail": v.detail,
    }


def _header(command: str, setup_file: SetupFile) -> dict:
    """The fields every document opens with: tool, version, command and input."""
    return {
        "tool": "fibrephi",
        "version": __version__,
        "command": command,
        "input": str(setup_file.path),
        "input_digest": setup_file.input_digest,
    }


def analysis_document(
    setup_file: SetupFile, report: PhiReport, include_timings: bool = False
) -> ReportDocument:
    """The ``analyze`` document of ``report``; wall-clock timings only on request."""
    setup = report.setup
    purity = setup.purity
    document = {
        **_header("analyze", setup_file),
        "seed": report.seed,
        "dims": setup.dims(),
        "attestations": {
            "target_locally_irreducible": setup.assert_target_locally_irreducible,
            "target_pure_dimensional": setup.assert_target_pure_dimensional,
        },
        "purity": {
            "pure": purity.pure,
            "dim": purity.dim,
            "piece_dims": list(purity.piece_dims),
        },
        **_strata_json(setup.stratification),
        "vertical": _vertical_json(setup.vertical),
        "phi_upper": _ext(report.phi_upper),
        "phi_lower": _ext(report.phi_lower),
        "phi_exact": _ext(report.phi_exact),
        "exactness_tag": report.exactness_tag,
        "fibred_powers": [{"i": i, "verdict": v} for i, v in report.fibred_power_verdicts],
        "fibred_power_summary": report.fibred_power_summary,
        "multiplicity_bound": report.multiplicity_bound,
        "oracle": dict(report.oracle),
        "warnings": list(report.warnings),
        "notes": list(report.notes),
    }
    if include_timings:
        document["timings"] = dict(report.timings)
    return ReportDocument(document, inconclusive=report.inconclusive)


def run_stratify(setup_file: SetupFile) -> ReportDocument:
    setup = setup_file.setup
    document = {
        **_header("stratify", setup_file),
        "dims": setup.dims(),
        **_strata_json(setup.stratification),
    }
    return ReportDocument(document)


def run_verify_power(setup_file: SetupFile, i: int) -> ReportDocument:
    setup = setup_file.setup
    power = fibred_power(setup, i)
    result = has_vertical_component(setup, i)
    document = {
        **_header("verify-power", setup_file),
        "power": i,
        "variables": list(power.ring.variables),
        "generators": [str(g) for g in power.generators],
        "vertical": _vertical_json(result),
    }
    return ReportDocument(document)


# ---------------------------------------------------------------------------
# expectation comparison and the corpus runner
# ---------------------------------------------------------------------------


def _natural(text: str, least: int = 0) -> int:
    value = int(text)
    if value < least:
        raise ValueError(f"{value} is below {least}")
    return value


def _parse_expected_phi(text: str):
    t = text.strip().lower()
    if t in ("infinity", "inf"):
        return "infinity"
    if t in ("none", "n/a", "not-applicable", "null"):
        return None
    return _natural(t)


def _parse_expected_verdict(text: str):
    t = text.strip().lower()
    if t in ("inconclusive", "none", "null"):
        return None
    return _parse_bool(t, "expect")


def _pairs(text: str) -> list[tuple[str, str]]:
    return [chunk.partition(":")[::2] for chunk in text.split(",")]


# expect key -> (parser of the stated value, reader of the reported value).  A
# parser raises ValueError or SetupError on a malformed value, a negative count
# or a power index below 1 among them.
_EXPECT = {
    "phi_upper": (_parse_expected_phi, lambda d: d.get("phi_upper")),
    "phi_lower": (_parse_expected_phi, lambda d: d.get("phi_lower")),
    "phi_exact": (_parse_expected_phi, lambda d: d.get("phi_exact")),
    "exactness_tag": (str.strip, lambda d: d.get("exactness_tag")),
    "strata": (
        lambda t: {(_natural(j), _natural(dim)) for j, dim in _pairs(t)},
        lambda d: {(s["j"], s["image_dim"]) for s in d.get("strata", [])},
    ),
    "pure": (_parse_expected_verdict, lambda d: d.get("purity", {}).get("pure")),
    "pure_dim": (_natural, lambda d: d.get("purity", {}).get("dim")),
    "lambda": (_natural, lambda d: d.get("lambda")),
    "vertical": (_parse_expected_verdict, lambda d: d.get("vertical", {}).get("verdict")),
    "fibred_powers": (
        lambda t: [
            {"i": _natural(i, 1), "verdict": _parse_expected_verdict(v)} for i, v in _pairs(t)
        ],
        lambda d: d.get("fibred_powers"),
    ),
    "multiplicity_bound": (_natural, lambda d: d.get("multiplicity_bound")),
}


def compare_expectations(document: dict, expect: dict[str, str]) -> list[str]:
    """Differences between a report document and a fixture's expect block."""
    problems: list[str] = []
    for key, (parse, read) in _EXPECT.items():
        if key in expect:
            wanted, actual = parse(expect[key]), read(document)
            if actual != wanted:
                problems.append(f"{key}: expected {wanted!r}, got {actual!r}")
    return problems


def required_max_power(expect: dict[str, str]) -> int:
    if "fibred_powers" not in expect:
        return 0
    return max(int(i) for i, _ in _pairs(expect["fibred_powers"]))


def run_corpus(directory: str | Path, seed: int = 0) -> tuple[list[ReportDocument], int]:
    """Analyze every ``*.setup`` fixture under ``directory`` and compare expectations.

    Each fixture is analyzed up to the highest fibred power its expect block
    names.  Returns the per-file reports (sorted by path) and the overall exit
    code: 3 on any expectation mismatch, otherwise the worst per-file code.
    """
    directory = Path(directory)
    paths = sorted(directory.glob("*.setup"))
    if not paths:
        raise SetupError(f"no *.setup fixtures under {directory}")
    reports: list[ReportDocument] = []
    exit_code = EXIT_OK
    for path in paths:
        setup_file = load_setup(path)
        max_power = required_max_power(setup_file.expect)
        report = analysis_document(setup_file, analyze(setup_file.setup, max_power, seed))
        report.mismatches = compare_expectations(report.document, setup_file.expect)
        reports.append(report)
        exit_code = max(exit_code, report.exit_code)
    return reports, exit_code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _print_strata(strata: list[dict]):
    for s in strata:
        ideal = ", ".join(s["image_ideal"]) or "0"
        print(f"stratum j={s['j']}: image dim {s['image_dim']}, image ideal ({ideal})")


def _print_analysis_summary(doc: dict):
    dims = doc["dims"]
    print(f"input: {doc['input']}")
    print(f"dims: N={dims['N']} n={dims['n']} k={dims['k']} r={dims['r']} m={dims['m']}")
    purity = doc["purity"]
    print(
        f"pure-dimensional: {purity['pure']} (dim {purity['dim']}, pieces {purity['piece_dims']})"
    )
    _print_strata(doc["strata"])
    vertical = doc["vertical"]
    line = f"vertical component: {vertical['verdict']}"
    if vertical["witness"]:
        line += f" (witness {vertical['witness']})"
    print(line)
    print(
        f"phi_upper = {doc['phi_upper']}  phi_lower = {doc['phi_lower']}  "
        f"phi_exact = {doc['phi_exact']} [{doc['exactness_tag']}]"
    )
    if doc["fibred_powers"]:
        verdicts = ", ".join(f"{e['i']}:{e['verdict']}" for e in doc["fibred_powers"])
        print(f"fibred powers: {verdicts} => {doc['fibred_power_summary']}")
    if doc["multiplicity_bound"] is not None:
        print(f"generic fibre cardinality bound: {doc['multiplicity_bound']}")
    for w in doc["warnings"]:
        print(f"warning: {w}")


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it;
    it holds no request data, as each ``parse_args`` returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="fibrephi",
        description="Exact bounds for the fibre-approximation invariant of a polynomial projection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full pipeline on one setup file")
    analyze.add_argument("file")
    analyze.add_argument("--max-power", type=int, default=0, metavar="I")
    analyze.add_argument("--seed", type=int, default=0, metavar="S")
    analyze.add_argument("--json", dest="json_out", metavar="OUT")
    analyze.add_argument("--timings", action="store_true")

    stratify = sub.add_parser("stratify", help="fibre-dimension stratification only")
    stratify.add_argument("file")
    stratify.add_argument("--json", dest="json_out", metavar="OUT")

    verify = sub.add_parser("verify-power", help="vertical-component verdict on one fibred power")
    verify.add_argument("file")
    verify.add_argument("--i", type=int, required=True)
    verify.add_argument("--json", dest="json_out", metavar="OUT")

    corpus = sub.add_parser("corpus", help="run every *.setup fixture in a directory")
    corpus.add_argument("directory")
    corpus.add_argument("--seed", type=int, default=0, metavar="S")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The argument parser is built once per process, on the first call, and
    every later call reuses it; importing this module builds none.
    """
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        if args.command == "corpus":
            reports, exit_code = run_corpus(args.directory, args.seed)
            width = max(len(r.document["input"]) for r in reports)
            for r in reports:
                status = "ok" if not r.mismatches else "MISMATCH"
                if r.inconclusive and not r.mismatches:
                    status = "inconclusive"
                print(f"{r.document['input']:<{width}}  {status}")
                for m in r.mismatches:
                    print(f"    {m}")
            return exit_code
        setup_file = load_setup(args.file)
        if args.command == "analyze":
            result = analyze(setup_file.setup, args.max_power, args.seed)
            report = analysis_document(setup_file, result, args.timings)
            _print_analysis_summary(report.document)
        elif args.command == "stratify":
            report = run_stratify(setup_file)
            _print_strata(report.document["strata"])
        else:
            report = run_verify_power(setup_file, args.i)
            vertical = report.document["vertical"]
            print(f"power {args.i}: vertical = {vertical['verdict']}")
            if vertical["witness"]:
                print(f"witness: {vertical['witness']}")
    except FibrephiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.json_out:
        try:
            Path(args.json_out).write_text(report.to_json(), encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.json_out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_ERROR
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
