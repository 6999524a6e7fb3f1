"""The README's quick library session runs and prints what its comments say,
its command lines run and exit 0, its setup-file example loads and meets its
own expect block, and its resource-cap paragraph names every cap with its
value and module."""

import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

from fibrephi import analyze, geometry, groebner, parser
from fibrephi.cli import (
    analysis_document,
    compare_expectations,
    load_setup,
    main,
    required_max_power,
)

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_library_session_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["1 smooth-target", "((1, False), (2, True))"]


def test_readme_command_lines_run_in_one_process(tmp_path, monkeypatch, capsys):
    # in order, through one process's shared argument parser, with the
    # fixture paths made absolute and any output written under tmp_path
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Command line\n\n```sh\n(.*?)```", text, re.S)
    lines = [shlex.split(line) for line in block.splitlines()]
    assert {words[0] for words in lines} == {"fibrephi"}
    assert {words[1] for words in lines} == {"analyze", "stratify", "verify-power", "corpus"}
    monkeypatch.chdir(tmp_path)
    for words in lines:
        argv = [str(ROOT / w) if w.split("/")[0] == "fixtures" else w for w in words[1:]]
        assert main(argv) == 0, words
    assert capsys.readouterr().err == ""


def test_readme_setup_file_loads_and_meets_its_expectations(tmp_path):
    blocks = re.findall(r"```\n(vars_target:.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.setup"
    path.write_text(blocks[0], encoding="utf-8")
    setup_file = load_setup(path)
    assert setup_file.expect
    report = analyze(setup_file.setup, required_max_power(setup_file.expect))
    document = analysis_document(setup_file, report).document
    assert compare_expectations(document, setup_file.expect) == []


def test_readme_resource_caps_match_the_modules():
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    (text,) = [p for p in paragraphs if "Resource caps are module constants" in p]
    # each "`NAME` (value)" belongs to the next "`fibrephi.module`" named
    listed: dict[str, int] = {}
    pending: list[tuple[str, int]] = []
    token = r"`([A-Z][A-Z0-9_]+)`(?:\s+\(([\d,]+)\))?|`fibrephi\.(\w+)`"
    for name, value, module in re.findall(token, text):
        if module:
            owner = importlib.import_module(f"fibrephi.{module}")
            for cap, stated in pending:
                assert getattr(owner, cap, None) == stated, (module, cap)
                listed[cap] = stated
            pending.clear()
        elif value:
            pending.append((name, int(value.replace(",", ""))))
        else:
            assert name in listed or name in dict(pending), name
    assert not pending, pending
    constants = {
        name
        for module in (groebner, geometry, parser)
        for name, value in vars(module).items()
        if name.isupper() and type(value) is int
    }
    assert constants == set(listed)
