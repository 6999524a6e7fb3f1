"""The seeded input generator: seeds change the text but not the work.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``
(about a minute: every workload's first pass, traced, for two seeds).
"""

from __future__ import annotations

import pytest

import inputs
import run

SEEDS = (11, 12)


def test_seeds_give_different_text():
    for workload in inputs.WORKLOADS:
        a, b = (inputs.workload_pass(workload, seed, 0) for seed in SEEDS)
        assert [r.text for r in a] != [r.text for r in b]
        assert inputs.workload_pass(workload, SEEDS[0], 0) == a


@pytest.mark.parametrize("n, l", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_cyclic_text_matches_the_shipped_fixtures(n, l):
    shipped = (inputs.FIXTURES / f"cyclic_forms_n{n}_l{l}.setup").read_text(encoding="utf-8")
    assert inputs.parse_expect(inputs.cyclic_text(n, l, 0)) == inputs.parse_expect(shipped)


def traced_counts(workload: str, seed: int, workdir) -> dict:
    client = run.Client(run.import_fibrephi(), workdir)
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        # Client.send raises WrongVerdict on any report that breaks its expect block
        run.run_pass(client, inputs.workload_pass(workload, seed, 0), 0, tracer)
    finally:
        tracer.uninstall()
    assert client.failed == 0
    assert client.decided == client.attempted
    metrics = tracing.layer_metrics(tracer.spans, 0)
    return {m["name"]: metrics[m["name"]] for m in run.SPEC["per_layer"] if m["unit"] == "count"}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seeds_keep_expectations_and_counts(workload, tmp_path):
    first, second = (traced_counts(workload, seed, tmp_path) for seed in SEEDS)
    assert first["groebner.basis.calls"] > 0
    assert first == second


def test_wrong_verdicts_fail_and_inconclusive_ones_do_not():
    cli = run.import_fibrephi()
    expect = {"vertical": "false", "phi_exact": "2", "fibred_powers": "1:false, 2:false, 3:true"}
    powers = [{"i": 1, "verdict": False}, {"i": 2, "verdict": None}]
    undecided = {"vertical": {"verdict": None}, "phi_exact": None, "fibred_powers": powers}
    assert run.mismatches(cli, undecided, expect, run.EXIT_INCONCLUSIVE) == []
    assert run.mismatches(cli, undecided, expect, run.EXIT_OK) != []
    wrong = dict(undecided, vertical={"verdict": True})
    assert run.mismatches(cli, wrong, expect, run.EXIT_INCONCLUSIVE) != []
    wrong_power = dict(undecided, fibred_powers=[{"i": 1, "verdict": True}, powers[1]])
    assert run.mismatches(cli, wrong_power, expect, run.EXIT_INCONCLUSIVE) != []
