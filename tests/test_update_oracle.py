"""The harness's ``updates`` subject: sweep, fault injection, reproducers."""

from __future__ import annotations

import pytest

from repro.core.batch_dynamic import BatchDynamicKCore
from repro.regress.cli import main as regress_main
from repro.regress.goldens import read_golden
from repro.regress.harness import (
    ddmin,
    load_reproducer,
    replay,
    sweep,
    update_cases,
)
from repro.regress.matrix import load_graph
from repro.regress.update_oracle import (
    UPDATE_CASES,
    UpdateCase,
    run_update_case,
    run_update_matrix,
)


# ----------------------------------------------------------------------
# ddmin over sequences
# ----------------------------------------------------------------------
def test_minimize_sequence_shrinks_to_culprit():
    items = list(range(50))
    minimized = ddmin(items, lambda seq: 42 in seq)
    assert minimized == [42]


def test_minimize_sequence_preserves_order():
    items = [5, 3, 9, 1, 7]
    # Failing iff both 3 and 7 survive, in that order.
    def failing(seq):
        return 3 in seq and 7 in seq and seq.index(3) < seq.index(7)

    assert ddmin(items, failing) == [3, 7]


def test_minimize_sequence_requires_failing_input():
    with pytest.raises(ValueError):
        ddmin([1, 2, 3], lambda seq: False)


# ----------------------------------------------------------------------
# The sweep, clean and with a seeded fault
# ----------------------------------------------------------------------
class FaultyEngine(BatchDynamicKCore):
    """Seeded fault: the deletion cascade forgets most dirty vertices."""

    def _deletion_cascade(self, dirty, stream):
        return super()._deletion_cascade(dirty[:1], stream)


class FragileEngine(BatchDynamicKCore):
    """Seeded fault: any batch with a deletion raises."""

    def apply_batch(self, insertions=(), deletions=()):
        if len(deletions):
            raise RuntimeError("deletions unsupported")
        return super().apply_batch(insertions, deletions)


def tiny_corpus():
    return {"er-300": load_graph("er-300")}


def test_oracle_clean_on_correct_engine():
    cases = update_cases(
        tiny_corpus(), seeds=(0, 1), batches=4, batch_size=8
    )
    assert len(cases) == 6
    assert sweep(cases) == []


def test_seeded_fault_is_found_minimized_and_replayable(tmp_path):
    cases = update_cases(
        tiny_corpus(),
        seeds=(0, 1, 2),
        profiles=("churn",),
        batches=5,
        batch_size=10,
    )
    findings = sweep(
        cases, runners={"batch": FaultyEngine}, dump_dir=tmp_path
    )
    assert findings, "the seeded fault must be detected"
    finding = findings[0]
    assert finding.divergence.kind == "coreness"
    assert finding.divergence.step is not None
    assert finding.witness is not None
    assert finding.reproducer_path is not None

    # ddmin produced a witness no larger than the full sequence that
    # still fails under the faulty engine...
    case, payload = load_reproducer(finding.reproducer_path)
    assert case.updates == finding.witness.updates
    assert payload["subject"] == "updates"
    assert payload["expected"] is not None
    divergence = replay(
        finding.reproducer_path, runners={"batch": FaultyEngine}
    )
    assert divergence is not None

    # ...and replays clean under the correct engine.
    assert replay(finding.reproducer_path) is None


def test_minimized_witness_is_minimal_under_fault():
    cases = update_cases(
        tiny_corpus(),
        seeds=(0,),
        profiles=("churn",),
        batches=5,
        batch_size=10,
    )
    findings = sweep(cases, runners={"batch": FaultyEngine})
    if not findings:  # pragma: no cover - seed-dependent guard
        pytest.skip("seed 0 did not trip the seeded fault")
    finding = findings[0]
    total = (finding.divergence.step + 1) * 10
    assert len(finding.witness.updates) < total


def test_raising_engine_is_a_raised_finding():
    """A raise is a finding, shrunk while the same type is raised."""
    cases = update_cases(
        tiny_corpus(),
        seeds=(0, 1),
        profiles=("churn",),
        batches=3,
        batch_size=6,
    )
    findings = sweep(cases, runners={"batch": FragileEngine})
    assert [f.case.label for f in findings] == [
        "er-300/churn-s0", "er-300/churn-s1",
    ]
    for finding in findings:
        assert finding.divergence.kind == "raised"
        assert finding.divergence.got == "RuntimeError"
        assert "deletions unsupported" in finding.divergence.detail
        [(_, kind, _, _)] = finding.witness.updates
        assert kind == "del"


# ----------------------------------------------------------------------
# Pinned update-sequence goldens
# ----------------------------------------------------------------------
def test_twelve_pinned_cases():
    assert len(UPDATE_CASES) == 12
    keys = [case.entry_key for case in UPDATE_CASES]
    assert len(set(keys)) == 12
    for case in UPDATE_CASES:
        assert case.case_id == f"updates/{case.entry_key}"


def test_update_case_payload_is_deterministic():
    case = UpdateCase(graph="grid-24", profile="steady", seed=13)
    first = run_update_case(case)
    second = run_update_case(case)
    assert first == second
    assert set(first) == {
        "graph",
        "stream",
        "final_graph",
        "coreness",
        "trajectory_sha256",
        "metrics",
    }
    assert len(first["trajectory_sha256"]) == 16


def test_update_matrix_filter():
    matrix = run_update_matrix("grid-24")
    assert set(matrix) == {"updates"}
    assert all("grid-24" in key for key in matrix["updates"])
    assert run_update_matrix("no-such-case") == {}


def test_blessed_goldens_match_fresh_run():
    blessed = read_golden("updates")
    assert set(blessed) == {case.entry_key for case in UPDATE_CASES}
    case = next(c for c in UPDATE_CASES if c.graph == "er-300")
    assert run_update_case(case) == blessed[case.entry_key]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_oracle_updates_smoke(capsys):
    status = regress_main(
        [
            "oracle",
            "--subject",
            "updates",
            "--graphs",
            "GRID",
            "--seeds",
            "1",
            "--kernels",
            "reference",
        ]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "OK: the batch engine equals a recompute" in out
    assert "3 cases x kernel modes {reference}" in out


def test_cli_list_includes_update_cases(capsys):
    assert regress_main(["list"]) == 0
    out = capsys.readouterr().out
    for case in UPDATE_CASES:
        assert case.case_id in out
    assert "12 update" in out
