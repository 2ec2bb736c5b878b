"""The chaos drill itself: full fault matrix, recovery, determinism."""

import json

import pytest

from repro.cli import main
from repro.resilience import FAULT_POINTS, chaos_sites, run_chaos

CIRCUITS = ("mux", "cm150")


@pytest.fixture(scope="module")
def full_report():
    return run_chaos(CIRCUITS, seed=0, jobs=2)


def test_sites_mirror_the_registry():
    assert chaos_sites() == list(FAULT_POINTS)


def test_full_matrix_recovers(full_report):
    """The acceptance criterion: every registered fault point's scenario
    completes with its documented recovery and pinned digests."""
    assert [o.site for o in full_report.outcomes] == chaos_sites()
    for outcome in full_report.outcomes:
        assert outcome.ok, f"{outcome.site}: {outcome.detail}"
        assert outcome.digests_ok is not False


def test_batch_scenarios_report_accurate_per_task_outcomes(full_report):
    by_site = {o.site: o for o in full_report.outcomes}
    crash = by_site["worker.crash"]
    assert all(v == "ok" for v in crash.tasks.values())
    parse = by_site["parse.fail"]
    assert "ParseError" in parse.tasks["mux/soi/area"]
    assert parse.tasks["cm150/soi/area"] == "ok"


def test_report_serializes(full_report):
    payload = full_report.as_dict()
    assert payload["schema"] == "soidomino-chaos/1"
    assert payload["ok"] is True
    assert len(payload["outcomes"]) == len(FAULT_POINTS) == 9
    json.dumps(payload)     # JSON-clean all the way down


def test_unknown_site_is_rejected():
    with pytest.raises(ValueError, match="unknown chaos site"):
        run_chaos(CIRCUITS, sites=["nope"])


def test_site_subset_runs_only_those():
    report = run_chaos(CIRCUITS, sites=["parse.fail", "cache.poison"])
    assert [o.site for o in report.outcomes] == ["parse.fail",
                                                 "cache.poison"]
    assert report.ok


def test_cli_chaos_json(capsys):
    code = main(["chaos", "mux", "cm150", "--site", "parse.fail",
                 "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["outcomes"][0]["site"] == "parse.fail"


def test_cli_chaos_text(capsys):
    code = main(["chaos", "mux", "cm150", "--site", "resource.exhaust"])
    assert code == 0
    out = capsys.readouterr().out
    assert "1/1 scenarios recovered" in out
    assert "resource.exhaust" in out
