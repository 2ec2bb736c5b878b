"""Checkpoint/resume: mid-flow serialization, safe-resume refusals, and
corrupt-checkpoint recovery."""

import hashlib
import json

import pytest

from repro.bench_suite import load_circuit
from repro.errors import CheckpointCorruptError, FlowError
from repro.flow import CHECKPOINT_SCHEMA, FlowCheckpoint
from repro.flow.passes import DischargePass
from repro.mapping import MapperConfig, flow_passes, map_network

CONFIG = MapperConfig(ordering="paper", pareto=False)


def _boom(self, ctx):
    raise RuntimeError("simulated crash before discharge insertion")


def _interrupt(monkeypatch, tmp_path, circuit="cm150"):
    """Run the soi flow but crash in ``discharge``; returns the ckpt dir."""
    ckpt_dir = tmp_path / "ckpt"
    with monkeypatch.context() as patch:
        patch.setattr(DischargePass, "run", _boom)
        with pytest.raises(RuntimeError, match="simulated crash"):
            map_network(load_circuit(circuit), flow="soi", config=CONFIG,
                        checkpoint_dir=ckpt_dir)
    return ckpt_dir


def test_interrupted_run_leaves_restorable_checkpoint(monkeypatch, tmp_path):
    ckpt_dir = _interrupt(monkeypatch, tmp_path)
    ckpt = FlowCheckpoint(ckpt_dir)
    assert ckpt.exists()
    manifest = ckpt.load_manifest()
    assert manifest["schema"] == CHECKPOINT_SCHEMA
    assert manifest["flow"] == "soi"
    assert manifest["passes"] == list(flow_passes("soi"))
    # everything up to the crash completed; the plan artifact is on disk
    assert manifest["completed"] == ["decompose", "sweep", "unate", "dp-map"]
    assert "plan" in manifest["artifacts"]
    assert (ckpt_dir / manifest["artifacts"]["plan"]).is_file()


def test_resume_matches_uninterrupted_digest(monkeypatch, tmp_path):
    """The satellite's core guarantee: resume == one uninterrupted run."""
    uninterrupted = map_network(load_circuit("cm150"), flow="soi",
                                config=CONFIG)
    ckpt_dir = _interrupt(monkeypatch, tmp_path)
    resumed = map_network(load_circuit("cm150"), flow="soi", config=CONFIG,
                          checkpoint_dir=ckpt_dir)
    assert resumed.circuit.digest() == uninterrupted.circuit.digest()
    statuses = {r.name: r.status for r in resumed.passes}
    assert statuses == {"decompose": "resumed", "sweep": "resumed",
                        "unate": "resumed", "dp-map": "resumed",
                        "discharge": "ok", "analyze": "ok"}


def test_completed_run_resumes_everything(tmp_path):
    ckpt_dir = tmp_path / "ckpt"
    first = map_network(load_circuit("mux"), flow="soi", config=CONFIG,
                        checkpoint_dir=ckpt_dir)
    again = map_network(load_circuit("mux"), flow="soi", config=CONFIG,
                        checkpoint_dir=ckpt_dir)
    assert all(r.status == "resumed" for r in again.passes)
    assert again.circuit.digest() == first.circuit.digest()


def test_resume_refuses_different_flow(monkeypatch, tmp_path):
    ckpt_dir = _interrupt(monkeypatch, tmp_path)
    with pytest.raises(FlowError, match="was taken for flow"):
        map_network(load_circuit("cm150"), flow="domino", config=CONFIG,
                    checkpoint_dir=ckpt_dir)


def test_resume_refuses_different_pass_list(monkeypatch, tmp_path):
    ckpt_dir = _interrupt(monkeypatch, tmp_path)
    with pytest.raises(FlowError, match="pass list"):
        map_network(load_circuit("cm150"), flow="soi", config=CONFIG,
                    passes=flow_passes("rs"), checkpoint_dir=ckpt_dir)


def test_resume_refuses_different_config(monkeypatch, tmp_path):
    ckpt_dir = _interrupt(monkeypatch, tmp_path)
    with pytest.raises(FlowError, match="different .*config"):
        map_network(load_circuit("cm150"), flow="soi",
                    config=MapperConfig(ordering="exhaustive"),
                    checkpoint_dir=ckpt_dir)


def test_resume_under_another_kernel(tmp_path):
    """The kernel is execution strategy: its checkpoints are shared."""
    ckpt_dir = tmp_path / "ckpt"
    first = map_network(load_circuit("cm150"), flow="soi",
                        config=MapperConfig(kernel="auto"),
                        checkpoint_dir=ckpt_dir)
    again = map_network(load_circuit("cm150"), flow="soi",
                        config=MapperConfig(kernel="reference"),
                        checkpoint_dir=ckpt_dir)
    assert all(r.status == "resumed" for r in again.passes)
    assert again.circuit.digest() == first.circuit.digest()


def test_resume_ignores_config_fields_that_no_longer_exist(monkeypatch,
                                                           tmp_path):
    """A manifest from before ``auto_threshold`` was removed resumes."""
    uninterrupted = map_network(load_circuit("cm150"), flow="soi",
                                config=CONFIG)
    ckpt_dir = _interrupt(monkeypatch, tmp_path)
    path = ckpt_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"]["auto_threshold"] = 128
    path.write_text(json.dumps(manifest))
    resumed = map_network(load_circuit("cm150"), flow="soi", config=CONFIG,
                          checkpoint_dir=ckpt_dir)
    assert resumed.circuit.digest() == uninterrupted.circuit.digest()
    assert resumed.passes[3].status == "resumed"


def test_manifest_records_artifact_checksums(monkeypatch, tmp_path):
    ckpt_dir = _interrupt(monkeypatch, tmp_path)
    manifest = FlowCheckpoint(ckpt_dir).load_manifest()
    assert set(manifest["checksums"]) == set(manifest["artifacts"])
    for name, filename in manifest["artifacts"].items():
        payload = (ckpt_dir / filename).read_bytes()
        assert hashlib.sha256(payload).hexdigest() == manifest["checksums"][name]


def test_resume_recovers_corrupt_artifact(monkeypatch, tmp_path):
    """A corrupt artifact rewinds to the last verified pass, not a crash.

    Corrupting ``plan`` (owned by dp-map, the last completed pass) must
    resume after ``unate`` and re-run dp-map onward — and still produce
    the uninterrupted run's exact digest.
    """
    uninterrupted = map_network(load_circuit("cm150"), flow="soi",
                                config=CONFIG)
    ckpt_dir = _interrupt(monkeypatch, tmp_path)
    manifest = FlowCheckpoint(ckpt_dir).load_manifest()
    (ckpt_dir / manifest["artifacts"]["plan"]).write_bytes(b"not a pickle")
    resumed = map_network(load_circuit("cm150"), flow="soi", config=CONFIG,
                          checkpoint_dir=ckpt_dir)
    assert resumed.circuit.digest() == uninterrupted.circuit.digest()
    statuses = {r.name: r.status for r in resumed.passes}
    assert statuses == {"decompose": "resumed", "sweep": "resumed",
                        "unate": "resumed", "dp-map": "ok",
                        "discharge": "ok", "analyze": "ok"}


def test_resume_recovers_checksum_mismatch(monkeypatch, tmp_path):
    """Valid pickle bytes that fail the checksum are still corruption."""
    ckpt_dir = _interrupt(monkeypatch, tmp_path)
    ckpt = FlowCheckpoint(ckpt_dir)
    manifest = ckpt.load_manifest()
    path = ckpt_dir / manifest["artifacts"]["plan"]
    path.write_bytes((ckpt_dir / manifest["artifacts"]["network"])
                     .read_bytes())
    resumed = map_network(load_circuit("cm150"), flow="soi", config=CONFIG,
                          checkpoint_dir=ckpt_dir)
    statuses = {r.name: r.status for r in resumed.passes}
    assert statuses["dp-map"] == "ok"
    assert statuses["unate"] == "resumed"


def test_corrupt_root_artifact_reruns_everything(monkeypatch, tmp_path):
    """``network`` has providers on both sides of any non-zero cut, so
    corrupting it forces a full re-run — which must still succeed."""
    uninterrupted = map_network(load_circuit("cm150"), flow="soi",
                                config=CONFIG)
    ckpt_dir = _interrupt(monkeypatch, tmp_path)
    manifest = FlowCheckpoint(ckpt_dir).load_manifest()
    (ckpt_dir / manifest["artifacts"]["network"]).write_bytes(b"\x00" * 16)
    resumed = map_network(load_circuit("cm150"), flow="soi", config=CONFIG,
                          checkpoint_dir=ckpt_dir)
    assert resumed.circuit.digest() == uninterrupted.circuit.digest()
    assert all(r.status in ("ok", "skipped") for r in resumed.passes)


def test_corrupt_manifest_json_raises_corrupt_error(monkeypatch, tmp_path):
    ckpt_dir = _interrupt(monkeypatch, tmp_path)
    FlowCheckpoint(ckpt_dir).manifest_path.write_text("{not json",
                                                      encoding="utf-8")
    with pytest.raises(CheckpointCorruptError, match="not valid\\s+JSON"):
        map_network(load_circuit("cm150"), flow="soi", config=CONFIG,
                    checkpoint_dir=ckpt_dir)


def test_checkpoint_save_leaves_no_temp_files(tmp_path):
    ckpt_dir = tmp_path / "ckpt"
    map_network(load_circuit("mux"), flow="soi", config=CONFIG,
                checkpoint_dir=ckpt_dir)
    leftovers = [p.name for p in ckpt_dir.iterdir()
                 if p.suffix == ".tmp"]
    assert leftovers == []


def test_resume_refuses_wrong_schema(monkeypatch, tmp_path):
    ckpt_dir = _interrupt(monkeypatch, tmp_path)
    ckpt = FlowCheckpoint(ckpt_dir)
    manifest = ckpt.load_manifest()
    manifest["schema"] = "soidomino-flow-checkpoint/999"
    ckpt.manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(FlowError, match="schema"):
        map_network(load_circuit("cm150"), flow="soi", config=CONFIG,
                    checkpoint_dir=ckpt_dir)


def test_resume_refuses_non_prefix_completed(monkeypatch, tmp_path):
    ckpt_dir = _interrupt(monkeypatch, tmp_path)
    ckpt = FlowCheckpoint(ckpt_dir)
    manifest = ckpt.load_manifest()
    manifest["completed"] = ["sweep", "decompose"]
    ckpt.manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(FlowError, match="not a\\s+prefix"):
        map_network(load_circuit("cm150"), flow="soi", config=CONFIG,
                    checkpoint_dir=ckpt_dir)
