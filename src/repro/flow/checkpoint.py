"""Flow checkpoints: serialize artifacts after any pass, resume later.

A checkpoint directory holds one pickle per artifact plus a JSON
``manifest.json`` describing the run: schema version, flow name, the
full pass list, the prefix of passes already completed, the mapper
config that produced the artifacts, and a SHA-256 checksum per stored
artifact.  :meth:`FlowCheckpoint.restore` refuses to resume when the
run identity disagrees with the resuming pipeline — a checkpoint taken
under a different config would silently produce a different circuit,
which is exactly the failure mode the digest tests pin against.

Integrity failures are treated differently from identity mismatches.
Every write is atomic (temp file + ``os.replace``) so a crash mid-save
never leaves a half-written artifact behind a valid manifest, and every
restore re-hashes the artifact bytes against the manifest checksum
before unpickling.  When an artifact *is* corrupt — bad checksum,
truncated pickle, missing file — restore does not give up the whole
checkpoint: it recomputes the longest completed-pass prefix whose
artifacts all verify (see :meth:`restore`) and resumes from there,
recording the recovery on the context's tracer/metrics.  Only the work
derived from the corrupt bytes is repeated; in the worst case the flow
re-runs from the start, which is always correct.

Artifacts are pickled (they are plain dataclass/object trees: networks,
mapping plans, results); the manifest stays human-readable JSON so a
checkpoint can be inspected without loading it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import CheckpointCorruptError, FlowError
from ..resilience.faults import emit_recovery, fire
from .context import ARTIFACTS, FlowContext

#: Manifest format identifier; bump on breaking changes.
CHECKPOINT_SCHEMA = "soidomino-flow-checkpoint/2"

MANIFEST_NAME = "manifest.json"


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _write_atomic(path: Path, payload: bytes) -> None:
    """All-or-nothing file write: temp file in the same directory, then
    ``os.replace`` (atomic on POSIX), so readers never observe a
    half-written artifact or manifest."""
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class FlowCheckpoint:
    """Persistence of one flow run's artifacts under a directory."""

    def __init__(self, directory):
        self.directory = Path(directory)

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def exists(self) -> bool:
        return self.manifest_path.is_file()

    def _artifact_path(self, name: str) -> Path:
        return self.directory / f"artifact-{name}.pkl"

    # -- writing ---------------------------------------------------------
    def save(self, ctx: FlowContext, pipeline,
             completed: List[str]) -> None:
        """Serialize the context's artifacts after a completed pass.

        Artifacts are written first, each atomically and with its
        checksum recorded; the manifest referencing them is replaced
        last, so an interrupted save leaves the previous checkpoint
        fully intact (at worst plus some orphaned artifact files the
        next save overwrites).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        stored: Dict[str, str] = {}
        checksums: Dict[str, str] = {}
        for name, value in ctx.artifacts.items():
            path = self._artifact_path(name)
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            checksums[name] = _sha256(payload)
            if fire("checkpoint.corrupt", name, ctx.tracer,
                    ctx.metrics) is not None:
                # injected fault: damage the bytes *after* the checksum
                # was recorded, the signature of on-disk corruption
                payload = b"\xde\xad" + payload[2:]
            _write_atomic(path, payload)
            stored[name] = path.name
        manifest = {
            "schema": CHECKPOINT_SCHEMA,
            "flow": ctx.flow,
            "passes": pipeline.pass_names,
            "completed": list(completed),
            "config": asdict(ctx.config),
            "artifacts": stored,
            "checksums": checksums,
        }
        payload = (json.dumps(manifest, indent=1) + "\n").encode("utf-8")
        _write_atomic(self.manifest_path, payload)

    # -- reading ---------------------------------------------------------
    def load_manifest(self) -> dict:
        try:
            with open(self.manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except OSError as exc:
            raise FlowError(
                f"cannot read checkpoint manifest {self.manifest_path}: "
                f"{exc}") from exc
        except ValueError as exc:
            raise CheckpointCorruptError(
                f"checkpoint manifest {self.manifest_path} is not valid "
                f"JSON: {exc}") from exc
        if manifest.get("schema") != CHECKPOINT_SCHEMA:
            raise FlowError(
                f"checkpoint {self.directory} has schema "
                f"{manifest.get('schema')!r}, expected "
                f"{CHECKPOINT_SCHEMA!r}")
        return manifest

    def _load_verified(self, manifest: dict,
                       name: str) -> Optional[object]:
        """The artifact value if its bytes verify and unpickle, else None."""
        filename = manifest.get("artifacts", {}).get(name)
        if filename is None:
            return None
        path = self.directory / filename
        try:
            payload = path.read_bytes()
        except OSError:
            return None
        expected = manifest.get("checksums", {}).get(name)
        if expected is None or _sha256(payload) != expected:
            return None
        try:
            return pickle.loads(payload)
        except Exception:  # noqa: BLE001 - any unpickle failure is corruption
            return None

    def restore(self, ctx: FlowContext, pipeline) -> List[str]:
        """Load artifacts into ``ctx``; returns the completed-pass prefix.

        Raises :class:`FlowError` when the checkpoint does not belong to
        this pipeline/configuration (different flow, pass list, semantic
        config field, or a completed list that is not a prefix of the
        pass list) — those mismatches are deliberate refusals, never
        recovered.  Only :meth:`MapperConfig.semantic_fields` are
        compared, by name: a checkpoint taken under another kernel
        resumes, and so does one whose manifest carries a config field
        that no longer exists.

        Corruption is recovered instead: each artifact's bytes are
        verified against the manifest checksum (and must unpickle); when
        any fail, the method finds the longest prefix of the completed
        passes whose input artifacts all verify — an artifact last
        provided *inside* the prefix must be good, and one last provided
        *at or beyond* the cut must not also have an earlier provider
        (its stored value would then belong to a pass being re-run) —
        loads only the artifacts that prefix produced, and returns the
        shortened prefix so the pipeline re-runs everything after it.
        """
        manifest = self.load_manifest()
        if manifest.get("flow") != ctx.flow:
            raise FlowError(
                f"checkpoint {self.directory} was taken for flow "
                f"{manifest.get('flow')!r}, cannot resume flow "
                f"{ctx.flow!r}")
        if manifest.get("passes") != pipeline.pass_names:
            raise FlowError(
                f"checkpoint {self.directory} was taken for pass list "
                f"{manifest.get('passes')}, cannot resume "
                f"{pipeline.pass_names}")
        stored = manifest.get("config") or {}
        if any(name not in stored or stored[name] != value
               for name, value in ctx.config.semantic_fields().items()):
            raise FlowError(
                f"checkpoint {self.directory} was taken under a different "
                f"mapper config; refusing to resume (delete the "
                f"checkpoint to start over)")
        completed = list(manifest.get("completed", []))
        if completed != pipeline.pass_names[:len(completed)]:
            raise FlowError(
                f"checkpoint completed passes {completed} are not a "
                f"prefix of {pipeline.pass_names}")
        for name in manifest.get("artifacts", {}):
            if name not in ARTIFACTS:
                raise FlowError(
                    f"checkpoint {self.directory} stores unknown artifact "
                    f"{name!r}")

        values = {name: self._load_verified(manifest, name)
                  for name in manifest.get("artifacts", {})}
        corrupt = sorted(name for name, value in values.items()
                         if value is None)
        prefix = completed
        if corrupt:
            prefix = self._verified_prefix(pipeline, completed, values)
            emit_recovery(
                "checkpoint_rewind",
                f"corrupt artifact(s) {', '.join(corrupt)}; resuming "
                f"after {prefix[-1] if prefix else '<start>'}",
                tracer=ctx.tracer, metrics=ctx.metrics,
                corrupt=corrupt, resumed_passes=len(prefix))
        keep = self._artifacts_of_prefix(pipeline, completed, values,
                                         len(prefix))
        for name in keep:
            ctx.set(name, values[name])
        return prefix

    # -- corruption recovery ---------------------------------------------
    @staticmethod
    def _last_provider(pipeline, completed: List[str],
                       name: str) -> Optional[int]:
        """Index in ``completed`` of the last pass providing ``name``."""
        from .pipeline import _CONDITIONAL_PROVIDES

        last = None
        for index, pass_name in enumerate(completed):
            provides = pipeline.passes[index].provides
            if (name in provides
                    or name in _CONDITIONAL_PROVIDES.get(pass_name, ())):
                last = index
        return last

    @staticmethod
    def _providers(pipeline, completed: List[str], name: str) -> List[int]:
        from .pipeline import _CONDITIONAL_PROVIDES

        return [index for index, pass_name in enumerate(completed)
                if (name in pipeline.passes[index].provides
                    or name in _CONDITIONAL_PROVIDES.get(pass_name, ()))]

    def _verified_prefix(self, pipeline, completed: List[str],
                         values: Dict[str, object]) -> List[str]:
        """Longest prefix of ``completed`` resumable with good artifacts.

        A cut at ``k`` is valid iff for every stored artifact: if its
        last provider is inside the prefix (< k) the artifact verified
        good (the resumed run needs those bytes), and if its last
        provider is at/beyond the cut it has *no* provider inside the
        prefix (otherwise the stored value — corrupt or not — belongs to
        a re-run pass and the prefix's version of it is unrecoverable).
        ``k = 0`` is always valid: a full re-run needs nothing.
        """
        for k in range(len(completed), -1, -1):
            ok = True
            for name, value in values.items():
                providers = self._providers(pipeline, completed, name)
                if not providers:
                    continue
                if providers[-1] < k:
                    if value is None:
                        ok = False
                        break
                elif any(p < k for p in providers):
                    ok = False
                    break
            if ok:
                return completed[:k]
        return []

    def _artifacts_of_prefix(self, pipeline, completed: List[str],
                             values: Dict[str, object],
                             k: int) -> List[str]:
        """Stored artifact names the first ``k`` completed passes own."""
        return [name for name, value in values.items()
                if value is not None
                and (last := self._last_provider(pipeline, completed,
                                                 name)) is not None
                and last < k]
