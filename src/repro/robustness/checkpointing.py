"""On-disk checkpoint store for restartable computations.

A :class:`CheckpointStore` manages one directory of named stages, each
an atomically written, integrity-sealed JSON file (the primitives live
in :mod:`repro.core.io`).  The contract the engine relies on:

* a kill at any moment leaves either the previous complete checkpoint
  or the new complete checkpoint on disk — never a torn file;
* a corrupted file (bit rot, manual edits, the fault harness) is
  detected by its SHA-256 seal and surfaces as
  :class:`~repro.robustness.errors.CheckpointCorrupt`, which resume
  logic converts into "start from scratch", never into wrong data.

The chain runner (:func:`repro.lowerbound.sequence.run_chain`) and the
certificate builder
(:func:`repro.lowerbound.certificate.build_certificate`) write a stage
after every completed step, so a resumed run replays only the remaining
work and produces output identical to an uninterrupted run.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.io import read_json_checkpoint, write_json_checkpoint
from repro.observability import trace as _trace
from repro.robustness.errors import CheckpointCorrupt


class CheckpointStore:
    """A directory of named, integrity-sealed JSON checkpoint stages."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, stage: str) -> Path:
        """The on-disk path of ``stage``."""
        return self.directory / f"{stage}.json"

    def save(self, stage: str, payload: dict) -> None:
        """Atomically persist ``payload`` under ``stage``."""
        path = self.path_for(stage)
        write_json_checkpoint(path, payload)
        _trace.event("checkpoint.save", stage=stage, bytes=path.stat().st_size)

    def load(self, stage: str) -> object | None:
        """The payload of ``stage``, or ``None`` when absent.

        Raises :class:`CheckpointCorrupt` when the file exists but
        fails its integrity seal.
        """
        path = self.path_for(stage)
        if not path.exists():
            _trace.event("checkpoint.load", stage=stage, found=False)
            return None
        payload = read_json_checkpoint(path)
        _trace.event("checkpoint.load", stage=stage, found=True)
        return payload

    def load_or_discard(
        self, stage: str
    ) -> tuple[object | None, CheckpointCorrupt | None]:
        """Like :meth:`load`, but a corrupt file is deleted and reported.

        Returns ``(payload_or_None, corruption_error_or_None)`` so the
        caller can both restart cleanly and record why.
        """
        try:
            return self.load(stage), None
        except CheckpointCorrupt as error:
            self.delete(stage)
            _trace.event("checkpoint.corrupt", stage=stage, message=error.message)
            return None, error

    def delete(self, stage: str) -> None:
        """Remove ``stage`` if present."""
        try:
            self.path_for(stage).unlink()
        except FileNotFoundError:
            pass

    def stages(self, prefix: str = "") -> list[str]:
        """Names of all stages currently on disk, sorted.

        With ``prefix``, only stages whose names start with it — the
        service job store (:mod:`repro.service.jobs`) namespaces its
        records as ``job-<id>`` and scans exactly that slice on
        restart.
        """
        return sorted(
            path.stem
            for path in self.directory.glob("*.json")
            if path.stem.startswith(prefix)
        )

    def clear(self) -> None:
        """Delete every stage in the store."""
        for stage in self.stages():
            self.delete(stage)


__all__ = ["CheckpointStore"]
