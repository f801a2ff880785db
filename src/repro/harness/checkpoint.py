"""Crash-safe, resumable experiment storage.

A :class:`CheckpointStore` makes a long campaign (sweep, figure,
resilience curve) survive the death of the *harness itself* — a kill
-9, an OOM, a CI timeout — not just the simulated faults it studies.
The design is a journaled, atomic-write result store:

* ``manifest.json`` pins the campaign's identity: a fingerprint digest
  of everything that determines its output (figure id, workload names,
  grid, seeds, trials).  Resuming against a store recorded for a
  *different* campaign is an error, not silent garbage.
* ``journal.jsonl`` is an append-only journal: one complete JSON record
  per finished unit of work, flushed and fsynced before the harness
  moves on.  A crash can only ever truncate the *final* line, which the
  loader detects and discards — every fully-written record survives.
* every record carries a ``sha`` — the canonical digest of its payload
  — so *mid-file* corruption (bit flips, partial overwrites, anything
  beyond the crash-truncated tail) is detected on load instead of
  silently resuming from bad state.  ``on_corrupt="error"`` (the
  default, right for campaigns) raises a :class:`CheckpointError`
  naming the record; ``on_corrupt="quarantine"`` (what the serving
  cache uses) moves the bad record to ``quarantine.jsonl`` and drops
  it, so its unit simply recomputes — a corrupt entry is never served.

Because every unit of work is a deterministic function of its key, a
resumed campaign replays the journal for finished units and recomputes
only the missing ones; the merged output is **bit-identical** to an
uninterrupted run (the resume-identity tests pin this with digests).

Records must be JSON-ish (the canonical-digest value types plus NaN).
Only the coordinating process writes; workers report results back to
it, so the journal has a single writer and needs no locking.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from ..validation.digest import digest_payload

__all__ = ["CheckpointError", "CheckpointStore"]

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
QUARANTINE_NAME = "quarantine.jsonl"


class CheckpointError(RuntimeError):
    """The store cannot be (re)opened safely."""


def _atomic_write_text(path: Path, text: str) -> None:
    """Write via a same-directory temp file + ``os.replace`` so readers
    (and crashes) see either the old content or the new, never a mix."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class CheckpointStore:
    """Journaled store of completed campaign units, keyed by string.

    ``fingerprint`` is any canonicalisable payload identifying the
    campaign; its digest is recorded in the manifest and must match on
    resume.  Open modes:

    * fresh directory — created, manifest written, empty journal;
    * existing store, ``resume=True`` — fingerprint verified, journal
      replayed (tolerating one crash-truncated trailing line);
    * existing store, ``resume=False`` — :class:`CheckpointError`: an
      unexpected leftover store is surfaced, never silently clobbered.

    ``on_corrupt`` picks the policy for records whose stored ``sha``
    no longer matches their payload (or interior lines that are not
    JSON at all): ``"error"`` raises :class:`CheckpointError`;
    ``"quarantine"`` appends the bad line to ``quarantine.jsonl``,
    drops the record and lists its key in :attr:`quarantined_keys`.
    Records written before checksums existed (no ``sha`` field) are
    accepted as-is for backward compatibility.
    """

    def __init__(self, root, fingerprint: Any, resume: bool = False,
                 on_corrupt: str = "error") -> None:
        if on_corrupt not in ("error", "quarantine"):
            raise ValueError(f"on_corrupt must be 'error' or "
                             f"'quarantine', got {on_corrupt!r}")
        self.root = Path(root)
        self.on_corrupt = on_corrupt
        self.fingerprint_digest = digest_payload(fingerprint)
        self._records: Dict[str, Any] = {}
        self._truncated_tail = False
        self.quarantined_keys: List[str] = []
        try:
            self._open(resume)
        except OSError as err:
            # A path that is a file, a missing permission, a full disk:
            # the store cannot be used, and the message says why.
            raise CheckpointError(
                f"cannot open checkpoint store {self.root}: {err}") from err

    def _open(self, resume: bool) -> None:
        manifest = self.root / MANIFEST_NAME
        if manifest.exists():
            if not resume:
                raise CheckpointError(
                    f"checkpoint store {self.root} already exists; resume "
                    f"it (resume=True / --resume) or remove it first")
            self._open_existing(manifest)
        else:
            if self.root.exists() and any(self.root.iterdir()):
                raise CheckpointError(
                    f"{self.root} exists, is not empty and has no "
                    f"{MANIFEST_NAME}: refusing to treat it as a "
                    f"checkpoint store")
            self.root.mkdir(parents=True, exist_ok=True)
            _atomic_write_text(manifest, json.dumps({
                "comment": "repro campaign checkpoint; see "
                           "docs/resilience.md",
                "fingerprint": self.fingerprint_digest,
            }, indent=2, sort_keys=True) + "\n")
            # Touch the journal so resume-after-zero-records works.
            (self.root / JOURNAL_NAME).touch()
        self._journal = open(self.root / JOURNAL_NAME, "a",
                             encoding="utf-8")

    # ------------------------------------------------------------------
    def _open_existing(self, manifest: Path) -> None:
        try:
            meta = json.loads(manifest.read_text(encoding="utf-8"))
        except ValueError as err:  # not UTF-8, or not JSON
            raise CheckpointError(
                f"unreadable manifest {manifest}: {err}") from err
        if not isinstance(meta, dict):
            raise CheckpointError(
                f"unreadable manifest {manifest}: not a JSON object")
        recorded = meta.get("fingerprint")
        if recorded != self.fingerprint_digest:
            raise CheckpointError(
                f"checkpoint store {self.root} was recorded for a "
                f"different campaign (fingerprint {recorded} != "
                f"{self.fingerprint_digest}); resuming it would mix "
                f"incompatible results")
        journal = self.root / JOURNAL_NAME
        if not journal.exists():
            return
        # Undecodable bytes become U+FFFD, so the line fails its JSON
        # parse or its checksum and meets the on_corrupt policy.
        with open(journal, "r", encoding="utf-8", errors="replace") as fh:
            lines = fh.read().split("\n")
        for lineno, line in enumerate(lines):
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines) - 1:
                    # The crash interrupted the final append: the record
                    # never completed, so its unit simply re-runs.
                    self._truncated_tail = True
                    continue
                self._reject_corrupt(
                    journal, lineno, line, key=None,
                    why="not JSON (not the trailing line, so not crash "
                        "truncation)")
                continue
            key = record.get("key") if isinstance(record, dict) else None
            if not isinstance(key, str) or "payload" not in record:
                self._reject_corrupt(journal, lineno, line, key=None,
                                     why="missing key/payload fields")
                continue
            recorded_sha = record.get("sha")
            if recorded_sha is not None:
                actual = digest_payload(record["payload"])
                if actual != recorded_sha:
                    self._reject_corrupt(
                        journal, lineno, line, key=key,
                        why=f"payload checksum {actual[:12]}... does not "
                            f"match the recorded sha "
                            f"{str(recorded_sha)[:12]}... (mid-file "
                            f"corruption: bit flip or partial overwrite)")
                    continue
            self._records[key] = record["payload"]

    def _reject_corrupt(self, journal: Path, lineno: int, line: str,
                        key: Optional[str], why: str) -> None:
        """Apply the ``on_corrupt`` policy to one bad journal line."""
        where = f"{journal}:{lineno + 1}"
        if self.on_corrupt == "error":
            raise CheckpointError(
                f"corrupt journal record at {where}"
                + (f" (key {key!r})" if key else "") + f": {why}")
        with open(self.root / QUARANTINE_NAME, "a",
                  encoding="utf-8") as fh:
            fh.write(json.dumps({"line": lineno + 1, "key": key,
                                 "why": why, "raw": line},
                                sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        if key is not None:
            self._records.pop(key, None)
            self.quarantined_keys.append(key)

    # ------------------------------------------------------------------
    @property
    def truncated_tail(self) -> bool:
        """True when the journal ended in a crash-truncated record."""
        return self._truncated_tail

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def keys(self) -> Iterator[str]:
        return iter(self._records)

    def load(self, key: str) -> Any:
        return self._records[key]

    def get(self, key: str) -> Optional[Any]:
        return self._records.get(key)

    def save(self, key: str, payload: Any) -> None:
        """Append one completed record; durable before returning.

        The record carries the canonical digest of its payload, so a
        later load detects any in-file corruption of this line."""
        if key in self._records:
            return
        line = json.dumps({"key": key, "payload": payload,
                           "sha": digest_payload(payload)},
                          sort_keys=True)
        self._journal.write(line + "\n")
        self._journal.flush()
        os.fsync(self._journal.fileno())
        self._records[key] = payload

    def close(self) -> None:
        if not self._journal.closed:
            self._journal.close()

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"CheckpointStore({str(self.root)!r}, "
                f"{len(self._records)} record(s))")
