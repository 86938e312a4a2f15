"""Crash-safe file primitives: checkpoint journals and staged publishes.

The paper's two long batch jobs — ACFG extraction (~17 hours) and the
Table II sweep (208 settings x 5 folds) — must survive a SIGKILL.
:class:`Journal` is their one checkpoint format: a header line that
fingerprints the run (a resume against a different run is refused),
then one JSON record per finished work unit, flushed as it is written,
so the only losable data is a torn final line, which loading skips.
Extraction (:mod:`repro.features.pipeline`) and the sweep
(:mod:`repro.train.sweep`) each encode and decode only their own
records.  :class:`JsonlAppendWriter` is the single sanctioned owner of
the long-lived append handle underneath: it creates the parent
directory, truncates or appends as asked, and flushes after every
record.

:func:`staged_directory` is the one staged publish the dataset cache
and the model registry share, so a SIGKILL never publishes a torn
corpus or a half-written archive.  The raw ``open`` below carries the
one ``atomic-write`` pragma in the library, and this is the one module
that rule lets rename into place.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
from typing import Any, Dict, Iterator, List, Optional, TextIO, Tuple

from repro.exceptions import ConfigurationError

#: Journal schema version; bumped on incompatible format changes.
JOURNAL_VERSION = 1


class JsonlAppendWriter:
    """Append-only JSON-lines handle that flushes after every record."""

    def __init__(self, path: str, handle: TextIO, created: bool) -> None:
        self.path = path
        self.created = created
        self._handle: Optional[TextIO] = handle

    @classmethod
    def open(cls, path: str, fresh: bool) -> "JsonlAppendWriter":
        """Open ``path`` for appending, truncating when ``fresh``.

        ``created`` on the returned writer tells the caller whether the
        file was (re)started — i.e. whether a header line is needed.  A
        missing file counts as fresh regardless of ``fresh``.
        """
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        mode = "w" if fresh or not os.path.exists(path) else "a"
        handle = open(  # repro: allow[atomic-write] — the crash-safe append handle
            path, mode, encoding="utf-8"
        )
        return cls(path, handle, created=(mode == "w"))

    def write_record(self, record: Dict[str, Any]) -> None:
        """Append one JSON record; a no-op once closed."""
        if self._handle is None:
            return
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()  # survive a SIGKILL between records

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class Journal:
    """Append-only JSON-lines checkpoint of finished work units.

    Line 1 is a header: ``{"kind": "header", **fingerprint, "version"}``.
    Loading a journal whose header differs from this run's fingerprint
    raises :class:`ConfigurationError` rather than silently splicing two
    different runs together.  Every later line is one caller-defined
    record; blank lines, torn lines and lines that are not JSON objects
    are skipped.
    """

    def __init__(self, path: str, fingerprint: Dict[str, Any]) -> None:
        self.path = path
        self.fingerprint = dict(fingerprint, version=JOURNAL_VERSION)
        self._writer: Optional[JsonlAppendWriter] = None

    def load(self) -> List[Dict[str, Any]]:
        """Records of a previous run, in file order; empty when absent."""
        if not os.path.exists(self.path):
            return []
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines:
            return []
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"journal {self.path!r} has an unreadable header: {exc}"
            )
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise ConfigurationError(
                f"journal {self.path!r} does not start with a header line"
            )
        recorded = {k: v for k, v in header.items() if k != "kind"}
        if recorded != self.fingerprint:
            raise ConfigurationError(
                "journal fingerprint mismatch — the journal at "
                f"{self.path!r} was written by a run configured as "
                f"{recorded}, but this run is {self.fingerprint}; refusing "
                "to resume across different inputs or settings"
            )
        records: List[Dict[str, Any]] = []
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn final line from a killed run
            if isinstance(record, dict):
                records.append(record)
        return records

    def open_for_append(self, fresh: bool) -> None:
        """Start (``fresh``) or continue the file, heading a new one."""
        self._writer = JsonlAppendWriter.open(self.path, fresh=fresh)
        if self._writer.created:
            self.append(dict({"kind": "header"}, **self.fingerprint))

    def append(self, record: Dict[str, Any]) -> None:
        """Write one record; it survives a SIGKILL once this returns."""
        if self._writer is not None:
            self._writer.write_record(record)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None


def open_journal(
    path: Optional[str], fingerprint: Dict[str, Any], resume: bool
) -> Tuple[Optional[Journal], List[Dict[str, Any]]]:
    """Open ``path`` for this run: the journal and the records to resume.

    ``resume`` loads (and checks) what a previous run wrote, then
    appends; otherwise the file starts afresh.  ``None`` journals
    nothing.
    """
    if path is None:
        return None, []
    journal = Journal(path, fingerprint)
    records = journal.load() if resume else []
    journal.open_for_append(fresh=not resume)
    return journal, records


@contextlib.contextmanager
def staged_directory(target: str, replace: bool = False) -> Iterator[str]:
    """Yield a dot-hidden staging directory beside ``target``; a clean
    exit renames it to ``target``, a raise removes it.

    ``replace`` retires an existing ``target`` first (a directory cannot
    be renamed over a non-empty one): a crash between the two renames
    costs the old directory but never tears the new one.
    """
    target = os.path.abspath(target)
    parent = os.path.dirname(target)
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".tmp-stage-", dir=parent)
    try:
        yield staging
        if replace and os.path.isdir(target):
            retired = tempfile.mkdtemp(prefix=".tmp-old-", dir=parent)
            os.rename(target, os.path.join(retired, "old"))
            os.rename(staging, target)
            shutil.rmtree(retired, ignore_errors=True)
        else:
            os.rename(staging, target)
    except BaseException:  # repro: allow[broad-except] — staging cleanup, re-raised
        shutil.rmtree(staging, ignore_errors=True)
        raise
