"""Crash-safe file primitives: journal appends and staged publishes.

The extraction journal (:mod:`repro.features.journal`) and the sweep
journal (:mod:`repro.train.sweep`) both need the same thing: a
long-lived append handle whose every record survives a SIGKILL
immediately after the write.  Both used to manage a raw ``open()``
handle by hand; :class:`JsonlAppendWriter` is the single sanctioned
owner of that pattern — it creates the parent directory, truncates or
appends as asked, and flushes after every record so the only losable
data is the torn final line the journal loaders already tolerate.

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
from typing import Any, Dict, Iterator, Optional, TextIO


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

    @property
    def closed(self) -> bool:
        return self._handle is None

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


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
