"""Dataset caching: persist extracted ACFG corpora to disk.

The paper spends 17 hours extracting MSKCFG's ACFGs and then reuses
them; this module gives the same workflow: write a
:class:`MalwareDataset` to a directory once, reload it instantly in
later sessions.  Format: one compact ACFG text record per sample (see
:mod:`repro.cfg.serialization`) plus a ``manifest.json`` with the family
table and sample order.

A 17-hour artifact deserves crash safety, so writes are atomic: the
whole corpus is staged in a sibling temp directory and swapped into
place with directory renames (:func:`repro.fileio.staged_directory`).
A kill mid-save leaves either the old cache or the new one, never a
torn mix — and saving a smaller corpus over a larger one cannot leak
stale ``*.acfg`` records, because the previous directory is replaced
wholesale.  Integrity is checked too:
``manifest.json`` carries a ``format_version`` and a per-record sha256,
verified on load (a corrupt record raises
:class:`~repro.exceptions.DatasetError` naming the file).  Legacy
checksum-less manifests still load, with a warning.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from typing import List

from repro.cfg.serialization import acfg_from_text, acfg_to_text
from repro.datasets.loader import MalwareDataset
from repro.exceptions import DatasetError
from repro.features.acfg import ACFG
from repro.fileio import staged_directory

_MANIFEST = "manifest.json"

#: Manifest schema version.  Version 2 added ``format_version`` itself
#: and per-record ``sha256`` checksums; manifests without the field are
#: treated as legacy version 1.
_FORMAT_VERSION = 2


def _record_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_dataset(dataset: MalwareDataset, directory: str) -> None:
    """Write ``dataset`` to ``directory`` atomically.

    The corpus is staged in a temp directory next to the target and
    renamed into place, replacing any previous cache as a unit.
    """
    with staged_directory(directory, replace=True) as staging:
        records = []
        for index, acfg in enumerate(dataset.acfgs):
            filename = f"{index:06d}.acfg"
            text = acfg_to_text(acfg.adjacency, acfg.attributes)
            with open(os.path.join(staging, filename), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
            records.append({
                "file": filename,
                "label": acfg.label,
                "name": acfg.name,
                "sha256": _record_digest(text),
            })
        manifest = {
            "format_version": _FORMAT_VERSION,
            "name": dataset.name,
            "family_names": dataset.family_names,
            "samples": records,
        }
        with open(os.path.join(staging, _MANIFEST), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)


def _validated_label(record: dict, num_families: int):
    """The record's label, checked against the family table.

    An out-of-range or non-integer label would otherwise surface much
    later as an opaque index error inside a training run.
    """
    label = record["label"]
    if not isinstance(label, int) or isinstance(label, bool):
        raise DatasetError(
            f"sample {record.get('name', record.get('file', '?'))!r} has a "
            f"non-integer label {label!r}"
        )
    if not 0 <= label < num_families:
        raise DatasetError(
            f"sample {record.get('name', record.get('file', '?'))!r} has "
            f"label {label}, outside the {num_families}-family table"
        )
    return label


def load_dataset(directory: str) -> MalwareDataset:
    """Reload a dataset written by :func:`save_dataset`.

    Verifies the per-record checksums when the manifest carries them and
    validates every label against the family table, so corruption is
    reported here — naming the offending file — rather than surfacing as
    an index error mid-training.
    """
    manifest_path = os.path.join(directory, _MANIFEST)
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise DatasetError(f"cannot read manifest {manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetError(f"corrupt manifest {manifest_path}: {exc}") from exc

    version = manifest.get("format_version", 1)
    if version not in (1, _FORMAT_VERSION):
        raise DatasetError(
            f"unsupported cache format_version {version!r} in "
            f"{manifest_path} (this build reads versions 1-{_FORMAT_VERSION})"
        )
    if version == 1:
        warnings.warn(
            f"loading legacy checksum-less dataset cache at {directory}; "
            "re-save it to enable integrity verification",
            stacklevel=2,
        )

    family_names = manifest["family_names"]
    acfgs: List[ACFG] = []
    for record in manifest["samples"]:
        label = _validated_label(record, len(family_names))
        path = os.path.join(directory, record["file"])
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DatasetError(f"missing sample file {path}: {exc}") from exc
        expected = record.get("sha256")
        if expected is not None and _record_digest(text) != expected:
            raise DatasetError(
                f"corrupt sample file {path}: sha256 mismatch against the "
                "manifest (cache was modified or torn after saving)"
            )
        adjacency, attributes, _ = acfg_from_text(text)
        acfgs.append(
            ACFG(
                adjacency=adjacency,
                attributes=attributes,
                label=label,
                name=record["name"],
            )
        )
    return MalwareDataset(
        acfgs=acfgs,
        family_names=family_names,
        name=manifest.get("name", ""),
    )
