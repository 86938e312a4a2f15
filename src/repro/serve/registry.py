"""Versioned, integrity-checked model registry.

A deployment needs more than ``Magic.save``: the serving layer must know
*which* model it is running, prove the weights on disk are the ones that
were published, and reproduce the training-time preprocessing exactly.
The registry stores each published model as a **versioned archive**::

    registry_root/
      <name>/
        v1/
          parameters.npz    # weights + fitted scaler (Magic.save layout)
          magic.json        # model metadata (Magic.save layout)
          archive.json      # registry manifest: sha256 per file,
                            # model variant + hyper-parameters,
                            # family table, fitted scaling parameters

Publishing stages the archive in a sibling temp directory and renames it
into place (:func:`repro.fileio.staged_directory`, shared with the
dataset cache), so a kill mid-publish never leaves a half-written
version.  Loading verifies every file's sha256 against the manifest and
cross-checks the manifest's family table and scaler parameters against
the model metadata — a tampered or torn archive raises
:class:`~repro.exceptions.RegistryError` naming the offending file
instead of silently serving wrong predictions.

Plain ``Magic.save`` directories (no ``archive.json``) still load, with
a warning, mirroring the dataset cache's legacy ``format_version``
handling.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import warnings
from typing import Dict, List, Optional

from repro.core.magic import Magic
from repro.exceptions import RegistryError
from repro.fileio import staged_directory

_ARCHIVE_MANIFEST = "archive.json"
_MODEL_FILES = ("parameters.npz", "magic.json")

#: Archive manifest schema version; bump on incompatible layout changes.
ARCHIVE_FORMAT_VERSION = 1

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_AUTO_VERSION = re.compile(r"^v(\d+)$")


def _file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_name(kind: str, value: str) -> str:
    if not _NAME_PATTERN.match(value):
        raise RegistryError(
            f"invalid {kind} {value!r}: use letters, digits, '.', '_', '-'"
        )
    return value


@dataclasses.dataclass(frozen=True)
class ArchiveInfo:
    """Identity and provenance of one loaded archive."""

    name: str
    version: str
    path: str
    #: ``False`` for legacy (pre-registry) directories: no manifest, no
    #: integrity verification was possible.
    verified: bool = True

    def describe(self) -> str:
        suffix = "" if self.verified else " (legacy, unverified)"
        return f"{self.name}@{self.version}{suffix}"


@dataclasses.dataclass
class LoadedModel:
    """A verified :class:`Magic` instance plus its archive identity."""

    magic: Magic
    info: ArchiveInfo


def _scaler_payload(magic: Magic) -> Dict:
    """The fitted scaling parameters, as exact repr-round-trip floats.

    Serving must reproduce training-time preprocessing bit for bit; the
    manifest records the parameters both for human triage and as a
    cross-check against the ones inside ``parameters.npz``.
    """
    return {
        "use_log": magic.scaler.use_log,
        "mean": [float(v) for v in magic.scaler.mean_],
        "std": [float(v) for v in magic.scaler.std_],
    }


def publish(
    magic: Magic,
    root: str,
    name: str,
    version: Optional[str] = None,
) -> ArchiveInfo:
    """Publish a trained system as a new archive version.

    ``version`` defaults to the next free ``vN`` under ``name``.  The
    archive is staged and renamed into place atomically; publishing an
    existing version raises instead of overwriting — archives are
    immutable once published.
    """
    if not magic.scaler.is_fitted:
        raise RegistryError(
            f"cannot publish {name!r}: the model has not been fitted "
            "(no scaler parameters to archive)"
        )
    _check_name("model name", name)
    model_dir = os.path.join(os.path.abspath(root), name)
    if version is None:
        version = f"v{_next_version_number(model_dir)}"
    _check_name("version", version)
    target = os.path.join(model_dir, version)
    if os.path.exists(target):
        raise RegistryError(
            f"archive {name}@{version} already exists at {target}; "
            "archives are immutable — publish a new version instead"
        )
    with staged_directory(target) as staging:
        magic.save(staging)
        manifest = {
            "format_version": ARCHIVE_FORMAT_VERSION,
            "name": name,
            "version": version,
            "model_config": {
                **dataclasses.asdict(magic.model_config),
                "graph_conv_sizes": list(magic.model_config.graph_conv_sizes),
                "amp_grid": list(magic.model_config.amp_grid),
                "conv1d_channels": list(magic.model_config.conv1d_channels),
            },
            "family_names": list(magic.family_names),
            "scaler": _scaler_payload(magic),
            "files": {
                filename: _file_digest(os.path.join(staging, filename))
                for filename in _MODEL_FILES
            },
        }
        with open(os.path.join(staging, _ARCHIVE_MANIFEST), "w",
                  encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2)
    return ArchiveInfo(name=name, version=version, path=target)


def _next_version_number(model_dir: str) -> int:
    highest = 0
    if os.path.isdir(model_dir):
        for entry in os.listdir(model_dir):
            match = _AUTO_VERSION.match(entry)
            if match:
                highest = max(highest, int(match.group(1)))
    return highest + 1


def _is_finalized(path: str) -> bool:
    """Whether a version directory completed its atomic publish.

    The manifest is written *inside* the staging directory before the
    rename, so its presence in the final location is the publish
    commit-mark.  A version directory without one is either a torn
    publish that never renamed (staging dirs are dot-hidden, but a crash
    between ``os.makedirs`` and ``os.rename`` can strand other debris)
    or a hand-copied legacy directory — neither may win latest-version
    resolution.
    """
    return os.path.exists(os.path.join(path, _ARCHIVE_MANIFEST))


def list_versions(root: str, name: str,
                  include_unfinalized: bool = False) -> List[str]:
    """Published versions of ``name``, oldest first (``vN`` numerically).

    Only finalized archives (manifest present) are listed unless
    ``include_unfinalized`` is set, so ``version=None`` (latest)
    resolution can never pick a partially-published directory.
    """
    model_dir = os.path.join(os.path.abspath(root), name)
    if not os.path.isdir(model_dir):
        return []
    versions = [
        entry for entry in os.listdir(model_dir)
        if not entry.startswith(".")
        and os.path.isdir(os.path.join(model_dir, entry))
        and (include_unfinalized
             or _is_finalized(os.path.join(model_dir, entry)))
    ]

    def sort_key(version: str):
        match = _AUTO_VERSION.match(version)
        # Auto-numbered versions sort numerically; explicit version
        # strings sort lexicographically after them.
        return (1, 0, version) if match is None else (0, int(match.group(1)), "")

    return sorted(versions, key=sort_key)


def list_models(root: str) -> List[str]:
    """Model names with at least one published version."""
    root = os.path.abspath(root)
    if not os.path.isdir(root):
        return []
    return sorted(
        entry for entry in os.listdir(root)
        if not entry.startswith(".") and list_versions(root, entry)
    )


def resolve_version(root: str, name: str,
                    version: Optional[str] = None) -> str:
    """Pin ``version=None`` to the latest *finalized* archive.

    The fleet dispatcher resolves the version once in the parent and
    ships the pinned string to every worker, so replicas spawned before
    and after a concurrent publish still load the same model.
    """
    if version is not None:
        return version
    versions = list_versions(root, name)
    if not versions:
        raise RegistryError(
            f"no published versions of {name!r} in registry {root}"
        )
    return versions[-1]


def read_manifest(root: str, name: str, version: str) -> Dict:
    """Read an archive's manifest without loading (or verifying) weights.

    Lets the dispatcher learn a candidate's family table and config for
    canary parity checks without paying a model load in the parent; full
    integrity verification still happens inside each worker at load.
    """
    manifest_path = os.path.join(
        os.path.abspath(root), name, version, _ARCHIVE_MANIFEST
    )
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise RegistryError(
            f"cannot read archive manifest {manifest_path}: {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise RegistryError(
            f"archive manifest {manifest_path} is not a JSON object"
        )
    return manifest


def load(
    root: str,
    name: str,
    version: Optional[str] = None,
) -> LoadedModel:
    """Load (and integrity-check) an archive; ``version=None`` = latest
    finalized archive (partially-published directories never resolve)."""
    version = resolve_version(root, name, version)
    path = os.path.join(os.path.abspath(root), name, version)
    if not os.path.isdir(path):
        raise RegistryError(f"archive {name}@{version} not found at {path}")
    loaded = load_archive(path)
    # A moved/renamed archive still carries its published identity.
    info = dataclasses.replace(loaded.info, name=name, version=version)
    return LoadedModel(magic=loaded.magic, info=info)


def load_archive(path: str) -> LoadedModel:
    """Load one archive directory, verifying it against its manifest.

    Directories produced by plain ``Magic.save`` carry no manifest; they
    load as legacy archives with a warning (and ``verified=False`` on
    the returned :class:`ArchiveInfo`), mirroring the dataset cache's
    handling of checksum-less ``format_version`` 1 manifests.
    """
    path = os.path.abspath(path)
    manifest_path = os.path.join(path, _ARCHIVE_MANIFEST)
    if not os.path.exists(manifest_path):
        warnings.warn(
            f"loading legacy model archive at {path} (no {_ARCHIVE_MANIFEST}); "
            "integrity cannot be verified — republish it through "
            "repro.serve.registry.publish",
            stacklevel=2,
        )
        magic = Magic.load(path)
        info = ArchiveInfo(
            name=os.path.basename(path), version="legacy", path=path,
            verified=False,
        )
        return LoadedModel(magic=magic, info=info)

    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise RegistryError(
            f"cannot read archive manifest {manifest_path}: {exc}"
        ) from exc

    version_field = manifest.get("format_version")
    if version_field != ARCHIVE_FORMAT_VERSION:
        raise RegistryError(
            f"unsupported archive format_version {version_field!r} in "
            f"{manifest_path} (this build reads version "
            f"{ARCHIVE_FORMAT_VERSION})"
        )

    for filename, expected in manifest["files"].items():
        file_path = os.path.join(path, filename)
        if not os.path.exists(file_path):
            raise RegistryError(
                f"archive at {path} is missing {filename} listed in its "
                "manifest"
            )
        actual = _file_digest(file_path)
        if actual != expected:
            raise RegistryError(
                f"archive file {file_path} fails integrity verification: "
                f"sha256 {actual} does not match the manifest's {expected} "
                "(the archive was modified or torn after publishing)"
            )

    magic = Magic.load(path)
    _cross_check(path, manifest, magic)
    info = ArchiveInfo(
        name=manifest.get("name", os.path.basename(path)),
        version=manifest.get("version", "?"),
        path=path,
    )
    return LoadedModel(magic=magic, info=info)


def _cross_check(path: str, manifest: Dict, magic: Magic) -> None:
    """Manifest vs model metadata: the two must describe one model.

    The per-file sha256 catches byte-level tampering; this catches a
    *consistent but wrong* archive — e.g. a ``magic.json`` swapped in
    from another model, which would silently relabel every prediction.
    """
    if list(manifest["family_names"]) != list(magic.family_names):
        raise RegistryError(
            f"archive at {path}: family table mismatch — manifest says "
            f"{manifest['family_names']}, model metadata says "
            f"{magic.family_names}; refusing to serve relabelled predictions"
        )
    scaler = manifest.get("scaler", {})
    recorded_mean = [float(v) for v in scaler.get("mean", [])]
    recorded_std = [float(v) for v in scaler.get("std", [])]
    actual_mean = [float(v) for v in magic.scaler.mean_]
    actual_std = [float(v) for v in magic.scaler.std_]
    if (recorded_mean != actual_mean or recorded_std != actual_std
            or bool(scaler.get("use_log")) != bool(magic.scaler.use_log)):
        raise RegistryError(
            f"archive at {path}: fitted scaling parameters in the manifest "
            "do not match the ones stored with the weights — serve-time "
            "preprocessing would diverge from training"
        )
