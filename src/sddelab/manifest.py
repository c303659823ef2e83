"""Append-only JSON-lines log of runs and digests of what they wrote.

Each CLI invocation appends one line to ``manifest.jsonl`` inside its
output directory: the subcommand, the fully resolved configuration, the
master seed, the package version, the wall-clock duration, and a sha256
digest per output file.  The digests are the reproducibility contract —
rerunning a recorded line into a fresh directory must reproduce every
output byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Mapping

from .grids import atomic_open

MANIFEST_NAME = "manifest.jsonl"


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One manifest line; ``outputs`` maps relative file name to sha256."""

    subcommand: str
    config: dict
    seed: int
    version: str
    duration_s: float
    outputs: dict
    created: str

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


def sha256_file(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def write_json(file, value: Any) -> None:
    """The one JSON output writer: sorted keys, 2-space indent, a trailing newline,
    through atomic_open.  A value json cannot encode raises before any file opens."""
    text = json.dumps(_jsonable(value), sort_keys=True, indent=2) + "\n"
    with atomic_open(file) as fh:
        fh.write(text)


def record_run(
    outdir: Path | str,
    subcommand: str,
    config: Mapping[str, Any],
    seed: int,
    version: str,
    duration_s: float,
    outputs: Iterable[Path | str],
) -> RunRecord:
    """Digest the outputs and append one line to the directory's manifest."""
    outdir = Path(outdir)
    digests = {}
    for path in outputs:
        path = Path(path)
        digests[path.relative_to(outdir).as_posix()] = sha256_file(path)
    record = RunRecord(
        subcommand=subcommand,
        config=_jsonable(dict(config)),
        seed=int(seed),
        version=version,
        duration_s=float(duration_s),
        outputs=digests,
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    with open(outdir / MANIFEST_NAME, "a", encoding="utf-8") as fh:
        fh.write(record.to_json() + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    return record


def read_manifest(path: Path | str) -> list[RunRecord]:
    """Load every record; ``path`` may be the file or its directory."""
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            records.append(RunRecord(**raw))
    return records


def verify_outputs(outdir: Path | str, record: RunRecord) -> dict[str, tuple[str, str]]:
    """Compare files under outdir against the record; return mismatches.

    The result maps relative name to (recorded, found) digests; a missing
    file reports the digest string "missing".
    """
    outdir = Path(outdir)
    mismatches = {}
    for name, want in sorted(record.outputs.items()):
        target = outdir / name
        got = sha256_file(target) if target.is_file() else "missing"
        if got != want:
            mismatches[name] = (want, got)
    return mismatches
