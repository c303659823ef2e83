"""Reference outputs of every workload at the default seed.

``reference.json`` holds, per workload and output file, the sha256 of
the file plus a numeric fingerprint.  An output whose digest differs
still passes when its numbers agree with the fingerprint to 1e-12
relative: every sampled CSV row, every column's sum of magnitudes, and
every number in a JSON file.  Files of any other kind must match
byte for byte.

Record the file again (only when the program's outputs are meant to
change) from the root of the repository:

    PYTHONPATH=src python3 perfbench/reference.py
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
REL_TOL = 1e-12
#: sampled CSV rows kept per file (evenly spaced, first and last included).
SAMPLED_ROWS = 64


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _csv_rows(path: Path) -> list[list[float]]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [[float(v) for v in line.split(",")] for line in lines if line]


def _sample(n: int) -> list[int]:
    if n <= SAMPLED_ROWS:
        return list(range(n))
    return sorted({round(i * (n - 1) / (SAMPLED_ROWS - 1)) for i in range(SAMPLED_ROWS)})


def _json_leaves(value, numbers: list, other: list) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            other.append(key)
            _json_leaves(value[key], numbers, other)
    elif isinstance(value, list):
        for v in value:
            _json_leaves(v, numbers, other)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        numbers.append(float(value))
    else:
        other.append(value)


def fingerprint(path: Path) -> dict:
    entry = {"sha256": sha256_file(path)}
    if path.suffix == ".csv":
        rows = _csv_rows(path)
        entry["n_rows"] = len(rows)
        entry["rows"] = {str(i): rows[i] for i in _sample(len(rows))}
        entry["abs_sums"] = [math.fsum(abs(r[c]) for r in rows) for c in range(len(rows[0]))]
    elif path.suffix == ".json":
        numbers, other = [], []
        _json_leaves(json.loads(path.read_text(encoding="utf-8")), numbers, other)
        entry["numbers"] = numbers
        entry["other"] = other
    return entry


def close(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _all_close(got, want) -> bool:
    return len(got) == len(want) and all(close(a, b) for a, b in zip(got, want))


def compare(path: Path, ref: dict) -> str | None:
    """None when the file matches its reference entry, else the reason."""
    if not path.is_file():
        return "missing"
    if sha256_file(path) == ref["sha256"]:
        return None
    if path.suffix == ".csv" and "rows" in ref:
        rows = _csv_rows(path)
        if len(rows) != ref["n_rows"]:
            return f"{len(rows)} rows, reference has {ref['n_rows']}"
        for i, want in ref["rows"].items():
            if not _all_close(rows[int(i)], want):
                return f"row {i} differs by more than {REL_TOL:g} relative"
        sums = [math.fsum(abs(r[c]) for r in rows) for c in range(len(rows[0]))]
        if not _all_close(sums, ref["abs_sums"]):
            return f"column magnitudes differ by more than {REL_TOL:g} relative"
        return None
    if path.suffix == ".json" and "numbers" in ref:
        numbers, other = [], []
        _json_leaves(json.loads(path.read_text(encoding="utf-8")), numbers, other)
        if other != ref["other"] or not _all_close(numbers, ref["numbers"]):
            return f"values differ by more than {REL_TOL:g} relative"
        return None
    return "digest differs"


def load() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def record(out_root: Path) -> None:
    """Run every workload once at the default seed and fingerprint its outputs."""
    import workloads

    refs = {}
    for name, wl in workloads.WORKLOADS.items():
        root = out_root / name
        outcomes = workloads.run_items(wl.items(workloads.DEFAULT_SEED, root))
        wl.check(workloads.DEFAULT_SEED, root, outcomes)
        bad = [o for o in outcomes if o.failed]
        if bad:
            raise SystemExit(f"{name}: cannot record, items failed: "
                             f"{[(o.name, o.code, o.error, o.problems) for o in bad]}")
        refs[name] = {rel: fingerprint(root / rel) for rel in wl.outputs()}
    write(workloads.DEFAULT_SEED, refs)
    print(f"wrote {REFERENCE_FILE}")


def write(seed: int, refs: dict) -> None:
    """One line per output file, so a re-recording diffs file by file."""
    lines = [f'{{"seed": {seed}, "rel_tol": {REL_TOL!r}, "workloads": {{']
    for wi, name in enumerate(sorted(refs)):
        lines.append(f"  {json.dumps(name)}: {{")
        entries = sorted(refs[name].items())
        for ei, (rel, entry) in enumerate(entries):
            comma = "," if ei < len(entries) - 1 else ""
            lines.append(f"    {json.dumps(rel)}: {json.dumps(entry, sort_keys=True)}{comma}")
        lines.append("  }" + ("," if wi < len(refs) - 1 else ""))
    lines.append("}}")
    REFERENCE_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        record(Path(tmp))
