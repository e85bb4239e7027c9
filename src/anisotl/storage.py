"""Array containers and experiment output files.

Fields travel as a one-line UTF-8 JSON header followed
by a newline and the raw little-endian complex payload.  CSV emission
uses shortest round-trip float formatting so identical runs are
byte-identical.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .field_engine import SampledField, field_from_spec
from .grids import GridSpec

_MAGIC = "anisotl-array-v1"
_PAYLOAD_TYPES = {"complex64": "<c8", "complex128": "<c16"}  # header dtype -> payload


def _dtype_name(arr: np.ndarray) -> str:
    if arr.dtype == np.complex64:
        return "complex64"
    return "complex128"


def save_array(path, arr: np.ndarray, meta: dict) -> None:
    arr = np.ascontiguousarray(arr)
    header = {
        "magic": _MAGIC,
        "dtype": _dtype_name(arr),
        "shape": list(arr.shape),
        "byte_order": "little",
        **meta,
    }
    payload = arr.astype(_PAYLOAD_TYPES[header["dtype"]])
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload.tobytes())


def load_array(path) -> tuple[np.ndarray, dict]:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        header = json.loads(header_line.decode("utf-8"))
        if not isinstance(header, dict) or header.get("magic") != _MAGIC:
            raise ValueError(f"{path}: not an array container")
        dtype, order = header.get("dtype"), header.get("byte_order", "little")
        if not isinstance(dtype, str) or dtype not in _PAYLOAD_TYPES:
            raise ValueError(f"{path}: dtype must be complex64 or complex128, got {dtype!r}")
        if order != "little":
            raise ValueError(f"{path}: byte_order must be little, got {order!r}")
        raw = fh.read()
    try:
        arr = np.frombuffer(raw, dtype=_PAYLOAD_TYPES[dtype]).reshape(header["shape"]).astype(complex)
    except TypeError as exc:
        raise ValueError(f"{path}: shape must be a list of sizes, got {header['shape']!r}") from exc
    return arr, header


def save_field(path, f: SampledField) -> None:
    save_array(
        path,
        f.spec,
        {
            "kind": "field",
            "grid": {"d": f.grid.d, "extent": f.grid.extent, "n": f.grid.n},
            "band_t": list(f.band_t),
            "band_limit": f.band_limit,
        },
    )


def load_field(path, gauge) -> SampledField:
    arr, header = load_array(path)
    if header.get("kind") != "field":
        raise ValueError(f"{path}: not a field container")
    g = header.get("grid")
    try:
        grid = GridSpec(d=int(g["d"]), extent=float(g["extent"]), n=int(g["n"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: field grid needs d, extent and n, got {g!r}") from exc
    if arr.shape != grid.shape:
        raise ValueError(f"{path}: payload shape {arr.shape} does not match grid {grid.shape}")
    return field_from_spec(grid, arr, gauge)


def format_float(x) -> str:
    """Deterministic shortest round-trip representation."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, complex):
        return f"{format_float(x.real)}{'+' if x.imag >= 0 else '-'}{format_float(abs(x.imag))}j"
    return repr(float(x))


def write_csv(path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [
                    format_float(row[c]) if isinstance(row[c], (int, float, complex, bool, np.floating, np.integer, np.bool_))
                    else str(row[c])
                    for c in columns
                ]
            )


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
