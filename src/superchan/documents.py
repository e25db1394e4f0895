"""On-disk JSON documents for operators and channel/superchannel representations.

One document holds one object.  Each matrix is written as
``{"shape": [rows, cols], "base64": ...}``: standard padded base64 of its
row-major little-endian complex128 bytes (format version "2"), so round trips
are bit-exact, signed zeros included.  Field order is fixed and the JSON is
compact, so saving the same object twice produces byte-identical files.
Format "1" documents, whose matrices are lists of rows of ``[re, im]``
decimal pairs, are still read but never written.

Loading only checks structure (fields, shapes, dimensions).  Whether an
operator is a valid channel or superchannel is an explicit, separate check.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from .errors import DimensionMismatch, ParseError, UnknownKind
from .breaking import MeasurePrepare
from .channels import ChoiRep, KrausRep, LiouvilleRep, StinespringRep
from .operators import LabeledOperator, SystemList
from .superchannels import GOUR_ORDER, SuperchannelChoi

FORMAT_VERSION = "2"
_ENTRY = np.dtype("<c16")  # one complex entry on disk: two little-endian doubles

KINDS = (
    "operator",
    "choi-channel",
    "kraus-channel",
    "stinespring",
    "liouville",
    "superchannel-choi",
    "gour",
    "measure-prepare",
)


# ----------------------------------------------------------------------
# payloads
# ----------------------------------------------------------------------

def _matrix_payload(m: np.ndarray) -> dict:
    m = np.ascontiguousarray(m, _ENTRY)
    if not np.isfinite(m).all():
        raise ParseError("non-finite value cannot be serialized")
    return {"shape": list(m.shape),
            "base64": base64.b64encode(m.tobytes()).decode("ascii")}


def _systems_payload(systems, roles) -> list:
    return [
        {"name": s.label, "dim": s.dim, "role": role}
        for s, role in zip(systems, roles)
    ]


# ----------------------------------------------------------------------
# object -> document
# ----------------------------------------------------------------------

def _channel_systems(in_systems, out_systems):
    return _systems_payload(
        list(in_systems) + list(out_systems),
        ["input"] * len(in_systems) + ["output"] * len(out_systems),
    )


def document_from_object(obj, kind: str | None = None) -> dict:
    """Build the document dictionary for any supported object; its
    ``metadata`` field is always empty."""
    if isinstance(obj, SuperchannelChoi):
        kind = kind or "superchannel-choi"
        systems = _channel_systems(obj.op.in_systems[:2], obj.op.in_systems[2:])
        matrices = [_matrix_payload(obj.op.matrix)]
    elif isinstance(obj, ChoiRep):
        kind = kind or "choi-channel"
        systems = _channel_systems(obj.in_systems, obj.out_systems)
        matrices = [_matrix_payload(obj.op.matrix)]
    elif isinstance(obj, KrausRep):
        kind = kind or "kraus-channel"
        systems = _channel_systems(obj.in_systems, obj.out_systems)
        matrices = [_matrix_payload(k.matrix) for k in obj.ops]
    elif isinstance(obj, StinespringRep):
        kind = kind or "stinespring"
        systems = _channel_systems(obj.in_systems, obj.v.out_systems)
        matrices = [_matrix_payload(obj.v.matrix)]
    elif isinstance(obj, LiouvilleRep):
        kind = kind or "liouville"
        systems = _channel_systems(obj.in_systems, obj.out_systems)
        matrices = [_matrix_payload(obj.matrix)]
    elif isinstance(obj, MeasurePrepare):
        kind = kind or "measure-prepare"
        systems = _channel_systems(
            obj.povm[0].in_systems, obj.states[0].in_systems
        )
        matrices = []
        for m, s in zip(obj.povm, obj.states):
            matrices.append(_matrix_payload(m.matrix))
            matrices.append(_matrix_payload(s.matrix))
    elif isinstance(obj, LabeledOperator):
        if kind == "gour":
            if obj.in_systems.labels != GOUR_ORDER:
                raise DimensionMismatch(
                    f"gour documents need systems {GOUR_ORDER}"
                )
            systems = _systems_payload(
                obj.in_systems, ["output", "input", "input", "output"]
            )
        else:
            kind = kind or "operator"
            systems = _systems_payload(
                list(obj.out_systems) + list(obj.in_systems),
                ["output"] * len(obj.out_systems) + ["input"] * len(obj.in_systems),
            )
        matrices = [_matrix_payload(obj.matrix)]
    else:
        raise UnknownKind(f"cannot serialize {type(obj)}")
    if kind not in KINDS:
        raise UnknownKind(kind)
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "systems": systems,
        "matrices": matrices,
        "metadata": {},
    }


def document_bytes(doc: dict) -> bytes:
    try:
        text = json.dumps(doc, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"cannot serialize document: {exc}") from None
    return (text + "\n").encode("utf-8")


def save_document(obj, path, kind: str | None = None) -> None:
    """Write the document of an object to ``path``; byte-deterministic for
    identical inputs."""
    with open(path, "wb") as fh:
        fh.write(document_bytes(document_from_object(obj, kind)))


# ----------------------------------------------------------------------
# document -> object
# ----------------------------------------------------------------------

def _parse_complex(entry, where: str) -> complex:
    if (
        not isinstance(entry, list)
        or len(entry) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                   for x in entry)
    ):
        raise ParseError(f"{where}: complex entries must be [re, im], got {entry!r}")
    return complex(float(entry[0]), float(entry[1]))


def _parse_rows(rows, where: str) -> np.ndarray:
    """A format "1" matrix: a list of rows of [re, im] pairs."""
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"{where}: expected a non-empty list of rows")
    width = None
    out = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise ParseError(f"{where}[{r}]: expected a non-empty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{where}[{r}]: ragged row length {len(row)}")
        out.append(
            [_parse_complex(e, f"{where}[{r}][{c}]") for c, e in enumerate(row)]
        )
    return np.array(out, dtype=np.complex128)


def _parse_base64(payload, where: str) -> np.ndarray:
    """A format "2" matrix: {"shape": [rows, cols], "base64": ...}.

    Returns a read-only view of the decoded bytes; the object built from it
    makes its own copy.
    """
    if not isinstance(payload, dict) or set(payload) != {"shape", "base64"}:
        raise ParseError(
            f"{where}: expected an object with fields 'shape' and 'base64'"
        )
    shape = payload["shape"]
    if (
        not isinstance(shape, list)
        or len(shape) != 2
        or not all(type(n) is int and n > 0 for n in shape)
    ):
        raise ParseError(
            f"{where}.shape: expected two positive integers, got {shape!r}"
        )
    text = payload["base64"]
    if not isinstance(text, str):
        raise ParseError(f"{where}.base64: expected a string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ParseError(f"{where}.base64: {exc}") from None
    need = _ENTRY.itemsize * shape[0] * shape[1]
    if len(raw) != need:
        raise ParseError(
            f"{where}.base64: {len(raw)} bytes, shape {shape} needs {need}"
        )
    return np.frombuffer(raw, _ENTRY).reshape(shape)


_MATRIX_PARSERS = {"1": _parse_rows, "2": _parse_base64}


def _parse_systems(raw, where: str):
    if not isinstance(raw, list):
        raise ParseError(f"{where}: expected a list")
    systems = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ParseError(f"{where}[{i}]: expected an object")
        for field in ("name", "dim", "role"):
            if field not in entry:
                raise ParseError(f"{where}[{i}]: missing field {field!r}")
        if entry["role"] not in ("input", "output"):
            raise ParseError(f"{where}[{i}].role: {entry['role']!r}")
        if not isinstance(entry["dim"], int) or entry["dim"] < 1:
            raise ParseError(f"{where}[{i}].dim: {entry['dim']!r}")
        systems.append((str(entry["name"]), int(entry["dim"]), entry["role"]))
    return systems


def _split_roles(systems):
    ins = [(n, d) for n, d, role in systems if role == "input"]
    outs = [(n, d) for n, d, role in systems if role == "output"]
    return ins, outs


def load_document(path):
    """Load a document and return the typed in-memory object."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    return object_from_document(doc)


def object_from_document(doc: dict):
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    for field in ("format_version", "kind", "systems", "matrices"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    version = doc["format_version"]
    parse = _MATRIX_PARSERS.get(version) if isinstance(version, str) else None
    if parse is None:
        raise ParseError(
            f"format_version: expected one of {sorted(_MATRIX_PARSERS)}, "
            f"got {version!r}"
        )
    kind = doc["kind"]
    if kind not in KINDS:
        raise UnknownKind(f"unknown kind {kind!r}")
    systems = _parse_systems(doc["systems"], "systems")
    matrices = doc["matrices"]
    if not isinstance(matrices, list) or not matrices:
        raise ParseError("matrices: expected a non-empty list")
    parsed = [parse(m, f"matrices[{i}]") for i, m in enumerate(matrices)]
    for i, m in enumerate(parsed):
        if not np.isfinite(m).all():
            raise ParseError(f"matrices[{i}]: non-finite entry")
    try:
        return _assemble(kind, systems, parsed)
    except DimensionMismatch as exc:
        raise ParseError(str(exc)) from None


def _assemble(kind, systems, matrices):
    ins, outs = _split_roles(systems)
    if kind == "operator":
        if len(matrices) != 1:
            raise ParseError("operator documents carry exactly one matrix")
        return LabeledOperator(matrices[0], ins, outs)
    if kind == "gour":
        if len(matrices) != 1:
            raise ParseError("gour documents carry exactly one matrix")
        names = tuple(n for n, _, _ in systems)
        if names != GOUR_ORDER:
            raise ParseError(f"gour systems must be {GOUR_ORDER}, got {names}")
        sys_list = [(n, d) for n, d, _ in systems]
        return LabeledOperator(matrices[0], sys_list, sys_list)
    if kind == "superchannel-choi":
        if len(matrices) != 1:
            raise ParseError("superchannel documents carry exactly one matrix")
        if len(ins) != 2 or len(outs) != 2:
            raise ParseError("superchannel documents need 2 inputs and 2 outputs")
        sys_list = SystemList(
            [("A1", ins[0][1]), ("A2", ins[1][1]),
             ("B1", outs[0][1]), ("B2", outs[1][1])]
        )
        return SuperchannelChoi(LabeledOperator(matrices[0], sys_list, sys_list))
    if kind == "measure-prepare":
        if len(matrices) % 2 != 0:
            raise ParseError(
                "measure-prepare documents alternate effect and state matrices"
            )
        povm, states = [], []
        for i in range(0, len(matrices), 2):
            povm.append(LabeledOperator(matrices[i], ins, ins))
            states.append(LabeledOperator(matrices[i + 1], outs, outs))
        return MeasurePrepare(povm=tuple(povm), states=tuple(states))
    # channel kinds
    if not ins or not outs:
        raise ParseError(f"{kind} documents need input and output systems")
    if kind == "choi-channel":
        if len(matrices) != 1:
            raise ParseError("choi documents carry exactly one matrix")
        full = ins + outs
        op = LabeledOperator(matrices[0], full, full)
        return ChoiRep(op, tuple(n for n, _ in ins), tuple(n for n, _ in outs))
    if kind == "kraus-channel":
        ops = tuple(LabeledOperator(m, ins, outs) for m in matrices)
        return KrausRep(ops)
    if kind == "stinespring":
        if len(matrices) != 1:
            raise ParseError("stinespring documents carry exactly one matrix")
        env_label = outs[-1][0]
        v = LabeledOperator(matrices[0], ins, outs)
        return StinespringRep(v, env_label)
    if kind == "liouville":
        if len(matrices) != 1:
            raise ParseError("liouville documents carry exactly one matrix")
        return LiouvilleRep(
            matrices[0], SystemList(ins), SystemList(outs)
        )
    raise UnknownKind(kind)
