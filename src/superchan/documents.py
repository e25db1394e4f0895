"""On-disk JSON documents for operators and channel/superchannel representations.

One document holds one object.  Each matrix is written as
``{"shape": [rows, cols], "base64": ...}``: standard padded base64 of its
row-major little-endian complex128 bytes (format version "2"), so round trips
are bit-exact, signed zeros included.  Field order is fixed and the JSON is
compact, so saving the same object twice produces byte-identical files.
Format "1" documents, whose matrices are lists of rows of ``[re, im]``
decimal pairs, are still read but never written.

Each kind holds one type of object (``operator`` and ``gour`` both hold a
``LabeledOperator``); writing an object under a kind of another type raises
``UnknownKind``.  A save that fails leaves the target file untouched.

Loading only checks structure (fields, shapes, dimensions, and that writing
the loaded object back gives the document's systems list).  Whether an
operator is a valid channel or superchannel is an explicit, separate check.
"""

from __future__ import annotations

import base64
import json
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, ParseError, UnknownKind
from .breaking import MeasurePrepare
from .channels import ChoiRep, KrausRep, LiouvilleRep, StinespringRep
from .operators import LabeledOperator, SystemList
from .superchannels import GOUR_ORDER, SuperchannelChoi

FORMAT_VERSION = "2"
_ENTRY = np.dtype("<c16")  # one complex entry on disk: two little-endian doubles


# ----------------------------------------------------------------------
# the kind table
# ----------------------------------------------------------------------

def _io(ins, outs) -> list:
    """(system, role) pairs of a channel-like object: inputs, then outputs."""
    return [(s, "input") for s in ins] + [(s, "output") for s in outs]


def _gour_layout(op: LabeledOperator):
    if op.in_systems.labels != GOUR_ORDER:
        raise DimensionMismatch(f"gour documents need systems {GOUR_ORDER}")
    roles = ("output", "input", "input", "output")
    return list(zip(op.in_systems, roles)), [op.matrix]


def _square(ins, outs, ms, systems) -> LabeledOperator:
    """The one matrix on the document's systems, in the document's order."""
    sys_list = [(n, d) for n, d, _ in systems]
    return LabeledOperator(ms[0], sys_list, sys_list)


def _measure_prepare(ins, outs, ms, systems) -> MeasurePrepare:
    if len(ms) % 2 != 0:
        raise ParseError(
            "measure-prepare documents alternate effect and state matrices"
        )
    return MeasurePrepare(
        povm=tuple(LabeledOperator(m, ins, ins) for m in ms[0::2]),
        states=tuple(LabeledOperator(m, outs, outs) for m in ms[1::2]),
    )


class _Kind(NamedTuple):
    type: type  # the type of object the kind holds
    layout: Callable  # object -> ((system, role) pairs, matrices), in order
    build: Callable  # (inputs, outputs, matrices, systems) -> object
    one_matrix: bool  # the document carries exactly one matrix
    channel: bool  # the document needs input and output systems


_KINDS = {
    "operator": _Kind(
        LabeledOperator,
        lambda op: ([(s, "output") for s in op.out_systems]
                    + [(s, "input") for s in op.in_systems], [op.matrix]),
        lambda i, o, ms, _: LabeledOperator(ms[0], i, o), True, False),
    "choi-channel": _Kind(
        ChoiRep, lambda c: (_io(c.in_systems, c.out_systems), [c.op.matrix]),
        lambda i, o, ms, _: ChoiRep(
            LabeledOperator(ms[0], [*i, *o], [*i, *o]), i.labels, o.labels),
        True, True),
    "kraus-channel": _Kind(
        KrausRep,
        lambda k: (_io(k.in_systems, k.out_systems), [op.matrix for op in k.ops]),
        lambda i, o, ms, _: KrausRep(tuple(LabeledOperator(m, i, o) for m in ms)),
        False, True),
    "stinespring": _Kind(
        StinespringRep, lambda s: (_io(s.in_systems, s.v.out_systems), [s.v.matrix]),
        lambda i, o, ms, _: StinespringRep(LabeledOperator(ms[0], i, o), o[-1].label),
        True, True),
    "liouville": _Kind(
        LiouvilleRep, lambda l: (_io(l.in_systems, l.out_systems), [l.matrix]),
        lambda i, o, ms, _: LiouvilleRep(ms[0], i, o), True, True),
    "superchannel-choi": _Kind(
        SuperchannelChoi,
        lambda t: (_io(t.op.in_systems[:2], t.op.in_systems[2:]), [t.op.matrix]),
        lambda *parts: SuperchannelChoi(_square(*parts)), True, False),
    "gour": _Kind(LabeledOperator, _gour_layout, _square, True, False),
    "measure-prepare": _Kind(
        MeasurePrepare,
        lambda mp: (_io(mp.povm[0].in_systems, mp.states[0].in_systems),
                    [m.matrix for pair in zip(mp.povm, mp.states) for m in pair]),
        _measure_prepare, False, False),
}
KINDS = tuple(_KINDS)


# ----------------------------------------------------------------------
# object -> document
# ----------------------------------------------------------------------

def _matrix_payload(m: np.ndarray) -> dict:
    m = np.ascontiguousarray(m, _ENTRY)
    if not np.isfinite(m).all():
        raise ParseError("non-finite value cannot be serialized")
    return {"shape": list(m.shape),
            "base64": base64.b64encode(m.tobytes()).decode("ascii")}


def document_from_object(obj, kind: str | None = None) -> dict:
    """Build the document dictionary of an object; its ``metadata`` field is
    always empty.  ``kind`` defaults to the first kind of the object's type;
    a kind of another type raises ``UnknownKind``."""
    kind = kind or next(
        (k for k, entry in _KINDS.items() if isinstance(obj, entry.type)), None)
    if kind not in KINDS or not isinstance(obj, _KINDS[kind].type):
        raise UnknownKind(f"cannot write a {type(obj).__name__} as kind {kind!r}")
    systems, matrices = _KINDS[kind].layout(obj)
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "systems": [{"name": s.label, "dim": s.dim, "role": role}
                    for s, role in systems],
        "matrices": [_matrix_payload(m) for m in matrices],
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
    identical inputs.  The bytes are built before the file is opened, so a
    save that fails leaves ``path`` as it was."""
    data = document_bytes(document_from_object(obj, kind))
    with open(path, "wb") as fh:
        fh.write(data)


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
        if type(entry["dim"]) is not int or entry["dim"] < 1:
            raise ParseError(f"{where}[{i}].dim: {entry['dim']!r}")
        if not isinstance(entry["name"], str):
            raise ParseError(f"{where}[{i}].name: {entry['name']!r}")
        systems.append((entry["name"], entry["dim"], entry["role"]))
    return systems


def load_document(path):
    """Load a document and return the typed in-memory object."""
    with open(path, "rb") as fh:
        try:  # the file's bytes are freed once parsed, before decoding
            doc = json.load(fh)
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
    entry = _KINDS[kind]
    if entry.one_matrix and len(parsed) != 1:
        raise ParseError(f"{kind} documents carry exactly one matrix")
    try:
        ins, outs = (SystemList((n, d) for n, d, r in systems if r == role)
                     for role in ("input", "output"))
        if entry.channel and not (ins and outs):
            raise ParseError(f"{kind} documents need input and output systems")
        obj = entry.build(ins, outs, parsed, systems)
        emitted = [(s.label, s.dim, role) for s, role in entry.layout(obj)[0]]
    except DimensionMismatch as exc:
        raise ParseError(str(exc)) from None
    if emitted != systems:
        raise ParseError(f"systems {systems} load as an object written with "
                         f"systems {emitted}")
    return obj
