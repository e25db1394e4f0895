"""Labeled multipartite operators and deterministic reindexing primitives.

Conventions used throughout the package:

* A composite basis index runs row-major over the listed system order, so the
  leftmost label is the most significant digit.
* Vectorization is column-stacking with the *input copy listed first*:
  ``vec(M)`` has component ``M[b, a]`` at composite index ``(a, b)``.  With the
  unnormalized maximally entangled pair ``|gamma> = sum_i |ii>`` this is
  ``vec(M) = (1 ⊗ M)|gamma>``, and the transpose rule
  ``(X ⊗ Y) vec(M) = vec(Y M X^T)`` holds.
* All reindexing operations move entries without arithmetic, so round trips
  are bit exact.  vec/mat, their partial variants, ``permute_systems`` and
  the link product's output share one regrouping rule, :func:`_regrouped`;
  ``partial_transpose`` swaps paired legs in place, keeping its system lists.

Values are immutable after construction and every operation is a pure
function of its inputs.

Tolerance policy (Frobenius norms).  Hermiticity (one rule,
:func:`_hermiticity`, for ``validate_*``, :func:`psd_decompose` and the PPT
tests), TP and NS deviations are relative, within ``tol * max(1, ||J||)``;
the minimum eigenvalue is absolute, ``>= -tol``.  A superchannel's ||Θ|| is
taken once, by the memory split, and is the scale of every relative rule on
Θ: Hermiticity, TP, NS and ``realize``'s residual.  Its CP is decided on the
kept block B of the memory split, the smallest e whose weight δ outside it
is at most ``tol / 10`` (absolute): λmin(Θ) lies in [min(λ_B, 0) - δ, λ_B],
so it passes when min(λ_B, 0) - δ >= -tol and fails when λ_B < -tol;
otherwise Θ's full spectrum decides.  On a support gap ``min_eigenvalue`` is
min(λ_B, 0), within δ (rounding level) of the full ``eigvalsh``.  The
memory split applies no check of its own: it decomposes F's Hermitian part
and clips its eigenvalues at 0, since λmin(F) >= d_B2·λmin(Θ_h) >=
-d_B2·tol on any Θ that validation accepts, and only validation computes
the split and hands it on.  Ranks (``kraus_from_choi``, and
:func:`numeric_rank`, a public utility and test oracle that the package
itself never calls): a value counts above ``rank_rtol`` times the largest.
Memory rank e1: the smallest rank whose cut, plus a bound on renormalising
V, stays within ``realize``'s ``tol`` of ||Θ|| (``memory_cost``: its
default, 1e-8).  Environment rank e2: the Kraus operators of Θ's kept
block, counted above ``tol / 10`` times the largest (the same budget; 1e-9
at the default); it is also the count of ``n_operators``, the comb's
family.  ``realize``'s self-check: residual relative to ||Θ||
within ``tol``.  Isometries (one rule, :func:`_isometry`, for ``realize``'s
V and W and the Stinespring ↔ Kraus conversions): ||V†V - 1|| within
``tol * max(1, d_in)``.  POVM completeness
(``measure_prepare_from_decomposition``): ||ΣM - 1|| within
``max(tol, 1e-10) * max(1, ||ΣM||)``.  An operator whose ||·||_F is not
finite (a non-finite entry, or an overflow) fails every validity check,
with NaN witnesses and no spectrum taken; a deviation that overflows is inf.
A validity ``tol`` that is negative or NaN raises ``ValueError``, and so does
a ``rank_rtol`` or a ``realize`` budget that is negative or not finite
(:func:`_check_tol`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPSD, UnknownLabel

DEFAULT_ATOL = 1e-9
DEFAULT_RANK_RTOL = 1e-9


@dataclass(frozen=True)
class System:
    """One labeled subsystem with its dimension, an integer >= 1."""

    label: str
    dim: int

    def __post_init__(self):
        try:  # any integer but a bool, nothing rounded
            dim = operator.index(None if isinstance(self.dim, bool) else self.dim)
        except TypeError:
            raise DimensionMismatch(
                f"system {self.label!r} has dim {self.dim!r}, not an integer"
            ) from None
        if dim < 1:
            raise DimensionMismatch(f"system {self.label!r} has dim {dim} < 1")
        object.__setattr__(self, "dim", dim)


class SystemList:
    """Ordered list of labeled subsystems; labels unique, dims >= 1."""

    __slots__ = ("_systems",)

    def __init__(self, systems: Iterable):
        parsed = []
        for entry in systems:
            if isinstance(entry, System):
                parsed.append(entry)
            else:
                label, dim = entry
                parsed.append(System(str(label), dim))
        labels = [s.label for s in parsed]
        if len(set(labels)) != len(labels):
            raise DimensionMismatch(f"duplicate labels in system list: {labels}")
        object.__setattr__(self, "_systems", tuple(parsed))

    def __setattr__(self, name, value):
        raise AttributeError("SystemList is immutable")

    def __len__(self):
        return len(self._systems)

    def __iter__(self):
        return iter(self._systems)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return SystemList(self._systems[item])
        return self._systems[item]

    def __eq__(self, other):
        if not isinstance(other, SystemList):
            return NotImplemented
        return self._systems == other._systems

    def __hash__(self):
        return hash(self._systems)

    def __repr__(self):
        inner = ", ".join(f"{s.label}:{s.dim}" for s in self._systems)
        return f"SystemList({inner})"

    @property
    def labels(self) -> tuple:
        return tuple(s.label for s in self._systems)

    @property
    def dims(self) -> tuple:
        return tuple(s.dim for s in self._systems)

    @property
    def total_dim(self) -> int:
        out = 1
        for s in self._systems:
            out *= s.dim
        return out

    def index(self, label: str) -> int:
        for i, s in enumerate(self._systems):
            if s.label == label:
                return i
        raise UnknownLabel(label)

    def dim_of(self, label: str) -> int:
        return self._systems[self.index(label)].dim

    def without(self, labels) -> "SystemList":
        drop = set(labels)
        return SystemList([s for s in self._systems if s.label not in drop])

    def restricted_to(self, labels) -> "SystemList":
        keep = set(labels)
        return SystemList([s for s in self._systems if s.label in keep])


def _as_system_list(systems) -> SystemList:
    if isinstance(systems, SystemList):
        return systems
    return SystemList(systems)


class LabeledOperator:
    """Dense complex matrix with labeled input and output subsystems.

    The matrix has shape ``(out_total, in_total)``.  A label may appear in
    both the input and the output list (the row and column copy of a square
    factor); inside one list labels are unique.
    """

    __slots__ = ("_matrix", "_in", "_out")

    def __init__(self, matrix, in_systems, out_systems):
        self._set(np.array(matrix, dtype=np.complex128), in_systems,
                  out_systems)

    def _set(self, arr: np.ndarray, in_systems, out_systems):
        in_sys = _as_system_list(in_systems)
        out_sys = _as_system_list(out_systems)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected a matrix, got ndim={arr.ndim}")
        if arr.shape != (out_sys.total_dim, in_sys.total_dim):
            raise DimensionMismatch(
                f"matrix shape {arr.shape} does not match systems "
                f"out={out_sys.dims} in={in_sys.dims}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "_matrix", arr)
        object.__setattr__(self, "_in", in_sys)
        object.__setattr__(self, "_out", out_sys)

    def __setattr__(self, name, value):
        raise AttributeError("LabeledOperator is immutable")

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def in_systems(self) -> SystemList:
        return self._in

    @property
    def out_systems(self) -> SystemList:
        return self._out

    @property
    def shape(self):
        return self._matrix.shape

    def __repr__(self):
        ins = ",".join(f"{s.label}:{s.dim}" for s in self._in) or "1"
        outs = ",".join(f"{s.label}:{s.dim}" for s in self._out) or "1"
        return f"LabeledOperator({ins} -> {outs})"

    def as_tensor(self) -> np.ndarray:
        """View with one axis per leg, output legs first then input legs."""
        return self._matrix.reshape(self._out.dims + self._in.dims)

    def _legs(self) -> tuple:
        """The :class:`System` of each axis of :meth:`as_tensor`."""
        return self._out._systems + self._in._systems

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _require_same_systems(self, other: "LabeledOperator"):
        if self._in != other._in or self._out != other._out:
            raise DimensionMismatch(
                f"system mismatch: {self!r} vs {other!r}"
            )

    def __add__(self, other: "LabeledOperator") -> "LabeledOperator":
        self._require_same_systems(other)
        return LabeledOperator(self._matrix + other._matrix, self._in, self._out)

    def __sub__(self, other: "LabeledOperator") -> "LabeledOperator":
        self._require_same_systems(other)
        return LabeledOperator(self._matrix - other._matrix, self._in, self._out)

    def __mul__(self, scalar) -> "LabeledOperator":
        return LabeledOperator(self._matrix * scalar, self._in, self._out)

    __rmul__ = __mul__

    def __matmul__(self, other: "LabeledOperator") -> "LabeledOperator":
        if self._in != other._out:
            raise DimensionMismatch(
                f"cannot compose: {self!r} expects inputs {self._in}, "
                f"{other!r} produces {other._out}"
            )
        return LabeledOperator(self._matrix @ other._matrix, other._in, self._out)

    def adjoint(self) -> "LabeledOperator":
        return LabeledOperator(self._matrix.conj().T, self._out, self._in)

    def conjugate(self) -> "LabeledOperator":
        return LabeledOperator(self._matrix.conj(), self._in, self._out)

    def trace(self) -> complex:
        if self._in.total_dim != self._out.total_dim:
            raise DimensionMismatch("trace of a non-square operator")
        return complex(np.trace(self._matrix))

    def scalar(self) -> complex:
        if self._matrix.size != 1:
            raise DimensionMismatch("operator is not a scalar")
        return complex(self._matrix[0, 0])

    def relabeled(self, mapping: dict) -> "LabeledOperator":
        """Rename systems; entries are untouched."""
        new_in = [(mapping.get(s.label, s.label), s.dim) for s in self._in]
        new_out = [(mapping.get(s.label, s.label), s.dim) for s in self._out]
        return LabeledOperator(self._matrix, new_in, new_out)


def _handed_over(arr: np.ndarray, in_systems, out_systems,
                 *sources: LabeledOperator) -> LabeledOperator:
    """Operator on ``arr``, a complex128 array its caller has just built and
    gives up, kept without the copy that the constructor makes.  It is still
    copied when it may share memory with one of ``sources`` (a reshape that
    moved nothing is a view of its source's matrix)."""
    if any(np.may_share_memory(arr, s.matrix) for s in sources):
        arr = arr.copy()
    op = LabeledOperator.__new__(LabeledOperator)
    op._set(arr, in_systems, out_systems)
    return op


def _regrouped(t: np.ndarray, legs, out_axes: list, in_axes: list,
               *sources: LabeledOperator) -> LabeledOperator:
    """The one regrouping rule: the operator whose outputs are the axes
    ``out_axes`` of the tensor ``t`` and inputs ``in_axes``, in that order,
    ``legs[a]`` being axis a's :class:`System`.  One transpose and one
    reshape, no arithmetic; the result shares no memory with ``sources``."""
    out_sys = SystemList([legs[a] for a in out_axes])
    in_sys = SystemList([legs[a] for a in in_axes])
    m = t.transpose(out_axes + in_axes).reshape(out_sys.total_dim,
                                                in_sys.total_dim)
    return _handed_over(m, in_sys, out_sys, *sources)


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def gamma(d: int, labels=("A", "B")) -> LabeledOperator:
    """Unnormalized maximally entangled column vector sum_i |ii> on two
    d-dimensional copies (distinctly labeled); squared norm equals d."""
    if d < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {d}")
    v = np.eye(d, dtype=np.complex128).reshape(d * d, 1)
    return LabeledOperator(v, [], [(labels[0], d), (labels[1], d)])


def identity_operator(systems) -> LabeledOperator:
    sys_list = _as_system_list(systems)
    return LabeledOperator(
        np.eye(sys_list.total_dim, dtype=np.complex128), sys_list, sys_list
    )


def kron(a: LabeledOperator, b: LabeledOperator) -> LabeledOperator:
    """Tensor product; system lists concatenate (labels must stay unique)."""
    return LabeledOperator(
        np.kron(a.matrix, b.matrix),
        list(a.in_systems) + list(b.in_systems),
        list(a.out_systems) + list(b.out_systems),
    )


# ----------------------------------------------------------------------
# reindexing operations
# ----------------------------------------------------------------------

def vec(op: LabeledOperator) -> LabeledOperator:
    """Full vectorization: column vector on (inputs, outputs), inputs first.

    Component at composite index ``(a, b)`` equals ``M[b, a]``.  Input and
    output labels must be disjoint so the result list stays unique.
    """
    overlap = set(op.in_systems.labels) & set(op.out_systems.labels)
    if overlap:
        raise DimensionMismatch(
            f"vec needs disjoint input/output labels, shared: {sorted(overlap)}"
        )
    legs, n_out = op._legs(), len(op.out_systems)
    return _regrouped(op.as_tensor(), legs,
                      [*range(n_out, len(legs)), *range(n_out)], [], op)


def mat(v: LabeledOperator, split) -> LabeledOperator:
    """Matricization, the exact inverse of :func:`vec`.

    ``split`` names the leading systems of ``v`` that become the inputs; the
    remaining systems become the outputs.  ``mat(vec(M), M.in_systems.labels)``
    reproduces ``M`` bit exactly (snake equation).
    """
    if len(v.in_systems) != 0:
        raise DimensionMismatch("mat expects a column vector (no input systems)")
    labels = tuple(split.labels) if isinstance(split, SystemList) else tuple(split)
    if v.out_systems.labels[: len(labels)] != labels:
        raise DimensionMismatch(
            f"split {labels} is not a prefix of {v.out_systems.labels}"
        )
    k = len(labels)
    return _regrouped(v.as_tensor(), v._legs(),
                      list(range(k, len(v.out_systems))), list(range(k)), v)


def partial_vec(op: LabeledOperator, label: str) -> LabeledOperator:
    """Move one input leg to the front of the output legs (pure reindexing).

    Applying this to every input, starting from the last one, reproduces
    :func:`vec`.  Inverse of :func:`partial_mat` on the same label (exactly
    when the leg sits first in its list, up to a system permutation
    otherwise).
    """
    i = op.in_systems.index(label)
    if label in op.out_systems.labels:
        raise DimensionMismatch(f"label {label!r} already an output")
    legs, n_out = op._legs(), len(op.out_systems)
    ins = list(range(n_out, len(legs)))
    moved = ins.pop(i)
    return _regrouped(op.as_tensor(), legs, [moved, *range(n_out)], ins, op)


def partial_mat(op: LabeledOperator, label: str) -> LabeledOperator:
    """Move one output leg to the front of the input legs (pure reindexing)."""
    i = op.out_systems.index(label)
    if label in op.in_systems.labels:
        raise DimensionMismatch(f"label {label!r} already an input")
    legs, n_out = op._legs(), len(op.out_systems)
    outs = list(range(n_out))
    moved = outs.pop(i)
    return _regrouped(op.as_tensor(), legs, outs,
                      [moved, *range(n_out, len(legs))], op)


def _square_axes(op: LabeledOperator, labels) -> list:
    """(out_axis, in_axis) pairs for labels present on both sides with equal
    dims; raises otherwise."""
    pairs = []
    for label in labels:
        try:
            i_out = op.out_systems.index(label)
            i_in = op.in_systems.index(label)
        except UnknownLabel:
            raise UnknownLabel(label) from None
        if op.out_systems[i_out].dim != op.in_systems[i_in].dim:
            raise DimensionMismatch(
                f"operator is not square on {label!r}: "
                f"{op.out_systems[i_out].dim} vs {op.in_systems[i_in].dim}"
            )
        pairs.append((i_out, len(op.out_systems) + i_in))
    return pairs


def partial_trace(op: LabeledOperator, labels) -> LabeledOperator:
    """Trace out the named systems (must be square on each of them)."""
    labels = [labels] if isinstance(labels, str) else list(labels)
    pairs = _square_axes(op, labels)
    n = len(op.out_systems) + len(op.in_systems)
    subs = list(range(n))
    for i_out, i_in in pairs:
        subs[i_in] = subs[i_out]
    traced = {a for pair in pairs for a in pair}
    out_subs = [subs[a] for a in range(n) if a not in traced]
    res = np.einsum(op.as_tensor(), subs, out_subs)
    new_out = op.out_systems.without(labels)
    new_in = op.in_systems.without(labels)
    return LabeledOperator(
        res.reshape(new_out.total_dim, new_in.total_dim), new_in, new_out
    )


def _transposed_axes(op: LabeledOperator, labels) -> list:
    """Axis order of :meth:`LabeledOperator.as_tensor` that swaps the row
    and column legs of the named square factors; raises as
    :func:`_square_axes` does."""
    labels = [labels] if isinstance(labels, str) else list(labels)
    order = list(range(len(op.out_systems) + len(op.in_systems)))
    for i_out, i_in in _square_axes(op, labels):
        order[i_out], order[i_in] = order[i_in], order[i_out]
    return order


def partial_transpose(op: LabeledOperator, labels) -> LabeledOperator:
    """Swap row and column indices of the named square factors; involutive."""
    order = _transposed_axes(op, labels)
    m = op.as_tensor().transpose(order).reshape(op.shape)
    return _handed_over(m, op.in_systems, op.out_systems, op)


def _positions(systems: SystemList, new, kind: str) -> list:
    """Indices into ``systems`` of the labels ``new``; raises unless ``new``
    is a permutation of the system labels."""
    new = tuple(new)
    if sorted(new) != sorted(systems.labels):
        raise DimensionMismatch(
            f"{new} is not a permutation of {kind} {systems.labels}"
        )
    return [systems.index(lbl) for lbl in new]


def permute_systems(op: LabeledOperator, new_in, new_out) -> LabeledOperator:
    """Reorder the input and output system lists (pure reindexing)."""
    in_pos = _positions(op.in_systems, new_in, "inputs")
    out_pos = _positions(op.out_systems, new_out, "outputs")
    n_out = len(op.out_systems)
    return _regrouped(op.as_tensor(), op._legs(), out_pos,
                      [n_out + i for i in in_pos], op)


# ----------------------------------------------------------------------
# spectral utilities
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition with fixed ordering and phase conventions.

    Eigenvalues are real and sorted descending; :func:`psd_decompose`
    clips those in ``[-tol, 0)`` to zero and makes each eigenvector's first
    component of magnitude above ``tol`` real and positive, so the output is
    deterministic for non-degenerate spectra.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _hermitian_spectrum(m: np.ndarray, vectors: bool):
    """Ascending ``eigvalsh`` (or ``eigh`` pair, with ``vectors``) of the
    Hermitian part ``(M + M†)/2`` of an array."""
    herm = (m + m.conj().T) / 2.0
    return np.linalg.eigh(herm) if vectors else np.linalg.eigvalsh(herm)


def _check_tol(tol: float, name: str = "tol", finite: bool = False) -> None:
    """Refuse a tolerance ``name`` that is negative or NaN, and with
    ``finite`` one that is infinite too: the one check of the validity
    tolerances, the cut budget of ``realize`` and ``rank_rtol``."""
    if not (tol >= 0.0 and (tol < math.inf or not finite)):
        rule = "finite and >= 0" if finite else ">= 0"
        raise ValueError(f"{name} must be {rule}, got {tol!r}")


def _hermiticity(m: np.ndarray, tol: float,
                 norm: float | None = None) -> tuple:
    """(||M - M†||, whether it is within ``tol * max(1, ||M||)``): the one
    Hermiticity rule of the package; ``norm`` is ||M|| if already taken."""
    dev = float(np.linalg.norm(m - m.conj().T))
    scale = float(np.linalg.norm(m)) if norm is None else norm
    return dev, bool(dev <= tol * max(1.0, scale))


def _isometry(v: np.ndarray, tol: float) -> tuple:
    """(||V†V - 1||, whether it is within ``tol * max(1, d_in)``), d_in the
    column count of V: the one isometry rule of the package."""
    d_in = v.shape[1]
    dev = float(np.linalg.norm(v.conj().T @ v - np.eye(d_in)))
    return dev, bool(dev <= tol * max(1.0, d_in))


def psd_decompose(op, tol: float = DEFAULT_ATOL,
                  require_psd: bool = True) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian (optionally PSD) operator.

    Raises ``NotHermitian`` when ``|M - M†|_F > tol * max(1, |M|_F)`` and, with
    ``require_psd``, ``NotPSD`` when an eigenvalue falls below ``-tol``.
    The spectrum is that of ``(M + M†)/2``, so a ``LabeledOperator`` and its
    ``matrix`` give the same result; eigenvalues in ``[-tol, 0)`` become 0.
    """
    m = op.matrix if isinstance(op, LabeledOperator) else np.asarray(op)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("spectral decomposition needs a square matrix")
    herm_dev, hermitian = _hermiticity(m, tol)
    if not hermitian:
        raise NotHermitian(
            f"deviation {herm_dev:.3e} exceeds {tol:.1e} * max(1, |M|)")
    vals, vecs = _hermitian_spectrum(m, vectors=True)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    if require_psd and len(vals) and vals[-1] < -tol:
        raise NotPSD(f"minimum eigenvalue {vals[-1]:.3e} below -{tol:.1e}")
    vals[(vals >= -tol) & (vals < 0.0)] = 0.0
    if len(vals):  # argmax needs a non-empty axis
        above = np.abs(vecs) > tol
        fixed = above.any(axis=0)
        pivot = vecs[above.argmax(axis=0)[fixed], np.flatnonzero(fixed)]
        # np.hypot, not np.abs: it rounds as the scalar modulus does
        vecs[:, fixed] *= (pivot / np.hypot(pivot.real, pivot.imag)).conj()
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return SpectralDecomposition(vals, vecs)


def numeric_rank(op, rtol: float = DEFAULT_RANK_RTOL) -> int:
    """Number of singular values above ``rtol`` times the largest one."""
    m = op.matrix if isinstance(op, LabeledOperator) else np.asarray(op)
    if m.size == 0:
        return 0
    svals = np.linalg.svd(m, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > rtol * svals[0]))
