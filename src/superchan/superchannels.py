"""Superchannels: validation, representations, realization, and memory cost.

A superchannel maps channels (B1 -> A2) to channels (A1 -> B2) and is handled
here through its Choi operator on the systems ``A1, A2, B1, B2`` in that
fixed order (inputs first, outputs last, each in laboratory-time order).
Validity is the conjunction of three conditions on that operator:

* CP:  the operator is positive semidefinite;
* TP:  tracing out B1 and B2 leaves the identity on A1 A2;
* NS:  tracing out B2 factorizes as (marginal on A1 B1) ⊗ 1_{A2} / d_{A2},
       which forbids signaling from the later input to the earlier output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotAValidSuperchannel, ResidualTooLarge
from .channels import (
    ChannelValidityReport,
    ChoiRep,
    KrausRep,
    LiouvilleRep,
    StinespringRep,
    _rng,
    apply_channel,
    choi_from_kraus,
    kraus_from_choi,
    link_product,
    liouville_from_kraus,
    random_channel,
    validate_channel,
)
from .operators import (
    DEFAULT_ATOL,
    LabeledOperator,
    SystemList,
    _hermitian_spectrum,
    _isometry,
    identity_operator,
    kron,
    partial_mat,
    partial_trace,
    partial_vec,
    permute_systems,
    psd_decompose,
)

CHOI_ORDER = ("A1", "A2", "B1", "B2")
GOUR_ORDER = ("B1", "A2", "A1", "B2")
REALIZE_TOL = 1e-8  # realize's default tol, and the memory-rank budget


@dataclass(frozen=True)
class SuperchannelDims:
    a1: int
    a2: int
    b1: int
    b2: int

    @property
    def total(self) -> int:
        return self.a1 * self.a2 * self.b1 * self.b2

    def systems(self) -> SystemList:
        return SystemList(
            [("A1", self.a1), ("A2", self.a2), ("B1", self.b1), ("B2", self.b2)]
        )


class SuperchannelChoi:
    """Choi operator of a superchannel on A1 ⊗ A2 ⊗ B1 ⊗ B2.

    Construction only checks structure (labels, order, squareness); the CP,
    TP and NS conditions are checked explicitly by
    :func:`validate_superchannel`.

    The matrix cannot change, so :func:`validate_superchannel` memoises on
    it per ``tol`` what it derives, the package's only memo: the
    :class:`SuperchannelReport` and the budget-free part of the memory
    split (F, its spectrum, the cost of every rank, the smallest
    eigenvalue of the kept block that decides CP, and ||Θ||_F).  Only
    validation fills it, and the split is read only through a valid report,
    so nothing reads the split of an operator that has not passed.
    """

    __slots__ = ("_op", "_dims", "_memo")

    def __init__(self, op: LabeledOperator):
        if op.in_systems != op.out_systems:
            raise DimensionMismatch("superchannel Choi operator must be square")
        if op.in_systems.labels != CHOI_ORDER:
            raise DimensionMismatch(
                f"systems must be {CHOI_ORDER}, got {op.in_systems.labels}"
            )
        object.__setattr__(self, "_op", op)
        object.__setattr__(self, "_dims", SuperchannelDims(*op.in_systems.dims))
        object.__setattr__(self, "_memo", {})  # tol -> (report, split)

    def __setattr__(self, name, value):
        raise AttributeError("SuperchannelChoi is immutable")

    @property
    def op(self) -> LabeledOperator:
        return self._op

    @property
    def dims(self) -> SuperchannelDims:
        return self._dims

    def __repr__(self):
        d = self._dims
        return f"SuperchannelChoi(A1:{d.a1}, A2:{d.a2}, B1:{d.b1}, B2:{d.b2})"


@dataclass(frozen=True)
class SuperchannelReport(ChannelValidityReport):
    """The channel report of Θ read as (A1, A2) -> (B1, B2), plus NS.

    ``min_eigenvalue`` lies within ``min_eigenvalue_bound`` of the smallest
    eigenvalue of (Θ + Θ†)/2; it is read off the block of Θ on the first
    ``kept_rank`` eigenvectors of F (see :func:`validate_superchannel`).
    From the full spectrum the bound is 0.0 and ``kept_rank`` is
    d_A1·d_B1, all of F.  On a non-finite Θ no spectrum is taken: every
    verdict is False, every witness NaN and ``kept_rank`` 0.
    """

    min_eigenvalue_bound: float
    kept_rank: int
    ns: bool
    ns_deviation: float

    @property
    def valid(self) -> bool:
        return super().valid and self.ns


@dataclass(frozen=True)
class SuperKrausFamily:
    """Operator family from the spectral decomposition of a superchannel Choi.

    ``n_ops`` map (A1, A2) to (B1, B2) and rebuild the Choi operator as a sum
    of vectorized outer products.  The cached layouts are pure reindexings:
    ``q_ops`` map (B1, A1, A2) to (B2) and ``k_ops`` map (B1, A2) to (A1, B2).
    """

    n_ops: tuple
    q_ops: tuple
    k_ops: tuple
    dims: SuperchannelDims

    def __len__(self):
        return len(self.n_ops)


@dataclass(frozen=True)
class FThetaChannel:
    """Effective pre-processing channel A1 -> B1 carried by a superchannel."""

    choi: ChoiRep
    kraus: tuple
    rank: int


@dataclass(frozen=True)
class Realization:
    """Sequential realization: pre-isometry, memory, post-isometry, trace.

    ``v`` maps A1 to E1 ⊗ B1 and ``w`` maps E1 ⊗ A2 to E2 ⊗ B2; the rebuilt
    superchannel matches the source within ``reconstruction_residual``
    (relative Frobenius).  ``v_deviation`` and ``w_deviation`` are the
    Frobenius norms of ``V†V - 1`` and ``W†W - 1``, the isometry witnesses.
    """

    v: LabeledOperator
    w: LabeledOperator
    e1_dim: int
    e2_dim: int
    reconstruction_residual: float
    v_deviation: float
    w_deviation: float


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------

def superchannel_from_parts(pre: ChoiRep, post: ChoiRep) -> SuperchannelChoi:
    """Assemble the Choi operator from pre- and post-processing channels.

    ``pre`` must map A1 to (E1, B1) with the memory leg listed first, and
    ``post`` must map (E1, A2) to B2.  The two are linked over the memory.
    """
    if len(pre.input_labels) != 1 or len(pre.output_labels) != 2:
        raise DimensionMismatch("pre-processing must map one system to two")
    if len(post.input_labels) != 2 or len(post.output_labels) != 1:
        raise DimensionMismatch("post-processing must map two systems to one")
    e1_dim = pre.out_systems.dims[0]
    if post.in_systems.dims[0] != e1_dim:
        raise DimensionMismatch(
            f"memory dims disagree: pre emits {e1_dim}, "
            f"post expects {post.in_systems.dims[0]}"
        )
    for rep, name in ((pre, "pre"), (post, "post")):
        report = validate_channel(rep)
        if not report.valid:
            raise NotAValidSuperchannel(f"{name}-processing channel is invalid")
    p = pre.relabeled(
        dict(zip(pre.input_labels + pre.output_labels, ("A1", "E1", "B1")))
    )
    q = post.relabeled(
        dict(zip(post.input_labels + post.output_labels, ("E1", "A2", "B2")))
    )
    linked = link_product(p.op, q.op, out_order=CHOI_ORDER)
    return SuperchannelChoi(linked)


def validate_superchannel(op, dims: SuperchannelDims | None = None,
                          tol: float = DEFAULT_ATOL) -> SuperchannelReport:
    """Check the CP, TP and NS conditions; report-style, never raises on an
    operator that fails them.

    CP and TP are the channel checks of the same operator read as a channel
    (A1, A2) -> (B1, B2); only the NS condition is specific to superchannels.
    ``dims`` labels an operator on other systems; on the A1, A2, B1, B2
    systems it must agree with them (``DimensionMismatch`` otherwise).  A
    :class:`SuperchannelChoi` keeps its report per ``tol`` and returns the
    kept one on later calls.

    ||Θ||_F is taken once, by the memory split, and scales the Hermiticity,
    TP and NS rules here and ``realize``'s residual.  A Θ with a non-finite
    entry gets no split: every verdict fails, with NaN witnesses, and the
    readers of the split raise ``NotAValidSuperchannel``.

    CP is decided on the memory split's kept block B: Θ on the first e
    eigenvectors of F = Tr_{A2B2} Θ / d_A2 (tensored with A2 B2), e being
    the smallest rank whose weight δ outside that block is at most
    ``tol / 10``.  By Cauchy interlacing and Weyl's inequality the smallest
    eigenvalue of (Θ + Θ†)/2 lies in [min(λ, 0) - δ, λ], λ the smallest of
    (B + B†)/2, so CP passes when min(λ, 0) - δ >= -tol and fails when
    λ < -tol, with min(λ, 0) as the witness.  With no such e, or with λ
    between those bounds, the verdict comes from Θ's full spectrum; so the
    two verdicts agree short of rounding at -tol, and the witnesses differ
    by at most δ.  NS compares Tr_B2 Θ with F ⊗ 1_A2, F taken from the
    split.
    """
    theta = op if isinstance(op, SuperchannelChoi) else None
    if theta is not None:
        op = theta.op
    if dims is not None:
        if op.in_systems.labels != CHOI_ORDER:
            op = LabeledOperator(op.matrix, dims.systems(), dims.systems())
        elif dims != (found := SuperchannelDims(*op.in_systems.dims)):
            raise DimensionMismatch(f"declared dims {dims} != operator dims {found}")
    if theta is not None and tol in theta._memo:
        return theta._memo[tol][0]
    choi = ChoiRep(op, CHOI_ORDER[:2], CHOI_ORDER[2:])
    if theta is None:
        theta = SuperchannelChoi(op)
    if not np.isfinite(op.matrix).all():
        nan = float("nan")
        report = SuperchannelReport(
            **vars(validate_channel(choi, tol, _norm=nan)),
            min_eigenvalue_bound=nan, kept_rank=0, ns=False, ns_deviation=nan,
        )
        theta._memo[tol] = (report, None)
        return report
    split = _split_curve(theta, tol)
    # (min eigenvalue, δ, e) when the kept block decides, else the full
    # spectrum's (None asks validate_channel for it)
    min_eig, bound, kept_rank = None, 0.0, theta.dims.a1 * theta.dims.b1
    if split.kept is not None:
        e, delta, lam = split.kept
        if min(lam, 0.0) - delta >= -tol or lam < -tol:
            min_eig, bound, kept_rank = min(lam, 0.0), delta, e
    channel = validate_channel(choi, tol, _min_eigenvalue=min_eig,
                               _norm=split.norm)

    lhs = partial_trace(op, ["B2"])
    rhs = permute_systems(
        kron(split.f, identity_operator([("A2", theta.dims.a2)])),
        ("A1", "A2", "B1"),
        ("A1", "A2", "B1"),
    )
    ns_dev = float(np.linalg.norm(lhs.matrix - rhs.matrix))
    report = SuperchannelReport(
        **vars(channel), min_eigenvalue_bound=bound, kept_rank=kept_rank,
        ns=bool(ns_dev <= tol * max(1.0, split.norm)), ns_deviation=ns_dev,
    )
    theta._memo[tol] = (report, split)
    return report


def _require_valid(theta: SuperchannelChoi, tol: float) -> _MemorySplit:
    """The memory split of Θ, which must pass validation at ``tol``;
    ``NotAValidSuperchannel`` names each verdict with its witness otherwise."""
    report = validate_superchannel(theta, tol=tol)
    if not report.valid:
        raise NotAValidSuperchannel(
            f"CP={report.cp} (min eig {report.min_eigenvalue:.2e}), "
            f"TP={report.tp} (dev {report.tp_deviation:.2e}), "
            f"NS={report.ns} (dev {report.ns_deviation:.2e})"
        )
    return theta._memo[tol][1]


# ----------------------------------------------------------------------
# action on channels
# ----------------------------------------------------------------------

def _align_input_channel(theta: SuperchannelChoi, e: ChoiRep) -> ChoiRep:
    """Relabel an input channel so it plugs into (B1 -> ..., A2).

    The channel's single input becomes B1 and its *last* output becomes A2;
    any earlier output legs (a side system of a causal map) pass through the
    superchannel untouched.
    """
    if len(e.input_labels) != 1:
        raise DimensionMismatch("input channel must have a single input system")
    d = theta.dims
    if e.in_systems.total_dim != d.b1:
        raise DimensionMismatch(
            f"input channel acts on dim {e.in_systems.total_dim}, expected {d.b1}"
        )
    if e.out_systems.dims[-1] != d.a2:
        raise DimensionMismatch(
            f"input channel's final output has dim {e.out_systems.dims[-1]}, "
            f"expected {d.a2}"
        )
    mapping = {e.input_labels[0]: "B1", e.output_labels[-1]: "A2"}
    used = set(CHOI_ORDER)
    for l in e.output_labels[:-1]:
        new = l
        while new in used or new in mapping.values():
            new = new + "'"
        mapping[l] = new
        used.add(new)
    return e.relabeled(mapping)


def apply_to_channel(theta: SuperchannelChoi, e: ChoiRep,
                     tol: float = DEFAULT_ATOL) -> ChoiRep:
    """Output channel's Choi operator via the link product over B1 and A2.

    Side outputs of ``e`` beyond the final one ride through unchanged, so a
    causal map B1 -> (R, A2) yields a channel A1 -> (R, B2).
    """
    if not validate_channel(e, tol).valid:
        raise NotAValidSuperchannel("input channel fails the CP/TP check")
    aligned = _align_input_channel(theta, e)
    pass_through = tuple(
        l for l in aligned.output_labels if l not in ("A2",)
    )
    order = ("A1",) + pass_through + ("B2",)
    linked = link_product(theta.op, aligned.op, out_order=order)
    return ChoiRep(linked, ("A1",), pass_through + ("B2",))


# ----------------------------------------------------------------------
# the equivalent operator built on a basis of maps
# ----------------------------------------------------------------------

def gour_from_choi(theta: SuperchannelChoi) -> LabeledOperator:
    """Operator on B1 ⊗ A2 ⊗ A1 ⊗ B2 built from the action on basis maps.

    Θ sends the map B1 -> A2 with Choi operator |b a><b' a'| to the
    ((b, a), (b', a')) block of this operator, and by the link product that
    block is Θ's own entries with the (B1, A2) legs moved in front.  So the
    operator is the Choi operator permuted into the (B1, A2, A1, B2) order:
    an exact reindexing with no arithmetic.
    """
    return permute_systems(theta.op, GOUR_ORDER, GOUR_ORDER)


def choi_from_gour(gour: LabeledOperator) -> SuperchannelChoi:
    """Inverse permutation back to the A1 ⊗ A2 ⊗ B1 ⊗ B2 order."""
    if gour.in_systems.labels != GOUR_ORDER:
        raise DimensionMismatch(
            f"expected systems {GOUR_ORDER}, got {gour.in_systems.labels}"
        )
    return SuperchannelChoi(permute_systems(gour, CHOI_ORDER, CHOI_ORDER))


# ----------------------------------------------------------------------
# spectral operator family and the three derived representations
# ----------------------------------------------------------------------

def n_operators(theta: SuperchannelChoi,
                tol: float = DEFAULT_ATOL) -> SuperKrausFamily:
    """Minimal operator family with sum_i vec(N_i) vec(N_i)† = J.

    The count equals the numeric rank of the Choi operator at
    ``DEFAULT_RANK_RTOL``.  Raises ``NotPSD`` when the operator is not
    positive semidefinite at ``tol``.
    """
    as_bipartite = ChoiRep(theta.op, CHOI_ORDER[:2], CHOI_ORDER[2:])
    kr = kraus_from_choi(as_bipartite, tol=tol)
    n_ops = kr.ops
    q_ops = tuple(partial_mat(n, "B1") for n in n_ops)
    k_ops = tuple(partial_mat(partial_vec(n, "A1"), "B1") for n in n_ops)
    return SuperKrausFamily(n_ops, q_ops, k_ops, theta.dims)


def _aligned_choi_matrix(family: SuperKrausFamily, e: ChoiRep) -> np.ndarray:
    d = family.dims
    if e.in_systems.total_dim != d.b1 or e.out_systems.total_dim != d.a2:
        raise DimensionMismatch(
            f"input channel is {e.in_systems.total_dim} -> "
            f"{e.out_systems.total_dim}, expected {d.b1} -> {d.a2}"
        )
    return e.op.matrix


def kraus_apply(family: SuperKrausFamily, e: ChoiRep) -> ChoiRep:
    """Output Choi operator as sum_i K_i J K_i† in the (B1, A2) layout."""
    out = apply_channel(KrausRep(family.k_ops), _aligned_choi_matrix(family, e))
    return ChoiRep(out, ("A1",), ("B2",))


def _state_and_choi(family: SuperKrausFamily, e: ChoiRep,
                    rho: np.ndarray) -> np.ndarray:
    """Operand rho ⊗ J in the (B1, A1, A2) layout: rho on A1, J on (B1, A2)."""
    d = family.dims
    t = _aligned_choi_matrix(family, e).reshape(d.b1, d.a2, d.b1, d.a2)
    return np.einsum("ac,bpdq->bapdcq", np.asarray(rho), t).reshape(
        d.b1 * d.a1 * d.a2, d.b1 * d.a1 * d.a2
    )


def q_apply_to_state(family: SuperKrausFamily, e: ChoiRep,
                     rho: np.ndarray) -> np.ndarray:
    """Output state sum_i Q_i (rho ⊗ J) Q_i† in the (B1, A1, A2) layout.

    Here the state enters untransposed: the A1 leg of each Q operator came
    from the column side of N_i, so the transpose is already built in.
    """
    big = _state_and_choi(family, e, rho)
    return apply_channel(KrausRep(family.q_ops), big).matrix


def super_stinespring(family: SuperKrausFamily) -> LabeledOperator:
    """Dilation operator stacking the Q layouts: (B1, A1, A2) -> (B2, E).

    It obeys the relaxed normalization Tr_B1[V†V] = 1 on A1 ⊗ A2 rather than
    being an isometry; with a trivial pre-processing stage it reduces to the
    ordinary channel dilation isometry.
    """
    d = family.dims
    r = len(family.q_ops)
    blocks = np.stack([q.matrix for q in family.q_ops])  # (r, b2, b1*a1*a2)
    v = blocks.transpose(1, 0, 2).reshape(d.b2 * r, d.b1 * d.a1 * d.a2)
    in_sys = SystemList([("B1", d.b1), ("A1", d.a1), ("A2", d.a2)])
    out_sys = SystemList([("B2", d.b2), ("E", r)])
    return LabeledOperator(v, in_sys, out_sys)


def stinespring_apply_to_state(v_s: LabeledOperator, family: SuperKrausFamily,
                               e: ChoiRep, rho: np.ndarray) -> np.ndarray:
    """Output state Tr_E[V (rho ⊗ J) V†] for the dilation operator."""
    big = _state_and_choi(family, e, rho)
    rep = StinespringRep(v_s, v_s.out_systems.labels[-1])
    return apply_channel(rep, big).matrix


def _with_copies(systems: SystemList) -> SystemList:
    return SystemList([(s.label + "~", s.dim) for s in systems] + list(systems))


def super_liouville(family: SuperKrausFamily) -> LabeledOperator:
    """Matrix K = sum_i conj(K_i) ⊗ K_i acting on vectorized Choi operators.

    ``K @ vec(J_in) = vec(J_out)`` under the package vec convention, with the
    column-copy legs listed first (suffix ``~``).
    """
    rep = liouville_from_kraus(KrausRep(family.k_ops))
    return LabeledOperator(
        rep.matrix, _with_copies(rep.in_systems), _with_copies(rep.out_systems)
    )


def liouville_apply(k: LabeledOperator, family: SuperKrausFamily,
                    e: ChoiRep) -> ChoiRep:
    """Apply the vectorized-Choi matrix and fold the result back."""
    layout = family.k_ops[0]
    rep = LiouvilleRep(k.matrix, layout.in_systems, layout.out_systems)
    out = apply_channel(rep, _aligned_choi_matrix(family, e))
    return ChoiRep(out, ("A1",), ("B2",))


# ----------------------------------------------------------------------
# effective pre-processing channel, memory cost, realization
# ----------------------------------------------------------------------

def f_theta_channel(theta: SuperchannelChoi,
                    tol: float = DEFAULT_ATOL) -> FThetaChannel:
    """Effective pre-processing channel A1 -> B1 of a superchannel.

    Its Choi operator is F = Tr_{A2B2} Θ / d_A2, CPTP whenever Θ is valid.
    Its Kraus operators sqrt(w_j) mat(u_j) come from F's first e1
    eigenvectors, e1 being the memory rank that :func:`memory_cost` and
    :func:`realize` decide at the default budget, so ``rank`` equals
    ``memory_cost(theta)``.  ``tol`` is the validity tolerance:
    ``NotAValidSuperchannel`` is raised unless Θ passes
    :func:`validate_superchannel` at it.
    """
    split = _require_valid(theta, tol)
    d = theta.dims
    e1 = _memory_rank(split, REALIZE_TOL)
    x = (split.u[:, :e1] * np.sqrt(split.w[:e1])).reshape(d.a1, d.b1, e1)
    kraus = tuple(LabeledOperator(k, [("A1", d.a1)], [("B1", d.b1)])
                  for k in x.transpose(2, 1, 0))
    return FThetaChannel(choi=ChoiRep(split.f, ("A1",), ("B1",)),
                         kraus=kraus, rank=e1)


def _rows_in_f_basis(theta: SuperchannelChoi, u: np.ndarray) -> np.ndarray:
    """Θ with u† applied to its (A1, B1) row legs, as an n × (m·m·n) array
    ``half[j, ((a2, b2), (a2', b2'), (a1', b1'))]``; ``@ u`` on its last
    leg gives the rotation ``rot`` of :func:`_split_curve`."""
    d = theta.dims
    t = theta.op.matrix.reshape((d.a1, d.a2, d.b1, d.b2) * 2)
    return u.conj().T @ t.transpose(0, 2, 1, 3, 5, 7, 4, 6).reshape(
        d.a1 * d.b1, -1)


class _MemorySplit(NamedTuple):
    """The budget-free part of the memory split, from :func:`_split_curve`."""

    f: LabeledOperator  # F = Tr_{A2B2} Θ / d_A2
    w: np.ndarray  # spectrum of (F + F†)/2, descending, clipped at 0
    u: np.ndarray  # its eigenvectors
    cost: np.ndarray  # cost[e - 1]: the relative cost of keeping e of them
    rank: int  # count of F's nonzero eigenvalues
    kept: tuple | None  # (e, δ, λ): the kept block that may decide CP
    norm: float  # ||Θ||_F, the scale of every relative rule on Θ


def _split_curve(theta: SuperchannelChoi, tol: float) -> _MemorySplit:
    """The memory split of Θ, which checks nothing:
    :func:`validate_superchannel` is its one caller and keeps it next to the
    report, and the other readers get it from :func:`_require_valid`, so
    only once Θ has passed.

    ``rot[j, (a2, b2), (a2', b2'), k]`` is Θ in F's eigenbasis u on (A1, B1).
    Keeping e eigenvectors costs, relative to ||Θ||_F, the cut's residual
    (squared: the block norms of rot with max(j, k) >= e) plus δ/(1 - δ),
    which bounds making V exact when F's dropped weight is δ; ``cost``
    holds it for e = 1 .. rank - 1.  ``kept`` is (e, δ, λ) for the smallest
    e < n whose absolute residual δ is at most ``tol / 10``, λ the smallest
    eigenvalue of the Hermitian part of rot's kept e×e block; None when
    there is no such e.  ||Θ||_F is ||rot||_F, u being unitary: the sum of
    the block norms.  rot itself is dropped: it is as large as Θ.
    """
    d = theta.dims
    n, m = d.a1 * d.b1, d.a2 * d.b2
    f = partial_trace(theta.op, ["A2", "B2"]) * (1.0 / d.a2)
    # a validated Θ bounds F's eigenvalues below by -d_B2·tol
    fm = f.matrix
    dec = psd_decompose((fm + fm.conj().T) / 2.0, tol=tol, require_psd=False)
    w, u = np.maximum(dec.eigenvalues, 0.0), dec.eigenvectors
    w.setflags(write=False)
    rot = _rows_in_f_basis(theta, u).reshape(n * m * m, n) @ u
    # squared moduli summed per (j, k) block, on the float view of rot
    parts = np.square(rot.view(np.float64)).reshape(n, m * m, 2 * n)
    blocks = parts.sum(axis=1).reshape(n, n, 2).sum(axis=2)
    shells = np.bincount(np.maximum(*np.indices((n, n))).ravel(),
                         weights=blocks.ravel(), minlength=n)
    rank = int(np.count_nonzero(w > 0.0))
    outside = np.cumsum(shells[::-1])[::-1]  # weight beyond the e×e block
    norm_sq = shells.sum()
    tails = outside[1:rank] / norm_sq
    gone = np.cumsum(w[::-1])[::-1][1:rank]  # F's weight beyond rank 1..
    cost = np.sqrt(tails) + gone / (1.0 - np.minimum(gone, 0.5))
    cost.setflags(write=False)
    deltas = np.sqrt(outside[1:])
    cut = np.flatnonzero(deltas <= tol / 10)
    kept = None
    if cut.size:
        e = int(cut[0]) + 1
        b = rot.reshape(n, m, m, n)[:e, :, :, :e].transpose(0, 1, 3, 2)
        lam = _hermitian_spectrum(b.reshape(e * m, e * m), vectors=False)[0]
        kept = (e, float(deltas[e - 1]), float(lam))
    return _MemorySplit(f, w, u, cost, rank, kept, float(np.sqrt(norm_sq)))


def _memory_rank(split: _MemorySplit, budget: float) -> int:
    """The one memory-rank decision, on F's spectrum: the smallest rank e1
    whose cost on the split's curve is at most ``budget``; a zero
    eigenvalue is never kept."""
    return next((e for e in range(1, split.rank)
                 if split.cost[e - 1] <= budget), split.rank)


def memory_cost(theta: SuperchannelChoi, *, tol: float = DEFAULT_ATOL) -> int:
    """Minimal dimension of the memory system in any sequential realization.

    The rank of F = Tr_{A2B2} Θ / d_A2 as :func:`realize` cuts it at its
    default ``tol``, so ``memory_cost(theta) == realize(theta).e1_dim``.
    """
    return _memory_rank(_require_valid(theta, tol), REALIZE_TOL)


def _nearest_isometry(m: np.ndarray) -> np.ndarray:
    """M (M†M)^{-1/2}, the isometry closest to M, through its thin SVD."""
    left, _, right = np.linalg.svd(m, full_matrices=False)
    return left @ right


def realize(theta: SuperchannelChoi, tol: float = REALIZE_TOL,
            validity_tol: float = DEFAULT_ATOL) -> Realization:
    """Sequential realization with minimal memory.

    With F = sum_j w_j |u_j><u_j| cut to e1 terms, Θ = (X ⊗ 1) C (X† ⊗ 1)
    for X = [sqrt(w_j) u_j] and the post-processing Choi operator
    C = w^{-1/2} B w^{-1/2} on (E1, A2, B2), B being the kept block of Θ in
    F's eigenbasis; e1 is the smallest rank whose cut costs at most ``tol``.
    V stacks the L_j = mat(X_j); W stacks the Kraus operators of B, one per
    eigenvalue above ``tol / 10`` times the largest, scaled by w^{-1/2} on E1
    (those of C, as the scaling is a congruence), each made an exact isometry.
    ``ResidualTooLarge`` is raised unless Θ rebuilt from V and W matches
    within ``tol`` (relative Frobenius) and V, W pass as isometries.
    """
    split = _require_valid(theta, validity_tol)
    d = theta.dims
    n, m = d.a1 * d.b1, d.a2 * d.b2
    w, u = split.w, split.u
    e1 = _memory_rank(split, tol)

    # V = sum_j |j>_{E1} ⊗ L_j : A1 -> E1 ⊗ B1, L_j[b1, a1] = X[(a1, b1), j]
    x = (u[:, :e1] * np.sqrt(w[:e1])).reshape(d.a1, d.b1, e1)
    v = _nearest_isometry(x.transpose(2, 1, 0).reshape(e1 * d.b1, d.a1))
    # B = rot[:e1, :, :, :e1]: the split's two products, the second on its
    # first e1 row blocks only, so B has the split's bits
    b = (_rows_in_f_basis(theta, u)[:e1].reshape(e1 * m * m, n) @ u)[:, :e1]
    b = b.reshape(e1, m, m, e1).transpose(0, 1, 3, 2).reshape(e1 * m, e1 * m)
    post_sys = SystemList([("E1", e1), ("A2", d.a2), ("B2", d.b2)])
    post = kraus_from_choi(
        ChoiRep(LabeledOperator((b + b.conj().T) / 2.0, post_sys, post_sys),
                ("E1", "A2"), ("B2",)),
        tol=validity_tol, rank_rtol=tol / 10,
    )
    e2 = len(post)
    s = np.repeat(1.0 / np.sqrt(w[:e1]), d.a2)
    w_mat = _nearest_isometry(
        np.stack([k.matrix * s for k in post.ops]).reshape(e2 * d.b2, -1)
    )

    devs = []
    for name, iso in (("pre", v), ("post", w_mat)):
        dev, isometry = _isometry(iso, tol)
        if not isometry:
            raise ResidualTooLarge(
                f"{name}-processing map deviates from an isometry by {dev:.3e}"
            )
        devs.append(dev)
    v_op = LabeledOperator(v, [("A1", d.a1)], [("E1", e1), ("B1", d.b1)])
    w_op = LabeledOperator(w_mat, [("E1", e1), ("A2", d.a2)],
                           [("E2", e2), ("B2", d.b2)])
    # Θ rebuilt from the comb's family N_k = (W_k ⊗ 1_B1)(1_A2 ⊗ V), W_k the
    # E2 = k block of W: the columns of n_vecs are the vec(N_k) on A1 A2 B1 B2
    n_vecs = np.einsum("kyjx,jbz->zxbyk", w_mat.reshape(e2, d.b2, e1, d.a2),
                       v.reshape(e1, d.b1, d.a1)).reshape(-1, e2)
    diff = n_vecs @ n_vecs.conj().T - theta.op.matrix
    residual = float(np.sqrt(np.vdot(diff, diff).real) / split.norm)
    if residual > tol:
        raise ResidualTooLarge(
            f"rebuilt superchannel deviates by relative residual {residual:.3e}"
        )
    return Realization(
        v=v_op, w=w_op, e1_dim=e1, e2_dim=e2, reconstruction_residual=residual,
        v_deviation=devs[0], w_deviation=devs[1],
    )


# ----------------------------------------------------------------------
# random generation
# ----------------------------------------------------------------------

def random_superchannel(dims: SuperchannelDims, memory_dim: int, seed,
                        pre_rank: int | None = None) -> SuperchannelChoi:
    """Random superchannel assembled from random pre/post channels.

    Deterministic per seed; the result passes the CP/TP/NS validation by
    construction (the assembly is exact up to floating-point roundoff).
    """
    if memory_dim < 1:
        raise DimensionMismatch(f"memory_dim must be >= 1, got {memory_dim}")
    rng = _rng(seed)
    d = dims
    pre_out = memory_dim * d.b1
    pre_rank = pre_rank if pre_rank is not None else min(2, d.a1 * pre_out)
    if pre_rank * pre_out < d.a1:
        pre_rank = -(-d.a1 // pre_out)
    post_in = memory_dim * d.a2
    post_kraus_rank = min(2, post_in * d.b2)
    if post_kraus_rank * d.b2 < post_in:
        post_kraus_rank = -(-post_in // d.b2)
    pre = choi_from_kraus(
        random_channel(
            d.a1, pre_out, pre_rank, rng,
            in_systems=[("A1", d.a1)],
            out_systems=[("E1", memory_dim), ("B1", d.b1)],
        )
    )
    post = choi_from_kraus(
        random_channel(
            post_in, d.b2, post_kraus_rank, rng,
            in_systems=[("E1", memory_dim), ("A2", d.a2)],
            out_systems=[("B2", d.b2)],
        )
    )
    return superchannel_from_parts(pre, post)
