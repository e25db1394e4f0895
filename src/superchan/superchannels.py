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

import numpy as np

from .errors import DimensionMismatch, NotAValidSuperchannel, ResidualTooLarge
from .channels import (
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
    DEFAULT_RANK_RTOL,
    LabeledOperator,
    SystemList,
    gamma,
    identity_operator,
    kron,
    numeric_rank,
    partial_mat,
    partial_trace,
    partial_vec,
    permute_systems,
    vec,
)

CHOI_ORDER = ("A1", "A2", "B1", "B2")
GOUR_ORDER = ("B1", "A2", "A1", "B2")


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
    """

    __slots__ = ("_op", "_dims")

    def __init__(self, op: LabeledOperator, dims: SuperchannelDims | None = None):
        if op.in_systems != op.out_systems:
            raise DimensionMismatch("superchannel Choi operator must be square")
        if op.in_systems.labels != CHOI_ORDER:
            raise DimensionMismatch(
                f"systems must be {CHOI_ORDER}, got {op.in_systems.labels}"
            )
        found = SuperchannelDims(*op.in_systems.dims)
        if dims is not None and dims != found:
            raise DimensionMismatch(f"declared dims {dims} != operator dims {found}")
        object.__setattr__(self, "_op", op)
        object.__setattr__(self, "_dims", found)

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
class SuperchannelReport:
    """Independent CP / TP / NS verdicts with their deviation witnesses."""

    hermitian: bool
    cp: bool
    min_eigenvalue: float
    tp: bool
    tp_deviation: float
    ns: bool
    ns_deviation: float
    tol: float

    @property
    def valid(self) -> bool:
        return self.hermitian and self.cp and self.tp and self.ns


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
    """Check the CP, TP and NS conditions; report-style, never raises.

    CP and TP are the channel checks of the same operator read as a channel
    (A1, A2) -> (B1, B2); only the NS condition is specific to superchannels.
    """
    if isinstance(op, SuperchannelChoi):
        op = op.op
    if op.in_systems.labels != CHOI_ORDER and dims is not None:
        op = LabeledOperator(op.matrix, dims.systems(), dims.systems())
    channel = validate_channel(ChoiRep(op, CHOI_ORDER[:2], CHOI_ORDER[2:]), tol)

    d_a2 = op.in_systems.dim_of("A2")
    lhs = partial_trace(op, ["B2"])
    marginal = partial_trace(op, ["A2", "B2"])
    rhs = permute_systems(
        kron(marginal, identity_operator([("A2", d_a2)]) * (1.0 / d_a2)),
        ("A1", "A2", "B1"),
        ("A1", "A2", "B1"),
    )
    ns_dev = float(np.linalg.norm(lhs.matrix - rhs.matrix))
    scale = max(1.0, float(np.linalg.norm(op.matrix)))
    return SuperchannelReport(
        **vars(channel), ns=bool(ns_dev <= tol * scale), ns_deviation=ns_dev
    )


def _require_valid(theta: SuperchannelChoi, tol: float):
    report = validate_superchannel(theta, tol=tol)
    if not report.valid:
        raise NotAValidSuperchannel(
            f"CP={report.cp} (min eig {report.min_eigenvalue:.2e}), "
            f"TP={report.tp} (dev {report.tp_deviation:.2e}), "
            f"NS={report.ns} (dev {report.ns_deviation:.2e})"
        )


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
                     validate_input: bool = True,
                     tol: float = DEFAULT_ATOL) -> ChoiRep:
    """Output channel's Choi operator via the link product over B1 and A2.

    Side outputs of ``e`` beyond the final one ride through unchanged, so a
    causal map B1 -> (R, A2) yields a channel A1 -> (R, B2).
    """
    if validate_input and not validate_channel(e, tol).valid:
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

def gour_from_choi(theta: SuperchannelChoi,
                   cross_check_tol: float = 1e-12) -> LabeledOperator:
    """Operator on B1 ⊗ A2 ⊗ A1 ⊗ B2 built from the action on basis maps.

    Computed two independent ways: through ``apply_to_channel`` on d_B1²
    block probes, and by permuting the Choi operator into the
    (B1, A2, A1, B2) order.  Probe (b, b') is the map B1 -> (R, A2) with
    Choi operator |b><b'|_B1 ⊗ |Γ><Γ|_{R,A2}; the side output R carries the
    A2 index through, so its image on (R, A1, B2) is the (b, b') block of
    the basis-map operator, compared with the permuted block as soon as it
    arrives.  The two must agree; disagreement is a hard internal error.
    """
    d = theta.dims
    permuted = permute_systems(theta.op, GOUR_ORDER, GOUR_ORDER)

    g = gamma(d.a2, ("R", "A2"))
    loop = g @ g.adjoint()
    b1 = SystemList([("B1", d.b1)])
    side = d.a2 * d.a1 * d.b2
    expected = permuted.matrix.reshape(d.b1, side, d.b1, side)
    drift = 0.0
    for row in range(d.b1):
        for col in range(d.b1):
            unit = np.zeros((d.b1, d.b1), dtype=np.complex128)
            unit[row, col] = 1.0
            probe = ChoiRep(
                kron(LabeledOperator(unit, b1, b1), loop), ("B1",), ("R", "A2")
            )
            image = apply_to_channel(theta, probe, validate_input=False).op
            block = permute_systems(
                image, ("R", "A1", "B2"), ("R", "A1", "B2")
            ).matrix
            drift = np.maximum(
                drift, np.max(np.abs(block - expected[row, :, col, :]))
            )
    drift = float(drift)
    if drift > cross_check_tol * max(1.0, float(np.max(np.abs(permuted.matrix)))):
        raise ResidualTooLarge(
            f"basis-map and permutation constructions disagree by {drift:.3e}"
        )
    return permuted


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

def n_operators(theta: SuperchannelChoi, tol: float = DEFAULT_ATOL,
                rank_rtol: float = DEFAULT_RANK_RTOL) -> SuperKrausFamily:
    """Minimal operator family with sum_i vec(N_i) vec(N_i)† = J.

    The count equals the numeric rank of the Choi operator.  Raises
    ``NotPSD`` when the operator is not positive semidefinite at ``tol``.
    """
    as_bipartite = ChoiRep(theta.op, CHOI_ORDER[:2], CHOI_ORDER[2:])
    kr = kraus_from_choi(as_bipartite, tol=tol, rank_rtol=rank_rtol)
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


def super_stinespring(family: SuperKrausFamily,
                      env_label: str = "E") -> LabeledOperator:
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
    out_sys = SystemList([("B2", d.b2), (env_label, r)])
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

def f_theta_channel(source, tol: float = DEFAULT_ATOL,
                    rank_rtol: float = DEFAULT_RANK_RTOL) -> FThetaChannel:
    """Effective pre-processing channel A1 -> B1 of a superchannel.

    Its Choi operator is the (A1, B1) marginal of the superchannel Choi
    divided by d_A2; it is CPTP whenever the superchannel is valid, and its
    rank fixes the minimal memory dimension.  Accepts either the
    superchannel (marginal by partial trace) or its operator family
    (marginal assembled from the operator slices); the two routes agree.
    """
    if isinstance(source, SuperKrausFamily):
        d = source.dims
        acc = np.zeros((d.a1 * d.b1,) * 2, dtype=np.complex128)
        for k in source.k_ops:
            kt = k.matrix.reshape(d.a1, d.b2, d.b1, d.a2)
            acc += np.einsum("apbq,cpdq->abcd", kt, kt.conj()).reshape(
                d.a1 * d.b1, d.a1 * d.b1
            )
        systems = SystemList([("A1", d.a1), ("B1", d.b1)])
        marginal = LabeledOperator(acc / d.a2, systems, systems)
    else:
        d = source.dims
        marginal = partial_trace(source.op, ["A2", "B2"]) * (1.0 / d.a2)
    choi = ChoiRep(marginal, ("A1",), ("B1",))
    kraus = kraus_from_choi(choi, tol=tol, rank_rtol=rank_rtol)
    return FThetaChannel(choi=choi, kraus=kraus.ops, rank=len(kraus))


def memory_cost(theta: SuperchannelChoi,
                rank_rtol: float = DEFAULT_RANK_RTOL,
                tol: float = DEFAULT_ATOL) -> int:
    """Minimal dimension of the memory system in any sequential realization.

    Computed along two routes that must agree: the rank of the traced-down
    Choi operator of the adjoint action sum_i vec(K_i†) vec(K_i†)†, and the
    rank of the effective pre-processing channel's Choi operator.
    """
    _require_valid(theta, tol)
    family = n_operators(theta, tol=tol, rank_rtol=rank_rtol)
    d = theta.dims
    adjoint_systems = SystemList(
        [("A1", d.a1), ("B2", d.b2), ("B1", d.b1), ("A2", d.a2)]
    )
    acc = np.zeros((d.total,) * 2, dtype=np.complex128)
    for k in family.k_ops:
        w = vec(k.adjoint()).matrix
        acc += w @ w.conj().T
    traced = partial_trace(
        LabeledOperator(acc, adjoint_systems, adjoint_systems), ["A2", "B2"]
    )
    rank_adjoint = numeric_rank(traced, rank_rtol)
    rank_marginal = f_theta_channel(theta, tol=tol, rank_rtol=rank_rtol).rank
    if rank_adjoint != rank_marginal:
        raise ResidualTooLarge(
            f"memory-cost routes disagree: {rank_adjoint} vs {rank_marginal}"
        )
    return rank_marginal


def realize(theta: SuperchannelChoi, tol: float = 1e-8,
            rank_rtol: float = DEFAULT_RANK_RTOL,
            validity_tol: float = DEFAULT_ATOL) -> Realization:
    """Sequential realization with minimal memory.

    The pre-isometry stacks the minimal Kraus operators of the effective
    pre-processing channel; the post-isometry blocks are dual-basis
    contractions of the K layouts against those operators.  Reconstruction
    is verified: the rebuilt Choi operator must match within ``tol``
    (relative Frobenius) and the post map must be an isometry, otherwise
    ``ResidualTooLarge`` is raised.
    """
    _require_valid(theta, validity_tol)
    d = theta.dims
    family = n_operators(theta, tol=validity_tol, rank_rtol=rank_rtol)
    f_theta = f_theta_channel(theta, tol=validity_tol, rank_rtol=rank_rtol)
    l_ops = f_theta.kraus
    e1 = len(l_ops)
    e2 = len(family.n_ops)

    # V = sum_j |j>_{E1} ⊗ L_j : A1 -> E1 ⊗ B1
    v = np.stack([l.matrix for l in l_ops]).reshape(e1 * d.b1, d.a1)
    v_op = LabeledOperator(
        v, [("A1", d.a1)], [("E1", e1), ("B1", d.b1)]
    )
    v_dev = float(np.linalg.norm(v.conj().T @ v - np.eye(d.a1)))
    if v_dev > tol * max(1.0, d.a1):
        raise ResidualTooLarge(
            f"pre-processing map deviates from an isometry by {v_dev:.3e}"
        )

    # W blocks: T[i, j] = <L_j, K_i slice> / ||L_j||^2 over the (A1, B1) legs
    lam = np.array([np.vdot(l.matrix, l.matrix).real for l in l_ops])
    w = np.zeros((e2 * d.b2, e1 * d.a2), dtype=np.complex128)
    for i, k_op in enumerate(family.k_ops):
        kt = k_op.matrix.reshape(d.a1, d.b2, d.b1, d.a2)
        for j, l_op in enumerate(l_ops):
            t_ij = np.einsum("abcd,ca->bd", kt, l_op.matrix.conj()) / lam[j]
            w[i * d.b2 : (i + 1) * d.b2, j * d.a2 : (j + 1) * d.a2] = t_ij
    w_op = LabeledOperator(
        w, [("E1", e1), ("A2", d.a2)], [("E2", e2), ("B2", d.b2)]
    )

    w_dev = float(np.linalg.norm(w.conj().T @ w - np.eye(e1 * d.a2)))
    if w_dev > tol * max(1.0, e1 * d.a2):
        raise ResidualTooLarge(
            f"post-processing map deviates from an isometry by {w_dev:.3e}"
        )

    pre_choi = choi_from_kraus(KrausRep((v_op,)))
    post_kraus = KrausRep(
        tuple(
            LabeledOperator(
                w[i * d.b2 : (i + 1) * d.b2, :],
                [("E1", e1), ("A2", d.a2)],
                [("B2", d.b2)],
            )
            for i in range(e2)
        )
    )
    rebuilt = superchannel_from_parts(pre_choi, choi_from_kraus(post_kraus))
    residual = float(
        np.linalg.norm(rebuilt.op.matrix - theta.op.matrix)
        / max(np.linalg.norm(theta.op.matrix), 1e-300)
    )
    if residual > tol:
        raise ResidualTooLarge(
            f"rebuilt superchannel deviates by relative residual {residual:.3e}"
        )
    return Realization(
        v=v_op, w=w_op, e1_dim=e1, e2_dim=e2, reconstruction_residual=residual,
        v_deviation=v_dev, w_deviation=w_dev,
    )


# ----------------------------------------------------------------------
# random generation
# ----------------------------------------------------------------------

def random_superchannel(dims: SuperchannelDims, memory_dim: int, seed,
                        pre_rank: int | None = None,
                        post_rank: int | None = None) -> SuperchannelChoi:
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
    post_rank = post_rank if post_rank is not None else min(2, post_in * d.b2)
    if post_rank * d.b2 < post_in:
        post_rank = -(-post_in // d.b2)
    pre = choi_from_kraus(
        random_channel(
            d.a1, pre_out, pre_rank, rng,
            in_systems=[("A1", d.a1)],
            out_systems=[("E1", memory_dim), ("B1", d.b1)],
        )
    )
    post = choi_from_kraus(
        random_channel(
            post_in, d.b2, post_rank, rng,
            in_systems=[("E1", memory_dim), ("A2", d.a2)],
            out_systems=[("B2", d.b2)],
        )
    )
    return superchannel_from_parts(pre, post)
