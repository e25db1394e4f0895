"""The four equivalent channel representations, conversions, and the link product.

A channel maps operators on its input systems to operators on its output
systems.  Its Choi operator is square on the concatenated system list with the
input copies listed first; positivity captures complete positivity, and
``Tr_out J = 1_in`` captures trace preservation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotIsometry, NotPSD, NotTP
from .operators import (
    DEFAULT_ATOL,
    DEFAULT_RANK_RTOL,
    LabeledOperator,
    SystemList,
    _as_system_list,
    _handed_over,
    _hermitian_spectrum,
    _hermiticity,
    _isometry,
    _positions,
    mat,
    partial_trace,
    partial_transpose,
    psd_decompose,
    vec,
)


@dataclass(frozen=True)
class ChoiRep:
    """Choi operator together with the channel's input/output split.

    ``op`` is square on ``input_labels + output_labels`` in exactly that
    order (input copies first).
    """

    op: LabeledOperator
    input_labels: tuple
    output_labels: tuple

    def __post_init__(self):
        expect = tuple(self.input_labels) + tuple(self.output_labels)
        if self.op.in_systems != self.op.out_systems:
            raise DimensionMismatch("Choi operator must be square on its systems")
        if self.op.in_systems.labels != expect:
            raise DimensionMismatch(
                f"Choi systems {self.op.in_systems.labels} != {expect}"
            )

    @property
    def in_systems(self) -> SystemList:
        return self.op.in_systems.restricted_to(self.input_labels)

    @property
    def out_systems(self) -> SystemList:
        return self.op.in_systems.restricted_to(self.output_labels)

    @property
    def d_in(self) -> int:
        return self.in_systems.total_dim

    @property
    def d_out(self) -> int:
        return self.out_systems.total_dim

    def relabeled(self, mapping: dict) -> "ChoiRep":
        return ChoiRep(
            self.op.relabeled(mapping),
            tuple(mapping.get(l, l) for l in self.input_labels),
            tuple(mapping.get(l, l) for l in self.output_labels),
        )


@dataclass(frozen=True)
class KrausRep:
    """Operator-sum form; every element maps the input systems to the outputs."""

    ops: tuple

    def __post_init__(self):
        if len(self.ops) < 1:
            raise DimensionMismatch("at least one Kraus operator required")
        first = self.ops[0]
        for k in self.ops[1:]:
            if k.in_systems != first.in_systems or k.out_systems != first.out_systems:
                raise DimensionMismatch("Kraus operators disagree on systems")

    @property
    def in_systems(self) -> SystemList:
        return self.ops[0].in_systems

    @property
    def out_systems(self) -> SystemList:
        return self.ops[0].out_systems

    def __len__(self):
        return len(self.ops)


@dataclass(frozen=True)
class StinespringRep:
    """Isometry into output ⊗ environment, the environment listed last."""

    v: LabeledOperator
    env_label: str = "E"

    @property
    def env_dim(self) -> int:
        return self.v.out_systems.dim_of(self.env_label)

    @property
    def in_systems(self) -> SystemList:
        return self.v.in_systems

    @property
    def out_systems(self) -> SystemList:
        return self.v.out_systems.without([self.env_label])


@dataclass(frozen=True, eq=False)
class LiouvilleRep:
    """Matrix acting on vectorized states: L vec(rho) = vec(channel(rho))."""

    matrix: np.ndarray
    in_systems: SystemList
    out_systems: SystemList

    def __post_init__(self):
        # a private read-only copy, as LabeledOperator keeps
        m = np.array(self.matrix, dtype=np.complex128)
        d_in, d_out = self.in_systems.total_dim, self.out_systems.total_dim
        if m.shape != (d_out * d_out, d_in * d_in):
            raise DimensionMismatch(
                f"Liouville matrix shape {m.shape}, "
                f"expected ({d_out ** 2}, {d_in ** 2})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class ChannelValidityReport:
    hermitian: bool
    hermitian_deviation: float  # ||J - J†||_F
    cp: bool
    min_eigenvalue: float
    tp: bool
    tp_deviation: float
    tol: float

    @property
    def valid(self) -> bool:
        return self.hermitian and self.cp and self.tp


# ----------------------------------------------------------------------
# conversions
# ----------------------------------------------------------------------

def choi_from_kraus(k: KrausRep) -> ChoiRep:
    """Sum of vec(K_i) vec(K_i)†; positive semidefinite by construction."""
    vecs = [vec(op).matrix for op in k.ops]
    j = sum(v @ v.conj().T for v in vecs)
    systems = list(k.in_systems) + list(k.out_systems)
    return ChoiRep(
        LabeledOperator(j, systems, systems),
        k.in_systems.labels,
        k.out_systems.labels,
    )


def kraus_from_choi(c: ChoiRep, tol: float = DEFAULT_ATOL,
                    rank_rtol: float = DEFAULT_RANK_RTOL) -> KrausRep:
    """Minimal Kraus set from the spectral decomposition of the Choi operator.

    There is one operator per eigenvalue above ``rank_rtol`` times the largest.
    Raises ``NotPSD`` when the channel is not completely positive at ``tol``.
    """
    dec = psd_decompose(c.op, tol=tol, require_psd=True)
    r = int(np.count_nonzero(dec.eigenvalues > rank_rtol * dec.eigenvalues[0]))
    if r == 0:
        raise NotPSD("zero Choi operator has no Kraus decomposition")
    split = c.input_labels
    systems = c.op.in_systems
    ops = []
    for i in range(r):
        v = np.sqrt(dec.eigenvalues[i]) * dec.eigenvectors[:, i : i + 1]
        ops.append(mat(LabeledOperator(v, [], systems), split))
    return KrausRep(tuple(ops))


def stinespring_from_kraus(k: KrausRep,
                           tol: float = DEFAULT_ATOL) -> StinespringRep:
    """Stack the Kraus blocks into V = sum_i K_i ⊗ |i>_E; env dim = len(k)."""
    r = len(k.ops)
    blocks = np.stack([op.matrix for op in k.ops])  # (r, d_out, d_in)
    # output composite (out, E): row index (b, i) -> K_i[b, :]
    v = blocks.transpose(1, 0, 2).reshape(
        k.out_systems.total_dim * r, k.in_systems.total_dim
    )
    dev, isometry = _isometry(v, tol)
    if not isometry:
        raise NotTP(f"Kraus completeness deviation {dev:.3e} exceeds tolerance")
    out_sys = list(k.out_systems) + [("E", r)]
    return StinespringRep(LabeledOperator(v, k.in_systems, out_sys))


def kraus_from_stinespring(s: StinespringRep,
                           tol: float = DEFAULT_ATOL) -> KrausRep:
    """K_i = (1 ⊗ <i|_E) V; always returns env_dim operators (zeros allowed)."""
    v = s.v.matrix
    d_in = s.in_systems.total_dim
    dev, isometry = _isometry(v, tol)
    if not isometry:
        raise NotIsometry(f"V†V deviates from identity by {dev:.3e}")
    r = s.env_dim
    d_out = s.out_systems.total_dim
    blocks = v.reshape(d_out, r, d_in)
    ops = tuple(
        LabeledOperator(blocks[:, i, :], s.in_systems, s.out_systems)
        for i in range(r)
    )
    return KrausRep(ops)


def liouville_from_kraus(k: KrausRep) -> LiouvilleRep:
    """L = sum_i conj(K_i) ⊗ K_i under the input-copy-first vec convention."""
    l = sum(np.kron(op.matrix.conj(), op.matrix) for op in k.ops)
    return LiouvilleRep(l, k.in_systems, k.out_systems)


def liouville_from_choi(c: ChoiRep) -> LiouvilleRep:
    """Reshuffle: L[(b,b'),(a,a')] = conj(J)[(a,b),(a',b')]."""
    d_in, d_out = c.d_in, c.d_out
    t = c.op.matrix.reshape(d_in, d_out, d_in, d_out)
    l = t.conj().transpose(1, 3, 0, 2).reshape(d_out * d_out, d_in * d_in)
    return LiouvilleRep(l, c.in_systems, c.out_systems)


def choi_from_liouville(l: LiouvilleRep) -> ChoiRep:
    d_in, d_out = l.in_systems.total_dim, l.out_systems.total_dim
    t = l.matrix.reshape(d_out, d_out, d_in, d_in)
    j = t.conj().transpose(2, 0, 3, 1).reshape(d_in * d_out, d_in * d_out)
    systems = list(l.in_systems) + list(l.out_systems)
    return ChoiRep(
        LabeledOperator(j, systems, systems),
        l.in_systems.labels,
        l.out_systems.labels,
    )


_KIND_NAMES = {
    ChoiRep: "choi",
    KrausRep: "kraus",
    StinespringRep: "stinespring",
    LiouvilleRep: "liouville",
}


def convert_channel(rep, target: str, tol: float = DEFAULT_ATOL,
                    rank_rtol: float = DEFAULT_RANK_RTOL):
    """Convert between any two of {choi, kraus, stinespring, liouville}.

    Choi and Liouville are reshuffles of one another, so that edge is exact,
    bit for bit, and decomposes nothing.  Only Kraus and Stinespring targets
    from a Choi or Liouville source need the spectral decomposition of the
    Choi operator (:func:`kraus_from_choi`, one operator per eigenvalue above
    ``rank_rtol`` times the largest); every other edge is built from the
    Kraus operators.
    """
    source = _KIND_NAMES.get(type(rep))
    if source is None:
        raise DimensionMismatch(
            f"expected a channel representation, got {type(rep).__name__}"
        )
    if target not in _KIND_NAMES.values():
        raise DimensionMismatch(f"unknown target representation {target!r}")
    if source == target:
        return rep
    if source == "liouville":
        rep = choi_from_liouville(rep)
    elif source == "stinespring":
        rep = kraus_from_stinespring(rep, tol)
    if isinstance(rep, ChoiRep):
        if target == "choi":
            return rep
        if target == "liouville":
            return liouville_from_choi(rep)
        rep = kraus_from_choi(rep, tol, rank_rtol)
    if target == "choi":
        return choi_from_kraus(rep)
    if target == "liouville":
        return liouville_from_kraus(rep)
    if target == "stinespring":
        return stinespring_from_kraus(rep, tol)
    return rep


# ----------------------------------------------------------------------
# validity and application
# ----------------------------------------------------------------------

def validate_channel(c: ChoiRep, tol: float = DEFAULT_ATOL, *,
                     _min_eigenvalue: float | None = None,
                     _norm: float | None = None) -> ChannelValidityReport:
    """CP/TP report with recomputable witnesses; never raises on bad input.

    ``min_eigenvalue`` is the smallest ``eigvalsh`` value of ``(J + J†)/2``.
    Superchannel validation passes the witness it has bounded without the
    full spectrum as ``_min_eigenvalue``, and the ||J||_F it has taken as
    ``_norm``; only the Hermiticity and TP checks run then.  A J with a
    non-finite entry (||J|| not finite) gets no spectrum: every verdict is
    False and every witness NaN.
    """
    j = c.op.matrix
    norm = float(np.linalg.norm(j)) if _norm is None else _norm
    if not np.isfinite(norm):
        nan = float("nan")
        return ChannelValidityReport(False, nan, False, nan, False, nan, tol)
    herm_dev, hermitian = _hermiticity(j, tol, norm)
    min_eig = _min_eigenvalue
    if min_eig is None:
        min_eig = float(np.min(_hermitian_spectrum(j, vectors=False)))
    cp = hermitian and min_eig >= -tol
    marginal = partial_trace(c.op, c.output_labels).matrix
    tp_dev = float(np.linalg.norm(marginal - np.eye(c.d_in)))
    return ChannelValidityReport(
        hermitian=hermitian,
        hermitian_deviation=herm_dev,
        cp=cp,
        min_eigenvalue=min_eig,
        tp=bool(tp_dev <= tol * max(1.0, norm)),
        tp_deviation=tp_dev,
        tol=tol,
    )


def _state_operator(rho, systems: SystemList) -> LabeledOperator:
    if isinstance(rho, LabeledOperator):
        if rho.in_systems.dims != systems.dims:
            raise DimensionMismatch(
                f"state dims {rho.in_systems.dims} != channel input {systems.dims}"
            )
        return LabeledOperator(rho.matrix, systems, systems)
    rho = np.asarray(rho)
    return LabeledOperator(rho, systems, systems)


def apply_channel(rep, rho) -> LabeledOperator:
    """Act on a state with whichever representation is given.

    All four representations of one channel give the same output state.
    """
    if isinstance(rep, ChoiRep):
        state = _state_operator(rho, rep.in_systems)
        return link_product(state, rep.op, out_order=rep.output_labels)
    if isinstance(rep, KrausRep):
        state = _state_operator(rho, rep.in_systems)
        acc = sum(
            k.matrix @ state.matrix @ k.matrix.conj().T for k in rep.ops
        )
        return LabeledOperator(acc, rep.out_systems, rep.out_systems)
    if isinstance(rep, StinespringRep):
        state = _state_operator(rho, rep.in_systems)
        big = LabeledOperator(
            rep.v.matrix @ state.matrix @ rep.v.matrix.conj().T,
            rep.v.out_systems,
            rep.v.out_systems,
        )
        return partial_trace(big, [rep.env_label])
    if isinstance(rep, LiouvilleRep):
        state = _state_operator(rho, rep.in_systems)
        v = state.matrix.T.reshape(-1)
        w = rep.matrix @ v
        d_out = rep.out_systems.total_dim
        out = w.reshape(d_out, d_out).T
        return LabeledOperator(out, rep.out_systems, rep.out_systems)
    raise DimensionMismatch(f"not a channel representation: {type(rep)}")


# ----------------------------------------------------------------------
# link product and composition
# ----------------------------------------------------------------------

def link_product(m: LabeledOperator, n: LabeledOperator,
                 out_order=None) -> LabeledOperator:
    """Link product Tr_C[m^{T_C} n] over the shared labels C.

    Both operands must be square on every shared label.  By default the
    result carries m's remaining labels followed by n's remaining labels;
    ``out_order`` permutes the result (the operation itself is commutative
    up to that relabeling).  The contraction is one ``tensordot`` (a single
    matrix product) followed by one transpose that also applies
    ``out_order``; with no shared labels it is the Kronecker product.
    """
    shared = [l for l in m.in_systems.labels if l in n.in_systems.labels]
    for l in shared:
        if (m.in_systems.dim_of(l) != n.in_systems.dim_of(l)
                or m.out_systems.dim_of(l) != m.in_systems.dim_of(l)
                or n.out_systems.dim_of(l) != n.in_systems.dim_of(l)):
            raise DimensionMismatch(f"operands disagree on shared label {l!r}")
    # entry sum: result[(x,y),(x',y')] = sum_{c,c'} m[(x,c),(x',c')] n[(c,y),(c',y')]
    m_out, m_in, n_out, n_in = (
        m.out_systems, m.in_systems, n.out_systems, n.in_systems
    )
    m_axes = [m_out.index(l) for l in shared] + [
        len(m_out) + m_in.index(l) for l in shared
    ]
    n_axes = [n_out.index(l) for l in shared] + [
        len(n_out) + n_in.index(l) for l in shared
    ]
    res = np.tensordot(m.as_tensor(), n.as_tensor(), axes=(m_axes, n_axes))
    # the free axes of res are m's kept outputs, m's kept inputs, then n's
    kept = [
        [s for s in systems if s.label not in shared]
        for systems in (m_out, m_in, n_out, n_in)
    ]
    free = iter(range(res.ndim))
    mo, mi, no, ni = ([next(free) for _ in group] for group in kept)
    out_axes, in_axes = mo + no, mi + ni
    out_sys = SystemList(kept[0] + kept[2])
    in_sys = SystemList(kept[1] + kept[3])
    if out_order is not None:
        in_pos = _positions(in_sys, out_order, "inputs")
        out_pos = _positions(out_sys, out_order, "outputs")
        in_axes = [in_axes[i] for i in in_pos]
        out_axes = [out_axes[i] for i in out_pos]
        in_sys = SystemList([in_sys[i] for i in in_pos])
        out_sys = SystemList([out_sys[i] for i in out_pos])
    res = res.transpose(out_axes + in_axes).reshape(
        out_sys.total_dim, in_sys.total_dim
    )
    return _handed_over(res, in_sys, out_sys, m, n)


def compose_channels(e2: ChoiRep, e1: ChoiRep) -> ChoiRep:
    """Choi operator of (e2 after e1) via the link product."""
    mids = e1.output_labels
    if e2.in_systems.dims != e1.out_systems.dims:
        raise DimensionMismatch(
            f"cannot compose: {e1.out_systems.dims} feeds {e2.in_systems.dims}"
        )
    used = set(e1.input_labels) | set(mids)
    out_map, outs = {}, []
    for l in e2.output_labels:
        new = l
        while new in used:
            new = new + "'"
        out_map[l], used = new, used | {new}
        outs.append(new)
    second = e2.relabeled(dict(zip(e2.input_labels, mids)) | out_map)
    order = tuple(e1.input_labels) + tuple(outs)
    linked = link_product(e1.op, second.op, out_order=order)
    return ChoiRep(linked, e1.input_labels, tuple(outs))


def generalized_choi(c: ChoiRep, f_variant: str = "identity",
                     g_variant: str = "identity") -> LabeledOperator:
    """Choi-family member for the two named basis bijections.

    ``g_variant="transpose"`` transposes the probe basis, which lands on the
    partial transpose over the input copy (the Jamiolkowski variant);
    ``f_variant="transpose"`` transposes the assembled operator.  Every
    variant remains invertible back to the Choi operator.
    """
    for name, value in (("f_variant", f_variant), ("g_variant", g_variant)):
        if value not in ("identity", "transpose"):
            raise DimensionMismatch(f"{name} must be 'identity' or 'transpose'")
    op = c.op
    if g_variant == "transpose":
        op = partial_transpose(op, c.input_labels)
    if f_variant == "transpose":
        op = partial_transpose(op, op.in_systems.labels)
    return op


# ----------------------------------------------------------------------
# random generation
# ----------------------------------------------------------------------

def _rng(seed):
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def random_channel(d_in: int, d_out: int, kraus_rank: int, seed,
                   in_systems=None, out_systems=None) -> KrausRep:
    """Random trace-preserving channel, deterministic per seed.

    A Gaussian block matrix of shape (kraus_rank * d_out, d_in) is
    orthonormalized and sliced into Kraus blocks, so completeness holds to
    machine precision.  Requires ``1 <= kraus_rank <= d_in * d_out`` and
    ``kraus_rank * d_out >= d_in`` (otherwise no trace-preserving channel
    with that few operators exists).
    """
    if not 1 <= kraus_rank <= d_in * d_out:
        raise DimensionMismatch(
            f"kraus_rank {kraus_rank} outside [1, {d_in * d_out}]"
        )
    if kraus_rank * d_out < d_in:
        raise DimensionMismatch(
            f"kraus_rank {kraus_rank} too small: need rank * d_out >= d_in"
        )
    rng = _rng(seed)
    g = rng.standard_normal((kraus_rank * d_out, d_in)) + 1j * rng.standard_normal(
        (kraus_rank * d_out, d_in)
    )
    q, _ = np.linalg.qr(g)
    in_sys = _as_system_list(in_systems if in_systems is not None else [("A", d_in)])
    out_sys = _as_system_list(out_systems if out_systems is not None else [("B", d_out)])
    if in_sys.total_dim != d_in or out_sys.total_dim != d_out:
        raise DimensionMismatch("system lists do not match requested dimensions")
    blocks = q.reshape(kraus_rank, d_out, d_in)
    return KrausRep(
        tuple(LabeledOperator(blocks[i], in_sys, out_sys) for i in range(kraus_rank))
    )


def random_density_matrix(dim: int, seed) -> np.ndarray:
    """Ginibre-ensemble density matrix, deterministic per seed."""
    rng = _rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)
