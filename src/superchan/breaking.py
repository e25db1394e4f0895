"""Detection and generation of correlation- and causality-breaking processes.

Separability is certified through positivity under partial transposition
(PPT).  A negative partial transpose always soundly proves entanglement; a
positive one proves separability only when the product of the cut-local
dimensions is at most 6 or one side is trivial (dimension 1), and every
verdict carries that exactness note.

Two canonical cuts classify a superchannel's Choi operator:

* Type-I:  separable across A1 B2 | B1 A2 (also the common-cause-breaking
  condition for causal maps);
* Type-II: separable across A1 A2 | B1 B2 (the multi-round,
  memory-verification notion).
"""

from __future__ import annotations

import ctypes
import functools
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IncompleteDecomposition,
    NotAValidSuperchannel,
    NotHermitian,
)
from .channels import ChoiRep, random_density_matrix, validate_channel
from .operators import (
    DEFAULT_ATOL,
    LabeledOperator,
    SystemList,
    _hermiticity,
    _transposed_axes,
    gamma,
    identity_operator,
    kron,
    partial_transpose,
    permute_systems,
)
from .superchannels import (
    CHOI_ORDER,
    SuperchannelChoi,
    SuperchannelDims,
    _require_valid,
)

TYPE_I_CUT = (("A1", "B2"), ("B1", "A2"))
TYPE_II_CUT = (("A1", "A2"), ("B1", "B2"))


@dataclass(frozen=True)
class Bipartition:
    left: tuple
    right: tuple

    def validate_against(self, op: LabeledOperator):
        labels = set(op.in_systems.labels)
        if set(self.left) & set(self.right):
            raise DimensionMismatch("bipartition sides overlap")
        if set(self.left) | set(self.right) != labels:
            raise DimensionMismatch(
                f"bipartition {self.left}|{self.right} does not cover {labels}"
            )


@dataclass(frozen=True)
class PptVerdict:
    bipartition: Bipartition
    min_eigenvalue: float
    is_ppt: bool
    tol: float


@dataclass(frozen=True)
class SeparableDecomposition:
    """Terms (X_i, Y_i) with the target equal to sum_i X_i ⊗ Y_i."""

    terms: tuple


@dataclass(frozen=True)
class MeasurePrepare:
    """POVM on the measured side paired with prepared states on the other."""

    povm: tuple
    states: tuple

    def __post_init__(self):
        if len(self.povm) != len(self.states):
            raise DimensionMismatch("POVM and state lists differ in length")
        if not self.povm:
            raise DimensionMismatch("a POVM needs at least one effect")


@dataclass(frozen=True)
class EbChannelReport:
    """Entanglement-breaking verdict for a channel.

    ``is_eb`` is None when the PPT surrogate cannot decide (positive partial
    transpose on a cut larger than 2x3 with no trivial side).
    """

    ppt: PptVerdict
    is_eb: bool | None
    exactness: str  # "ppt-decisive" | "ppt-necessary-only"


@dataclass(frozen=True)
class BreakingReport:
    type_I: PptVerdict
    type_I_exactness: str
    type_II: PptVerdict
    type_II_exactness: str
    common_cause_breaking: bool  # mirrors the Type-I verdict


# ----------------------------------------------------------------------
# PPT machinery
# ----------------------------------------------------------------------

def _cut_exactness(op: LabeledOperator, cut: Bipartition) -> str:
    """The one exactness rule: PPT decides separability on a cut of at most
    2x3, and on a cut with a trivial side, where every state is a product."""
    d_left = int(np.prod([op.in_systems.dim_of(l) for l in cut.left]))
    d_right = int(np.prod([op.in_systems.dim_of(l) for l in cut.right]))
    decisive = d_left * d_right <= 6 or min(d_left, d_right) == 1
    return "ppt-decisive" if decisive else "ppt-necessary-only"


def _require_hermitian(op: LabeledOperator, tol: float):
    if op.in_systems != op.out_systems:
        raise DimensionMismatch("PPT test needs one system list on both sides")
    if not _hermiticity(op.matrix, tol)[1]:
        raise NotHermitian("PPT test needs a Hermitian operator")


# The PPT kernel.  Each cut's partial transpose is written once into a fresh
# Fortran-ordered buffer that LAPACK's zheevd (jobz='N', uplo='L') then
# overwrites: the call numpy's eigvalsh makes on its own copy, so the
# spectra are bit-identical to it.  From _PAIR_ROWS rows on, and while
# OpenBLAS runs each call on one thread, cuts run two at a time, the second
# on a helper thread that makes only the LAPACK call (ctypes releases the GIL
# during it); below that size, starting the thread costs more than the
# overlap saves, and two multithreaded calls only contend for the cores.
# Without the LAPACK handle, each cut is np.linalg.eigvalsh of
# partial_transpose.
_PAIR_ROWS = 64
_COL_MAJOR = 102  # LAPACK_COL_MAJOR


@dataclass(frozen=True)
class _Lapack:
    """Routines of the OpenBLAS that numpy's own linear algebra calls."""

    zheevd: object  # LAPACKE_zheevd, ILP64
    blas_threads: object  # openblas_get_num_threads


@functools.cache
def _lapack() -> _Lapack | None:
    """Both routines, found once per process through the handle of
    numpy.linalg's own extension module, or None when either is missing."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        zheevd = lib.scipy_LAPACKE_zheevd64_
        blas_threads = lib.scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return None
    zheevd.restype = ctypes.c_int64
    zheevd.argtypes = (ctypes.c_int, ctypes.c_char, ctypes.c_char,
                       ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                       ctypes.c_void_p)
    blas_threads.restype = ctypes.c_int
    blas_threads.argtypes = ()
    return _Lapack(zheevd, blas_threads)


def _pt_buffer(op: LabeledOperator, order: list) -> np.ndarray:
    """The partial transpose with axis order ``order``, written once into a
    fresh Fortran-ordered buffer, through the buffer's transpose: a C-ordered
    view whose tensor has the input legs first."""
    buf = np.empty(op.shape, dtype=np.complex128, order="F")
    n_out = len(op.out_systems)
    swapped = order[n_out:] + order[:n_out]
    np.copyto(buf.T.reshape(op.in_systems.dims + op.out_systems.dims),
              op.as_tensor().transpose(swapped))
    return buf


def _eigvalsh_in_place(zheevd, buf: np.ndarray, w: np.ndarray) -> int:
    """zheevd of the lower triangle of the square Fortran-ordered ``buf``,
    eigenvalues ascending into ``w``; returns LAPACK's info."""
    n = buf.shape[0]
    if not (buf.shape == (n, n) and buf.dtype == np.complex128
            and buf.flags.f_contiguous and buf.flags.writeable
            and w.shape == (n,) and w.dtype == np.float64
            and w.flags.c_contiguous and w.flags.writeable):
        raise ValueError("zheevd needs a writable Fortran-ordered complex128 "
                         "square matrix and a float64 vector of its size")
    return zheevd(_COL_MAJOR, b"N", b"L", n, buf.ctypes.data, n,
                  w.ctypes.data)


def _lowest(zheevd, bufs: list) -> list:
    """λmin of each buffer (one or two), the second on a helper thread that
    is joined whatever happens; a failure in either reaches the caller."""
    spectra = [np.empty(b.shape[0]) for b in bufs]
    infos = [None] * len(bufs)

    def helper():
        try:
            infos[1] = _eigvalsh_in_place(zheevd, bufs[1], spectra[1])
        except BaseException as exc:  # re-raised in the caller
            infos[1] = exc

    thread = threading.Thread(target=helper) if len(bufs) == 2 else None
    if thread is not None:
        thread.start()
    try:
        infos[0] = _eigvalsh_in_place(zheevd, bufs[0], spectra[0])
    finally:
        if thread is not None:
            thread.join()
    for info in infos:
        if isinstance(info, BaseException):
            raise info
        if info != 0:
            raise np.linalg.LinAlgError(f"zheevd failed with info {info}")
    return [float(np.min(w)) for w in spectra]


def _pt_min_eigenvalues(op: LabeledOperator, sides) -> list:
    """λmin of the partial transpose of ``op`` over each label tuple in
    ``sides``: the one PPT kernel.  Every side is checked before any
    spectrum is taken, and ``op``'s memory is only read."""
    orders = [_transposed_axes(op, side) for side in sides]
    lapack = _lapack()
    if lapack is None:
        return [float(np.min(np.linalg.eigvalsh(
            partial_transpose(op, side).matrix))) for side in sides]
    pair = op.shape[0] >= _PAIR_ROWS and lapack.blas_threads() == 1
    step = 2 if pair else 1
    mins = []
    for i in range(0, len(orders), step):
        mins += _lowest(lapack.zheevd,
                        [_pt_buffer(op, o) for o in orders[i:i + step]])
    return mins


def _ppt_verdicts(op: LabeledOperator, cuts, tol: float) -> list:
    """The verdicts of :func:`ppt_test` on an operator already known to be
    Hermitian at ``tol`` (the check validation makes)."""
    mins = _pt_min_eigenvalues(op, [cut.right for cut in cuts])
    return [PptVerdict(bipartition=cut, min_eigenvalue=m,
                       is_ppt=bool(m >= -tol), tol=tol)
            for cut, m in zip(cuts, mins)]


def ppt_test(op: LabeledOperator, cut: Bipartition,
             tol: float = DEFAULT_ATOL) -> PptVerdict:
    """Partial transpose over the right side of the cut; report the minimum
    eigenvalue.  Requires a Hermitian operator with one system list (labels,
    dims and order) on both sides."""
    cut.validate_against(op)
    _require_hermitian(op, tol)
    return _ppt_verdicts(op, [cut], tol)[0]


def ppt_battery(op: LabeledOperator, tol: float = DEFAULT_ATOL) -> tuple:
    """PPT verdicts across every nontrivial bipartition of the systems.

    All verdicts positive is a necessary (not sufficient) condition for full
    separability, which is what a completely-breaking process must produce;
    any negative verdict conclusively rules it out.
    """
    labels = op.in_systems.labels
    if len(labels) < 2:
        raise DimensionMismatch("need at least two systems to bipartition")
    _require_hermitian(op, tol)
    first, rest = labels[0], labels[1:]
    cuts = []
    for mask in range(2 ** len(rest)):
        left = (first,) + tuple(
            l for i, l in enumerate(rest) if mask & (1 << i)
        )
        right = tuple(l for l in rest if l not in left)
        if right:
            cuts.append(Bipartition(left, right))
    return tuple(_ppt_verdicts(op, cuts, tol))


def eb_channel_report(c: ChoiRep, tol: float = DEFAULT_ATOL) -> EbChannelReport:
    """Entanglement-breaking verdict from the Choi operator's input|output cut.

    A negative partial transpose rules the channel entangling definitively;
    a positive one is definitive only when d_in * d_out <= 6 or one of them
    is 1.
    """
    if not validate_channel(c, tol).valid:
        raise NotAValidSuperchannel("EB verdicts need a valid channel")
    cut = Bipartition(tuple(c.input_labels), tuple(c.output_labels))
    verdict = _ppt_verdicts(c.op, [cut], tol)[0]
    exactness = _cut_exactness(c.op, cut)
    if not verdict.is_ppt:
        is_eb = False
    elif exactness == "ppt-decisive":
        is_eb = True
    else:
        is_eb = None
    return EbChannelReport(ppt=verdict, is_eb=is_eb, exactness=exactness)


def superchannel_breaking_report(theta: SuperchannelChoi,
                                 tol: float = DEFAULT_ATOL) -> BreakingReport:
    """PPT verdicts on the two canonical cuts of a superchannel Choi operator."""
    _require_valid(theta, tol)
    # a valid report includes the Hermiticity check that ppt_test makes
    cut1 = Bipartition(*TYPE_I_CUT)
    cut2 = Bipartition(*TYPE_II_CUT)
    v1, v2 = _ppt_verdicts(theta.op, [cut1, cut2], tol)
    return BreakingReport(
        type_I=v1,
        type_I_exactness=_cut_exactness(theta.op, cut1),
        type_II=v2,
        type_II_exactness=_cut_exactness(theta.op, cut2),
        common_cause_breaking=v1.is_ppt,
    )


# ----------------------------------------------------------------------
# measure-and-prepare form
# ----------------------------------------------------------------------

def measure_prepare_from_decomposition(
    d: SeparableDecomposition, tol: float = DEFAULT_ATOL
) -> MeasurePrepare:
    """Normalize separable terms into a POVM and prepared states.

    Each term contributes the effect Tr[Y_i] X_i and the state Y_i / Tr[Y_i];
    terms with negligible weight are dropped.  Raises
    ``IncompleteDecomposition`` when the effects do not sum to the identity.
    """
    povm, states = [], []
    for x, y in d.terms:
        weight = y.trace().real
        if weight <= tol:
            continue
        povm.append(weight * x)
        states.append(y * (1.0 / weight))
    if not povm:
        raise IncompleteDecomposition("no terms with positive weight")
    total = sum(m.matrix for m in povm)
    dev = float(np.linalg.norm(total - np.eye(total.shape[0])))
    if dev > max(tol, 1e-10) * max(1.0, np.linalg.norm(total)):
        raise IncompleteDecomposition(
            f"POVM completeness deviation {dev:.3e}"
        )
    return MeasurePrepare(povm=tuple(povm), states=tuple(states))


def choi_from_measure_prepare(mp: MeasurePrepare) -> LabeledOperator:
    """Assemble sum_i M_i ⊗ sigma_i (separable across the two sides)."""
    terms = [kron(m, s) for m, s in zip(mp.povm, mp.states)]
    return sum(terms[1:], terms[0])


def apply_measure_prepare(mp: MeasurePrepare, rho: np.ndarray) -> np.ndarray:
    """Channel action sum_i Tr[M_i^T rho] sigma_i."""
    out = np.zeros_like(mp.states[0].matrix)
    for m, s in zip(mp.povm, mp.states):
        out = out + np.trace(m.matrix.T @ np.asarray(rho)) * s.matrix
    return out


# ----------------------------------------------------------------------
# constructions
# ----------------------------------------------------------------------

def depolarizing_channel(p: float) -> ChoiRep:
    """Qubit depolarizing family: Choi = (1-p) Gamma + (p/2) identity.

    Trace-preserving for every p in [0, 1]; the partially transposed Choi
    has minimum eigenvalue 3p/2 - 1, so the entanglement-breaking boundary
    sits at p = 2/3.
    """
    if not 0.0 <= p <= 1.0:
        raise DimensionMismatch(f"p must lie in [0, 1], got {p}")
    g = gamma(2).matrix
    j = (1.0 - p) * (g @ g.conj().T) + (p / 2.0) * np.eye(4)
    systems = SystemList([("A", 2), ("B", 2)])
    return ChoiRep(LabeledOperator(j, systems, systems), ("A",), ("B",))


def example_type1_not_type2(d: int = 2, omega: np.ndarray | None = None,
                            tol: float = DEFAULT_ATOL) -> SuperchannelChoi:
    """Superchannel that is Type-I separable yet Type-II entangling.

    It relays the early input straight to the late output, emits a fixed
    state omega at the early output, and discards the late input:
    J = Gamma_{A1 B2} ⊗ 1_{A2} ⊗ omega_{B1}.  The relay keeps perfect
    correlations with a reference alive across the two rounds, so the
    Type-II cut is negative while the Type-I cut is a product.
    """
    if omega is None:
        omega = np.zeros((d, d), dtype=complex)
        omega[0, 0] = 1.0
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (d, d):
        raise DimensionMismatch(f"omega must be {d}x{d}")
    # a state is a channel from the trivial system
    state = LabeledOperator(omega, [("B1", d)], [("B1", d)])
    if not validate_channel(ChoiRep(state, (), ("B1",)), tol).valid:
        raise NotAValidSuperchannel("omega is not a quantum state")
    g = gamma(d, labels=("A1", "B2")).matrix
    relay = LabeledOperator(
        g @ g.conj().T,
        [("A1", d), ("B2", d)],
        [("A1", d), ("B2", d)],
    )
    body = kron(kron(relay, identity_operator([("A2", d)])), state)
    op = permute_systems(body, CHOI_ORDER, CHOI_ORDER)
    return SuperchannelChoi(op)


def random_eb_measure_prepare(dims: SuperchannelDims, n_terms: int,
                              seed) -> MeasurePrepare:
    """Measure-and-prepare data behind :func:`random_eb_superchannel`.

    The POVM measures A1 (padded with the identity on A2, which keeps the
    no-signaling marginal exact) and each outcome prepares a random joint
    state on B1 B2.  Deterministic per seed.
    """
    if n_terms < 1:
        raise DimensionMismatch(f"n_terms must be >= 1, got {n_terms}")
    rng = np.random.default_rng(seed)
    effects = []
    for _ in range(n_terms):
        g = rng.standard_normal((dims.a1, dims.a1)) + 1j * rng.standard_normal(
            (dims.a1, dims.a1)
        )
        effects.append(g @ g.conj().T)
    inv_sqrt = np.linalg.inv(_sqrtm_psd(sum(effects)))
    povm, states = [], []
    for g in effects:
        e = inv_sqrt @ g @ inv_sqrt
        povm.append(
            kron(
                LabeledOperator(e, [("A1", dims.a1)], [("A1", dims.a1)]),
                identity_operator([("A2", dims.a2)]),
            )
        )
        st = random_density_matrix(dims.b1 * dims.b2, seed=rng)
        states.append(
            LabeledOperator(
                st,
                [("B1", dims.b1), ("B2", dims.b2)],
                [("B1", dims.b1), ("B2", dims.b2)],
            )
        )
    return MeasurePrepare(povm=tuple(povm), states=tuple(states))


def random_eb_superchannel(dims: SuperchannelDims, n_terms: int,
                           seed) -> SuperchannelChoi:
    """Random Type-II separable superchannel, deterministic per seed: the
    :func:`choi_from_measure_prepare` of :func:`random_eb_measure_prepare`
    on the same seed, permuted to A1 A2 B1 B2.  A measure-and-prepare
    superchannel is valid and Type-II separable by construction (Horodecki,
    Shor and Ruskai, quant-ph/0302031), so the sample is not validated here.
    """
    op = choi_from_measure_prepare(random_eb_measure_prepare(dims, n_terms, seed))
    return SuperchannelChoi(permute_systems(op, CHOI_ORDER, CHOI_ORDER))


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T
