"""Property tests of the memory-rank decision that memory_cost and realize share.

Inputs are seeded superchannels over every dimension in {1, 2, 3} (unit and
mixed dimensions) and near-cutoff mixtures (1 - eps) a + eps b of a
memoryless superchannel a with one that needs memory.  The oracles are the
brute-force memory rank of criterion 06 and the adjoint route that
``memory_cost`` used to cross-check with.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superchan.breaking import superchannel_breaking_report
from superchan.channels import KrausRep, choi_from_kraus
from superchan.operators import LabeledOperator, numeric_rank
from superchan.superchannels import (
    REALIZE_TOL,
    SuperchannelChoi,
    SuperchannelDims,
    f_theta_channel,
    memory_cost,
    random_superchannel,
    realize,
    superchannel_from_parts,
    validate_superchannel,
)

from test_acceptance import oracle_adjoint_memory_rank, oracle_memory_rank

QUBIT = SuperchannelDims(2, 2, 2, 2)
DIMS = st.builds(SuperchannelDims, *[st.integers(1, 3)] * 4)
SEEDS = st.integers(0, 2 ** 32 - 1)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)
# the near-cutoff grid of the benchmark: {1, 3} x 10^k for k = -14..-5, 1e-4
NEAR_CUTOFF_EPS = [m * 10.0 ** k for k in range(-14, -4) for m in (1, 3)] + [1e-4]


def mixture(a: SuperchannelChoi, b: SuperchannelChoi, eps: float):
    return SuperchannelChoi((1.0 - eps) * a.op + eps * b.op)


def rebuilt(r) -> SuperchannelChoi:
    """The superchannel that the realization's V and W compose to."""
    w = r.w.matrix
    d_b2 = w.shape[0] // r.e2_dim
    post = KrausRep(tuple(
        LabeledOperator(block, r.w.in_systems, [("B2", d_b2)])
        for block in w.reshape(r.e2_dim, d_b2, w.shape[1])
    ))
    return superchannel_from_parts(choi_from_kraus(KrausRep((r.v,))),
                                   choi_from_kraus(post))


def assert_realized(theta: SuperchannelChoi):
    """The chain's contract: valid in, realized within tol, one memory rank."""
    assert validate_superchannel(theta).valid
    r = realize(theta)
    assert r.reconstruction_residual <= REALIZE_TOL
    # V and W are replaced by their nearest isometries, even after a cut
    assert r.v_deviation <= 1e-12 and r.w_deviation <= 1e-12
    assert memory_cost(theta) == r.e1_dim
    return r


def realized_within(theta: SuperchannelChoi, tol: float):
    """realize at ``tol``: one budget for the e1 cut and the e2 count."""
    r = realize(theta, tol=tol)
    assert r.reconstruction_residual <= tol
    assert r.v_deviation <= 1e-12 and r.w_deviation <= 1e-12
    assert r.e2_dim == numeric_rank(rebuilt(r).op, tol / 10)
    return r


@PROPERTY
@given(dims=DIMS, memory=st.integers(1, 3), seed=SEEDS)
def test_ranks_match_oracles(dims, memory, seed):
    theta = random_superchannel(dims, memory, seed=seed)
    r = assert_realized(theta)
    assert r.e1_dim == oracle_memory_rank(theta)
    assert r.e1_dim == oracle_adjoint_memory_rank(theta)
    assert r.e2_dim == numeric_rank(theta.op)


@PROPERTY
@given(dims=DIMS, memory=st.integers(1, 3), seeds=st.tuples(SEEDS, SEEDS),
       log_eps=st.floats(-14.0, -3.0))
def test_validation_implies_realization(dims, memory, seeds, log_eps):
    a = random_superchannel(dims, 1, seed=seeds[0], pre_rank=1)
    b = random_superchannel(dims, memory, seed=seeds[1])
    assert_realized(mixture(a, b, 10.0 ** log_eps))


@PROPERTY
@given(dims=DIMS, memory=st.integers(1, 3), seeds=st.tuples(SEEDS, SEEDS),
       log_eps=st.floats(-14.0, -3.0), log_tol=st.floats(-12.0, -6.0))
def test_validation_implies_realization_at_any_tol(dims, memory, seeds,
                                                   log_eps, log_tol):
    a = random_superchannel(dims, 1, seed=seeds[0], pre_rank=1)
    b = random_superchannel(dims, memory, seed=seeds[1])
    theta = mixture(a, b, 10.0 ** log_eps)
    assert validate_superchannel(theta).valid
    realized_within(theta, 10.0 ** log_tol)


def test_kept_direction_with_a_tiny_part_of_theta_is_realized():
    # F's second eigenvalue is 6.4e-9: cutting B's tail at the scale of Θ
    # would drop every Kraus operator of that kept direction, and W could
    # not be faithful on it (residual 3.7e-5); e2 counted at tol/10 keeps it
    d = SuperchannelDims(1, 1, 2, 2)
    a = random_superchannel(d, 1, seed=0, pre_rank=1)
    b = random_superchannel(d, 1, seed=0)
    r = assert_realized(mixture(a, b, 10.0 ** -7.5))
    assert (r.e1_dim, r.e2_dim) == (2, 3)


def near_cutoff(eps: float) -> SuperchannelChoi:
    a = random_superchannel(QUBIT, 1, seed=83, pre_rank=1)
    b = random_superchannel(QUBIT, 2, seed=5)
    return mixture(a, b, eps)


@pytest.mark.parametrize("eps", NEAR_CUTOFF_EPS)
def test_near_cutoff_grid(eps):
    theta = near_cutoff(eps)
    r = assert_realized(theta)
    # a tail of weight eps is cut while it costs less than the tolerance;
    # from 1e-7 on it is kept, at the rank of the exact marginal
    if eps <= 1e-9:
        assert r.e1_dim == 1
    if eps >= 1e-7:
        assert r.e1_dim == 4
    # e2 is the rank of the realized operator, never rounding noise of the
    # w^{-1/2} scaling; only at 3e-9 and 1e-8 does the cut drop eigenvalues
    # of Θ above rank_rtol, leaving a realized operator of lower rank
    assert r.e2_dim == numeric_rank(rebuilt(r).op)
    if eps <= 1e-9 or eps >= 3e-8:
        assert r.e2_dim == numeric_rank(theta.op)


@pytest.mark.parametrize("eps", NEAR_CUTOFF_EPS)
def test_near_cutoff_grid_on_one_split(eps):
    # every budget reads the one memoised split of theta, and gets what a
    # fresh copy of theta gets at that budget alone
    theta = near_cutoff(eps)
    assert_realized(theta)
    for tol in (1e-6, 1e-10, 1e-12):
        r = realized_within(theta, tol)
        fresh = realize(SuperchannelChoi(LabeledOperator(
            theta.op.matrix, theta.op.in_systems, theta.op.out_systems)), tol=tol)
        assert (r.e1_dim, r.e2_dim) == (fresh.e1_dim, fresh.e2_dim)
        assert r.w.matrix.tobytes() == fresh.w.matrix.tobytes()


@pytest.mark.parametrize("eps", NEAR_CUTOFF_EPS)
def test_f_theta_rank_is_memory_cost(eps):
    # F's Kraus count is the same memory-rank decision, not a second cut
    theta = near_cutoff(eps)
    assert f_theta_channel(theta).rank == memory_cost(theta)


@pytest.mark.parametrize("eps", NEAR_CUTOFF_EPS)
def test_near_cutoff_grid_at_smaller_tol(eps):
    # the caller's tol is the cut's budget: where the default cut costs more
    # than tol, realize keeps more of F instead of failing the residual
    theta = near_cutoff(eps)
    default = realize(theta)
    for tol in (1e-10, 1e-12):
        r = realized_within(theta, tol)
        if default.reconstruction_residual > tol:
            assert r.e1_dim > default.e1_dim
        else:
            assert r.e1_dim == default.e1_dim


@pytest.mark.parametrize("eps", NEAR_CUTOFF_EPS)
def test_near_cutoff_grid_at_larger_tol(eps):
    # a larger budget may cut deeper than the default, never shallower
    theta = near_cutoff(eps)
    assert realized_within(theta, 1e-6).e1_dim <= realize(theta).e1_dim


def test_tiny_eigenvalue_kept_when_its_tail_costs_more_than_tol():
    # F's last eigenvalue (about 1.3e-9) is below 1e-9 of its largest (about
    # 2), yet cutting it leaves a residual above 1e-8: it must be kept
    d = SuperchannelDims(3, 2, 2, 3)
    a = random_superchannel(d, 1, seed=102, pre_rank=1)
    b = random_superchannel(d, 2, seed=202)
    r = assert_realized(mixture(a, b, 1.7190722018585746e-07))
    assert r.e1_dim == 6


# Θ - eps·vv† around the CP cutoff tol = 1e-9, v in the kept support
CP_EPS = (0.0, 1e-12, 5e-10, 9e-10, 1.1e-9, 2e-9, 1e-6)


def dented(theta: SuperchannelChoi, eps: float, rng) -> LabeledOperator:
    """Θ - eps·vv† with v = u ⊗ x, u F's top eigenvector on (A1, B1) and x
    random on (A2, B2): v lies in the block that decides CP."""
    d = theta.dims
    t = theta.op.matrix.reshape((d.a1, d.a2, d.b1, d.b2) * 2)
    f = np.einsum("apbqcpdq->abcd", t).reshape(d.a1 * d.b1, -1)
    u = np.linalg.eigh(f)[1][:, -1].reshape(d.a1, d.b1)
    x = rng.normal(size=(d.a2, d.b2)) + 1j * rng.normal(size=(d.a2, d.b2))
    v = np.einsum("ab,pq->apbq", u, x).ravel()
    v /= np.linalg.norm(v)
    op = theta.op
    return LabeledOperator(op.matrix - eps * np.outer(v, v.conj()),
                           op.in_systems, op.out_systems)


@pytest.mark.parametrize("memory", [1, 2, 3])
def test_cp_verdict_on_kept_block_matches_full_spectrum(memory):
    tol = 1e-9
    paths = set()
    for dims in itertools.product((1, 2, 3), repeat=4):
        d = SuperchannelDims(*dims)
        theta = random_superchannel(d, memory, seed=17)
        rng = np.random.default_rng(list(dims) + [memory])
        for eps in CP_EPS:
            op = dented(theta, eps, rng)
            r = validate_superchannel(op, tol=tol)
            m = op.matrix
            lam = np.linalg.eigvalsh((m + m.conj().T) / 2).min()
            case = (dims, memory, eps)
            assert r.cp == (lam >= -tol), case
            assert (abs(r.min_eigenvalue - lam)
                    <= r.min_eigenvalue_bound + 1e-12), case
            assert r.min_eigenvalue_bound <= tol / 10, case
            paths.add((r.kept_rank < d.a1 * d.b1, r.cp))
    # the kept block decides both verdicts somewhere on the grid
    assert {(True, True), (True, False)} <= paths


# Validation is the only validity decision: operators it accepts at the edge
# of tol, where F = Tr_{A2B2} Θ / d_A2 dips to -d_B2·eps or loses
# Hermiticity by d_B2·eps, must get through every reader of the memory split
EDGE_SHAPES = [(2, 2, 2, 2), (2, 2, 2, 3), (2, 1, 2, 4), (3, 2, 2, 3),
               (1, 1, 2, 3), (2, 3, 3, 1)]
EDGE_EPS = (3e-10, 6e-10, 9e-10, 2e-9, 4e-9)
# accepted of the 30 perturbations of each shape (3 seeds, 2 directions,
# 5 eps): 84 in all
EDGE_ACCEPTED = {(2, 2, 2, 2): 18, (2, 2, 2, 3): 16, (2, 1, 2, 4): 9,
                 (3, 2, 2, 3): 17, (1, 1, 2, 3): 6, (2, 3, 3, 1): 18}


def edge_directions(theta: SuperchannelChoi, rng) -> tuple:
    """The grid's two directions D, each y ⊗ 1_{A2B2} on (A1, A2, B1, B2):
    y = |f><f| with f in F's kernel, so Θ - eps·D dents F to -eps·d_B2;
    and y anti-Hermitian with Tr_B1 y = 0, which keeps TP and NS exact,
    scaled to ||D|| = 1."""
    d = theta.dims
    n = d.a1 * d.b1
    t = theta.op.matrix.reshape((d.a1, d.a2, d.b1, d.b2) * 2)
    f = np.einsum("apbqcpdq->abcd", t).reshape(n, n) / d.a2
    kernel = np.linalg.eigh((f + f.conj().T) / 2)[1][:, 0]
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    y = (g - g.conj().T) / 2
    y_a1 = np.einsum("abcb->ac", y.reshape(d.a1, d.b1, d.a1, d.b1))
    y = y - np.kron(y_a1, np.eye(d.b1)) / d.b1

    def lifted(x):  # x ⊗ 1_{A2B2}, legs reordered to (A1, A2, B1, B2)
        t = np.kron(x, np.eye(d.a2 * d.b2)).reshape((d.a1, d.b1, d.a2, d.b2) * 2)
        return t.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(d.total, d.total)

    shift = lifted(y)
    return lifted(np.outer(kernel, kernel.conj())), shift / np.linalg.norm(shift)


@pytest.mark.parametrize("shape", EDGE_SHAPES)
def test_every_accepted_operator_gets_through(shape):
    d = SuperchannelDims(*shape)
    accepted = 0
    for seed in range(3):
        base = random_superchannel(d, 1, seed=seed, pre_rank=1)
        op = base.op
        for direction in edge_directions(base, np.random.default_rng(100 + seed)):
            for eps in EDGE_EPS:
                theta = SuperchannelChoi(LabeledOperator(
                    op.matrix - eps * direction, op.in_systems, op.out_systems))
                if not validate_superchannel(theta).valid:
                    continue
                accepted += 1
                cost = memory_cost(theta)
                assert realize(theta).e1_dim == cost
                assert f_theta_channel(theta).rank == cost
                superchannel_breaking_report(theta)
    assert accepted == EDGE_ACCEPTED[shape]
