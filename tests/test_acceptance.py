"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; the independent oracles (index loops, a
brute-force memory-rank computation, the analytic depolarizing boundary)
never share code with the paths they check.
"""

import itertools
from contextlib import contextmanager

import numpy as np

from superchan.breaking import (
    Bipartition,
    choi_from_measure_prepare,
    depolarizing_channel,
    eb_channel_report,
    example_type1_not_type2,
    ppt_test,
    random_eb_measure_prepare,
    superchannel_breaking_report,
)
from superchan.channels import (
    ChoiRep,
    KrausRep,
    apply_channel,
    choi_from_kraus,
    compose_channels,
    convert_channel,
    kraus_from_choi,
    link_product,
    liouville_from_kraus,
    random_channel,
    random_density_matrix,
    stinespring_from_kraus,
)
from superchan.operators import (
    LabeledOperator,
    SystemList,
    identity_operator,
    mat,
    numeric_rank,
    partial_mat,
    partial_trace,
    partial_transpose,
    partial_vec,
    permute_systems,
    vec,
)
from superchan.superchannels import (
    SuperchannelChoi,
    SuperchannelDims,
    apply_to_channel,
    choi_from_gour,
    gour_from_choi,
    kraus_apply,
    liouville_apply,
    memory_cost,
    n_operators,
    q_apply_to_state,
    random_superchannel,
    realize,
    stinespring_apply_to_state,
    super_liouville,
    super_stinespring,
    superchannel_from_parts,
    validate_superchannel,
)

from test_operators import (
    oracle_partial_trace,
    oracle_partial_transpose,
    oracle_permute,
    random_square,
)

QUBIT = SuperchannelDims(2, 2, 2, 2)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {description}")


def random_test_channel(rng, d_in=None, d_out=None):
    d_in = d_in or int(rng.integers(1, 4))
    d_out = d_out or int(rng.integers(1, 4))
    lo = max(1, -(-d_in // d_out))
    rank = int(rng.integers(lo, d_in * d_out + 1))
    return random_channel(d_in, d_out, rank, seed=rng)


def identity_superchannel(d=2):
    pre = choi_from_kraus(
        KrausRep(
            (LabeledOperator(np.eye(d), [("A1", d)], [("E1", 1), ("B1", d)]),)
        )
    )
    post = choi_from_kraus(
        KrausRep(
            (LabeledOperator(np.eye(d), [("E1", 1), ("A2", d)], [("B2", d)]),)
        )
    )
    return superchannel_from_parts(pre, post)


def copy_pre_superchannel():
    v = np.zeros((4, 2), dtype=complex)
    v[0, 0] = 1.0
    v[3, 1] = 1.0
    pre = choi_from_kraus(
        KrausRep((LabeledOperator(v, [("A1", 2)], [("E1", 2), ("B1", 2)]),))
    )
    post_ops = tuple(
        LabeledOperator(
            np.kron(e.reshape(1, 2), np.eye(2)),
            [("E1", 2), ("A2", 2)],
            [("B2", 2)],
        )
        for e in np.eye(2)
    )
    post = choi_from_kraus(KrausRep(post_ops))
    return superchannel_from_parts(pre, post)


def oracle_memory_rank(theta: SuperchannelChoi, rtol: float = 1e-9) -> int:
    """Brute-force memory rank, independent of the library reindexing paths.

    From the raw Choi matrix: eigendecompose, slice the eigenvectors into the
    adjoint-side vectorized operators entry by entry, trace down with explicit
    loops, and count singular values.
    """
    d = theta.dims
    a1, a2, b1, b2 = d.a1, d.a2, d.b1, d.b2
    j = theta.op.matrix
    vals, vecs = np.linalg.eigh((j + j.conj().T) / 2.0)
    keep = [i for i, v in enumerate(vals) if v > rtol * max(vals)]

    def choi_index(ia1, ia2, ib1, ib2):
        return ((ia1 * a2 + ia2) * b1 + ib1) * b2 + ib2

    def adj_index(ia1, ib2, ib1, ia2):
        return ((ia1 * b2 + ib2) * b1 + ib1) * a2 + ia2

    n_tot = a1 * a2 * b1 * b2
    acc = np.zeros((n_tot, n_tot), dtype=complex)
    for idx in keep:
        w = np.zeros(n_tot, dtype=complex)
        for ia1 in range(a1):
            for ia2 in range(a2):
                for ib1 in range(b1):
                    for ib2 in range(b2):
                        # vec of the adjoint operator: conjugated entries of
                        # the vectorized eigenvector, re-addressed
                        w[adj_index(ia1, ib2, ib1, ia2)] = np.conj(
                            np.sqrt(vals[idx])
                            * vecs[choi_index(ia1, ia2, ib1, ib2), idx]
                        )
        acc += np.outer(w, w.conj())
    traced = np.zeros((a1 * b1, a1 * b1), dtype=complex)
    for ia1 in range(a1):
        for ib1 in range(b1):
            for ja1 in range(a1):
                for jb1 in range(b1):
                    total = 0.0 + 0.0j
                    for ia2 in range(a2):
                        for ib2 in range(b2):
                            total += acc[
                                adj_index(ia1, ib2, ib1, ia2),
                                adj_index(ja1, ib2, jb1, ia2),
                            ]
                    traced[ia1 * b1 + ib1, ja1 * b1 + jb1] = total
    svals = np.linalg.svd(traced, compute_uv=False)
    return int(np.count_nonzero(svals > rtol * svals[0]))


def oracle_spectral_k_ops(theta: SuperchannelChoi) -> tuple:
    """K layouts (B1, A2) -> (A1, B2) of the Choi operator's spectral family:
    ``kraus_from_choi`` of Θ read as (A1, A2) -> (B1, B2), then the
    reindexing ``n_operators`` applies to the realization's family."""
    choi = ChoiRep(theta.op, ("A1", "A2"), ("B1", "B2"))
    return tuple(partial_mat(partial_vec(n, "A1"), "B1")
                 for n in kraus_from_choi(choi).ops)


def oracle_adjoint_memory_rank(theta: SuperchannelChoi,
                               rtol: float = 1e-9) -> int:
    """Memory rank along the adjoint route, from the operator family.

    The rank of Tr_{A2 B2} sum_i vec(K_i†) vec(K_i†)† over the K layouts of
    the Choi operator's spectral family (:func:`oracle_spectral_k_ops`);
    independent of the (A1, B1) marginal that ``memory_cost`` decides on
    and of the realization that ``n_operators`` reads.
    """
    d = theta.dims
    adjoint_systems = SystemList(
        [("A1", d.a1), ("B2", d.b2), ("B1", d.b1), ("A2", d.a2)]
    )
    acc = np.zeros((d.total,) * 2, dtype=np.complex128)
    for k in oracle_spectral_k_ops(theta):
        w = vec(k.adjoint()).matrix
        acc += w @ w.conj().T
    traced = partial_trace(
        LabeledOperator(acc, adjoint_systems, adjoint_systems), ["A2", "B2"]
    )
    return numeric_rank(traced, rtol)


def oracle_basis_map_operator(theta: SuperchannelChoi) -> np.ndarray:
    """The basis-map operator from its definition, one probe per matrix unit.

    Block ((b, a), (b', a')) on (B1, A2) is the superchannel's image of the
    map B1 -> A2 with Choi operator |b a><b' a'|.  That map is no channel, so
    it rides as the off-diagonal block of a flag qubit R in the valid causal
    map B1 -> (R, A2) with J = (1 + |b 0 a><b' 1 a'| + h.c.) / (2 d_A2),
    whose R passes through: the image is 2 d_A2 times the output's (0, 1)
    block in R.  (d_B1 d_A2)^2 calls of ``apply_to_channel``.
    """
    d = theta.dims
    n, m = d.b1 * d.a2, d.a1 * d.b2
    systems = SystemList([("B1", d.b1), ("R", 2), ("A2", d.a2)])
    scale = 2.0 * d.a2
    blocks = np.empty((n, m, n, m), dtype=np.complex128)
    for row, col in itertools.product(range(n), repeat=2):
        (b, a), (b_, a_) = divmod(row, d.a2), divmod(col, d.a2)
        j = np.eye(2 * n, dtype=np.complex128).reshape(d.b1, 2, d.a2,
                                                        d.b1, 2, d.a2)
        j[b, 0, a, b_, 1, a_] = j[b_, 1, a_, b, 0, a] = 1.0
        probe = ChoiRep(
            LabeledOperator(j.reshape(2 * n, 2 * n) / scale, systems, systems),
            ("B1",), ("R", "A2"),
        )
        out = apply_to_channel(theta, probe).op.matrix
        flagged = out.reshape(d.a1, 2, d.b2, d.a1, 2, d.b2)[:, 0, :, :, 1, :]
        blocks[row, :, col, :] = scale * flagged.reshape(m, m)
    return blocks.reshape(n * m, n * m)


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_criterion_01_four_representation_equivalence():
    with criterion(1, "four-representation equivalence on 50 random channels"):
        rng = np.random.default_rng(20260810)
        worst = 0.0
        for _ in range(50):
            base = random_test_channel(rng)
            d_in = base.in_systems.total_dim
            reps = {
                "kraus": base,
                "choi": choi_from_kraus(base),
                "stinespring": stinespring_from_kraus(base),
                "liouville": liouville_from_kraus(base),
            }
            states = [
                random_density_matrix(d_in, seed=rng) for _ in range(20)
            ]
            reference = [apply_channel(base, rho).matrix for rho in states]
            for source in reps.values():
                for target_name in reps:
                    converted = convert_channel(source, target_name)
                    for rho, want in zip(states, reference):
                        got = apply_channel(converted, rho).matrix
                        worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst <= 1e-9, f"worst deviation {worst:.3e}"


def test_criterion_02_link_product_laws():
    with criterion(2, "link product: composition, Born rule, trace channel"):
        rng = np.random.default_rng(2)
        # composition against apply-chaining
        for _ in range(20):
            k1 = random_test_channel(rng, d_in=2, d_out=3)
            k2 = random_test_channel(rng, d_in=3, d_out=2)
            composed = compose_channels(choi_from_kraus(k2), choi_from_kraus(k1))
            for _ in range(5):
                rho = random_density_matrix(2, seed=rng)
                direct = apply_channel(composed, rho).matrix
                chained = apply_channel(k2, apply_channel(k1, rho).matrix).matrix
                assert np.max(np.abs(direct - chained)) <= 1e-9
        # Born rule, exact at 1e-12
        for _ in range(20):
            d = int(rng.integers(2, 4))
            rho = random_density_matrix(d, seed=rng)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = g @ g.conj().T
            p = link_product(
                LabeledOperator(rho, [("A", d)], [("A", d)]),
                LabeledOperator(m.T, [("A", d)], [("A", d)]),
            ).scalar()
            assert abs(p - np.trace(rho @ m)) <= 1e-12
        # the trace channel's Choi operator is the identity
        for _ in range(10):
            k = random_test_channel(rng, d_in=3, d_out=2)
            j = choi_from_kraus(k)
            res = link_product(j.op, identity_operator([("B", 2)]))
            assert np.max(np.abs(res.matrix - np.eye(3))) <= 1e-10


def test_criterion_03_superchannel_validation():
    with criterion(3, "validation: 100 random superchannels pass, targeted "
                      "negatives fail only their own condition"):
        for seed in range(100):
            mem = 1 + seed % 3
            theta = random_superchannel(QUBIT, memory_dim=mem, seed=seed)
            report = validate_superchannel(theta)
            assert report.valid, f"seed {seed}"
            assert report.tp_deviation <= 1e-9
            assert report.ns_deviation <= 1e-9
            assert report.min_eigenvalue >= -1e-9
        # scaling breaks TP and only TP
        theta = random_superchannel(QUBIT, memory_dim=2, seed=7)
        scaled = validate_superchannel(2.0 * theta.op)
        assert scaled.cp and scaled.ns and not scaled.tp
        # pairing A1 with B2 and A2 with B1 signals backwards: NS fails alone
        g = np.eye(2).reshape(4, 1)
        gamma_proj = g @ g.conj().T
        op = np.kron(gamma_proj, gamma_proj).reshape([2, 2, 2, 2] * 2)
        perm = [0, 2, 3, 1]  # (A1, B2, A2, B1) -> (A1, A2, B1, B2)
        op = op.transpose(perm + [p + 4 for p in perm]).reshape(16, 16)
        backward = validate_superchannel(
            LabeledOperator(op, QUBIT.systems(), QUBIT.systems())
        )
        assert backward.cp and backward.tp and not backward.ns
        # affine over-mixing of two valid operators breaks CP alone
        mixer = random_superchannel(QUBIT, memory_dim=1, seed=13)
        mixed = validate_superchannel(
            1.1 * identity_superchannel(2).op - 0.1 * mixer.op
        )
        assert not mixed.cp and mixed.tp and mixed.ns


def test_criterion_04_gour_dual_path():
    with criterion(4, "basis-map operator equals the fixed permutation "
                      "(50 superchannels, 1e-12)"):
        for seed in range(50):
            theta = random_superchannel(QUBIT, memory_dim=1 + seed % 3,
                                        seed=seed)
            # the permutation equals the operator built from the action on
            # matrix-unit maps, and the round trip is exact
            g = gour_from_choi(theta)
            want = oracle_basis_map_operator(theta)
            assert g.in_systems.labels == ("B1", "A2", "A1", "B2")
            assert (np.max(np.abs(g.matrix - want))
                    <= 1e-12 * max(1.0, np.max(np.abs(want))))
            back = choi_from_gour(g)
            assert np.array_equal(back.op.matrix, theta.op.matrix)


def test_criterion_05_application_paths_agree():
    with criterion(5, "Kraus/dilation/vectorized application paths match the "
                      "link product (50 pairs, 1e-10)"):
        rng = np.random.default_rng(5)
        for seed in range(50):
            theta = random_superchannel(QUBIT, memory_dim=1 + seed % 2,
                                        seed=seed)
            e = choi_from_kraus(random_test_channel(rng, d_in=2, d_out=2))
            family = n_operators(theta)
            via_link = apply_to_channel(theta, e)
            # operator-sum path on the Choi level
            via_kraus = kraus_apply(family, e).op.matrix
            assert np.max(np.abs(via_kraus - via_link.op.matrix)) <= 1e-10
            # vectorized path on the Choi level
            via_liou = liouville_apply(super_liouville(theta), e).op.matrix
            assert np.max(np.abs(via_liou - via_link.op.matrix)) <= 1e-10
            # state-level paths through the Q layout and the dilation
            v_s = super_stinespring(family)
            for _ in range(3):
                rho = random_density_matrix(2, seed=rng)
                want = apply_channel(via_link, rho).matrix
                got_q = q_apply_to_state(family, e, rho)
                got_v = stinespring_apply_to_state(v_s, family, e, rho)
                assert np.max(np.abs(got_q - want)) <= 1e-10
                assert np.max(np.abs(got_v - want)) <= 1e-10
            # completeness after tracing the early output leg
            acc = sum((q.adjoint() @ q).matrix for q in family.q_ops)
            sys_q = family.q_ops[0].in_systems
            traced = partial_trace(LabeledOperator(acc, sys_q, sys_q), ["B1"])
            assert np.linalg.norm(traced.matrix - np.eye(4)) <= 1e-10
            # relaxed normalization of the dilation operator
            prod = LabeledOperator(
                v_s.matrix.conj().T @ v_s.matrix, v_s.in_systems, v_s.in_systems
            )
            traced_v = partial_trace(prod, ["B1"])
            assert np.linalg.norm(traced_v.matrix - np.eye(4)) <= 1e-10


def test_criterion_06_realization_and_memory_cost():
    with criterion(6, "realization reconstructs 50 superchannels at 1e-8 with "
                      "the brute-force memory rank"):
        for seed in range(50):
            theta = random_superchannel(QUBIT, memory_dim=1 + seed % 2,
                                        seed=1000 + seed)
            r = realize(theta, tol=1e-8)
            assert r.reconstruction_residual <= 1e-8, f"seed {seed}"
            want = oracle_memory_rank(theta)
            assert r.e1_dim == want, f"seed {seed}: {r.e1_dim} != {want}"
            assert memory_cost(theta) == want
        ident = identity_superchannel(2)
        assert oracle_memory_rank(ident) == 1
        assert memory_cost(ident) == 1
        assert realize(ident).e1_dim == 1
        copier = copy_pre_superchannel()
        assert oracle_memory_rank(copier) == 2
        assert memory_cost(copier) == 2
        assert realize(copier).e1_dim == 2


def test_criterion_07_eb_threshold():
    with criterion(7, "depolarizing EB boundary at 2/3 within 1e-6"):
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-7:
            mid = (lo + hi) / 2.0
            if eb_channel_report(depolarizing_channel(mid)).is_eb:
                hi = mid
            else:
                lo = mid
        found = (lo + hi) / 2.0
        assert abs(found - 2.0 / 3.0) <= 1e-6
        # analytic oracle: the partial-transpose minimum eigenvalue is
        # 3p/2 - 1, whose root is exactly 2/3
        for p in (0.2, 0.5, 2.0 / 3.0, 0.8):
            v = ppt_test(depolarizing_channel(p).op, Bipartition(("A",), ("B",)))
            assert abs(v.min_eigenvalue - (1.5 * p - 1.0)) <= 1e-12


def test_criterion_08_type1_type2_separation():
    with criterion(8, "relay example: Type-I separable cut, Type-II "
                      "negative cut, fully valid"):
        theta = example_type1_not_type2()
        report = validate_superchannel(theta)
        assert report.valid
        breaking = superchannel_breaking_report(theta)
        assert breaking.type_I.is_ppt
        assert not breaking.type_II.is_ppt
        assert breaking.type_II.min_eigenvalue < -1e-6
        assert breaking.common_cause_breaking


def test_criterion_09_measure_and_prepare():
    with criterion(9, "50 EB superchannels: POVM completeness and Choi "
                      "reconstruction at 1e-10"):
        for seed in range(50):
            mp = random_eb_measure_prepare(QUBIT, n_terms=1 + seed % 4,
                                           seed=seed)
            total = sum(m.matrix for m in mp.povm)
            assert np.linalg.norm(total - np.eye(4)) <= 1e-10
            rebuilt = choi_from_measure_prepare(mp)
            theta = SuperchannelChoi(
                permute_systems(
                    rebuilt, ("A1", "A2", "B1", "B2"), ("A1", "A2", "B1", "B2")
                )
            )
            assert validate_superchannel(theta).valid
            assert superchannel_breaking_report(theta).type_II.is_ppt
            # reconstruction from the normalized terms matches the sample
            direct = sum(
                np.kron(m.matrix, s.matrix) for m, s in zip(mp.povm, mp.states)
            )
            assert np.linalg.norm(direct - theta.op.matrix) <= 1e-10


def test_criterion_10_prepare_and_trace_identity():
    with criterion(10, "Tr[(rho ⊗ 1) J] = 1 for all generated channels and "
                       "all superchannel outputs"):
        rng = np.random.default_rng(10)
        for _ in range(50):
            k = random_test_channel(rng)
            j = choi_from_kraus(k)
            rho = random_density_matrix(j.d_in, seed=rng)
            val = np.trace(np.kron(rho, np.eye(j.d_out)) @ j.op.matrix)
            assert abs(val - 1.0) <= 1e-10
        for seed in range(50):
            theta = random_superchannel(QUBIT, memory_dim=1 + seed % 3,
                                        seed=seed)
            e = choi_from_kraus(random_test_channel(rng, d_in=2, d_out=2))
            out = apply_to_channel(theta, e)
            rho = random_density_matrix(2, seed=rng)
            val = np.trace(np.kron(rho, np.eye(2)) @ out.op.matrix)
            assert abs(val - 1.0) <= 1e-10


def test_criterion_11_reindexing_oracles():
    with criterion(11, "index-loop oracles for trace/transpose/permutation "
                       "plus the vec identities"):
        rng = np.random.default_rng(11)
        for _ in range(10):
            dims = [int(x) for x in rng.integers(2, 4, size=3)]
            m = random_square(rng, list(zip(("a", "b", "c"), dims)))
            got = partial_trace(m, ["b"]).matrix
            assert np.max(np.abs(got - oracle_partial_trace(m, {"b"}))) <= 1e-12
            got = partial_transpose(m, ["a", "c"]).matrix
            want = oracle_partial_transpose(m, ["a", "c"])
            assert np.max(np.abs(got - want)) <= 1e-12
            got = permute_systems(m, ("c", "a", "b"), ("c", "a", "b")).matrix
            want = oracle_permute(m, ("c", "a", "b"), ("c", "a", "b"))
            assert np.max(np.abs(got - want)) <= 1e-12
        # round trip through vec is bit exact
        for _ in range(100):
            d_in, d_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            g = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal(
                (d_out, d_in)
            )
            m = LabeledOperator(g, [("A", d_in)], [("B", d_out)])
            assert np.array_equal(mat(vec(m), ("A",)).matrix, m.matrix)
        # moving matrices across the entangled pair transposes them
        for _ in range(100):
            dA, dB = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            x = rng.standard_normal((dA, dA)) + 1j * rng.standard_normal((dA, dA))
            y = rng.standard_normal((dB, dB)) + 1j * rng.standard_normal((dB, dB))
            g = rng.standard_normal((dB, dA)) + 1j * rng.standard_normal((dB, dA))
            m = LabeledOperator(g, [("A", dA)], [("B", dB)])
            lhs = np.kron(x, y) @ vec(m).matrix
            rhs = vec(LabeledOperator(y @ g @ x.T, [("A", dA)], [("B", dB)])).matrix
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(
                1.0, float(np.linalg.norm(rhs))
            )
