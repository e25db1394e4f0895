"""Tests for superchannel validation, representations, and realization."""

import itertools

import numpy as np
import pytest

from superchan import superchannels

from superchan.breaking import superchannel_breaking_report
from superchan.channels import (
    ChoiRep,
    KrausRep,
    apply_channel,
    choi_from_kraus,
    compose_channels,
    kraus_from_choi,
    link_product,
    random_channel,
    random_density_matrix,
    validate_channel,
)
from superchan.errors import DimensionMismatch, NotAValidSuperchannel
from superchan.operators import (
    LabeledOperator,
    kron,
    numeric_rank,
    partial_trace,
    vec,
)
from superchan.superchannels import (
    SuperchannelChoi,
    SuperchannelDims,
    apply_to_channel,
    choi_from_gour,
    f_theta_channel,
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

from test_acceptance import oracle_basis_map_operator

QUBIT = SuperchannelDims(2, 2, 2, 2)


def identity_part(in_label, out_labels, dims):
    """Choi of the channel that relays one system into (possibly) two."""
    d_in = dims[0]
    k = LabeledOperator(
        np.eye(d_in),
        [(in_label, d_in)],
        list(zip(out_labels, dims[1:])),
    )
    return choi_from_kraus(KrausRep((k,)))


def identity_superchannel(d=2):
    pre = identity_part("A1", ("E1", "B1"), (d, 1, d))
    k = LabeledOperator(np.eye(d), [("E1", 1), ("A2", d)], [("B2", d)])
    post = choi_from_kraus(KrausRep((k,)))
    return superchannel_from_parts(pre, post)


def copy_pre_superchannel():
    """Qubit superchannel whose pre stage copies the basis into the memory."""
    v = np.zeros((4, 2), dtype=complex)
    v[0, 0] = 1.0  # |0> -> |0>_E1 |0>_B1
    v[3, 1] = 1.0  # |1> -> |1>_E1 |1>_B1
    pre = choi_from_kraus(
        KrausRep((LabeledOperator(v, [("A1", 2)], [("E1", 2), ("B1", 2)]),))
    )
    post_ops = tuple(
        LabeledOperator(
            np.kron(e.reshape(1, 2), np.eye(2)), [("E1", 2), ("A2", 2)], [("B2", 2)]
        )
        for e in np.eye(2)
    )
    post = choi_from_kraus(KrausRep(post_ops))
    return superchannel_from_parts(pre, post)


def random_input_channel(seed, d_in=2, d_out=2, rank=2):
    return choi_from_kraus(random_channel(d_in, d_out, rank, seed=seed))


class TestFromPartsAndValidate:
    def test_identity_superchannel_choi(self):
        theta = identity_superchannel(2)
        g = np.eye(2).reshape(4, 1)
        gamma_proj = g @ g.conj().T
        expected = np.kron(gamma_proj, gamma_proj).reshape(
            [2, 2, 2, 2] * 2
        )  # (A1, B1, A2, B2) tensor, row/col
        expected = expected.transpose([0, 2, 1, 3, 4, 6, 5, 7]).reshape(16, 16)
        assert np.allclose(theta.op.matrix, expected)

    def test_identity_is_valid(self):
        report = validate_superchannel(identity_superchannel(2))
        assert report.valid
        assert report.tp_deviation <= 1e-12
        assert report.ns_deviation <= 1e-12

    def test_copy_pre_is_valid(self):
        assert validate_superchannel(copy_pre_superchannel()).valid

    def test_random_parts_sweep(self):
        for seed in range(30):
            theta = random_superchannel(QUBIT, memory_dim=2, seed=seed)
            report = validate_superchannel(theta)
            assert report.valid, f"seed {seed}: {report}"

    def test_scaling_breaks_tp_only(self):
        theta = random_superchannel(QUBIT, memory_dim=2, seed=1)
        doubled = LabeledOperator(
            2 * theta.op.matrix, theta.op.in_systems, theta.op.out_systems
        )
        report = validate_superchannel(doubled)
        assert report.cp and report.ns and not report.tp

    def test_backward_signaling_breaks_ns_only(self):
        # Gamma pairs joining A1 with B2 and A2 with B1 signal backwards
        g = np.eye(2).reshape(4, 1)
        gamma_proj = g @ g.conj().T
        op = np.kron(gamma_proj, gamma_proj).reshape([2, 2, 2, 2] * 2)
        # built on (A1, B2, A2, B1); reorder to (A1, A2, B1, B2)
        perm = [0, 2, 3, 1]
        op = op.transpose(perm + [p + 4 for p in perm]).reshape(16, 16)
        systems = QUBIT.systems()
        report = validate_superchannel(LabeledOperator(op, systems, systems))
        assert report.cp and report.tp and not report.ns
        assert report.ns_deviation > 1e-3

    def test_mixing_beyond_one_breaks_cp_only(self):
        theta = identity_superchannel(2).op.matrix
        mixer = random_superchannel(QUBIT, memory_dim=1, seed=5).op.matrix
        eps = 0.1
        systems = QUBIT.systems()
        op = LabeledOperator((1 + eps) * theta - eps * mixer, systems, systems)
        report = validate_superchannel(op)
        assert not report.cp and report.tp and report.ns

    def test_other_labels_without_dims_rejected(self):
        theta = random_superchannel(QUBIT, memory_dim=2, seed=2)
        systems = [("W", 2), ("X", 2), ("Y", 2), ("Z", 2)]
        op = LabeledOperator(theta.op.matrix, systems, systems)
        with pytest.raises(DimensionMismatch, match="'A1', 'A2', 'B1', 'B2'"):
            validate_superchannel(op)
        assert validate_superchannel(op, dims=QUBIT).valid

    def test_declared_dims_must_match_superchannel(self):
        theta = random_superchannel(QUBIT, memory_dim=2, seed=2)
        wrong = SuperchannelDims(3, 3, 3, 3)
        with pytest.raises(DimensionMismatch, match="declared dims"):
            validate_superchannel(theta, dims=wrong)
        # a kept report is not read before the dims are checked
        assert validate_superchannel(theta, dims=QUBIT).valid
        with pytest.raises(DimensionMismatch, match="declared dims"):
            validate_superchannel(theta, dims=wrong)

    def test_declared_dims_must_match_choi_order_operator(self):
        theta = random_superchannel(QUBIT, memory_dim=2, seed=2)
        op = LabeledOperator(theta.op.matrix, QUBIT.systems(), QUBIT.systems())
        with pytest.raises(DimensionMismatch, match="declared dims"):
            validate_superchannel(op, dims=SuperchannelDims(3, 3, 3, 3))
        assert validate_superchannel(op, dims=QUBIT).valid

    def test_invalid_part_rejected(self):
        k = LabeledOperator(0.5 * np.eye(2), [("A1", 2)], [("E1", 1), ("B1", 2)])
        bad_pre = choi_from_kraus(KrausRep((k,)))
        k2 = LabeledOperator(np.eye(2), [("E1", 1), ("A2", 2)], [("B2", 2)])
        post = choi_from_kraus(KrausRep((k2,)))
        with pytest.raises(NotAValidSuperchannel):
            superchannel_from_parts(bad_pre, post)

    def test_memory_dim_mismatch(self):
        pre = identity_part("A1", ("E1", "B1"), (2, 1, 2))
        k = LabeledOperator(np.eye(4), [("E1", 2), ("A2", 2)], [("B2", 4)])
        post = choi_from_kraus(KrausRep((k,)))
        with pytest.raises(DimensionMismatch):
            superchannel_from_parts(pre, post)


class TestApplyToChannel:
    def test_identity_superchannel_preserves(self):
        theta = identity_superchannel(2)
        for seed in range(5):
            e = random_input_channel(seed)
            out = apply_to_channel(theta, e)
            assert np.max(np.abs(out.op.matrix - e.op.matrix)) <= 1e-12

    def test_memoryless_parts_compose(self):
        pre = identity_part("A1", ("E1", "B1"), (2, 1, 2))
        pre_chan = random_channel(2, 2, 2, seed=11)
        pre = choi_from_kraus(
            KrausRep(
                tuple(
                    LabeledOperator(
                        k.matrix, [("A1", 2)], [("E1", 1), ("B1", 2)]
                    )
                    for k in pre_chan.ops
                )
            )
        )
        post_chan = random_channel(2, 2, 2, seed=13)
        post = choi_from_kraus(
            KrausRep(
                tuple(
                    LabeledOperator(
                        k.matrix, [("E1", 1), ("A2", 2)], [("B2", 2)]
                    )
                    for k in post_chan.ops
                )
            )
        )
        theta = superchannel_from_parts(pre, post)
        e = random_input_channel(17)
        got = apply_to_channel(theta, e).op.matrix
        pre_plain = choi_from_kraus(pre_chan)
        post_plain = choi_from_kraus(post_chan)
        want = compose_channels(
            post_plain, compose_channels(e.relabeled({"A": "B", "B": "C"}), pre_plain)
        ).op.matrix
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_outputs_are_channels(self):
        for seed in range(20):
            theta = random_superchannel(QUBIT, memory_dim=2, seed=seed)
            e = random_input_channel(1000 + seed)
            out = apply_to_channel(theta, e)
            assert validate_channel(out).valid

    def test_side_system_passes_through(self):
        # causal map B1 -> (R, A2): prepare a fixed state on R alongside
        rng = np.random.default_rng(3)
        sigma = random_density_matrix(2, seed=rng)
        e = random_input_channel(7)
        side = LabeledOperator(sigma, [("R", 2)], [("R", 2)])
        j_big = kron(e.op, side)
        kappa = ChoiRep(
            permute_systems_for_test(j_big, ("A",), ("R", "B")),
            ("A",),
            ("R", "B"),
        )
        theta = random_superchannel(QUBIT, memory_dim=2, seed=21)
        out = apply_to_channel(theta, kappa)
        assert out.output_labels[-1] == "B2"
        assert "R" in out.output_labels
        # tracing the side system matches acting on the bare channel
        traced = partial_trace(out.op, ["R"])
        bare = apply_to_channel(theta, e).op
        assert np.max(np.abs(traced.matrix - bare.matrix)) <= 1e-10

    def test_invalid_input_channel_rejected(self):
        theta = random_superchannel(QUBIT, memory_dim=1, seed=2)
        bad = ChoiRep(
            LabeledOperator(
                2 * np.eye(4), [("A", 2), ("B", 2)], [("A", 2), ("B", 2)]
            ),
            ("A",),
            ("B",),
        )
        with pytest.raises(NotAValidSuperchannel):
            apply_to_channel(theta, bad)


def permute_systems_for_test(op, in_order, out_order):
    from superchan.operators import permute_systems

    return permute_systems(op, in_order + out_order, in_order + out_order)


class TestGour:
    def test_identity_superchannel_permutes_exactly(self):
        theta = identity_superchannel(2)
        g = gour_from_choi(theta)
        from superchan.operators import permute_systems

        want = permute_systems(
            theta.op, ("B1", "A2", "A1", "B2"), ("B1", "A2", "A1", "B2")
        )
        assert np.array_equal(g.matrix, want.matrix)

    def test_dual_path_agreement_random(self):
        for seed in range(10):
            theta = random_superchannel(QUBIT, memory_dim=2, seed=seed)
            g = gour_from_choi(theta)
            assert g.in_systems.labels == ("B1", "A2", "A1", "B2")

    def test_matches_basis_map_oracle_on_all_dims(self):
        # the permutation is the operator built from the action on every
        # matrix-unit map, at every dimension in {1, 2, 3}
        for i, dims in enumerate(itertools.product((1, 2, 3), repeat=4)):
            theta = random_superchannel(
                SuperchannelDims(*dims), memory_dim=1 + i % 3, seed=900 + i
            )
            want = oracle_basis_map_operator(theta)
            got = gour_from_choi(theta).matrix
            assert np.max(np.abs(got - want)) <= 1e-12, dims

    def test_round_trip_exact(self):
        theta = random_superchannel(QUBIT, memory_dim=2, seed=31)
        back = choi_from_gour(gour_from_choi(theta))
        assert np.array_equal(back.op.matrix, theta.op.matrix)


class TestOperatorFamily:
    def test_identity_superchannel_single_operator(self):
        family = n_operators(identity_superchannel(2))
        assert len(family) == 1
        # the single operator is the relabeling identity up to phase
        n = family.n_ops[0].matrix
        phase = n[0, 0] / abs(n[0, 0])
        assert np.allclose(n / phase, np.eye(4))

    def test_family_rebuilds_choi(self):
        for seed in range(10):
            theta = random_superchannel(QUBIT, memory_dim=2, seed=seed)
            family = n_operators(theta)
            rebuilt = sum(
                vec(n).matrix @ vec(n).matrix.conj().T for n in family.n_ops
            )
            assert (
                np.linalg.norm(rebuilt - theta.op.matrix)
                <= 1e-10 * np.linalg.norm(theta.op.matrix)
            )

    def test_rank_matches_numeric_rank(self):
        # the rank counted on the spectrum equals the singular-value rank
        for i, dims in enumerate(itertools.product((1, 2, 3), repeat=4)):
            theta = random_superchannel(
                SuperchannelDims(*dims), memory_dim=1 + i % 3, seed=700 + i
            )
            choi = ChoiRep(theta.op, ("A1", "A2"), ("B1", "B2"))
            assert len(kraus_from_choi(choi)) == numeric_rank(theta.op), dims

    def test_q_completeness_relation(self):
        # Tr_B1[sum_i Q_i† Q_i] = identity on A1 A2
        for seed in range(10):
            theta = random_superchannel(QUBIT, memory_dim=2, seed=100 + seed)
            family = n_operators(theta)
            acc = sum(
                (q.adjoint() @ q).matrix for q in family.q_ops
            )
            sys_q = family.q_ops[0].in_systems
            traced = partial_trace(
                LabeledOperator(acc, sys_q, sys_q), ["B1"]
            ).matrix
            assert np.linalg.norm(traced - np.eye(4)) <= 1e-10


class TestFourApplicationPaths:
    def test_kraus_path_matches_link(self):
        for seed in range(15):
            theta = random_superchannel(QUBIT, memory_dim=2, seed=seed)
            e = random_input_channel(2000 + seed)
            family = n_operators(theta)
            via_link = apply_to_channel(theta, e).op.matrix
            via_kraus = kraus_apply(family, e).op.matrix
            assert np.max(np.abs(via_link - via_kraus)) <= 1e-10

    def test_q_path_matches_output_channel_action(self):
        for seed in range(10):
            theta = random_superchannel(QUBIT, memory_dim=2, seed=seed)
            e = random_input_channel(3000 + seed)
            family = n_operators(theta)
            out = apply_to_channel(theta, e)
            for s in range(3):
                rho = random_density_matrix(2, seed=10 * seed + s)
                want = apply_channel(out, rho).matrix
                got = q_apply_to_state(family, e, rho)
                assert np.max(np.abs(got - want)) <= 1e-10

    def test_state_preparation_special_case(self):
        # trivial first time step: the Q operators act as plain Kraus ops
        dims = SuperchannelDims(1, 2, 1, 2)
        theta = random_superchannel(dims, memory_dim=1, seed=41)
        family = n_operators(theta)
        rho = random_density_matrix(2, seed=7)
        e = ChoiRep(
            LabeledOperator(rho, [("B1", 1), ("A2", 2)], [("B1", 1), ("A2", 2)]),
            ("B1",),
            ("A2",),
        )
        got = q_apply_to_state(family, e, np.eye(1))
        want = sum(
            q.matrix.reshape(2, 2) @ rho @ q.matrix.reshape(2, 2).conj().T
            for q in family.q_ops
        )
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_stinespring_path(self):
        for seed in range(10):
            theta = random_superchannel(QUBIT, memory_dim=2, seed=seed)
            e = random_input_channel(4000 + seed)
            family = n_operators(theta)
            v_s = super_stinespring(family)
            out = apply_to_channel(theta, e)
            for s in range(3):
                rho = random_density_matrix(2, seed=20 * seed + s)
                want = apply_channel(out, rho).matrix
                got = stinespring_apply_to_state(v_s, family, e, rho)
                assert np.max(np.abs(got - want)) <= 1e-10

    def test_stinespring_relaxed_normalization(self):
        for seed in range(10):
            theta = random_superchannel(QUBIT, memory_dim=2, seed=500 + seed)
            family = n_operators(theta)
            v_s = super_stinespring(family)
            prod = LabeledOperator(
                v_s.matrix.conj().T @ v_s.matrix,
                v_s.in_systems,
                v_s.in_systems,
            )
            traced = partial_trace(prod, ["B1"]).matrix
            assert np.linalg.norm(traced - np.eye(4)) <= 1e-10

    def test_stinespring_trivial_first_step_is_isometry(self):
        dims = SuperchannelDims(1, 2, 1, 2)
        theta = random_superchannel(dims, memory_dim=1, seed=43)
        family = n_operators(theta)
        v_s = super_stinespring(family)
        assert np.allclose(
            v_s.matrix.conj().T @ v_s.matrix, np.eye(2), atol=1e-10
        )

    def test_identity_superchannel_env_dim_one(self):
        family = n_operators(identity_superchannel(2))
        v_s = super_stinespring(family)
        assert v_s.out_systems.dim_of("E") == 1

    def test_liouville_path(self):
        for seed in range(15):
            theta = random_superchannel(QUBIT, memory_dim=2, seed=seed)
            e = random_input_channel(5000 + seed)
            family = n_operators(theta)
            k = super_liouville(family)
            via_link = apply_to_channel(theta, e).op.matrix
            via_liou = liouville_apply(k, family, e).op.matrix
            assert np.max(np.abs(via_link - via_liou)) <= 1e-10

    def test_identity_superchannel_liouville_is_permutation(self):
        family = n_operators(identity_superchannel(2))
        k = super_liouville(family).matrix
        # permutation matrix: entries in {0, 1}, orthogonal
        assert np.allclose(np.abs(k) * (1 - np.abs(k)), 0.0, atol=1e-12)
        assert np.allclose(k @ k.conj().T, np.eye(16), atol=1e-12)

    def test_liouville_linearity(self):
        theta = random_superchannel(QUBIT, memory_dim=2, seed=61)
        family = n_operators(theta)
        k = super_liouville(family).matrix
        e1 = random_input_channel(62).op.matrix
        e2 = random_input_channel(63).op.matrix
        a, b = 0.3, 0.7
        lhs = k @ (a * e1.T.reshape(-1) + b * e2.T.reshape(-1))
        rhs = a * (k @ e1.T.reshape(-1)) + b * (k @ e2.T.reshape(-1))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestFThetaAndMemory:
    def test_identity_superchannel_f_theta(self):
        f = f_theta_channel(identity_superchannel(2))
        g = np.eye(2).reshape(4, 1)
        assert np.allclose(f.choi.op.matrix, g @ g.conj().T, atol=1e-12)
        assert f.rank == 1

    def test_unitary_pre_f_theta(self):
        rng = np.random.default_rng(71)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(g)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        pre = choi_from_kraus(
            KrausRep((LabeledOperator(u, [("A1", 2)], [("E1", 1), ("B1", 2)]),))
        )
        post_chan = random_channel(
            2, 2, 2, seed=73,
            in_systems=[("E1", 1), ("A2", 2)],
            out_systems=[("B2", 2)],
        )
        theta = superchannel_from_parts(pre, choi_from_kraus(post_chan))
        f = f_theta_channel(theta)
        uvec = vec(LabeledOperator(u, [("A1", 2)], [("B1", 2)])).matrix
        assert np.allclose(f.choi.op.matrix, uvec @ uvec.conj().T, atol=1e-10)
        assert f.rank == 1

    def test_f_theta_always_cptp(self):
        for seed in range(25):
            theta = random_superchannel(QUBIT, memory_dim=2, seed=seed)
            f = f_theta_channel(theta)
            report = validate_channel(f.choi, tol=1e-9)
            assert report.valid

    def test_f_theta_routes_agree(self):
        # partial trace of the Choi vs assembly from the operator slices
        d = QUBIT
        for seed in range(10):
            theta = random_superchannel(QUBIT, memory_dim=2, seed=seed)
            f = f_theta_channel(theta)
            acc = np.zeros((d.a1 * d.b1,) * 2, dtype=np.complex128)
            for k in n_operators(theta).k_ops:
                kt = k.matrix.reshape(d.a1, d.b2, d.b1, d.a2)
                acc += np.einsum("apbq,cpdq->abcd", kt, kt.conj()).reshape(
                    d.a1 * d.b1, d.a1 * d.b1
                )
            via_family = acc / d.a2
            assert np.max(np.abs(f.choi.op.matrix - via_family)) <= 1e-10
            assert f.rank == numeric_rank(via_family) == memory_cost(theta)
            # the Kraus operators rebuild F: e1 is the full rank here
            rebuilt = choi_from_kraus(KrausRep(f.kraus)).op.matrix
            assert np.max(np.abs(rebuilt - via_family)) <= 1e-10

    def test_f_theta_takes_the_marginal_once(self, monkeypatch):
        # F's Choi operator is the marginal the memory split decomposed
        theta = random_superchannel(SuperchannelDims(2, 3, 2, 2), 2, seed=6)
        original = superchannels.partial_trace
        calls = []

        def counted(op, labels):
            calls.append(tuple(labels))
            return original(op, labels)

        monkeypatch.setattr(superchannels, "partial_trace", counted)
        f = f_theta_channel(theta)  # validates theta first
        assert calls.count(("A2", "B2")) == 1
        direct = original(theta.op, ["A2", "B2"]) * (1.0 / 3)
        assert f.choi.op.matrix.tobytes() == direct.matrix.tobytes()

    def test_f_theta_rejects_an_invalid_superchannel(self):
        # F of the identity is PSD and Hermitian, but Θ fails TP
        bogus = LabeledOperator(np.eye(16), QUBIT.systems(), QUBIT.systems())
        with pytest.raises(NotAValidSuperchannel):
            f_theta_channel(SuperchannelChoi(bogus))

    def test_memory_cost_identity(self):
        assert memory_cost(identity_superchannel(2)) == 1

    def test_memory_cost_copy_pre(self):
        assert memory_cost(copy_pre_superchannel()) == 2

    def test_memory_cost_memoryless(self):
        theta = random_superchannel(QUBIT, memory_dim=1, seed=83, pre_rank=1)
        assert memory_cost(theta) == 1

    def test_memory_cost_bounds(self):
        for seed in range(10):
            theta = random_superchannel(QUBIT, memory_dim=2, seed=seed)
            d = memory_cost(theta)
            assert 1 <= d <= 4  # d_A1 * d_B1


class TestRealize:
    def test_identity_superchannel(self):
        r = realize(identity_superchannel(2))
        assert r.e1_dim == 1
        assert r.reconstruction_residual <= 1e-12
        # V = |0>_E1 ⊗ identity, W the relabeled identity
        assert np.allclose(np.abs(r.v.matrix), np.eye(2), atol=1e-9)
        assert r.w.matrix.shape == (2, 2)
        assert np.allclose(r.w.matrix @ r.w.matrix.conj().T, np.eye(2), atol=1e-9)

    def test_copy_pre(self):
        r = realize(copy_pre_superchannel())
        assert r.e1_dim == 2
        assert r.reconstruction_residual <= 1e-8

    def test_isometries(self):
        for seed in range(10):
            theta = random_superchannel(QUBIT, memory_dim=2, seed=seed)
            r = realize(theta)
            v = r.v.matrix
            w = r.w.matrix
            assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 1e-8
            assert (
                np.linalg.norm(w.conj().T @ w - np.eye(r.e1_dim * 2)) <= 1e-8
            )

    def test_round_trip_memory_bound(self):
        for seed in range(10):
            theta = random_superchannel(QUBIT, memory_dim=2, seed=300 + seed)
            r = realize(theta)
            assert r.reconstruction_residual <= 1e-8
            assert r.e1_dim <= 2 * 2  # never above d_A1 * d_B1
            assert r.e1_dim == memory_cost(theta)

    def test_invalid_superchannel_rejected(self):
        systems = QUBIT.systems()
        bogus = LabeledOperator(np.eye(16), systems, systems)
        with pytest.raises(NotAValidSuperchannel):
            realize(SuperchannelChoi(bogus))

    def test_isometry_deviations_reported(self):
        tol = 1e-8
        for dims in ((2, 2, 2, 2), (1, 2, 3, 2), (3, 2, 1, 3)):
            d = SuperchannelDims(*dims)
            r = realize(random_superchannel(d, memory_dim=2, seed=7), tol=tol)
            v, w = r.v.matrix, r.w.matrix
            v_dev = np.linalg.norm(v.conj().T @ v - np.eye(d.a1))
            w_dev = np.linalg.norm(w.conj().T @ w - np.eye(r.e1_dim * d.a2))
            assert r.v_deviation == v_dev
            assert r.w_deviation == w_dev
            assert r.v_deviation <= tol * max(1.0, d.a1)
            assert r.w_deviation <= tol * max(1.0, r.e1_dim * d.a2)


class TestSpectrumReuse:
    """No eigvalsh or eigh of a superchannel Choi operator outside the PPT
    cuts: validation decides CP on the split's kept block."""

    def test_call_counts_on_public_chain(self, monkeypatch):
        theta = random_superchannel(SuperchannelDims(3, 3, 3, 3), 2, seed=4)
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                if np.shape(a) == (81, 81):
                    calls[_name] += 1
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert validate_superchannel(theta).valid
        memory_cost(theta)
        realize(theta)
        superchannel_breaking_report(theta)
        # eigvalsh: only the two PPT cuts
        assert calls == {"eigh": 0, "eigvalsh": 2}

    def test_report_independent_of_call_order(self):
        theta = random_superchannel(SuperchannelDims(2, 3, 2, 2), 2, seed=5)
        n_operators(theta)
        after = validate_superchannel(theta)
        fresh = SuperchannelChoi(
            LabeledOperator(np.array(theta.op.matrix), theta.op.in_systems,
                            theta.op.out_systems)
        )
        assert after == validate_superchannel(fresh)
        family = n_operators(fresh)
        again = n_operators(theta)
        for a, b in zip(family.n_ops, again.n_ops, strict=True):
            assert a.matrix.tobytes() == b.matrix.tobytes()


def fresh_copy(theta: SuperchannelChoi) -> SuperchannelChoi:
    """The same operator with nothing memoised on it."""
    op = theta.op
    return SuperchannelChoi(
        LabeledOperator(np.array(op.matrix), op.in_systems, op.out_systems)
    )


class TestMemo:
    """One validation and one memory split per operator and tol."""

    def test_chain_validates_and_splits_once(self, monkeypatch):
        theta = random_superchannel(SuperchannelDims(3, 3, 3, 3), 2, seed=8)
        counts = {"validate_channel": 0, "_split_curve": 0}
        for name in counts:
            original = getattr(superchannels, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(superchannels, name, counted)
        assert validate_superchannel(theta).valid
        cost = memory_cost(theta)
        assert realize(theta).e1_dim == cost
        superchannel_breaking_report(theta)
        assert f_theta_channel(theta).rank == cost
        assert counts == {"validate_channel": 1, "_split_curve": 1}

    def test_reports_per_tol_match_a_fresh_operator(self):
        theta = random_superchannel(SuperchannelDims(2, 3, 2, 2), 2, seed=9)
        loose = validate_superchannel(theta, tol=1e-9)
        # at 1e-17 the roundoff of the assembly fails TP or NS
        strict = validate_superchannel(theta, tol=1e-17)
        assert loose.valid and not strict.valid
        assert validate_superchannel(theta, tol=1e-9) is loose
        assert validate_superchannel(theta, tol=1e-17) is strict
        for tol, report in ((1e-9, loose), (1e-17, strict)):
            assert report == validate_superchannel(fresh_copy(theta), tol=tol)

    def test_rejection_is_kept_too(self):
        bogus = SuperchannelChoi(
            LabeledOperator(np.eye(16), QUBIT.systems(), QUBIT.systems())
        )
        for _ in range(2):
            with pytest.raises(NotAValidSuperchannel):
                memory_cost(bogus)
        assert not validate_superchannel(bogus).valid

    def test_realize_after_memory_cost_is_bit_identical(self):
        for dims, seed in (((2, 2, 2, 2), 10), ((3, 2, 2, 3), 11),
                           ((1, 3, 3, 2), 12)):
            theta = random_superchannel(SuperchannelDims(*dims), 2, seed=seed)
            memory_cost(theta)
            got = realize(theta, tol=1e-6)
            want = realize(fresh_copy(theta), tol=1e-6)
            assert (got.e1_dim, got.e2_dim) == (want.e1_dim, want.e2_dim)
            assert got.v.matrix.tobytes() == want.v.matrix.tobytes()
            assert got.w.matrix.tobytes() == want.w.matrix.tobytes()
            assert got.reconstruction_residual == want.reconstruction_residual

    def test_split_keeps_one_copy_of_fs_eigenvectors(self):
        theta = random_superchannel(SuperchannelDims(3, 3, 3, 3), 2, seed=8)
        f, _, u, *_ = superchannels._require_valid(theta, 1e-9)
        # F is decomposed on its array: u is the split's only eigenvector copy
        assert u.shape == (9, 9)


def oracle_residual(theta: SuperchannelChoi, r) -> float:
    """``realize``'s residual through the channel layer: Θ rebuilt as the
    link product over E1 of the Choi operators of V and of W's E2 blocks."""
    d = theta.dims
    post = choi_from_kraus(KrausRep(tuple(
        LabeledOperator(block, r.w.in_systems, [("B2", d.b2)])
        for block in r.w.matrix.reshape(r.e2_dim, d.b2, -1)
    )))
    rebuilt = link_product(choi_from_kraus(KrausRep((r.v,))).op, post.op,
                           out_order=superchannels.CHOI_ORDER)
    diff = rebuilt.matrix - theta.op.matrix
    theta_sq = np.vdot(theta.op.matrix, theta.op.matrix).real
    return float(np.sqrt(np.vdot(diff, diff).real / theta_sq))


class TestReconstructionOracle:
    """realize's self-check on the comb's family N_k = (W_k ⊗ 1)(1 ⊗ V)
    measures what the link product of the two Choi operators measures."""

    @staticmethod
    def assert_matches(dims, memory, seed):
        theta = random_superchannel(SuperchannelDims(*dims), memory, seed=seed)
        r = realize(theta)
        assert abs(r.reconstruction_residual - oracle_residual(theta, r)) <= 1e-15

    def test_small_grid(self):
        grid = itertools.product(itertools.product((1, 2, 3), repeat=4), (1, 2, 3))
        for seed, (dims, memory) in enumerate(grid):
            self.assert_matches(dims, memory, seed)

    @pytest.mark.parametrize("dims", [(4, 4, 4, 4), (5, 5, 5, 5), (2, 6, 6, 2)])
    @pytest.mark.parametrize("memory", [2, 3])
    def test_large_shapes(self, dims, memory):
        self.assert_matches(dims, memory, seed=memory)


def dims_2112(diagonal, extra=None) -> LabeledOperator:
    """An operator on (A1, A2, B1, B2) = (2, 1, 1, 2): F is its trace over
    B2, so the kept block is one A1 block and the cut weight the other."""
    m = np.diag(np.asarray(diagonal, dtype=complex))
    if extra is not None:
        m = m + extra
    systems = SuperchannelDims(2, 1, 1, 2).systems()
    return LabeledOperator(m, systems, systems)


class TestKeptBlockWitness:
    """CP decided on the split's kept block, else on Θ's full spectrum."""

    def assert_full_spectrum(self, op, tol=1e-9):
        report = validate_superchannel(op, tol=tol)
        channel = validate_channel(ChoiRep(op, ("A1", "A2"), ("B1", "B2")), tol)
        assert {k: getattr(report, k) for k in vars(channel)} == vars(channel)
        assert report.min_eigenvalue_bound == 0.0
        d = SuperchannelDims(*op.in_systems.dims)
        assert report.kept_rank == d.a1 * d.b1
        return report

    def test_valid_superchannel_is_decided_on_its_kept_block(self):
        theta = random_superchannel(SuperchannelDims(3, 3, 3, 3), 2, seed=4)
        report = validate_superchannel(theta)
        m = theta.op.matrix
        lam = np.linalg.eigvalsh((m + m.conj().T) / 2).min()
        assert report.valid and report.kept_rank < 9
        assert 0.0 < report.min_eigenvalue_bound <= 1e-10
        assert report.min_eigenvalue <= 0.0
        assert abs(report.min_eigenvalue - lam) <= report.min_eigenvalue_bound

    def test_kept_block_passes_and_fails(self):
        # nothing outside the kept block: δ = 0 and λ is the witness itself
        passing = validate_superchannel(dims_2112([1.0, -0.97e-9, 0.0, 0.0]))
        assert passing.cp and passing.min_eigenvalue == -0.97e-9
        failing = validate_superchannel(dims_2112([1.0, -1.5e-9, 0.0, 0.0]))
        assert not failing.cp and failing.min_eigenvalue == -1.5e-9
        for report in (passing, failing):
            assert (report.kept_rank, report.min_eigenvalue_bound) == (1, 0.0)

    def test_f_not_psd_falls_back(self):
        op = dims_2112([1.0, 0.0, -1e-3, 0.0])
        report = self.assert_full_spectrum(op)
        assert not report.cp and report.min_eigenvalue == -1e-3

    def test_non_hermitian_theta_falls_back(self):
        extra = np.zeros((4, 4))
        extra[0, 2] = 1e-3  # F = [[1, 1e-3], [0, 1]]
        op = dims_2112([1.0, 0.0, 1.0, 0.0], extra)
        report = self.assert_full_spectrum(op)
        assert not report.hermitian and not report.cp

    @pytest.mark.parametrize("diagonal", [
        [0.5, 0.5, 0.5, 0.5],  # F is the identity
        [1.0, 0.0, 3e-10, 3e-10],  # δ = 4.2e-10: within tol, not tol / 10
    ])
    def test_no_gap_falls_back(self, diagonal):
        # no rank below 2 leaves a weight within tol / 10 outside its block
        op = dims_2112(diagonal)
        assert superchannels._split_curve(SuperchannelChoi(op), 1e-9)[5] is None
        assert self.assert_full_spectrum(op).cp

    def test_grey_zone_falls_back(self):
        # λ = -0.97e-9 >= -tol, but min(λ, 0) - δ = -1.04e-9 < -tol
        op = dims_2112([1.0, -0.97e-9, 5e-11, 5e-11])
        e, delta, lam = superchannels._split_curve(SuperchannelChoi(op), 1e-9)[5]
        assert (e, lam) == (1, -0.97e-9) and 0.03e-9 < delta <= 1e-10
        report = self.assert_full_spectrum(op)
        assert report.cp and report.min_eigenvalue == pytest.approx(-0.97e-9)

    @pytest.mark.parametrize("make", [
        lambda: dims_2112([1.0, -0.97e-9, 0.0, 0.0]),  # kept block
        lambda: dims_2112([1.0, -0.97e-9, 5e-11, 5e-11]),  # grey zone
        lambda: random_superchannel(SuperchannelDims(2, 3, 2, 2), 2, seed=5).op,
    ])
    def test_plain_operator_and_superchannel_choi_agree(self, make):
        assert validate_superchannel(make()) == validate_superchannel(
            SuperchannelChoi(make()))


def non_finite(case) -> LabeledOperator:
    """eye(16)/4 at (2,2,2,2) with a NaN at [0,0] or [0,1], or inf·eye(16)
    (whose zeros become NaN)."""
    if case == "inf":
        m = np.inf * np.eye(16)
    else:
        m = np.eye(16) / 4
        m[(0, 0) if case == "nan00" else (0, 1)] = np.nan
    return LabeledOperator(m, QUBIT.systems(), QUBIT.systems())


NON_FINITE = ["nan00", "nan01", pytest.param(
    "inf", marks=pytest.mark.filterwarnings(
        "ignore:invalid value encountered in multiply:RuntimeWarning"))]


class TestNonFinite:
    """A non-finite operator fails every check, with NaN witnesses, instead
    of raising from inside the spectral code."""

    @pytest.mark.parametrize("case", NON_FINITE)
    def test_validate_superchannel_reports(self, case):
        theta = SuperchannelChoi(non_finite(case))
        report = validate_superchannel(theta)
        assert not any((report.hermitian, report.cp, report.tp, report.ns,
                        report.valid))
        assert np.isnan([report.hermitian_deviation, report.min_eigenvalue,
                         report.min_eigenvalue_bound, report.tp_deviation,
                         report.ns_deviation]).all()
        assert report.kept_rank == 0
        assert theta._memo[1e-9][1] is None  # no split kept

    @pytest.mark.parametrize("case", NON_FINITE)
    def test_validate_channel_reports(self, case):
        report = validate_channel(
            ChoiRep(non_finite(case), ("A1", "A2"), ("B1", "B2")))
        assert not any((report.hermitian, report.cp, report.tp, report.valid))
        assert np.isnan([report.hermitian_deviation, report.min_eigenvalue,
                         report.tp_deviation]).all()

    @pytest.mark.parametrize("reader", [
        memory_cost, realize, f_theta_channel, superchannel_breaking_report,
    ], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("case", NON_FINITE)
    def test_readers_raise_not_a_valid_superchannel(self, case, reader):
        with pytest.raises(NotAValidSuperchannel, match="min eig nan"):
            reader(SuperchannelChoi(non_finite(case)))


class TestRandomSuperchannel:
    def test_deterministic(self):
        a = random_superchannel(QUBIT, memory_dim=2, seed=91)
        b = random_superchannel(QUBIT, memory_dim=2, seed=91)
        assert np.array_equal(a.op.matrix, b.op.matrix)

    def test_memoryless_ns_residual(self):
        theta = random_superchannel(QUBIT, memory_dim=1, seed=93)
        report = validate_superchannel(theta)
        assert report.ns_deviation <= 1e-12

    def test_qutrit_systems(self):
        dims = SuperchannelDims(3, 2, 2, 3)
        theta = random_superchannel(dims, memory_dim=2, seed=95)
        assert validate_superchannel(theta).valid
