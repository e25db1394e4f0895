"""Tests for channel representations, conversions, and the link product."""

import itertools
import string

import numpy as np
import pytest

from superchan.breaking import depolarizing_channel
from superchan.channels import (
    ChoiRep,
    KrausRep,
    LiouvilleRep,
    StinespringRep,
    apply_channel,
    choi_from_kraus,
    choi_from_liouville,
    compose_channels,
    convert_channel,
    generalized_choi,
    kraus_from_choi,
    kraus_from_stinespring,
    link_product,
    liouville_from_choi,
    liouville_from_kraus,
    random_channel,
    random_density_matrix,
    stinespring_from_kraus,
    validate_channel,
)
from superchan.errors import DimensionMismatch, NotPSD, NotTP
from superchan.documents import load_document, save_document
from superchan.operators import (
    LabeledOperator,
    gamma,
    identity_operator,
    permute_systems,
)


def kraus_identity(d=2):
    return KrausRep((LabeledOperator(np.eye(d), [("A", d)], [("B", d)]),))


def gamma_choi(d=2):
    return choi_from_kraus(kraus_identity(d))


def unitary_channel(u):
    d = u.shape[0]
    return KrausRep((LabeledOperator(u, [("A", d)], [("B", d)]),))


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestChoiKraus:
    def test_identity_choi_is_gamma(self):
        j = gamma_choi(2)
        g = gamma(2).matrix
        assert np.allclose(j.op.matrix, g @ g.conj().T)

    def test_trace_and_prepare_zero(self):
        # measure-and-replace-with-|0>: K = {|0><0|, |0><1|}
        k = KrausRep(
            (
                LabeledOperator([[1, 0], [0, 0]], [("A", 2)], [("B", 2)]),
                LabeledOperator([[0, 1], [0, 0]], [("A", 2)], [("B", 2)]),
            )
        )
        j = choi_from_kraus(k)
        expected = np.kron(np.eye(2), np.diag([1.0, 0.0]))
        assert np.allclose(j.op.matrix, expected)

    def test_rank_bound(self):
        k = random_channel(2, 2, 3, seed=0)
        j = choi_from_kraus(k)
        assert np.linalg.matrix_rank(j.op.matrix) <= 3

    def test_kraus_from_gamma(self):
        k = kraus_from_choi(gamma_choi(2))
        assert len(k) == 1
        # single operator equals the identity up to a phase
        op = k.ops[0].matrix
        phase = op[0, 0] / abs(op[0, 0])
        assert np.allclose(op / phase, np.eye(2))

    def test_fully_depolarizing_has_four_kraus(self):
        systems = [("A", 2), ("B", 2)]
        j = ChoiRep(
            LabeledOperator(np.eye(4) / 2.0, systems, systems), ("A",), ("B",)
        )
        assert len(kraus_from_choi(j)) == 4

    def test_round_trip_action(self):
        rng = np.random.default_rng(42)
        k = random_channel(3, 2, 4, seed=rng)
        j = choi_from_kraus(k)
        k2 = kraus_from_choi(j)
        for s in range(20):
            rho = random_density_matrix(3, seed=1000 + s)
            out1 = apply_channel(k, rho).matrix
            out2 = apply_channel(k2, rho).matrix
            assert np.max(np.abs(out1 - out2)) <= 1e-10

    def test_not_psd_rejected(self):
        systems = [("A", 2), ("B", 2)]
        bad = ChoiRep(
            LabeledOperator(np.diag([1.0, -0.5, 1, 1]), systems, systems),
            ("A",),
            ("B",),
        )
        with pytest.raises(NotPSD):
            kraus_from_choi(bad)

    def test_minimal_count_matches_rank(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            r = int(rng.integers(1, 5))
            k = random_channel(2, 2, r, seed=seed)
            j = choi_from_kraus(k)
            got = kraus_from_choi(j)
            assert len(got) == np.linalg.matrix_rank(j.op.matrix, tol=1e-9)


class TestStinespring:
    def test_identity(self):
        s = stinespring_from_kraus(kraus_identity(2))
        assert s.env_dim == 1
        assert np.allclose(s.v.matrix, np.eye(2))

    def test_shape_for_two_kraus(self):
        k = random_channel(2, 2, 2, seed=3)
        s = stinespring_from_kraus(k)
        assert s.env_dim == 2
        assert s.v.matrix.shape == (4, 2)
        assert np.allclose(
            s.v.matrix.conj().T @ s.v.matrix, np.eye(2), atol=1e-12
        )

    def test_environment_trace_matches_kraus(self):
        k = random_channel(2, 3, 3, seed=4)
        s = stinespring_from_kraus(k)
        for seed in range(10):
            rho = random_density_matrix(2, seed=seed)
            out_v = apply_channel(s, rho).matrix
            out_k = apply_channel(k, rho).matrix
            assert np.max(np.abs(out_v - out_k)) <= 1e-10

    def test_not_tp_rejected(self):
        k = KrausRep(
            (LabeledOperator(0.5 * np.eye(2), [("A", 2)], [("B", 2)]),)
        )
        with pytest.raises(NotTP):
            stinespring_from_kraus(k)

    def test_environment_must_be_last(self):
        # kraus_from_stinespring reads E as the last output leg
        s = stinespring_from_kraus(random_channel(2, 3, 2, seed=1))
        assert s.v.out_systems.labels == ("B", "E")
        e_first = permute_systems(s.v, ("A",), ("E", "B"))
        with pytest.raises(DimensionMismatch, match="last output"):
            StinespringRep(e_first, "E")
        with pytest.raises(DimensionMismatch, match="last output"):
            StinespringRep(s.v, "F")

    def test_inverse_returns_env_dim_operators(self):
        s = stinespring_from_kraus(kraus_identity(2))
        back = kraus_from_stinespring(s)
        assert len(back) == 1
        assert np.allclose(back.ops[0].matrix, np.eye(2))

    def test_round_trip_choi_exact(self):
        k = random_channel(2, 2, 3, seed=7)
        s = stinespring_from_kraus(k)
        back = kraus_from_stinespring(s)
        j1 = choi_from_kraus(k).op.matrix
        j2 = choi_from_kraus(back).op.matrix
        assert np.max(np.abs(j1 - j2)) <= 1e-12

    def test_zero_blocks_kept(self):
        # a padded isometry still yields env_dim operators, some zero
        blocks = np.stack([np.eye(2), np.zeros((2, 2))])  # (e, b, a)
        s = StinespringRep(
            LabeledOperator(
                blocks.transpose(1, 0, 2).reshape(4, 2),
                [("A", 2)],
                [("B", 2), ("E", 2)],
            )
        )
        back = kraus_from_stinespring(s)
        assert len(back) == 2
        assert np.allclose(back.ops[0].matrix, np.eye(2))
        assert np.allclose(back.ops[1].matrix, 0.0)

    def test_full_conversion_cycle(self):
        # choi -> kraus -> stinespring -> kraus -> choi
        for seed in range(10):
            j = choi_from_kraus(random_channel(2, 3, 2, seed=seed))
            cycled = choi_from_kraus(
                kraus_from_stinespring(
                    stinespring_from_kraus(kraus_from_choi(j))
                )
            )
            rel = np.linalg.norm(
                cycled.op.matrix - j.op.matrix
            ) / np.linalg.norm(j.op.matrix)
            assert rel <= 1e-10


class TestLiouville:
    def test_identity_channel(self):
        l = liouville_from_kraus(kraus_identity(2))
        assert np.allclose(l.matrix, np.eye(4))

    def test_unitary_channel(self):
        rng = np.random.default_rng(9)
        u = random_unitary(rng, 3)
        l = liouville_from_kraus(unitary_channel(u))
        assert np.allclose(l.matrix, np.kron(u.conj(), u))

    def test_action_matches_kraus(self):
        k = random_channel(3, 2, 2, seed=11)
        l = liouville_from_kraus(k)
        for seed in range(20):
            rho = random_density_matrix(3, seed=seed)
            out_l = apply_channel(l, rho).matrix
            out_k = apply_channel(k, rho).matrix
            assert np.max(np.abs(out_l - out_k)) <= 1e-10

    def test_choi_liouville_round_trip(self):
        k = random_channel(2, 3, 2, seed=13)
        j = choi_from_kraus(k)
        l = liouville_from_choi(j)
        back = choi_from_liouville(l)
        assert np.max(np.abs(back.op.matrix - j.op.matrix)) <= 1e-12

    def test_keeps_a_private_read_only_copy(self, tmp_path):
        k = random_channel(2, 3, 2, seed=17)
        built = liouville_from_kraus(k)
        m = built.matrix.copy()
        l = LiouvilleRep(m, k.in_systems, k.out_systems)
        assert l.matrix is not m and np.array_equal(l.matrix, m)
        m[0, 0] += 1.0
        assert not np.array_equal(l.matrix, m)
        path = tmp_path / "l.json"
        save_document(l, path)
        for rep in (l, built, load_document(path)):
            assert not rep.matrix.flags.writeable
            with pytest.raises(ValueError):
                rep.matrix[0, 0] = 0.0

    def test_compares_by_identity_and_hashes(self):
        # equal content is not equality, as for ChoiRep and KrausRep
        k = random_channel(2, 2, 2, seed=19)
        a, b = liouville_from_kraus(k), liouville_from_kraus(k)
        assert (a == b) is False and (a == a) is True
        assert len({a, b, a}) == 2


KINDS = {
    "choi": ChoiRep,
    "kraus": KrausRep,
    "stinespring": StinespringRep,
    "liouville": LiouvilleRep,
}


class TestConvertChannel:
    @pytest.mark.parametrize("d_in,d_out",
                             list(itertools.product((1, 2, 3), repeat=2)))
    def test_every_pair(self, d_in, d_out):
        k = random_channel(d_in, d_out, d_in, seed=10 * d_in + d_out)
        choi = choi_from_kraus(k).op.matrix
        scale = np.linalg.norm(choi)
        for source in KINDS:
            rep = convert_channel(k, source)
            assert isinstance(rep, KINDS[source])
            for target, cls in KINDS.items():
                out = convert_channel(rep, target)
                assert isinstance(out, cls)
                if target == source:
                    assert out is rep
                back = convert_channel(out, "choi").op.matrix
                assert np.linalg.norm(back - choi) <= 1e-12 * scale

    def test_choi_liouville_round_trips_bit_exact(self):
        for seed in range(10):
            choi = choi_from_kraus(random_channel(2, 3, 3, seed=seed))
            liou = convert_channel(choi, "liouville")
            again = convert_channel(liou, "choi")
            assert np.array_equal(again.op.matrix, choi.op.matrix)
            assert np.array_equal(convert_channel(again, "liouville").matrix,
                                  liou.matrix)

    def test_tiny_eigenvalues_survive(self):
        # the reshuffle decomposes nothing, so no eigenvalue is cut
        dep = depolarizing_channel(1e-12)
        liou = convert_channel(dep, "liouville")
        assert np.array_equal(liou.matrix, liouville_from_choi(dep).matrix)
        back = convert_channel(liou, "choi").op.matrix
        assert np.array_equal(back, dep.op.matrix)
        assert np.isclose(np.linalg.eigvalsh(back)[0], 5e-13, rtol=1e-3)

    @pytest.mark.parametrize("rank_rtol", [float("nan"), float("inf"),
                                           -float("inf"), -1.0])
    def test_rank_rtol_refused(self, rank_rtol):
        choi = choi_from_kraus(random_channel(2, 3, 2, seed=0))
        with pytest.raises(ValueError, match="rank_rtol must be finite"):
            kraus_from_choi(choi, rank_rtol=rank_rtol)
        # on every edge, also those that cut no rank
        for target in KINDS:
            with pytest.raises(ValueError, match="rank_rtol must be finite"):
                convert_channel(choi, target, rank_rtol=rank_rtol)
        assert len(kraus_from_choi(choi, rank_rtol=0.0).ops) >= 2

    def test_rejects_non_channels_and_unknown_targets(self):
        with pytest.raises(DimensionMismatch, match="LabeledOperator"):
            convert_channel(identity_operator([("A", 2)]), "choi")
        with pytest.raises(DimensionMismatch, match="unknown target"):
            convert_channel(gamma_choi(), "superoperator")


class TestValidate:
    def test_gamma_valid(self):
        rep = validate_channel(gamma_choi(2))
        assert rep.cp and rep.tp and rep.valid

    def test_shifted_fails_cp(self):
        j = gamma_choi(2)
        shifted = ChoiRep(
            LabeledOperator(
                j.op.matrix - 0.1 * np.eye(4), j.op.in_systems, j.op.out_systems
            ),
            ("A",),
            ("B",),
        )
        rep = validate_channel(shifted)
        assert not rep.cp and rep.min_eigenvalue < 0

    def test_scaled_fails_tp_only(self):
        j = gamma_choi(2)
        doubled = ChoiRep(
            LabeledOperator(2 * j.op.matrix, j.op.in_systems, j.op.out_systems),
            ("A",),
            ("B",),
        )
        rep = validate_channel(doubled)
        assert rep.cp and not rep.tp

    def test_hermitian_deviation_is_the_witness(self):
        j = gamma_choi(2)
        assert validate_channel(j).hermitian_deviation == 0.0
        m = j.op.matrix.copy()
        m[0, 3] += 1e-3
        skew = ChoiRep(LabeledOperator(m, j.op.in_systems, j.op.out_systems),
                       ("A",), ("B",))
        rep = validate_channel(skew)
        assert rep.hermitian_deviation == np.linalg.norm(m - m.conj().T)
        assert not rep.hermitian and not rep.valid
        assert validate_channel(skew, tol=1e-3).hermitian

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-300])
    def test_negative_or_nan_tol_raises(self, tol):
        with pytest.raises(ValueError, match="tol"):
            validate_channel(gamma_choi(2), tol=tol)

    @pytest.mark.parametrize("tol", [0.0, float("inf")])
    def test_zero_and_infinite_tol_report(self, tol):
        assert validate_channel(gamma_choi(2), tol=tol).tol == tol


class TestApply:
    def test_identity_channel(self):
        rho = random_density_matrix(2, seed=17)
        out = apply_channel(gamma_choi(2), rho)
        assert np.allclose(out.matrix, rho)

    def test_trace_and_prepare(self):
        sigma = random_density_matrix(2, seed=19)
        systems = [("A", 2), ("B", 2)]
        j = ChoiRep(
            LabeledOperator(np.kron(np.eye(2), sigma), systems, systems),
            ("A",),
            ("B",),
        )
        for seed in range(5):
            rho = random_density_matrix(2, seed=seed)
            assert np.allclose(apply_channel(j, rho).matrix, sigma)

    def test_cross_representation_agreement(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            d_in, d_out = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            r = int(rng.integers(1, d_in * d_out + 1))
            if r * d_out < d_in:
                r = d_in
            k = random_channel(d_in, d_out, r, seed=rng)
            reps = [
                k,
                choi_from_kraus(k),
                stinespring_from_kraus(k),
                liouville_from_kraus(k),
            ]
            for s in range(5):
                rho = random_density_matrix(d_in, seed=100 * seed + s)
                outs = [apply_channel(rep, rho).matrix for rep in reps]
                for o in outs[1:]:
                    assert np.max(np.abs(o - outs[0])) <= 1e-10


def reference_link(m, n, out_order=None):
    """Entry sum result[(x,y),(x',y')] = sum_{c,c'} m[(x,c),(x',c')] n[(c,y),(c',y')],
    written as one einsum over per-leg letters."""
    shared = [l for l in m.in_systems.labels if l in n.in_systems.labels]
    letters = iter(string.ascii_letters)
    legs = {}

    def subs(op, owner):
        out = ""
        for side, systems in (("out", op.out_systems), ("in", op.in_systems)):
            for s in systems:
                key = (side, s.label) if s.label in shared else (owner, side, s.label)
                out += legs.setdefault(key, next(letters))
        return out

    m_subs, n_subs = subs(m, "m"), subs(n, "n")
    kept = {
        side: [
            (owner, s)
            for owner, op in (("m", m), ("n", n))
            for s in getattr(op, f"{side}_systems")
            if s.label not in shared
        ]
        for side in ("out", "in")
    }
    if out_order is not None:
        for side in ("out", "in"):
            by_label = {s.label: (owner, s) for owner, s in kept[side]}
            kept[side] = [by_label[l] for l in out_order]
    res_subs = "".join(
        legs[(owner, side, s.label)] for side in ("out", "in") for owner, s in kept[side]
    )
    res = np.einsum(f"{m_subs},{n_subs}->{res_subs}", m.as_tensor(), n.as_tensor())
    out_sys = [s for _, s in kept["out"]]
    in_sys = [s for _, s in kept["in"]]
    shape = (int(np.prod([s.dim for s in out_sys])), int(np.prod([s.dim for s in in_sys])))
    return LabeledOperator(res.reshape(shape), in_sys, out_sys)


def random_operator(rng, in_systems, out_systems):
    d_in = int(np.prod([d for _, d in in_systems]))
    d_out = int(np.prod([d for _, d in out_systems]))
    g = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
    return LabeledOperator(g, in_systems, out_systems)


def assert_close_rel(got, want, rtol=1e-13):
    assert got.in_systems == want.in_systems
    assert got.out_systems == want.out_systems
    scale = float(np.max(np.abs(want.matrix)))
    assert float(np.max(np.abs(got.matrix - want.matrix))) <= rtol * scale


class TestLinkProduct:
    def test_born_rule(self):
        rng = np.random.default_rng(23)
        rho = random_density_matrix(3, seed=rng)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = m @ m.conj().T
        state = LabeledOperator(rho, [("A", 3)], [("A", 3)])
        effect = LabeledOperator(m.T, [("A", 3)], [("A", 3)])
        p = link_product(state, effect).scalar()
        assert abs(p - np.trace(rho @ m)) <= 1e-12

    def test_identity_composition(self):
        j = gamma_choi(2)
        relabeled = j.relabeled({"A": "B", "B": "C"})
        linked = link_product(j.op, relabeled.op, out_order=("A", "C"))
        assert np.allclose(linked.matrix, gamma_choi(2).op.matrix)

    def test_trace_channel_identity(self):
        # linking a TP Choi with the trace channel's Choi (identity on B)
        k = random_channel(3, 2, 3, seed=29)
        j = choi_from_kraus(k)
        ident_b = identity_operator([("B", 2)])
        res = link_product(j.op, ident_b)
        assert np.allclose(res.matrix, np.eye(3), atol=1e-10)

    def test_commutative_up_to_relabeling(self):
        k1 = random_channel(2, 2, 2, seed=31)
        j1 = choi_from_kraus(k1)
        k2 = random_channel(2, 2, 2, seed=37)
        j2 = choi_from_kraus(k2).relabeled({"A": "B", "B": "C"})
        ab = link_product(j1.op, j2.op, out_order=("A", "C"))
        ba = link_product(j2.op, j1.op, out_order=("A", "C"))
        assert np.max(np.abs(ab.matrix - ba.matrix)) <= 1e-12

    def test_incompatible_shared_dims(self):
        a = identity_operator([("A", 2), ("C", 2)])
        b = identity_operator([("C", 3), ("B", 2)])
        with pytest.raises(DimensionMismatch):
            link_product(a, b)

    # square operands with mixed and unit dims; the shared labels C and D
    # sit in different positions on the two sides
    MIXED_M = [("X", 2), ("C", 3), ("U", 1), ("D", 2)]
    MIXED_N = [("D", 2), ("Y", 1), ("C", 3), ("Z", 3)]

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(("X", "U", "Y", "Z")))
    )
    def test_matches_reference_every_out_order(self, order):
        rng = np.random.default_rng(41)
        m = random_operator(rng, self.MIXED_M, self.MIXED_M)
        n = random_operator(rng, self.MIXED_N, self.MIXED_N)
        assert_close_rel(link_product(m, n), reference_link(m, n))
        assert_close_rel(
            link_product(m, n, out_order=order), reference_link(m, n, order)
        )

    def test_matches_reference_non_square_legs(self):
        # Kraus-like operands: inputs and outputs differ outside the shared C
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            m = random_operator(rng, [("A", 2), ("C", 3)], [("C", 3), ("B", 1), ("E", 4)])
            n = random_operator(rng, [("F", 1), ("C", 3), ("G", 2)], [("H", 3), ("C", 3)])
            got = link_product(m, n)
            assert got.in_systems.labels == ("A", "F", "G")
            assert got.out_systems.labels == ("B", "E", "H")
            assert_close_rel(got, reference_link(m, n))

    def test_no_shared_labels_is_kron(self):
        rng = np.random.default_rng(43)
        m = random_operator(rng, [("A", 2), ("U", 1)], [("B", 3)])
        n = random_operator(rng, [("C", 3)], [("D", 1), ("E", 2)])
        got = link_product(m, n)
        want = LabeledOperator(
            np.kron(m.matrix, n.matrix),
            list(m.in_systems) + list(n.in_systems),
            list(m.out_systems) + list(n.out_systems),
        )
        assert_close_rel(got, want)

    @pytest.mark.parametrize(
        "order",
        [("X", "U", "Y"), ("X", "U", "Y", "Z", "Z"), ("X", "X", "Y", "Z"),
         ("X", "U", "Y", "Q")],
    )
    def test_bad_out_order_raises_dimension_mismatch(self, order):
        m = identity_operator(self.MIXED_M)
        n = identity_operator(self.MIXED_N)
        with pytest.raises(DimensionMismatch):
            link_product(m, n, out_order=order)


class TestCompose:
    def test_identity_squared(self):
        j = gamma_choi(2)
        got = compose_channels(j, j)
        assert np.allclose(got.op.matrix, j.op.matrix)

    def test_unitary_inverse(self):
        rng = np.random.default_rng(41)
        u = random_unitary(rng, 2)
        ju = choi_from_kraus(unitary_channel(u))
        judag = choi_from_kraus(unitary_channel(u.conj().T))
        got = compose_channels(judag, ju)
        assert np.allclose(got.op.matrix, gamma_choi(2).op.matrix, atol=1e-12)

    def test_against_apply_chaining(self):
        for seed in range(20):
            k1 = random_channel(2, 3, 2, seed=seed)
            k2 = random_channel(3, 2, 3, seed=1000 + seed)
            composed = compose_channels(choi_from_kraus(k2), choi_from_kraus(k1))
            rho = random_density_matrix(2, seed=seed)
            direct = apply_channel(composed, rho).matrix
            chained = apply_channel(k2, apply_channel(k1, rho).matrix).matrix
            assert np.max(np.abs(direct - chained)) <= 1e-10


class TestGeneralizedChoi:
    def test_identity_variant(self):
        k = random_channel(2, 2, 2, seed=43)
        j = choi_from_kraus(k)
        got = generalized_choi(j, "identity", "identity")
        assert np.array_equal(got.matrix, j.op.matrix)

    def test_jamiolkowski_variant_on_gamma(self):
        j = gamma_choi(2)
        got = generalized_choi(j, "identity", "transpose")
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        )
        assert np.allclose(got.matrix, swap)

    def test_all_variants_invertible(self):
        k = random_channel(2, 3, 3, seed=47)
        j = choi_from_kraus(k)
        for f in ("identity", "transpose"):
            for g in ("identity", "transpose"):
                forward = generalized_choi(j, f, g)
                # undo: the two partial transposes are involutions
                back = forward
                if f == "transpose":
                    from superchan.operators import partial_transpose

                    back = partial_transpose(back, back.in_systems.labels)
                if g == "transpose":
                    from superchan.operators import partial_transpose

                    back = partial_transpose(back, ("A",))
                assert np.array_equal(back.matrix, j.op.matrix)


class TestRandomChannel:
    def test_rank_one_is_isometry(self):
        k = random_channel(2, 3, 1, seed=53)
        v = k.ops[0].matrix
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_validity_sweep(self):
        for seed in range(25):
            k = random_channel(2, 2, 2, seed=seed)
            rep = validate_channel(choi_from_kraus(k))
            assert rep.valid

    def test_deterministic(self):
        a = random_channel(3, 2, 4, seed=59)
        b = random_channel(3, 2, 4, seed=59)
        for x, y in zip(a.ops, b.ops):
            assert np.array_equal(x.matrix, y.matrix)

    def test_rank_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            random_channel(2, 2, 5, seed=0)
        with pytest.raises(DimensionMismatch):
            random_channel(2, 2, 0, seed=0)
        with pytest.raises(DimensionMismatch):
            random_channel(3, 1, 2, seed=0)

    def test_prepare_and_trace_identity(self):
        # TP channels satisfy Tr[(rho ⊗ 1) J] = 1 for every unit-trace state
        for seed in range(10):
            k = random_channel(2, 3, 2, seed=seed)
            j = choi_from_kraus(k).op.matrix
            rho = random_density_matrix(2, seed=seed)
            val = np.trace(np.kron(rho, np.eye(3)) @ j)
            assert abs(val - 1.0) <= 1e-10

    def test_dim_one_output_trace_channel(self):
        # discarding a qutrit: single output of dimension 1
        k = KrausRep(
            tuple(
                LabeledOperator(e.reshape(1, 3), [("A", 3)], [("B", 1)])
                for e in np.eye(3)
            )
        )
        assert validate_channel(choi_from_kraus(k)).valid
        rho = random_density_matrix(3, seed=2)
        assert apply_channel(k, rho).scalar() == pytest.approx(1.0)
