"""Tests for PPT verdicts, EB classification, and measure-and-prepare forms."""

import itertools
import struct
import sys
import threading
import time

import numpy as np
import pytest

from superchan import breaking
from superchan.breaking import (
    TYPE_II_CUT,
    Bipartition,
    MeasurePrepare,
    SeparableDecomposition,
    apply_measure_prepare,
    choi_from_measure_prepare,
    depolarizing_channel,
    eb_channel_report,
    example_type1_not_type2,
    measure_prepare_from_decomposition,
    ppt_battery,
    ppt_test,
    random_eb_measure_prepare,
    random_eb_superchannel,
    superchannel_breaking_report,
)
from superchan.channels import (
    ChoiRep,
    KrausRep,
    apply_channel,
    choi_from_kraus,
    random_density_matrix,
)
from superchan.errors import (
    DimensionMismatch,
    IncompleteDecomposition,
    NotAValidSuperchannel,
    NotHermitian,
)
from superchan.operators import (
    LabeledOperator,
    gamma,
    identity_operator,
    kron,
    permute_systems,
)
from superchan.superchannels import (
    CHOI_ORDER,
    SuperchannelChoi,
    SuperchannelDims,
    f_theta_channel,
    random_superchannel,
    validate_superchannel,
)

from test_memory_properties import NEAR_CUTOFF_EPS, near_cutoff

QUBIT = SuperchannelDims(2, 2, 2, 2)


def gamma_state(d=2, labels=("A", "B")):
    g = gamma(d, labels).matrix
    systems = list(zip(labels, (d, d)))
    return LabeledOperator(g @ g.conj().T, systems, systems)


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPptTest:
    def test_gamma_is_npt(self):
        v = ppt_test(gamma_state(), Bipartition(("A",), ("B",)))
        assert not v.is_ppt
        assert v.min_eigenvalue == pytest.approx(-1.0)

    def test_product_is_ppt(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        op = kron(
            LabeledOperator(x @ x.conj().T, [("A", 2)], [("A", 2)]),
            LabeledOperator(y @ y.conj().T, [("B", 3)], [("B", 3)]),
        )
        assert ppt_test(op, Bipartition(("A",), ("B",))).is_ppt

    def test_mixture_of_products_is_ppt(self):
        sigma = random_density_matrix(2, seed=3)
        tau = random_density_matrix(2, seed=4)
        mk = lambda s, lbl: LabeledOperator(s, [(lbl, 2)], [(lbl, 2)])
        op = kron(mk(sigma, "A"), mk(tau, "B")) + kron(mk(tau, "A"), mk(sigma, "B"))
        assert ppt_test(op, Bipartition(("A",), ("B",))).is_ppt

    def test_ppt_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(5)
        base = gamma_state()
        v0 = ppt_test(base, Bipartition(("A",), ("B",)))
        for _ in range(10):
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = LabeledOperator(
                u @ base.matrix @ u.conj().T, base.in_systems, base.out_systems
            )
            v = ppt_test(rotated, Bipartition(("A",), ("B",)))
            assert abs(v.min_eigenvalue - v0.min_eigenvalue) <= 1e-10

    def test_not_hermitian_rejected(self):
        op = LabeledOperator(
            np.array([[0, 1], [0, 0]]), [("A", 2)], [("A", 2)]
        )
        with pytest.raises(NotHermitian):
            ppt_test(op, Bipartition(("A",), ()))

    def test_bad_bipartition(self):
        with pytest.raises(DimensionMismatch):
            ppt_test(gamma_state(), Bipartition(("A",), ("A", "B")))


class TestEbChannelReport:
    def test_identity_channel_not_eb(self):
        k = KrausRep((LabeledOperator(np.eye(2), [("A", 2)], [("B", 2)]),))
        report = eb_channel_report(choi_from_kraus(k))
        assert report.is_eb is False
        assert report.exactness == "ppt-decisive"

    def test_trace_and_prepare_is_eb(self):
        sigma = random_density_matrix(2, seed=7)
        systems = [("A", 2), ("B", 2)]
        j = ChoiRep(
            LabeledOperator(np.kron(np.eye(2), sigma), systems, systems),
            ("A",),
            ("B",),
        )
        report = eb_channel_report(j)
        assert report.is_eb is True

    def test_depolarizing_verdicts(self):
        assert eb_channel_report(depolarizing_channel(0.7)).is_eb is True
        assert eb_channel_report(depolarizing_channel(0.6)).is_eb is False

    def test_depolarizing_threshold_by_bisection(self):
        # oracle: min eigenvalue of the partially transposed Choi is 3p/2 - 1
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-8:
            mid = (lo + hi) / 2
            if eb_channel_report(depolarizing_channel(mid)).is_eb:
                hi = mid
            else:
                lo = mid
        assert abs((lo + hi) / 2 - 2.0 / 3.0) <= 1e-6

    def test_verdict_flips_once_on_sweep(self):
        verdicts = [
            eb_channel_report(depolarizing_channel(p)).is_eb
            for p in np.linspace(0.0, 1.0, 41)
        ]
        flips = sum(
            1 for a, b in zip(verdicts, verdicts[1:]) if a != b
        )
        assert flips == 1


class TestDepolarizing:
    def test_p_zero_is_gamma(self):
        j = depolarizing_channel(0.0)
        assert np.allclose(j.op.matrix, gamma_state().matrix)

    def test_p_one_is_completely_depolarizing(self):
        j = depolarizing_channel(1.0)
        rho = random_density_matrix(2, seed=9)
        out = apply_channel(j, rho)
        assert np.allclose(out.matrix, np.eye(2) / 2)

    def test_threshold_eigenvalue(self):
        j = depolarizing_channel(2.0 / 3.0)
        v = ppt_test(j.op, Bipartition(("A",), ("B",)))
        assert abs(v.min_eigenvalue) <= 1e-12

    def test_tp_for_all_p(self):
        from superchan.channels import validate_channel

        for p in (0.0, 0.3, 0.9, 1.0):
            assert validate_channel(depolarizing_channel(p)).valid

    def test_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            depolarizing_channel(1.5)


class TestMeasurePrepare:
    def test_empty_povm_refused(self):
        with pytest.raises(DimensionMismatch, match="at least one effect"):
            MeasurePrepare((), ())

    def test_single_term_trace_and_prepare(self):
        sigma = random_density_matrix(2, seed=11)
        dec = SeparableDecomposition(
            terms=(
                (
                    identity_operator([("A", 2)]),
                    LabeledOperator(sigma, [("B", 2)], [("B", 2)]),
                ),
            )
        )
        mp = measure_prepare_from_decomposition(dec)
        assert len(mp.povm) == 1
        assert np.allclose(mp.povm[0].matrix, np.eye(2))
        assert np.allclose(mp.states[0].matrix, sigma)

    def test_dephasing_basis_decomposition(self):
        terms = tuple(
            (
                LabeledOperator(np.outer(e, e), [("A", 2)], [("A", 2)]),
                LabeledOperator(np.outer(e, e), [("B", 2)], [("B", 2)]),
            )
            for e in np.eye(2)
        )
        mp = measure_prepare_from_decomposition(SeparableDecomposition(terms))
        total = sum(m.matrix for m in mp.povm)
        assert np.allclose(total, np.eye(2))

    def test_action_matches_choi(self):
        sigma = random_density_matrix(2, seed=13)
        tau = random_density_matrix(2, seed=14)
        e0 = np.diag([1.0, 0.0])
        e1 = np.diag([0.0, 1.0])
        terms = tuple(
            (
                LabeledOperator(e, [("A", 2)], [("A", 2)]),
                LabeledOperator(s, [("B", 2)], [("B", 2)]),
            )
            for e, s in ((e0, sigma), (e1, tau))
        )
        mp = measure_prepare_from_decomposition(SeparableDecomposition(terms))
        j = choi_from_measure_prepare(mp)
        choi = ChoiRep(
            permute_systems(j, ("A", "B"), ("A", "B")), ("A",), ("B",)
        )
        for seed in range(5):
            rho = random_density_matrix(2, seed=seed)
            via_choi = apply_channel(choi, rho).matrix
            via_mp = apply_measure_prepare(mp, rho)
            assert np.max(np.abs(via_choi - via_mp)) <= 1e-10

    def test_incomplete_rejected(self):
        terms = (
            (
                LabeledOperator(np.diag([0.5, 0.0]), [("A", 2)], [("A", 2)]),
                LabeledOperator(np.eye(2) / 2, [("B", 2)], [("B", 2)]),
            ),
        )
        with pytest.raises(IncompleteDecomposition):
            measure_prepare_from_decomposition(SeparableDecomposition(terms))

    def test_round_trip_fixed_point(self):
        # feeding a valid measure-prepare's own terms back through the
        # normalizer reproduces it (states already have unit trace)
        from superchan.breaking import random_eb_measure_prepare

        mp = random_eb_measure_prepare(QUBIT, n_terms=3, seed=15)
        dec = SeparableDecomposition(terms=tuple(zip(mp.povm, mp.states)))
        again = measure_prepare_from_decomposition(dec)
        assert len(again.povm) == len(mp.povm)
        for a, b in zip(again.povm, mp.povm):
            assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-12
        for a, b in zip(again.states, mp.states):
            assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-12


class TestTypeOneExample:
    def test_valid_superchannel(self):
        theta = example_type1_not_type2()
        report = validate_superchannel(theta)
        assert report.valid
        assert report.tp_deviation <= 1e-12

    def test_type1_ppt_type2_npt(self):
        theta = example_type1_not_type2()
        report = superchannel_breaking_report(theta)
        assert report.type_I.is_ppt
        assert report.type_I.min_eigenvalue >= -1e-12
        assert not report.type_II.is_ppt
        assert report.type_II.min_eigenvalue == pytest.approx(-1.0)
        assert report.common_cause_breaking is True

    def test_custom_omega(self):
        omega = random_density_matrix(2, seed=17)
        theta = example_type1_not_type2(omega=omega)
        assert validate_superchannel(theta).valid
        report = superchannel_breaking_report(theta)
        # the relay Gamma block scales by omega's largest eigenvalue
        top = max(np.linalg.eigvalsh(omega))
        assert report.type_II.min_eigenvalue == pytest.approx(-top)

    def test_bad_omega_rejected(self):
        from superchan.errors import NotAValidSuperchannel

        with pytest.raises(NotAValidSuperchannel):
            example_type1_not_type2(omega=np.eye(2))

    @pytest.mark.parametrize("omega", [
        np.array([[0.5, 0.1], [-0.1, 0.5]]),  # trace 1, Hermitian part PSD
        np.diag([1.5, -0.5]),  # trace 1, Hermitian, not PSD
    ])
    def test_non_state_omega_rejected(self, omega):
        with pytest.raises(NotAValidSuperchannel, match="not a quantum state"):
            example_type1_not_type2(omega=omega)


class TestBreakingReport:
    def test_identity_superchannel_neither_type(self):
        from superchan.channels import KrausRep, choi_from_kraus

        pre = choi_from_kraus(
            KrausRep(
                (LabeledOperator(np.eye(2), [("A1", 2)], [("E1", 1), ("B1", 2)]),)
            )
        )
        post = choi_from_kraus(
            KrausRep(
                (LabeledOperator(np.eye(2), [("E1", 1), ("A2", 2)], [("B2", 2)]),)
            )
        )
        from superchan.superchannels import superchannel_from_parts

        theta = superchannel_from_parts(pre, post)
        report = superchannel_breaking_report(theta)
        assert not report.type_I.is_ppt
        assert not report.type_II.is_ppt
        assert report.common_cause_breaking is False

    def test_measure_prepare_output_is_type2(self):
        for seed in range(5):
            theta = random_eb_superchannel(QUBIT, n_terms=2, seed=seed)
            report = superchannel_breaking_report(theta)
            assert report.type_II.is_ppt

    def test_invalid_superchannel_names_the_failing_condition(self):
        theta = example_type1_not_type2()
        # doubling keeps CP and NS and misses TP by ||1_{A1 A2}|| = 2
        doubled = SuperchannelChoi(theta.op * 2.0)
        with pytest.raises(NotAValidSuperchannel,
                           match=r"CP=True .*TP=False \(dev 2\.00e\+00\)"):
            superchannel_breaking_report(doubled)

    def test_exactness_annotation(self):
        theta = example_type1_not_type2()
        report = superchannel_breaking_report(theta)
        # qubit cuts are 4x4: the surrogate is only a necessary condition
        assert report.type_I_exactness == "ppt-necessary-only"
        assert report.type_II_exactness == "ppt-necessary-only"


class TestPptSystemLists:
    """Both PPT entry points need one system list on the two sides."""

    def test_reordered_outputs_rejected(self):
        op = LabeledOperator(np.eye(6), [("A", 2), ("B", 3)],
                             [("B", 3), ("A", 2)])
        with pytest.raises(DimensionMismatch, match="one system list"):
            ppt_test(op, Bipartition(("A",), ("B",)))
        with pytest.raises(DimensionMismatch, match="one system list"):
            ppt_battery(op)

    def test_non_square_matrix_rejected(self):
        op = LabeledOperator(np.ones((2, 3)), [("A", 3), ("B", 1)],
                             [("A", 2), ("B", 1)])
        with pytest.raises(DimensionMismatch, match="one system list"):
            ppt_test(op, Bipartition(("A",), ("B",)))
        with pytest.raises(DimensionMismatch, match="one system list"):
            ppt_battery(op)


class TestPptBattery:
    def test_fully_product_terms_pass_all_cuts(self):
        from superchan.breaking import ppt_battery

        # every term is a product over all four systems
        rng = np.random.default_rng(25)
        terms = []
        for j in range(2):
            e = np.diag(np.eye(2)[j])
            factors = [LabeledOperator(e, [("A1", 2)], [("A1", 2)])]
            for lbl in ("A2", "B1", "B2"):
                s = random_density_matrix(2, seed=rng)
                factors.append(LabeledOperator(s, [(lbl, 2)], [(lbl, 2)]))
            term = factors[0]
            for f in factors[1:]:
                term = kron(term, f)
            terms.append(term)
        op = terms[0] + terms[1]
        verdicts = ppt_battery(op)
        assert len(verdicts) == 7
        assert all(v.is_ppt for v in verdicts)

    def test_identity_superchannel_fails_some_cut(self):
        from superchan.breaking import ppt_battery
        from superchan.channels import KrausRep, choi_from_kraus
        from superchan.superchannels import superchannel_from_parts

        pre = choi_from_kraus(
            KrausRep(
                (LabeledOperator(np.eye(2), [("A1", 2)], [("E1", 1), ("B1", 2)]),)
            )
        )
        post = choi_from_kraus(
            KrausRep(
                (LabeledOperator(np.eye(2), [("E1", 1), ("A2", 2)], [("B2", 2)]),)
            )
        )
        theta = superchannel_from_parts(pre, post)
        verdicts = ppt_battery(theta.op)
        assert any(not v.is_ppt for v in verdicts)

    def test_verdicts_are_ppt_test_per_cut(self):
        from superchan.breaking import ppt_battery

        eb = random_eb_superchannel(SuperchannelDims(2, 1, 3, 2), 2, seed=31)
        verdicts = ppt_battery(eb.op)
        assert len(verdicts) == 7
        for v in verdicts:
            assert v == ppt_test(eb.op, v.bipartition)

    def test_not_hermitian_rejected_before_any_cut(self, monkeypatch):
        from superchan import breaking
        from superchan.breaking import ppt_battery

        skew = np.zeros((8, 8), dtype=complex)
        skew[0, 7] = 1.0
        systems = [("A", 2), ("B", 2), ("C", 2)]
        op = LabeledOperator(np.eye(8) + skew, systems, systems)
        cuts = []
        original = breaking._pt_min_eigenvalues

        def counted(op, sides):
            cuts.extend(sides)
            return original(op, sides)

        monkeypatch.setattr(breaking, "_pt_min_eigenvalues", counted)
        with pytest.raises(NotHermitian, match="PPT test needs a Hermitian"):
            ppt_battery(op)
        assert cuts == []
        assert len(ppt_battery(LabeledOperator(np.eye(8), systems, systems))) == 3
        assert len(cuts) == 3


class TestRandomEbSuperchannel:
    def test_samples_valid_and_separable(self):
        for seed in range(10):
            theta = random_eb_superchannel(QUBIT, n_terms=3, seed=seed)
            assert validate_superchannel(theta).valid
            assert superchannel_breaking_report(theta).type_II.is_ppt

    def test_deterministic(self):
        a = random_eb_superchannel(QUBIT, n_terms=2, seed=19)
        b = random_eb_superchannel(QUBIT, n_terms=2, seed=19)
        assert np.array_equal(a.op.matrix, b.op.matrix)

    def test_single_term(self):
        theta = random_eb_superchannel(QUBIT, n_terms=1, seed=21)
        assert validate_superchannel(theta).valid

    def test_bad_terms(self):
        with pytest.raises(DimensionMismatch):
            random_eb_superchannel(QUBIT, n_terms=0, seed=0)

    def test_every_sample_of_the_grid_is_valid_and_its_certificate(self):
        # the generator validates nothing: a measure-and-prepare superchannel
        # is valid by construction, and this grid checks that it is in floats
        for dims in itertools.product((1, 2, 3), repeat=4):
            d = SuperchannelDims(*dims)
            for n_terms, seed in itertools.product((1, 2, 3), range(4)):
                theta = random_eb_superchannel(d, n_terms, seed)
                assert validate_superchannel(theta).valid, (dims, n_terms, seed)
                mp = random_eb_measure_prepare(d, n_terms, seed)
                op = permute_systems(choi_from_measure_prepare(mp),
                                     CHOI_ORDER, CHOI_ORDER)
                assert op.in_systems == theta.op.in_systems
                assert op.matrix.tobytes() == theta.op.matrix.tobytes()


def assert_same_verdict(a, b):
    """Every field equal, the minimum eigenvalue bit for bit."""
    assert (a.bipartition, a.is_ppt, a.tol) == (b.bipartition, b.is_ppt, b.tol)
    assert struct.pack("<d", a.min_eigenvalue) == struct.pack(
        "<d", b.min_eigenvalue), (a, b)


def witnesses(theta):
    """Every PPT verdict of the three entry points on a superchannel: its
    battery, its report, and the EB reports of Θ and F as channels."""
    battery = ppt_battery(theta.op)
    report = superchannel_breaking_report(theta)
    ebs = [eb_channel_report(ChoiRep(theta.op, ("A1", "A2"), ("B1", "B2"))),
           eb_channel_report(f_theta_channel(theta).choi)]
    return battery, report, ebs


def assert_same_witnesses(x, y):
    (battery_x, report_x, ebs_x), (battery_y, report_y, ebs_y) = x, y
    assert len(battery_x) == len(battery_y)
    for a, b in zip(battery_x, battery_y):
        assert_same_verdict(a, b)
    assert_same_verdict(report_x.type_I, report_y.type_I)
    assert_same_verdict(report_x.type_II, report_y.type_II)
    assert (report_x.type_I_exactness, report_x.type_II_exactness,
            report_x.common_cause_breaking) == (
        report_y.type_I_exactness, report_y.type_II_exactness,
        report_y.common_cause_breaking)
    for a, b in zip(ebs_x, ebs_y, strict=True):
        assert_same_verdict(a.ppt, b.ppt)
        assert (a.is_eb, a.exactness) == (b.is_eb, b.exactness)


@pytest.fixture
def lapack():
    handle = breaking._lapack()
    if handle is None:
        pytest.skip("no LAPACK handle: the kernel is the fallback")
    return handle


def use_lapack(monkeypatch, zheevd, blas_threads=1):
    """The kernel on ``zheevd``, seeing ``blas_threads`` BLAS threads."""
    monkeypatch.setattr(breaking, "_lapack",
                        lambda: breaking._Lapack(zheevd, lambda: blas_threads))


def use_fallback(monkeypatch):
    monkeypatch.setattr(breaking, "_lapack", lambda: None)


def kernel_and_fallback(monkeypatch, lapack, theta, blas_threads=1):
    """The witnesses of ``theta`` through LAPACK, pairing cuts from 64 rows
    on whatever the BLAS thread count (with ``blas_threads`` 1), and through
    the fallback."""
    use_lapack(monkeypatch, lapack.zheevd, blas_threads)
    kernel = witnesses(theta)
    use_fallback(monkeypatch)
    fallback = witnesses(theta)
    monkeypatch.undo()
    return kernel, fallback


class TestPptKernel:
    """The LAPACK kernel against the fallback, np.linalg.eigvalsh of
    partial_transpose, which the handle set to None forces."""

    @pytest.mark.parametrize("dims", itertools.product((1, 2, 3), repeat=4))
    def test_grid_bit_identical(self, monkeypatch, lapack, dims):
        for memory in (1, 2):
            theta = random_superchannel(SuperchannelDims(*dims), memory,
                                        seed=memory)
            assert_same_witnesses(*kernel_and_fallback(monkeypatch, lapack,
                                                       theta))

    @pytest.mark.parametrize("dims", [(4, 4, 4, 4), (5, 5, 5, 5), (2, 6, 6, 2)])
    def test_large_bit_identical(self, monkeypatch, lapack, dims):
        theta = random_superchannel(SuperchannelDims(*dims), 2, seed=1)
        assert theta.op.shape[0] >= breaking._PAIR_ROWS
        assert_same_witnesses(*kernel_and_fallback(monkeypatch, lapack, theta))

    def test_unpaired_large_bit_identical(self, monkeypatch, lapack):
        # a multithreaded BLAS runs the cuts one at a time
        theta = random_superchannel(SuperchannelDims(4, 4, 4, 4), 2, seed=2)
        assert_same_witnesses(*kernel_and_fallback(monkeypatch, lapack, theta,
                                                   blas_threads=2))

    @pytest.mark.parametrize("eps", NEAR_CUTOFF_EPS)
    def test_near_cutoff_bit_identical(self, monkeypatch, lapack, eps):
        assert_same_witnesses(*kernel_and_fallback(monkeypatch, lapack,
                                                   near_cutoff(eps)))

    def test_scipy_openblas_build_binds(self):
        # numpy built on scipy-openblas exports both routines: a binding
        # that stops resolving would turn every kernel test into a skip
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        if lapack["name"] != "scipy-openblas":
            pytest.skip(f"numpy's LAPACK is {lapack['name']}")
        assert breaking._lapack() is not None

    def test_spectrum_is_eigvalsh(self, lapack):
        rng = np.random.default_rng(11)
        for n in (36, 81, 144):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = g + g.conj().T
            buf, w = np.asfortranarray(h), np.empty(n)
            assert breaking._eigvalsh_in_place(lapack.zheevd, buf, w) == 0
            assert w.tobytes() == np.linalg.eigvalsh(h).tobytes()

    def test_buffers_checked_before_lapack(self, lapack):
        h = np.eye(4, dtype=complex)
        for buf, w in ((h, np.empty(4)),  # C-ordered
                       (np.asfortranarray(h.real), np.empty(4)),
                       (np.asfortranarray(h), np.empty(3))):
            with pytest.raises(ValueError, match="zheevd needs"):
                breaking._eigvalsh_in_place(lapack.zheevd, buf, w)

    def test_concurrent_callers(self, monkeypatch, lapack):
        # more callers than cores, each pairing its cuts on a helper thread
        theta = random_superchannel(SuperchannelDims(3, 3, 3, 3), 2, seed=6)
        use_fallback(monkeypatch)
        expected = witnesses(theta)
        use_lapack(monkeypatch, lapack.zheevd)
        results = [None] * 6

        def caller(i):
            # a copy each, so that only the kernel is shared
            own = SuperchannelChoi(LabeledOperator(
                np.array(theta.op.matrix), theta.op.in_systems,
                theta.op.out_systems))
            results[i] = [witnesses(own) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller, args=(i,))
                       for i in range(len(results))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for runs in results:
            assert runs is not None
            for got in runs:
                assert_same_witnesses(got, expected)

    def fail_in(self, monkeypatch, lapack, failing):
        """Pair the cuts, with ``failing(on_helper)`` deciding each call."""
        def zheevd(*args):
            outcome = failing(threading.current_thread()
                              is not threading.main_thread())
            return lapack.zheevd(*args) if outcome is None else outcome

        use_lapack(monkeypatch, zheevd)

    def test_helper_info_reaches_caller(self, monkeypatch, lapack):
        self.fail_in(monkeypatch, lapack, lambda helper: 7 if helper else None)
        theta = random_superchannel(SuperchannelDims(3, 3, 3, 3), 2, seed=4)
        threads = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="info 7"):
            superchannel_breaking_report(theta)
        assert threading.active_count() == threads

    def test_helper_exception_reaches_caller(self, monkeypatch, lapack):
        def failing(helper):
            if helper:
                raise RuntimeError("helper failed")

        self.fail_in(monkeypatch, lapack, failing)
        theta = random_superchannel(SuperchannelDims(3, 3, 3, 3), 2, seed=4)
        with pytest.raises(RuntimeError, match="helper failed"):
            ppt_battery(theta.op)

    def test_helper_joined_when_caller_fails(self, monkeypatch, lapack):
        finished = threading.Event()

        def failing(helper):
            if not helper:
                raise RuntimeError("caller failed")
            time.sleep(0.05)
            finished.set()

        self.fail_in(monkeypatch, lapack, failing)
        theta = random_superchannel(SuperchannelDims(3, 3, 3, 3), 2, seed=4)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="caller failed"):
            superchannel_breaking_report(theta)
        assert finished.is_set()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("dims", [(2, 1, 3, 2), (4, 1, 4, 4)])
    def test_operator_memory_never_written(self, monkeypatch, dims):
        # a dim-1 leg lets a transposed reshape be a view of Θ; the kernel
        # hands LAPACK only buffers of its own
        lapack = breaking._lapack()
        if lapack is not None:
            use_lapack(monkeypatch, lapack.zheevd)
        theta = random_eb_superchannel(SuperchannelDims(*dims), 2, seed=31)
        op = theta.op
        before = op.matrix.tobytes()
        calls = (
            lambda: ppt_battery(op),
            lambda: ppt_test(op, Bipartition(*TYPE_II_CUT)),
            lambda: eb_channel_report(ChoiRep(op, ("A1", "A2"), ("B1", "B2"))),
            lambda: superchannel_breaking_report(theta),
        )
        for call in calls:
            call()
            assert op.matrix.tobytes() == before


class TestTrivialSideCuts:
    """Every state on C^1 ⊗ C^d is a product: such a cut is decisive."""

    def test_state_preparation_is_eb(self):
        rho = random_density_matrix(7, seed=1)
        prep = ChoiRep(LabeledOperator(rho, [("B", 7)], [("B", 7)]), (), ("B",))
        report = eb_channel_report(prep)
        assert report.ppt.is_ppt
        assert (report.is_eb, report.exactness) == (True, "ppt-decisive")

    def test_trace_channel_is_eb(self):
        trace = ChoiRep(LabeledOperator(np.eye(7), [("A", 7)], [("A", 7)]),
                        ("A",), ())
        report = eb_channel_report(trace)
        assert (report.is_eb, report.exactness) == (True, "ppt-decisive")

    def test_type_ii_cut_with_trivial_inputs(self):
        theta = random_superchannel(SuperchannelDims(1, 1, 3, 3), 2, seed=1)
        report = superchannel_breaking_report(theta)
        # A1 A2 | B1 B2 is 1 x 9; A1 B2 | B1 A2 is 3 x 3
        assert report.type_II_exactness == "ppt-decisive"
        assert report.type_I_exactness == "ppt-necessary-only"
