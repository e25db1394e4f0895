"""Tests for labeled operators and the reindexing/spectral primitives."""

import numpy as np
import pytest

from superchan.channels import ChoiRep, choi_from_kraus, random_channel, validate_channel
from superchan.errors import (
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    UnknownLabel,
)
from superchan.operators import (
    LabeledOperator,
    SystemList,
    _hermitian_spectrum,
    gamma,
    identity_operator,
    kron,
    mat,
    numeric_rank,
    partial_mat,
    partial_trace,
    partial_transpose,
    partial_vec,
    permute_systems,
    psd_decompose,
    vec,
)


def random_op(rng, in_dims, out_dims, in_labels=None, out_labels=None):
    in_labels = in_labels or [f"i{k}" for k in range(len(in_dims))]
    out_labels = out_labels or [f"o{k}" for k in range(len(out_dims))]
    shape = (int(np.prod(out_dims)), int(np.prod(in_dims)))
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return LabeledOperator(
        m, list(zip(in_labels, in_dims)), list(zip(out_labels, out_dims))
    )


def random_square(rng, labels_dims):
    d = int(np.prod([d for _, d in labels_dims]))
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return LabeledOperator(m, labels_dims, labels_dims)


# ----------------------------------------------------------------------
# independent index-loop oracles
# ----------------------------------------------------------------------

def composite_index(multi, dims):
    idx = 0
    for i, d in zip(multi, dims):
        idx = idx * d + i
    return idx


def oracle_partial_trace(op, labels):
    """Quadruple-loop partial trace, independent of the einsum path."""
    out_keep = [s for s in op.out_systems if s.label not in labels]
    in_keep = [s for s in op.in_systems if s.label not in labels]
    traced = [s for s in op.out_systems if s.label in labels]
    res = np.zeros(
        (int(np.prod([s.dim for s in out_keep] or [1])),
         int(np.prod([s.dim for s in in_keep] or [1]))),
        dtype=complex,
    )
    out_dims = op.out_systems.dims
    in_dims = op.in_systems.dims
    for rk in np.ndindex(*[s.dim for s in out_keep] or (1,)):
        for ck in np.ndindex(*[s.dim for s in in_keep] or (1,)):
            total = 0.0 + 0.0j
            for t in np.ndindex(*[s.dim for s in traced] or (1,)):
                row_multi, col_multi = [], []
                kk, tt = iter(rk), iter(t)
                for s in op.out_systems:
                    row_multi.append(next(tt) if s.label in labels else next(kk))
                kk, tt = iter(ck), iter(t)
                for s in op.in_systems:
                    col_multi.append(next(tt) if s.label in labels else next(kk))
                total += op.matrix[
                    composite_index(row_multi, out_dims),
                    composite_index(col_multi, in_dims),
                ]
            res[
                composite_index(rk, [s.dim for s in out_keep] or [1]),
                composite_index(ck, [s.dim for s in in_keep] or [1]),
            ] = total
    return res


def oracle_partial_transpose(op, labels):
    out_dims = op.out_systems.dims
    in_dims = op.in_systems.dims
    res = np.zeros_like(op.matrix)
    for row in np.ndindex(*out_dims):
        for col in np.ndindex(*in_dims):
            new_row, new_col = list(row), list(col)
            for lbl in labels:
                i = op.out_systems.index(lbl)
                j = op.in_systems.index(lbl)
                new_row[i], new_col[j] = col[j], row[i]
            res[composite_index(new_row, out_dims),
                composite_index(new_col, in_dims)] = op.matrix[
                composite_index(row, out_dims), composite_index(col, in_dims)
            ]
    return res


def oracle_permute(op, new_in, new_out):
    out_dims = op.out_systems.dims
    in_dims = op.in_systems.dims
    new_out_sys = [op.out_systems[op.out_systems.index(l)] for l in new_out]
    new_in_sys = [op.in_systems[op.in_systems.index(l)] for l in new_in]
    res = np.zeros(
        (int(np.prod([s.dim for s in new_out_sys] or [1])),
         int(np.prod([s.dim for s in new_in_sys] or [1]))),
        dtype=complex,
    )
    for row in np.ndindex(*out_dims):
        for col in np.ndindex(*in_dims):
            new_row = [row[op.out_systems.index(l)] for l in new_out]
            new_col = [col[op.in_systems.index(l)] for l in new_in]
            res[
                composite_index(new_row, [s.dim for s in new_out_sys]),
                composite_index(new_col, [s.dim for s in new_in_sys]),
            ] = op.matrix[
                composite_index(row, out_dims), composite_index(col, in_dims)
            ]
    return res


# ----------------------------------------------------------------------
# system list and operator basics
# ----------------------------------------------------------------------

class TestSystemList:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(DimensionMismatch):
            SystemList([("A", 2), ("A", 3)])

    def test_bad_dim_rejected(self):
        with pytest.raises(DimensionMismatch):
            SystemList([("A", 0)])

    def test_total_dim(self):
        assert SystemList([("A", 2), ("B", 3)]).total_dim == 6
        assert SystemList([]).total_dim == 1

    def test_dim_one_system_is_legal(self):
        sl = SystemList([("B1", 1)])
        assert sl.total_dim == 1

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            LabeledOperator(np.eye(3), [("A", 2)], [("A", 2)])


class TestGammaVecMat:
    def test_gamma_d1(self):
        assert gamma(1).matrix.flatten().tolist() == [1]

    def test_gamma_d2(self):
        assert gamma(2).matrix.flatten().tolist() == [1, 0, 0, 1]

    def test_gamma_norm(self):
        for d in (1, 2, 3, 5):
            v = gamma(d).matrix
            assert np.vdot(v, v).real == pytest.approx(d)

    def test_vec_identity_is_gamma(self):
        m = LabeledOperator(np.eye(2), [("A", 2)], [("B", 2)])
        assert np.array_equal(vec(m).matrix, gamma(2).matrix)

    def test_vec_explicit(self):
        m = LabeledOperator([[1, 2], [3, 4]], [("A", 2)], [("B", 2)])
        assert vec(m).matrix.flatten().tolist() == [1, 3, 2, 4]

    def test_transpose_rule(self):
        # (X ⊗ Y) vec(M) = vec(Y M X^T) for random triples
        rng = np.random.default_rng(7)
        for _ in range(100):
            dA, dB = rng.integers(2, 4), rng.integers(2, 4)
            X = rng.standard_normal((dA, dA)) + 1j * rng.standard_normal((dA, dA))
            Y = rng.standard_normal((dB, dB)) + 1j * rng.standard_normal((dB, dB))
            M = rng.standard_normal((dB, dA)) + 1j * rng.standard_normal((dB, dA))
            lhs = np.kron(X, Y) @ vec(
                LabeledOperator(M, [("A", dA)], [("B", dB)])
            ).matrix
            rhs = vec(
                LabeledOperator(Y @ M @ X.T, [("A", dA)], [("B", dB)])
            ).matrix
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(
                1.0, np.linalg.norm(rhs)
            )

    def test_mat_trivial_cases(self):
        v = LabeledOperator([1, 0, 0, 1], [], [("A", 2), ("B", 2)])
        assert np.array_equal(mat(v, ["A"]).matrix, np.eye(2))
        v2 = LabeledOperator([1, 3, 2, 4], [], [("A", 2), ("B", 2)])
        assert np.array_equal(mat(v2, ["A"]).matrix, [[1, 2], [3, 4]])

    def test_snake_equation_bit_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            dims_in = tuple(rng.integers(1, 4, size=rng.integers(1, 3)))
            dims_out = tuple(rng.integers(1, 4, size=rng.integers(1, 3)))
            m = random_op(rng, dims_in, dims_out)
            back = mat(vec(m), m.in_systems.labels)
            assert np.array_equal(back.matrix, m.matrix)
            assert back.in_systems == m.in_systems
            assert back.out_systems == m.out_systems

    def test_vec_equals_iterated_partial_vec(self):
        rng = np.random.default_rng(3)
        m = random_op(rng, (2, 3), (2,), ["A1", "A2"], ["B"])
        step = partial_vec(partial_vec(m, "A2"), "A1")
        assert np.array_equal(step.matrix, vec(m).matrix)
        assert step.out_systems == vec(m).out_systems

    def test_vec_rejects_shared_labels(self):
        m = LabeledOperator(np.eye(2), [("A", 2)], [("A", 2)])
        with pytest.raises(DimensionMismatch):
            vec(m)


class TestPartialVecMat:
    def test_single_input_partial_vec_is_vec(self):
        rng = np.random.default_rng(5)
        m = random_op(rng, (3,), (2,), ["A"], ["B"])
        assert np.array_equal(partial_vec(m, "A").matrix, vec(m).matrix)

    def test_factorized_case(self):
        rng = np.random.default_rng(6)
        x = random_op(rng, (2,), (2,), ["A1"], ["B"])
        y = random_op(rng, (3,), (2,), ["A2"], ["C"])
        lhs = partial_vec(kron(x, y), "A1")
        # vec(X) sits on (A1, B); Y's legs ride along untouched
        vx = vec(x)
        expected = np.einsum(
            "a,bc->abc",
            vx.matrix.flatten(),
            y.matrix.reshape(2, 3),
        ).reshape(-1, 3)
        got = permute_systems(lhs, ["A2"], ["A1", "B", "C"])
        assert np.allclose(got.matrix, expected)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = random_op(rng, (2, 3), (2, 2), ["A1", "A2"], ["B1", "B2"])
            up = partial_vec(m, "A1")
            back = partial_mat(up, "A1")
            assert np.array_equal(back.matrix, m.matrix)
            down = partial_mat(m, "B1")
            restored = partial_vec(down, "B1")
            assert np.array_equal(restored.matrix, m.matrix)

    def test_round_trip_non_leading_leg_up_to_permutation(self):
        rng = np.random.default_rng(9)
        m = random_op(rng, (2, 3), (2,), ["A1", "A2"], ["B"])
        back = partial_mat(partial_vec(m, "A2"), "A2")
        aligned = permute_systems(back, ["A1", "A2"], ["B"])
        assert np.array_equal(aligned.matrix, m.matrix)

    def test_unknown_label(self):
        m = LabeledOperator(np.eye(2), [("A", 2)], [("B", 2)])
        with pytest.raises(UnknownLabel):
            partial_vec(m, "nope")
        with pytest.raises(UnknownLabel):
            partial_mat(m, "nope")


class TestPartialTrace:
    def test_gamma_marginal(self):
        g = gamma(3)
        rho = LabeledOperator(
            g.matrix @ g.matrix.conj().T,
            [("A", 3), ("B", 3)],
            [("A", 3), ("B", 3)],
        )
        assert np.allclose(partial_trace(rho, ["B"]).matrix, np.eye(3))

    def test_factorization(self):
        rng = np.random.default_rng(12)
        x = random_square(rng, [("A", 2)])
        y = random_square(rng, [("B", 3)])
        got = partial_trace(kron(x, y), ["A"])
        assert np.allclose(got.matrix, np.trace(x.matrix) * y.matrix)

    def test_full_trace(self):
        rng = np.random.default_rng(13)
        m = random_square(rng, [("A", 2), ("B", 2)])
        got = partial_trace(m, ["A", "B"])
        assert got.scalar() == pytest.approx(np.trace(m.matrix))

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(14)
        for labels in (["a"], ["b"], ["c"], ["a", "c"]):
            m = random_square(rng, [("a", 2), ("b", 3), ("c", 2)])
            got = partial_trace(m, labels)
            want = oracle_partial_trace(m, set(labels))
            assert np.max(np.abs(got.matrix - want)) <= 1e-12

    def test_linear(self):
        rng = np.random.default_rng(15)
        m = random_square(rng, [("a", 2), ("b", 2)])
        n = random_square(rng, [("a", 2), ("b", 2)])
        lhs = partial_trace(m + 2 * n, ["b"]).matrix
        rhs = partial_trace(m, ["b"]).matrix + 2 * partial_trace(n, ["b"]).matrix
        assert np.allclose(lhs, rhs)

    def test_non_square_label_rejected(self):
        m = LabeledOperator(np.zeros((2, 3)), [("A", 3)], [("A", 2)])
        with pytest.raises(DimensionMismatch):
            partial_trace(m, ["A"])


class TestPartialTranspose:
    def test_full_transpose(self):
        rng = np.random.default_rng(16)
        m = random_square(rng, [("a", 2), ("b", 3)])
        got = partial_transpose(m, ["a", "b"])
        assert np.allclose(got.matrix, m.matrix.T)

    def test_gamma_partial_transpose_is_swap(self):
        g = gamma(2)
        rho = LabeledOperator(
            g.matrix @ g.matrix.conj().T,
            [("A", 2), ("B", 2)],
            [("A", 2), ("B", 2)],
        )
        pt = partial_transpose(rho, ["B"])
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        )
        assert np.allclose(pt.matrix, swap)
        assert min(np.linalg.eigvalsh(pt.matrix)) == pytest.approx(-1.0)

    def test_involution(self):
        rng = np.random.default_rng(17)
        m = random_square(rng, [("a", 2), ("b", 2), ("c", 3)])
        assert np.array_equal(
            partial_transpose(partial_transpose(m, ["b"]), ["b"]).matrix,
            m.matrix,
        )

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(18)
        m = random_square(rng, [("a", 2), ("b", 2), ("c", 3)])
        for labels in (["a"], ["c"], ["a", "b"]):
            got = partial_transpose(m, labels)
            want = oracle_partial_transpose(m, labels)
            assert np.max(np.abs(got.matrix - want)) <= 1e-12

    def test_preserves_hermiticity_and_trace(self):
        rng = np.random.default_rng(19)
        m = random_square(rng, [("a", 2), ("b", 3)])
        h = LabeledOperator(
            m.matrix + m.matrix.conj().T, m.in_systems, m.out_systems
        )
        pt = partial_transpose(h, ["b"])
        assert np.allclose(pt.matrix, pt.matrix.conj().T)
        assert np.trace(pt.matrix) == pytest.approx(np.trace(h.matrix))

    def test_commutes_across_disjoint_labels(self):
        rng = np.random.default_rng(20)
        m = random_square(rng, [("a", 2), ("b", 2), ("c", 2)])
        one = partial_transpose(partial_transpose(m, ["a"]), ["c"])
        other = partial_transpose(partial_transpose(m, ["c"]), ["a"])
        assert np.array_equal(one.matrix, other.matrix)


class TestPermuteSystems:
    def test_identity_permutation(self):
        rng = np.random.default_rng(21)
        m = random_square(rng, [("a", 2), ("b", 3)])
        got = permute_systems(m, ["a", "b"], ["a", "b"])
        assert np.array_equal(got.matrix, m.matrix)

    def test_swap_on_product(self):
        rng = np.random.default_rng(22)
        x = random_square(rng, [("a", 2)])
        y = random_square(rng, [("b", 3)])
        got = permute_systems(kron(x, y), ["b", "a"], ["b", "a"])
        assert np.allclose(got.matrix, kron(y, x).matrix)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(23)
        m = random_square(rng, [("a", 2), ("b", 2), ("c", 2)])
        h = LabeledOperator(
            m.matrix + m.matrix.conj().T, m.in_systems, m.out_systems
        )
        p = permute_systems(h, ["c", "a", "b"], ["c", "a", "b"])
        assert np.allclose(
            np.linalg.eigvalsh(p.matrix),
            np.linalg.eigvalsh(h.matrix),
            atol=1e-12,
        )

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(24)
        m = random_square(rng, [("a", 2), ("b", 3), ("c", 2)])
        got = permute_systems(m, ["b", "c", "a"], ["c", "a", "b"])
        want = oracle_permute(m, ["b", "c", "a"], ["c", "a", "b"])
        assert np.max(np.abs(got.matrix - want)) <= 1e-12

    def test_not_a_permutation(self):
        m = identity_operator([("a", 2), ("b", 2)])
        with pytest.raises(DimensionMismatch):
            permute_systems(m, ["a", "a"], ["a", "b"])


class TestSpectral:
    def test_identity(self):
        dec = psd_decompose(identity_operator([("A", 2)]))
        assert np.allclose(dec.eigenvalues, [1, 1])

    def test_gamma_projector(self):
        g = gamma(2)
        rho = LabeledOperator(
            g.matrix @ g.matrix.conj().T,
            [("A", 2), ("B", 2)],
            [("A", 2), ("B", 2)],
        )
        dec = psd_decompose(rho)
        assert dec.eigenvalues[0] == pytest.approx(2.0)
        assert np.allclose(dec.eigenvalues[1:], 0.0)
        assert np.allclose(
            np.abs(dec.eigenvectors[:, 0]), np.abs(g.matrix.flatten()) / np.sqrt(2)
        )

    def test_random_psd_reconstruction(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = g @ g.conj().T
            dec = psd_decompose(m, tol=1e-9)
            recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
            assert np.linalg.norm(recon - m) <= 1e-10 * np.linalg.norm(m)

    def test_phase_convention_deterministic(self):
        rng = np.random.default_rng(26)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        d1 = psd_decompose(m)
        d2 = psd_decompose(m * np.exp(0j))
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
        for k in range(4):
            col = d1.eigenvectors[:, k]
            lead = col[np.flatnonzero(np.abs(col) > 1e-9)[0]]
            assert lead.imag == pytest.approx(0.0, abs=1e-12)
            assert lead.real > 0

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            psd_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            psd_decompose(np.diag([1.0, -0.5]))
        dec = psd_decompose(np.diag([1.0, -0.5]), require_psd=False)
        assert dec.eigenvalues[-1] == pytest.approx(-0.5)

    def test_small_negative_clipped(self):
        dec = psd_decompose(np.diag([1.0, -1e-12]), tol=1e-9)
        assert dec.eigenvalues[-1] == 0.0


class TestSpectrumMemo:
    """The memoised Hermitian spectrum never changes what callers see."""

    @staticmethod
    def channel_matrix(seed):
        c = choi_from_kraus(random_channel(2, 3, 2, seed))
        return np.array(c.op.matrix), c.op.in_systems

    def test_input_mutation_does_not_leak(self):
        m, systems = self.channel_matrix(40)
        saved = m.copy()
        op = LabeledOperator(m, systems, systems)
        m[0, 0] = -5.0
        m[1, 2] += 3j
        assert np.array_equal(op.matrix, saved)
        report = validate_channel(ChoiRep(op, ("A",), ("B",)))
        fresh = LabeledOperator(saved, systems, systems)
        assert report == validate_channel(ChoiRep(fresh, ("A",), ("B",)))
        assert report.valid

    def test_memoised_arrays_read_only(self):
        m, systems = self.channel_matrix(41)
        op = LabeledOperator(m, systems, systems)
        vals = _hermitian_spectrum(op, vectors=False)
        eig_vals, eig_vecs = _hermitian_spectrum(op, vectors=True)
        for arr in (vals, eig_vals, eig_vecs):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert _hermitian_spectrum(op, vectors=False) is vals
        assert _hermitian_spectrum(op, vectors=True)[1] is eig_vecs

    def test_labeled_and_plain_inputs_agree_bytewise(self):
        rng = np.random.default_rng(42)
        for d in (1, 3, 6):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            op = LabeledOperator(g @ g.conj().T, [("A", d)], [("A", d)])
            plain = psd_decompose(op.matrix)
            for dec in (psd_decompose(op), psd_decompose(op)):
                assert dec.eigenvalues.tobytes() == plain.eigenvalues.tobytes()
                assert dec.eigenvectors.tobytes() == plain.eigenvectors.tobytes()

    def test_tol_checks_run_on_every_call(self):
        op = LabeledOperator(np.diag([1.0, -1e-6]), [("A", 2)], [("A", 2)])
        dec = psd_decompose(op, tol=1e-9, require_psd=False)
        assert dec.eigenvalues[-1] == -1e-6
        with pytest.raises(NotPSD):
            psd_decompose(op, tol=1e-9)
        assert psd_decompose(op, tol=1e-5).eigenvalues[-1] == 0.0
        assert dec.eigenvalues[-1] == -1e-6


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(4)) == 4

    def test_rank_one(self):
        v = np.array([[1.0], [2.0], [3.0]])
        assert numeric_rank(v @ v.T) == 1

    def test_zero(self):
        assert numeric_rank(np.zeros((3, 3))) == 0

    def test_random_rank_k(self):
        rng = np.random.default_rng(27)
        for k in (1, 2, 3):
            acc = np.zeros((6, 6), dtype=complex)
            for _ in range(k):
                u = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
                acc += u @ u.conj().T
            assert numeric_rank(acc) == k
