"""Round-trip and schema tests for the on-disk document format."""

import json

import numpy as np
import pytest

from superchan.breaking import MeasurePrepare, random_eb_superchannel
from superchan.channels import (
    ChoiRep,
    KrausRep,
    LiouvilleRep,
    StinespringRep,
    choi_from_kraus,
    liouville_from_kraus,
    random_channel,
    random_density_matrix,
    stinespring_from_kraus,
)
from superchan.documents import (
    document_bytes,
    document_from_object,
    load_document,
    save_document,
)
from superchan.errors import ParseError, UnknownKind
from superchan.operators import LabeledOperator, gamma, identity_operator
from superchan.superchannels import (
    SuperchannelDims,
    gour_from_choi,
    random_superchannel,
)

QUBIT = SuperchannelDims(2, 2, 2, 2)


def choi_gamma():
    k = KrausRep((LabeledOperator(np.eye(2), [("A", 2)], [("B", 2)]),))
    return choi_from_kraus(k)


class TestRoundTrip:
    def test_minimal_choi_document(self, tmp_path):
        path = tmp_path / "gamma.json"
        save_document(choi_gamma(), path)
        loaded = load_document(path)
        assert isinstance(loaded, ChoiRep)
        assert np.array_equal(loaded.op.matrix, choi_gamma().op.matrix)
        assert loaded.input_labels == ("A",)

    def test_kind_preserved(self, tmp_path):
        doc = document_from_object(choi_gamma())
        assert doc["kind"] == "choi-channel"
        path = tmp_path / "x.json"
        save_document(choi_gamma(), path)
        assert json.loads(path.read_bytes())["kind"] == "choi-channel"

    @pytest.mark.parametrize("seed", range(5))
    def test_random_operator_exact(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        op = LabeledOperator(
            m, [("a", 2), ("b", 3)], [("c", 3), ("d", 2)]
        )
        path = tmp_path / "op.json"
        save_document(op, path)
        loaded = load_document(path)
        assert np.array_equal(loaded.matrix, op.matrix)
        assert loaded.in_systems == op.in_systems
        assert loaded.out_systems == op.out_systems

    def test_kraus_round_trip(self, tmp_path):
        k = random_channel(2, 3, 3, seed=1)
        path = tmp_path / "k.json"
        save_document(k, path)
        loaded = load_document(path)
        assert isinstance(loaded, KrausRep)
        assert len(loaded) == 3
        for a, b in zip(loaded.ops, k.ops):
            assert np.array_equal(a.matrix, b.matrix)

    def test_stinespring_round_trip(self, tmp_path):
        s = stinespring_from_kraus(random_channel(2, 2, 2, seed=2))
        path = tmp_path / "s.json"
        save_document(s, path)
        loaded = load_document(path)
        assert isinstance(loaded, StinespringRep)
        assert loaded.env_dim == 2
        assert np.array_equal(loaded.v.matrix, s.v.matrix)

    def test_liouville_round_trip(self, tmp_path):
        l = liouville_from_kraus(random_channel(3, 2, 2, seed=3))
        path = tmp_path / "l.json"
        save_document(l, path)
        loaded = load_document(path)
        assert isinstance(loaded, LiouvilleRep)
        assert np.array_equal(loaded.matrix, l.matrix)

    def test_superchannel_round_trip(self, tmp_path):
        theta = random_superchannel(QUBIT, memory_dim=2, seed=4)
        path = tmp_path / "t.json"
        save_document(theta, path)
        loaded = load_document(path)
        assert np.array_equal(loaded.op.matrix, theta.op.matrix)

    def test_gour_round_trip(self, tmp_path):
        theta = random_superchannel(QUBIT, memory_dim=2, seed=5)
        g = gour_from_choi(theta)
        path = tmp_path / "g.json"
        save_document(g, path, kind="gour")
        loaded = load_document(path)
        assert loaded.in_systems.labels == ("B1", "A2", "A1", "B2")
        assert np.array_equal(loaded.matrix, g.matrix)

    def test_measure_prepare_round_trip(self, tmp_path):
        theta = random_eb_superchannel(QUBIT, n_terms=2, seed=6)
        mp = MeasurePrepare(
            povm=(identity_operator([("A1", 2), ("A2", 2)]),),
            states=(
                LabeledOperator(
                    random_density_matrix(4, seed=7),
                    [("B1", 2), ("B2", 2)],
                    [("B1", 2), ("B2", 2)],
                ),
            ),
        )
        path = tmp_path / "mp.json"
        save_document(mp, path)
        loaded = load_document(path)
        assert isinstance(loaded, MeasurePrepare)
        assert np.array_equal(loaded.povm[0].matrix, mp.povm[0].matrix)
        assert np.array_equal(loaded.states[0].matrix, mp.states[0].matrix)

    def test_vector_operator(self, tmp_path):
        path = tmp_path / "v.json"
        save_document(gamma(3), path)
        loaded = load_document(path)
        assert np.array_equal(loaded.matrix, gamma(3).matrix)


class TestDeterminism:
    def test_same_object_same_bytes(self, tmp_path):
        theta = random_superchannel(QUBIT, memory_dim=2, seed=8)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_document(theta, p1)
        save_document(theta, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_save_identical(self, tmp_path):
        k = random_channel(3, 3, 4, seed=9)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_document(k, p1)
        save_document(load_document(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_signed_zeros_round_trip(self, tmp_path):
        m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)],
                      [complex(-0.0, -0.0), complex(0.5, -0.0)]])
        op = LabeledOperator(m, [("A", 2)], [("A", 2)])
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_document(op, p1)
        save_document(op, p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_document(p1).matrix
        assert np.array_equal(np.signbit(loaded.real), np.signbit(m.real))
        assert np.array_equal(np.signbit(loaded.imag), np.signbit(m.imag))
        save_document(load_document(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seventeen_digit_floats(self):
        op = LabeledOperator([[1 / 3]], [("A", 1)], [("A", 1)])
        blob = document_bytes(document_from_object(op)).decode()
        assert "0.33333333333333331" in blob


class TestErrors:
    def test_malformed_complex_entry(self):
        from superchan.documents import object_from_document

        doc = document_from_object(choi_gamma())
        doc["matrices"][0][0][0] = [1]
        with pytest.raises(ParseError) as err:
            object_from_document(doc)
        assert "matrices[0][0][0]" in str(err.value)

    def test_unknown_kind(self):
        from superchan.documents import object_from_document

        doc = document_from_object(choi_gamma())
        doc["kind"] = "mystery"
        with pytest.raises(UnknownKind):
            object_from_document(doc)

    def test_missing_field(self):
        from superchan.documents import object_from_document

        doc = document_from_object(choi_gamma())
        del doc["systems"]
        with pytest.raises(ParseError):
            object_from_document(doc)

    def test_dimension_mismatch(self):
        from superchan.documents import object_from_document

        doc = document_from_object(choi_gamma())
        doc["systems"][0]["dim"] = 3
        with pytest.raises(ParseError):
            object_from_document(doc)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": }')
        with pytest.raises(ParseError) as err:
            load_document(path)
        assert "line" in str(err.value)

    def test_ragged_matrix(self):
        from superchan.documents import object_from_document

        doc = document_from_object(choi_gamma())
        doc["matrices"][0][1] = doc["matrices"][0][1][:-1]
        with pytest.raises(ParseError):
            object_from_document(doc)
