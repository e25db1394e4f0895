"""Round-trip and schema tests for the on-disk document format."""

import base64
import hashlib
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
    KINDS,
    document_bytes,
    document_from_object,
    load_document,
    object_from_document,
    save_document,
)
from superchan.errors import ParseError, UnknownKind
from superchan.operators import (
    LabeledOperator,
    SystemList,
    gamma,
    identity_operator,
)
from superchan.superchannels import (
    GOUR_ORDER,
    SuperchannelChoi,
    SuperchannelDims,
    gour_from_choi,
    random_superchannel,
)

QUBIT = SuperchannelDims(2, 2, 2, 2)


# a format "1" operator document on one qubit A: 17 significant digits,
# negative zeros and an integer entry
FORMAT1_TEXT = (
    '{"format_version":"1","kind":"operator","systems":['
    '{"name":"A","dim":2,"role":"output"},{"name":"A","dim":2,"role":"input"}],'
    '"matrices":[[[[0.33333333333333331,-0.0],[1,0]],[[-0.0,0.0],[0.5,2.0]]]],'
    '"metadata":{}}\n'
)


def format1_document():
    return json.loads(FORMAT1_TEXT)


def entries(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def edge_operator():
    """Seeded entries plus a negative zero, a subnormal and the largest double."""
    m = entries(np.random.default_rng(1), 6, 4)
    m[0, 0] = complex(-0.0, 0.0)
    m[0, 1] = complex(5e-324, -0.0)
    m[0, 2] = complex(1.7976931348623157e308, -1.0)
    return LabeledOperator(m, [("a", 2), ("b", 2)], [("c", 3), ("d", 2)])


def kind_objects():
    """One fixed-seed object of each of the eight kinds, built from seeded
    entries only (no LAPACK), so the saved bytes do not hang on the BLAS build."""
    rng = np.random.default_rng(2024)
    a, b, e = ("A", 2), ("B", 3), ("E", 2)
    ab = [a, b]
    sc_dims = dict(zip(GOUR_ORDER, (3, 2, 1, 2)))
    sc_systems = [(n, sc_dims[n]) for n in ("A1", "A2", "B1", "B2")]
    gour_systems = [(n, sc_dims[n]) for n in GOUR_ORDER]
    return {
        "operator": edge_operator(),
        "choi-channel": ChoiRep(LabeledOperator(entries(rng, 6, 6), ab, ab),
                                ("A",), ("B",)),
        "kraus-channel": KrausRep(tuple(
            LabeledOperator(entries(rng, 3, 2), [a], [b]) for _ in range(2))),
        "stinespring": StinespringRep(
            LabeledOperator(entries(rng, 6, 2), [a], [b, e]), "E"),
        "liouville": LiouvilleRep(entries(rng, 9, 4), SystemList([a]),
                                  SystemList([b])),
        "superchannel-choi": SuperchannelChoi(
            LabeledOperator(entries(rng, 12, 12), sc_systems, sc_systems)),
        "gour": LabeledOperator(entries(rng, 12, 12), gour_systems,
                                gour_systems),
        "measure-prepare": MeasurePrepare(
            povm=tuple(LabeledOperator(entries(rng, 2, 2), [a], [a])
                       for _ in range(2)),
            states=tuple(LabeledOperator(entries(rng, 3, 3), [b], [b])
                         for _ in range(2))),
    }


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

    def test_seventeen_digit_floats(self, tmp_path):
        # format "1" (decimal [re, im] pairs) is still read, to exact values
        path = tmp_path / "v1.json"
        path.write_text(FORMAT1_TEXT)
        m = load_document(path).matrix
        assert m[0, 0].real == 1 / 3
        assert m[0, 1] == 1 and m[1, 1] == 0.5 + 2j
        assert np.array_equal(np.signbit(m.real), [[False, False], [True, False]])
        assert np.array_equal(np.signbit(m.imag), [[True, False], [False, False]])


class TestErrors:
    def test_malformed_complex_entry(self):
        doc = format1_document()
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

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_format1_non_finite(self, token):
        # json.loads reads these tokens; the loader must not
        doc = json.loads(FORMAT1_TEXT.replace("[0.5,2.0]", f"[{token},2.0]"))
        with pytest.raises(ParseError) as err:
            object_from_document(doc)
        assert "matrices[0]" in str(err.value)

    @pytest.mark.parametrize("own", KINDS)
    def test_kind_must_fit_the_object(self, own):
        # written anyway, a superchannel as "choi-channel" would load back as
        # a plain ChoiRep, and a KrausRep as "liouville" would not load
        objects = kind_objects()
        obj = objects[own]
        for kind in KINDS:
            if type(objects[kind]) is not type(obj):
                with pytest.raises(UnknownKind):
                    document_from_object(obj, kind)

    @pytest.mark.parametrize("obj, kind", [
        (kind_objects()["superchannel-choi"], "choi-channel"),
        (kind_objects()["kraus-channel"], "liouville"),
        (kind_objects()["operator"], "mystery"),
        (LabeledOperator(np.array([[1.0, 0.0], [np.nan, 1.0]]), [("A", 2)],
                         [("A", 2)]), None),
    ], ids=["superchannel-as-choi", "kraus-as-liouville", "unknown-kind",
            "non-finite"])
    def test_failed_save_leaves_the_file(self, tmp_path, obj, kind):
        path = tmp_path / "kept.json"
        save_document(choi_gamma(), path)
        before = path.read_bytes()
        with pytest.raises((UnknownKind, ParseError)):
            save_document(obj, path, kind)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("kind", KINDS)
    def test_systems_out_of_emission_order_refused(self, kind):
        doc = document_from_object(kind_objects()[kind], kind)
        doc["systems"].insert(0, doc["systems"].pop())
        with pytest.raises(ParseError):
            object_from_document(doc)

    @pytest.mark.parametrize("kind, edit", [
        ("superchannel-choi", {0: {"name": "X"}}),
        ("superchannel-choi", {3: {"name": "Y"}}),
        ("superchannel-choi", {1: {"role": "output"}, 2: {"role": "input"}}),
        ("gour", {2: {"name": "X"}}),
        ("gour", {0: {"role": "input"}}),
        ("gour", {i: {"role": "input"} for i in range(4)}),
        ("gour", {2: {"dim": True}}),
        ("choi-channel", {0: {"name": 5}}),
    ], ids=["sc-renamed-A1", "sc-renamed-B2", "sc-re-roled", "gour-renamed",
            "gour-re-roled", "gour-all-inputs", "bool-dim", "int-name"])
    def test_systems_the_writer_could_not_emit_refused(self, kind, edit):
        doc = document_from_object(kind_objects()[kind], kind)
        for i, fields in edit.items():
            doc["systems"][i].update(fields)
        with pytest.raises(ParseError):
            object_from_document(doc)

    def test_edit_describing_another_object_loads_as_it(self):
        doc = document_from_object(kind_objects()["choi-channel"])
        doc["systems"][0]["name"] = "Q"
        loaded = object_from_document(doc)
        assert loaded.input_labels == ("Q",)
        assert document_from_object(loaded) == doc

    def test_ragged_matrix(self):
        doc = format1_document()
        doc["matrices"][0][1] = doc["matrices"][0][1][:-1]
        with pytest.raises(ParseError) as err:
            object_from_document(doc)
        assert "matrices[0][1]" in str(err.value)


# sha256 of the saved bytes of kind_objects(): pins the format "2" writer
GOLDEN_SHA256 = {
    "operator": "aabf94f4b3edd5f416af72a6420cd077e77744d18b0fe8ed151aef59e0925cba",
    "choi-channel": "55fc3d1b449c63c445fa467bb4008299f919531e83df333d8aac7d6d3e748415",
    "kraus-channel": "987137e78a759edf4751c2e032505f6d40dc09251a7a4cb0744cb576a6379fa3",
    "stinespring": "f6845b6ca83552b797a316432598123bfaf21706c97dcf910fac4a17f264f3eb",
    "liouville": "1ae5656ecd5a8f4fc4be991a074c3f480870b7b750c1369473710be9506d00e1",
    "superchannel-choi": "49515688eef2a3c02bfb2e0f7b192751daa92bbb0b82fa61aeea1effc953028e",
    "gour": "5ccc430ac394f63cb4e90f38f9630381866195f86dca4fd74c13198bc7d476d6",
    "measure-prepare": "66084462c466ea17948f9f72c2942f5da9a0a0dd79fa0f2863c1676bf9285e8f",
}


class TestFormat2:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_SHA256))
    def test_golden_bytes_and_save_load_save(self, tmp_path, kind):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_document(kind_objects()[kind], p1, kind=kind)
        data = p1.read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[kind]
        save_document(load_document(p1), p2, kind=kind)
        assert p2.read_bytes() == data

    def test_payload_is_little_endian_complex128(self):
        op = edge_operator()
        payload = document_from_object(op)["matrices"][0]
        assert payload["shape"] == [6, 4]
        raw = base64.b64decode(payload["base64"], validate=True)
        assert raw == op.matrix.astype("<c16").tobytes()

    def test_edge_values_bit_exact(self, tmp_path):
        op = edge_operator()
        path = tmp_path / "op.json"
        save_document(op, path)
        loaded = load_document(path).matrix
        assert loaded.tobytes() == op.matrix.tobytes()

    def test_nan_on_save(self):
        m = np.eye(2, dtype=complex)
        m[1, 0] = complex(0.0, np.nan)
        with pytest.raises(ParseError):
            document_from_object(LabeledOperator(m, [("A", 2)], [("A", 2)]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_on_load(self, value):
        doc = document_from_object(choi_gamma())
        m = np.zeros((4, 4), complex)
        m[2, 1] = value
        doc["matrices"][0]["base64"] = base64.b64encode(m.tobytes()).decode()
        with pytest.raises(ParseError) as err:
            object_from_document(doc)
        assert "matrices[0]" in str(err.value)

    @pytest.mark.parametrize("spoil", [
        lambda t: "not base64!",
        lambda t: t[:3],
        lambda t: "AAAA=AAA" + t[8:],
        # a lenient decoder would drop these characters and read the right bytes
        lambda t: t[:8] + "\n" + t[8:],
        lambda t: t[:8] + "!" + t[8:],
    ])
    def test_bad_base64(self, spoil):
        doc = document_from_object(choi_gamma())
        doc["matrices"][0]["base64"] = spoil(doc["matrices"][0]["base64"])
        with pytest.raises(ParseError) as err:
            object_from_document(doc)
        assert "matrices[0].base64" in str(err.value)

    def test_wrong_byte_length(self):
        doc = document_from_object(choi_gamma())
        raw = base64.b64decode(doc["matrices"][0]["base64"])
        doc["matrices"][0]["base64"] = base64.b64encode(raw[:-16]).decode()
        with pytest.raises(ParseError) as err:
            object_from_document(doc)
        assert "bytes" in str(err.value)

    @pytest.mark.parametrize(
        "shape", [[4], [4, 4, 1], [0, 4], [-4, -4], [4.0, 4], [True, 4],
                  [4, True], "4x4", None])
    def test_shape_not_two_positive_ints(self, shape):
        doc = document_from_object(choi_gamma())
        doc["matrices"][0]["shape"] = shape
        with pytest.raises(ParseError) as err:
            object_from_document(doc)
        assert "matrices[0].shape" in str(err.value)

    def test_shape_disagrees_with_systems(self):
        # the same 16 entries, read as 2 x 8: the bytes fit, the systems do not
        doc = document_from_object(choi_gamma())
        doc["matrices"][0]["shape"] = [2, 8]
        with pytest.raises(ParseError) as err:
            object_from_document(doc)
        assert "does not match systems" in str(err.value)

    @pytest.mark.parametrize("version", ["7", 1.5, 2, None, ["2"]])
    def test_unknown_format_version(self, version):
        doc = document_from_object(choi_gamma())
        doc["format_version"] = version
        with pytest.raises(ParseError) as err:
            object_from_document(doc)
        assert "format_version" in str(err.value)

    def test_payload_must_match_version(self):
        v2 = document_from_object(choi_gamma())
        v1 = format1_document()
        v2["format_version"], v1["format_version"] = "1", "2"
        for doc in (v1, v2):
            with pytest.raises(ParseError) as err:
                object_from_document(doc)
            assert "matrices[0]" in str(err.value)
