"""End-to-end tests for the command-line interface and its exit codes."""

import json
import pathlib

import numpy as np
import pytest

from superchan import cli
from superchan.cli import main
from superchan.documents import load_document, save_document
from superchan.channels import ChoiRep, KrausRep, StinespringRep, LiouvilleRep
from superchan.errors import (
    DimensionMismatch,
    DocumentError,
    SuperchanError,
    UnknownLabel,
)
from superchan.operators import LabeledOperator
from superchan.superchannels import SuperchannelChoi, realize

from test_memory_properties import near_cutoff


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerateAndValidate:
    def test_gen_channel_then_validate(self, tmp_path, capsys):
        path = str(tmp_path / "chan.json")
        code, _, _ = run(capsys, "gen", "channel", "--d-in", "2", "--d-out", "2",
                         "--kraus-rank", "2", "--seed", "7", "--out", path)
        assert code == 0
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        assert "valid channel" in out

    def test_gen_superchannel_then_validate(self, tmp_path, capsys):
        path = str(tmp_path / "theta.json")
        code, _, _ = run(capsys, "gen", "superchannel", "--memory-dim", "2",
                         "--seed", "3", "--out", path)
        assert code == 0
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        assert "valid superchannel" in out

    def test_validate_machine_readable(self, tmp_path, capsys):
        path = str(tmp_path / "theta.json")
        run(capsys, "gen", "superchannel", "--seed", "5", "--out", path)
        code, out, _ = run(capsys, "validate", path, "--format",
                           "machine-readable")
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["ns_deviation"] <= 1e-9
        assert 0.0 <= payload["hermitian_deviation"] <= 1e-9
        # the text report names no deviation for Hermiticity
        code, text, _ = run(capsys, "validate", path)
        assert code == 0 and text.splitlines()[0] == "hermitian: pass"

    def test_validate_reports_the_cp_witness_bound(self, tmp_path, capsys):
        path = str(tmp_path / "theta.json")
        run(capsys, "gen", "superchannel", "--d-a1", "3", "--d-b1", "3",
            "--memory-dim", "2", "--seed", "5", "--out", path)
        code, out, _ = run(capsys, "validate", path, "--format",
                           "machine-readable")
        payload = json.loads(out)
        # CP decided on a kept block of F's eigenvectors, within the bound
        assert code == 0 and payload["kept_rank"] < 9
        assert 0.0 <= payload["min_eigenvalue_bound"] <= 1e-10
        channel = str(tmp_path / "chan.json")
        run(capsys, "gen", "channel", "--seed", "7", "--out", channel)
        code, out, _ = run(capsys, "validate", channel, "--format",
                           "machine-readable")
        assert code == 0 and "kept_rank" not in json.loads(out)
        # the text report is unchanged: four verdicts and a result line
        code, text, _ = run(capsys, "validate", path)
        assert code == 0 and [l.split(":")[0] for l in text.splitlines()] == [
            "hermitian", "cp", "tp", "ns", "result"]

    def test_validate_failure_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "theta.json")
        run(capsys, "gen", "superchannel", "--seed", "5", "--out", path)
        theta = load_document(path)
        doubled = SuperchannelChoi(2.0 * theta.op)
        bad = str(tmp_path / "bad.json")
        save_document(doubled, bad)
        code, out, _ = run(capsys, "validate", bad)
        assert code == 2
        assert "INVALID" in out

    def test_gen_deterministic(self, tmp_path, capsys):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run(capsys, "gen", "channel", "--seed", "11", "--out", p1)
        run(capsys, "gen", "channel", "--seed", "11", "--out", p2)
        assert pathlib.Path(p1).read_bytes() == pathlib.Path(p2).read_bytes()

    def test_gen_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "depolarizing", "--p", "0.5")
        assert code == 0
        assert json.loads(out)["kind"] == "choi-channel"


class TestConvert:
    @pytest.mark.parametrize(
        "target,expected",
        [
            ("choi", ChoiRep),
            ("kraus", KrausRep),
            ("stinespring", StinespringRep),
            ("liouville", LiouvilleRep),
        ],
    )
    def test_targets(self, tmp_path, capsys, target, expected):
        src = str(tmp_path / "chan.json")
        run(capsys, "gen", "channel", "--seed", "13", "--out", src)
        dst = str(tmp_path / f"as-{target}.json")
        code, _, _ = run(capsys, "convert", src, "--to", target, "--out", dst)
        assert code == 0
        assert isinstance(load_document(dst), expected)

    def test_convert_preserves_action(self, tmp_path, capsys):
        from superchan.channels import apply_channel, random_density_matrix

        src = str(tmp_path / "chan.json")
        run(capsys, "gen", "channel", "--seed", "17", "--out", src)
        dst = str(tmp_path / "liou.json")
        run(capsys, "convert", src, "--to", "liouville", "--out", dst)
        original = load_document(src)
        converted = load_document(dst)
        rho = random_density_matrix(2, seed=1)
        a = apply_channel(original, rho).matrix
        b = apply_channel(converted, rho).matrix
        assert np.max(np.abs(a - b)) <= 1e-10

    @pytest.mark.parametrize("gen", [
        ("channel", "--d-in", "2", "--d-out", "3", "--seed", "29"),
        ("depolarizing", "--p", "1e-12"),
    ])
    def test_choi_liouville_round_trip_bytes(self, tmp_path, capsys, gen):
        src, choi, liou, back = (str(tmp_path / f"{n}.json")
                                 for n in ("src", "choi", "liou", "back"))
        run(capsys, "gen", *gen, "--out", src)
        run(capsys, "convert", src, "--to", "choi", "--out", choi)
        run(capsys, "convert", choi, "--to", "liouville", "--out", liou)
        code, _, _ = run(capsys, "convert", liou, "--to", "choi", "--out", back)
        assert code == 0
        with open(choi, "rb") as a, open(back, "rb") as b:
            assert a.read() == b.read()

    def test_convert_superchannel_is_usage_error(self, tmp_path, capsys):
        src = str(tmp_path / "theta.json")
        run(capsys, "gen", "superchannel", "--seed", "1", "--out", src)
        code, _, err = run(capsys, "convert", src, "--to", "kraus")
        assert code == 1
        assert "error" in err


class TestApplyComposeGour:
    def test_apply_writes_valid_channel(self, tmp_path, capsys):
        theta = str(tmp_path / "theta.json")
        chan = str(tmp_path / "chan.json")
        out = str(tmp_path / "out.json")
        run(capsys, "gen", "superchannel", "--seed", "19", "--out", theta)
        run(capsys, "gen", "channel", "--seed", "23", "--out", chan)
        code, _, _ = run(capsys, "apply", theta, chan, "--out", out)
        assert code == 0
        code, _, _ = run(capsys, "validate", out)
        assert code == 0

    def test_compose(self, tmp_path, capsys):
        c1 = str(tmp_path / "c1.json")
        c2 = str(tmp_path / "c2.json")
        out = str(tmp_path / "out.json")
        run(capsys, "gen", "channel", "--seed", "29", "--out", c1)
        run(capsys, "gen", "channel", "--seed", "31", "--out", c2)
        code, _, _ = run(capsys, "compose", c1, c2, "--out", out)
        assert code == 0
        code, _, _ = run(capsys, "validate", out)
        assert code == 0

    def test_gour_round_trip(self, tmp_path, capsys):
        theta = str(tmp_path / "theta.json")
        g = str(tmp_path / "gour.json")
        back = str(tmp_path / "back.json")
        run(capsys, "gen", "superchannel", "--seed", "37", "--out", theta)
        code, _, _ = run(capsys, "gour", theta, "--out", g)
        assert code == 0
        assert json.loads(pathlib.Path(g).read_text())["kind"] == "gour"
        code, _, _ = run(capsys, "gour", g, "--inverse", "--out", back)
        assert code == 0
        assert pathlib.Path(theta).read_bytes() == pathlib.Path(back).read_bytes()


class TestRealizeAndMemory:
    def test_realize(self, tmp_path, capsys):
        theta = str(tmp_path / "theta.json")
        run(capsys, "gen", "superchannel", "--seed", "41", "--out", theta)
        prefix = str(tmp_path / "parts")
        code, out, _ = run(capsys, "realize", theta, "--out", prefix,
                           "--format", "machine-readable")
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] <= 1e-8
        v = load_document(payload["v_path"])
        w = load_document(payload["w_path"])
        assert isinstance(v, LabeledOperator)
        assert v.in_systems.labels == ("A1",)
        assert w.out_systems.labels == ("E2", "B2")

    def test_realize_reports_isometry_witnesses(self, tmp_path, capsys):
        theta = str(tmp_path / "theta.json")
        run(capsys, "gen", "superchannel", "--seed", "41", "--out", theta)
        want = realize(load_document(theta))
        machine, text = str(tmp_path / "machine"), str(tmp_path / "text")
        code, out, _ = run(capsys, "realize", theta, "--out", machine,
                           "--format", "machine-readable")
        assert code == 0
        payload = json.loads(out)
        assert payload["v_deviation"] == want.v_deviation
        assert payload["w_deviation"] == want.w_deviation
        # text output gains nothing, and both runs write the same documents
        code, out, _ = run(capsys, "realize", theta, "--out", text)
        assert code == 0
        assert out.splitlines() == [
            f"memory dimension: {want.e1_dim}",
            f"environment dimension: {want.e2_dim}",
            f"reconstruction residual: {want.reconstruction_residual:.3e}",
            f"wrote {text}.V.json and {text}.W.json",
        ]
        for part in ("V", "W"):
            with open(f"{machine}.{part}.json", "rb") as a, \
                    open(f"{text}.{part}.json", "rb") as b:
                assert a.read() == b.read()

    def test_memory_cost(self, tmp_path, capsys):
        theta = str(tmp_path / "theta.json")
        run(capsys, "gen", "superchannel", "--seed", "43", "--out", theta)
        code, out, _ = run(capsys, "memory-cost", theta)
        assert code == 0
        assert out.strip().isdigit()
        code, out, _ = run(capsys, "memory-cost", theta, "--format",
                           "machine-readable")
        assert json.loads(out)["memory_cost"] >= 1

    def test_rank_rtol_only_where_it_is_read(self, tmp_path, capsys):
        theta = str(tmp_path / "theta.json")
        run(capsys, "gen", "superchannel", "--seed", "43", "--out", theta)
        code, _, err = run(capsys, "memory-cost", theta, "--rank-rtol", "1e-6")
        assert code == 1
        assert "--rank-rtol" in err
        code, _, err = run(capsys, "realize", theta, "--rank-rtol", "1e-9",
                           "--out", str(tmp_path / "parts"))
        assert code == 1
        assert "--rank-rtol" in err
        chan = str(tmp_path / "chan.json")
        run(capsys, "gen", "channel", "--seed", "43", "--out", chan)
        code, _, _ = run(capsys, "convert", chan, "--to", "kraus", "--rank-rtol",
                         "1e-9", "--out", str(tmp_path / "kraus.json"))
        assert code == 0

    @pytest.mark.parametrize("tol", ["1e-9", "1e-6"])
    def test_memory_cost_and_realize_agree_at_any_tol(self, tmp_path, capsys,
                                                       tol):
        # --tol is the validity tolerance in both; both cut at 1e-8
        theta = str(tmp_path / "theta.json")
        save_document(near_cutoff(1e-7), theta)
        mr = ("--tol", tol, "--format", "machine-readable")
        code, out, _ = run(capsys, "memory-cost", theta, *mr)
        assert code == 0
        cost = json.loads(out)["memory_cost"]
        code, out, _ = run(capsys, "realize", theta, "--out",
                           str(tmp_path / "parts"), *mr)
        assert code == 0
        assert json.loads(out)["memory_dim"] == cost == 4

    def test_realize_without_out_is_usage_error(self, tmp_path, capsys):
        theta = str(tmp_path / "theta.json")
        run(capsys, "gen", "superchannel", "--seed", "47", "--out", theta)
        code, _, _ = run(capsys, "realize", theta)
        assert code == 1

    def test_realize_without_out_computes_nothing(self, tmp_path, capsys,
                                                   monkeypatch):
        theta = str(tmp_path / "theta.json")
        run(capsys, "gen", "superchannel", "--seed", "47", "--out", theta)
        calls = []
        monkeypatch.setattr("superchan.cli.realize",
                            lambda *args, **kwargs: calls.append(args))
        code, _, err = run(capsys, "realize", theta)
        assert code == 1
        assert "--out" in err
        assert calls == []

    def test_realize_out_dash_is_usage_error(self, tmp_path, capsys,
                                             monkeypatch):
        # two documents cannot both go to stdout, and no file named "-"
        # prefixes them
        theta = str(tmp_path / "theta.json")
        run(capsys, "gen", "superchannel", "--seed", "47", "--out", theta)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "realize", theta, "--out", "-")
        assert (code, out) == (1, "")
        assert "--out PREFIX" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["theta.json"]
        code, out, _ = run(capsys, "realize", "--help")
        assert code == 0 and "PREFIX.V.json and PREFIX.W.json" in out


class TestBreaking:
    def test_channel_verdicts(self, tmp_path, capsys):
        eb = str(tmp_path / "eb.json")
        run(capsys, "gen", "depolarizing", "--p", "0.8", "--out", eb)
        code, out, _ = run(capsys, "breaking", eb)
        assert code == 0
        assert "entanglement breaking: yes" in out
        noisy = str(tmp_path / "less.json")
        run(capsys, "gen", "depolarizing", "--p", "0.3", "--out", noisy)
        code, out, _ = run(capsys, "breaking", noisy)
        assert code == 0
        assert "entanglement breaking: no" in out

    def test_superchannel_report(self, tmp_path, capsys):
        t1 = str(tmp_path / "t1.json")
        run(capsys, "gen", "type1-example", "--out", t1)
        code, out, _ = run(capsys, "breaking", t1, "--format",
                           "machine-readable")
        assert code == 0
        payload = json.loads(out)
        assert payload["type_I_ppt"] is True
        assert payload["type_II_ppt"] is False
        assert payload["common_cause_breaking"] is True

    def test_invalid_superchannel_exits_2(self, tmp_path, capsys):
        t1 = str(tmp_path / "t1.json")
        run(capsys, "gen", "type1-example", "--out", t1)
        bad = str(tmp_path / "bad.json")
        save_document(SuperchannelChoi(load_document(t1).op * 2.0), bad)
        code, out, err = run(capsys, "breaking", bad)
        assert code == 2 and out == ""
        assert "TP=False" in err

    def test_eb_superchannel_is_type2(self, tmp_path, capsys):
        t = str(tmp_path / "eb.json")
        run(capsys, "gen", "eb-superchannel", "--terms", "2", "--seed", "53",
            "--out", t)
        code, out, _ = run(capsys, "breaking", t, "--format",
                           "machine-readable")
        assert code == 0
        assert json.loads(out)["type_II_ppt"] is True


class TestExitCodes:
    def test_missing_file_is_1(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/file.json")
        assert code == 1

    def test_unknown_command_is_1(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_bad_flag_is_1(self, capsys):
        code, _, _ = run(capsys, "gen", "depolarizing", "--p", "not-a-number")
        assert code == 1

    def test_parse_error_is_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1

    @pytest.mark.parametrize("argv,option", [
        (("validate", "theta.json", "--out", "r.txt"), "--out"),
        (("gen", "channel", "--format", "machine-readable"), "--format"),
        (("compose", "a.json", "b.json", "--tol", "5"), "--tol"),
    ])
    def test_option_only_where_read_is_1(self, capsys, argv, option):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"unrecognized arguments: {option}" in err

    def test_every_package_error_keeps_its_exit_code(self, capsys,
                                                     monkeypatch):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        usage = (DocumentError, DimensionMismatch, UnknownLabel)
        errors = list(subclasses(SuperchanError))
        assert len(errors) >= 12
        for error in errors:
            def fail(args, error=error):
                raise error("boom")

            monkeypatch.setitem(cli.HANDLERS, "validate", fail)
            code, _, err = run(capsys, "validate", "theta.json")
            assert code == (1 if issubclass(error, usage) else 2), error
            assert "boom" in err

    @pytest.mark.parametrize("argv", [
        ("validate", "theta.json", "--tol", "nan"),
        ("validate", "theta.json", "--tol", "-1"),
        ("breaking", "theta.json", "--tol", "inf"),
        ("memory-cost", "theta.json", "--tol=-1e-9"),
        ("realize", "theta.json", "--out", "p", "--tol", "-inf"),
        ("apply", "theta.json", "e.json", "--tol", "x"),
        ("convert", "e.json", "--to", "kraus", "--rank-rtol", "nan"),
        ("convert", "e.json", "--to", "kraus", "--rank-rtol", "-1"),
    ])
    def test_tolerance_outside_zero_to_inf_is_1(self, capsys, argv):
        # refused while parsing: the missing files are never opened
        option = next(a for a in argv if a.startswith("--") and a not in (
            "--out", "--to")).split("=")[0]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert f"argument {option}:" in err

    def test_zero_tolerance_is_accepted(self, tmp_path, capsys):
        theta = str(tmp_path / "theta.json")
        run(capsys, "gen", "superchannel", "--seed", "47", "--out", theta)
        code, _, err = run(capsys, "validate", theta, "--tol", "0")
        assert code in (0, 2) and "argument" not in err

    def test_p_out_of_range_is_1(self, capsys):
        # structural precondition, not a tolerance check
        code, _, _ = run(capsys, "gen", "depolarizing", "--p", "1.5")
        assert code == 1

    def test_check_failure_is_2(self, tmp_path, capsys):
        # converting a non-CP operator to kraus fails the PSD check
        from superchan.operators import LabeledOperator as LO

        systems = [("A", 2), ("B", 2)]
        bad = ChoiRep(
            LO(np.diag([1.0, -1.0, 1.0, 1.0]), systems, systems), ("A",), ("B",)
        )
        path = str(tmp_path / "bad.json")
        save_document(bad, path)
        code, _, err = run(capsys, "convert", path, "--to", "kraus")
        assert code == 2
        assert "check failed" in err
