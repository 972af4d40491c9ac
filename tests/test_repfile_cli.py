import os
import subprocess
import sys

import pytest

from sepstab import gallery
from sepstab.cli import main
from sepstab.disks import Disk
from sepstab.groups import GroupSpec
from sepstab.hyperbolic import MoebiusMap, Representation
from sepstab.pingpong import PingPongDisks
from sepstab.repfile import RepFile, RepFileError, emit_rep, parse_rep


def run_cli(*args, cwd=None):
    r = subprocess.run([sys.executable, "-m", "sepstab.cli", *args],
                       capture_output=True, text=True, cwd=cwd)
    return r.returncode, r.stdout, r.stderr


def gallery_text(name):
    rep, disks = gallery.build(name)
    return emit_rep(RepFile(rep=rep, disks=disks, meta={"name": name}))


class TestRepFile:
    @pytest.mark.parametrize("name", sorted(gallery.BUILDERS))
    def test_round_trip_identity(self, name):
        text = gallery_text(name)
        once = emit_rep(parse_rep(text))
        twice = emit_rep(parse_rep(once))
        assert text == once == twice

    def test_parse_reports_line(self):
        text = "group\n  surface 2\n  free 1\nbogus\n"
        with pytest.raises(RepFileError) as err:
            parse_rep(text)
        assert "line 4" in str(err.value)

    def test_unknown_group_key_rejected(self):
        with pytest.raises(RepFileError):
            parse_rep("group\n  torus 1\n")

    def test_unknown_generator_rejected(self):
        text = gallery_text("schottky2").replace("  a = ", "  q = ")
        with pytest.raises(RepFileError) as err:
            parse_rep(text)
        assert "unknown generators" in str(err.value) \
            or "missing generators" in str(err.value)

    def test_determinant_rejection(self):
        text = ("group\n  free 2\ngenerators\n"
                "  a = (2.0, 0.0) (0.0, 0.0) (0.0, 0.0) (1.0, 0.0)\n"
                "  b = (1.0, 0.0) (0.0, 0.0) (0.0, 0.0) (1.0, 0.0)\n")
        with pytest.raises(RepFileError) as err:
            parse_rep(text)
        assert "determinant" in str(err.value)

    def test_near_one_determinant_renormalized(self):
        text = ("group\n  free 2\ngenerators\n"
                "  a = (2.0000001, 0.0) (0.0, 0.0) (0.0, 0.0) (0.5, 0.0)\n"
                "  b = (3.0, 0.0) (0.0, 0.0) (0.0, 0.0) "
                "(0.3333333333333333, 0.0)\n")
        rf = parse_rep(text)
        for m in rf.rep.generator_images():
            assert abs(m.det() - 1.0) < 1e-12

    def test_two_surface_factors_and_letter_names(self):
        # S2 * S3 * Z: surface factor k is fid k - 1, the free factor fid 2
        group = GroupSpec((2, 3), 1)
        assert [group.letter_name(2 * k) for k in range(11)] == [
            "a1.1", "b1.1", "a1.2", "b1.2", "a2.1", "b2.1", "a2.2", "b2.2",
            "a2.3", "b2.3", "t1"]
        rep = Representation(group, [MoebiusMap.identity()] * 11)
        disks = PingPongDisks(
            free={20: Disk.interior(5, 1), 21: Disk.interior(-5, 1)},
            factor={0: Disk.interior(0, 1.5), 1: Disk.interior(10j, 2.5)})
        text = emit_rep(RepFile(rep=rep, disks=disks))
        assert text.split("disks\n")[1] == (
            "  factor 1 center (0.0, -0.0) radius 1.5\n"
            "  factor 2 center (0.0, 10.0) radius 2.5\n"
            "  t1 center (5.0, -0.0) radius 1.0\n"
            "  T1 center (-5.0, 0.0) radius 1.0\n")
        back = parse_rep(text)
        assert {fid: d.radius for fid, d in back.disks.factor.items()} == {
            0: 1.5, 1: 2.5}
        assert sorted(back.disks.free) == [20, 21]
        assert emit_rep(back) == text
        with pytest.raises(RepFileError) as err:
            parse_rep(text.replace("factor 2", "factor 3"))
        assert "no surface factor 3" in str(err.value)

    def test_schottky_residuals_vacuous(self):
        rf = parse_rep(gallery_text("schottky2"))
        assert rf.rep.relator_residuals() == {}

    def test_fuchsian_residual_small(self):
        rf = parse_rep(gallery_text("fuchsian-genus2"))
        assert rf.rep.relator_residuals()[0] < 1e-8


class TestCli:
    def test_separable_exit_codes(self):
        assert run_cli("separable", "a b A B")[0] == 1
        assert run_cli("separable", "a b")[0] == 0
        code, _, _ = run_cli("separable", "a1 t1", "--genera", "2",
                             "--rank", "1")
        assert code == 2

    def test_usage_error_is_64(self):
        assert run_cli("separable")[0] == 64
        assert run_cli("no-such-command")[0] == 64

    def test_data_error_is_65(self):
        assert run_cli("separable", "zz")[0] == 65
        assert run_cli("check-stability", "/no/such/file.rep")[0] == 65

    def test_negative_rank_is_65(self):
        code, _, err = run_cli("separable", "a1.1 a2.1", "--genera", "2,2",
                               "--rank", "-1")
        assert code == 65
        assert "free rank" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ("check-stability", "schottky2"), ("sweep", "--grid", "2")])
    @pytest.mark.parametrize("flags", [
        ("--depth", "0"), ("--depth", "2", "--powers", "1"),
        ("--depth", "2", "--window", "1"), ("--depth", "2", "--margin", "-1"),
    ])
    def test_invalid_stability_flags_are_65(self, capsys, command, flags):
        # flags are validated like StabilityParams: no sweep runs
        assert main([*command, *flags]) == 65
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("command", ["separable", "whitehead"])
    @pytest.mark.parametrize("word", ["a1 b1 A1 B1 a2 b2 A2 B2",
                                      "t1 a1 b1 A1 B1 a2 b2 A2 B2 T1"])
    def test_word_trivial_in_a_surface_factor_is_65(self, capsys, command,
                                                    word):
        # exit 1 would read "not separable"
        assert main([command, word, "--genera", "2", "--rank", "1"]) == 65
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert "identity" in err

    @pytest.mark.parametrize("old,new,line", [
        ("radius 1.9000000000000001", "radius -1", 11),
        ("(9.625, 0.0)", "(nan, 0.0)", 9),
        ("surface 2", "surface 1", 1),
        ("radius 1.1733333333333191", "radius nan", 12),
        ("surface 2", "surface 2.5", 2),
    ])
    def test_malformed_rep_is_65_with_line(self, tmp_path, old, new, line):
        text = gallery_text("s2-times-z")
        assert old in text
        path = tmp_path / "bad.rep"
        path.write_text(text.replace(old, new, 1))
        code, _, err = run_cli("check-stability", str(path), "--depth", "2")
        assert code == 65
        assert f"line {line}," in err and "Traceback" not in err

    def test_whitehead_writes_dot(self, tmp_path):
        out = tmp_path / "g.dot"
        code, stdout, _ = run_cli("whitehead", "a b", "--dot", str(out))
        assert code == 0
        assert out.exists()
        assert "--" in out.read_text()

    def test_whitehead_multi_component_files(self, tmp_path):
        out = tmp_path / "g.dot"
        code, stdout, _ = run_cli("whitehead", "a1 t1", "--genera", "2",
                                  "--rank", "1", "--dot", str(out))
        assert code == 0
        assert (tmp_path / "g-ball.dot").exists()
        assert (tmp_path / "g-surface0.dot").exists()

    def test_check_stability_gallery_names(self):
        code, out, _ = run_cli("check-stability", "examples/pinched-a",
                               "--depth", "3")
        assert code == 1 and "witness: a" in out
        code, out, _ = run_cli("check-stability", "schottky2", "--depth", "4")
        assert code == 0 and "verdict: pass" in out

    def test_check_stability_from_file(self, tmp_path):
        code, _, _ = run_cli("examples", "--write", str(tmp_path))
        assert code == 0
        code, out, _ = run_cli(
            "check-stability", str(tmp_path / "schottky2.rep"), "--depth", "4")
        assert code == 0 and "ping-pong certificate: verified" in out

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli("sweep", "--grid", "1,2", "--depth", "3",
                             "--csv", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "parameter,margin,k_est,a_est,verdict,error"
        assert len(lines) == 3
        assert "error" in lines[1] and "pass" in lines[2]

    def test_sweep_empty_grid_header_only(self, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli("sweep", "--grid", "", "--csv", str(out))
        assert code == 0
        assert out.read_text().strip() == \
            "parameter,margin,k_est,a_est,verdict,error"

    def test_examples_listing(self):
        code, out, _ = run_cli("examples")
        assert code == 0
        assert out.split() == ["fuchsian-genus2", "pinched-a", "s2-times-z",
                               "schottky2"]

    def test_determinism_of_outputs(self, tmp_path):
        a = run_cli("separable", "a b A B")
        b = run_cli("separable", "a b A B")
        assert a == b
        d1, d2 = tmp_path / "a.dot", tmp_path / "b.dot"
        run_cli("whitehead", "a a b b", "--dot", str(d1))
        run_cli("whitehead", "a a b b", "--dot", str(d2))
        assert d1.read_bytes() == d2.read_bytes()
