import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_long_free_letter_disk_keys_round_trip(self):
        # a disk key may use either letter spelling; emit writes the
        # display name with the parameters as parsed
        text = gallery_text("schottky2")
        renamed = text
        for short, full in (("a", "t1"), ("A", "T1"), ("b", "t2"),
                            ("B", "T2")):
            renamed = renamed.replace(f"\n  {short} center",
                                      f"\n  {full} center")
        assert renamed.count(" center ") == text.count(" center ") == 4
        assert "t1 center" in renamed and "a center" not in renamed
        assert emit_rep(parse_rep(renamed)) == text

    def test_parse_reports_line(self):
        text = "group\n  surface 2\n  free 1\nbogus\n"
        with pytest.raises(RepFileError) as err:
            parse_rep(text)
        assert "line 4" in str(err.value)

    def test_huge_group_is_refused_at_the_group_line(self):
        # before, a billion letters' tables were built
        with pytest.raises(RepFileError, match="line 1,.*at most 65536"):
            parse_rep("group\n  free 1000000000\n")

    def test_unknown_group_key_rejected(self):
        with pytest.raises(RepFileError):
            parse_rep("group\n  torus 1\n")

    def test_unknown_generator_rejected(self):
        # reported at its own line, before the generator it replaces is
        # missed at the end of the file
        text = gallery_text("schottky2").replace("  a = ", "  q = ")
        with pytest.raises(RepFileError) as err:
            parse_rep(text)
        assert str(err.value) == "line 4, column 1: unknown generator 'q'"

    def test_long_free_name_is_an_unknown_generator(self):
        # t1 names the first free letter only in mixed products
        text = gallery_text("schottky2").replace("  b = ", "  t1 = ")
        with pytest.raises(RepFileError) as err:
            parse_rep(text)
        assert str(err.value) == "line 5, column 1: unknown generator 't1'"

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


def _complex(scale):
    part = st.floats(-1.0, 1.0)
    return st.builds(lambda x, y: complex(x, y) * scale, part, part)


@st.composite
def rep_files(draw):
    """A representation file of a group GroupSpec accepts, with generator
    entries scaled 1-1e4, a bounded disk under every disk key and a name."""
    genera, rank = draw(st.tuples(
        st.lists(st.sampled_from((2, 3)), max_size=3), st.integers(0, 2))
        .filter(lambda gr: len(gr[0]) + gr[1] >= 2
                and (len(gr[0]), gr[1]) != (2, 0)))
    group = GroupSpec(tuple(genera), rank)
    images = []
    for _ in range(group.n_letters // 2):
        scale = draw(st.floats(1.0, 1e4))
        a = draw(_complex(scale).filter(lambda z: abs(z) > 1e-2 * scale))
        b, c = draw(_complex(scale)), draw(_complex(scale))
        images.append(MoebiusMap(a, b, c, (1 + b * c) / a, normalize=False))

    def disk():
        return Disk.interior(draw(_complex(100.0)),
                             draw(st.floats(1e-2, 100.0)))
    disks = PingPongDisks(
        free={lid: disk() for lid in range(
            group.gen_base(group.n_surface), group.n_letters)},
        factor={fid: disk() for fid in range(group.n_surface)})
    name = draw(st.text("abcxyz019-_.", min_size=1, max_size=12))
    return RepFile(rep=Representation(group, images), disks=disks,
                   meta={"name": name})


def _bits(rep):
    return [repr(z) for m in rep.generator_images()
            for z in (m.a, m.b, m.c, m.d)]


class TestRepFileRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(rep_files(), st.data())
    def test_round_trip_is_exact(self, rf, data):
        text = emit_rep(rf)
        back = parse_rep(text)
        assert emit_rep(back) == text
        assert _bits(back.rep) == _bits(rf.rep)
        # an exterior disk has no bounded form to write
        disks = rf.disks
        table = data.draw(st.sampled_from(
            [t for t in (disks.free, disks.factor) if t]))
        key = data.draw(st.sampled_from(sorted(table)))
        table[key] = table[key].complement()
        with pytest.raises(ValueError, match="not bounded"):
            emit_rep(rf)


class TestCli:
    def test_separable_exit_codes(self):
        assert run_cli("separable", "a b A B")[0] == 1
        assert run_cli("separable", "a b")[0] == 0
        code, _, _ = run_cli("separable", "a1 t1", "--genera", "2",
                             "--rank", "1")
        assert code == 2
        # an automorphic image of the separable t1 t2: no certificate with
        # three factors
        code, _, _ = run_cli("separable",
                             "A1 B1 t1 A1 t2 b1 T2 a1 T1 b1 t2 B1 t1",
                             "--genera", "2", "--rank", "2")
        assert code == 2

    @pytest.mark.parametrize("args, line", [
        (("a1 b1", "--genera", "2", "--rank", "1"),
         "witness: lies in factor D1"),
        (("a1 b1 t1", "--genera", "2", "--rank", "2"),
         "witness: omits factor Dt2"),
    ])
    def test_separable_names_factor_discs(self, capsys, args, line):
        # factors are named by their discs, as in graphs and .rep files
        assert main(["separable", *args]) == 0
        assert line in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("rank", [8, 30])
    def test_separable_decides_at_high_rank(self, capsys, rank):
        # words using every generator decide at once: a primitive product
        # of all generators, and a product of commutators
        group = GroupSpec((), rank)
        primitive = tuple(range(0, 2 * rank, 2))
        commutators = tuple(x for k in range(0, 2 * rank, 4)
                            for x in (k, k + 2, k + 1, k + 3))
        for word, code in ((primitive, 0), (commutators, 1)):
            start = time.perf_counter()
            assert main(["separable", group.format_word(word),
                         "--rank", str(rank)]) == code
            assert time.perf_counter() - start < 5
        capsys.readouterr()

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

    def test_huge_group_is_65(self, capsys, tmp_path):
        # in-process: both used to build a billion letters' tables
        path = tmp_path / "huge.rep"
        path.write_text("group\n  free 1000000000\n")
        for argv in (["separable", "t1", "--rank", "1000000000"],
                     ["check-stability", str(path)]):
            assert main(argv) == 65
            out, err = capsys.readouterr()
            assert out == "" and "at most 65536 are supported" in err

    @pytest.mark.parametrize("command", [
        ("check-stability", "schottky2"), ("sweep", "--grid", "2")])
    @pytest.mark.parametrize("flags", [
        ("--depth", "0"), ("--depth", "2", "--powers", "1"),
        ("--depth", "2", "--window", "1"), ("--depth", "2", "--margin", "-1"),
        ("--margin", "nan"), ("--margin", "inf"),
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
        # |center|^2 overflowed into a traceback; radius^2 into C = nan
        ("(10.266666666666666, -0.0) radius", "(1e200, 0.0) radius", 12),
        ("radius 1.9000000000000001", "radius 1e200", 11),
        ("surface 2", "surface 2.5", 2),
        # a missing disk is reported at the `disks` header
        ("  T1 center (5.733333333333334, -0.0) radius 1.1733333333333384\n",
         "", 10),
        # a disk keyed by a surface letter is reported on its own line
        ("  factor 1 center", "  A1 center (0.0, 3.0) radius 0.5\n"
         "  factor 1 center", 11),
        # a repeated key is reported at the repeat
        ("  t1 = (9.625", "  t1 = (1.0, 0.0) (0.0, 0.0) (0.0, 0.0) "
         "(1.0, 0.0)\n  t1 = (9.625", 10),
        ("  T1 center", "  t1 center (0.0, 3.0) radius 0.5\n  T1 center",
         13),
        ("  factor 1 center", "  factor 1 center (0.0, 3.0) radius 0.5\n"
         "  factor 1 center", 12),
        ("  free 1\n", "  free 1\n  free 1\n", 4),
        ("  name s2-times-z", "  name s2-times-z\n  name other", 16),
    ])
    def test_malformed_rep_is_65_with_line(self, tmp_path, old, new, line):
        text = gallery_text("s2-times-z")
        assert old in text
        path = tmp_path / "bad.rep"
        path.write_text(text.replace(old, new, 1))
        code, _, err = run_cli("check-stability", str(path), "--depth", "2")
        assert code == 65
        assert f"line {line}," in err and "Traceback" not in err

    @pytest.mark.parametrize("inserted,before,line", [
        # before, a second group block merged into S2*S3*Z and the error
        # landed on a generator line
        ("group\n  surface 3\n", "generators\n", 4),
        ("generators\n", "  t1 = (9.625", 9),
        ("disks\n", "  t1 center", 12),
        ("meta\n", "  name s2-times-z", 15),
    ])
    def test_repeated_section_is_65_at_its_header(self, tmp_path, inserted,
                                                   before, line):
        text = gallery_text("s2-times-z")
        assert before in text
        path = tmp_path / "bad.rep"
        path.write_text(text.replace(before, inserted + before, 1))
        code, out, err = run_cli("check-stability", str(path), "--depth", "2")
        assert (code, out) == (65, "")
        section = inserted.split()[0]
        assert (f"line {line}, column 1: repeated section {section!r}\n"
                in err) and "Traceback" not in err

    def test_missing_factor_disk_is_named_as_written(self, tmp_path):
        path = tmp_path / "bad.rep"
        path.write_text(gallery_text("s2-times-z").replace(
            "  factor 1 center (0.0, -0.0) radius 1.9000000000000001\n", "",
            1))
        code, out, err = run_cli("check-stability", str(path), "--depth", "2")
        assert (code, out) == (65, "")
        assert "line 10, column 1: no disk for factor 1\n" in err

    def test_disk_keyed_by_a_surface_letter_is_65_on_its_line(self,
                                                               tmp_path):
        # before, the a1 disk went into the free-disk table and the file
        # was refused at the `disks` header for the missing t1 disk
        path = tmp_path / "bad.rep"
        path.write_text(gallery_text("s2-times-z").replace(
            "  t1 center", "  a1 center", 1))
        code, out, err = run_cli("check-stability", str(path), "--depth", "2")
        assert (code, out) == (65, "")
        assert "line 12, column 1: 'a1' is a surface letter" in err
        assert "`factor N`" in err and "Traceback" not in err

    @pytest.mark.parametrize("entries", [
        # det 1, but the rounding noise of the entries overflows
        "(1e200, 0.0) (0.0, 0.0) (0.0, 0.0) (1e-200, 0.0)",
        # singular, with a noise bound of inf that any error would pass
        "(1e154, 0.0) (1e154, 0.0) (1e154, 0.0) (1e154, 0.0)",
    ])
    def test_huge_entries_are_65_with_line(self, tmp_path, entries):
        path = tmp_path / "big.rep"
        path.write_text("group\n  free 2\ngenerators\n"
                        f"  a = {entries}\n"
                        "  b = (2.0, 0.0) (0.0, 0.0) (0.0, 0.0) (0.5, 0.0)\n")
        code, out, err = run_cli("check-stability", str(path), "--depth", "2")
        assert (code, out) == (65, "")
        assert "line 4, column 1: entries too large" in err
        assert "Traceback" not in err

    def test_rep_file_not_utf8_is_65_with_line(self, tmp_path):
        data = gallery_text("schottky2").encode()
        path = tmp_path / "bad.rep"
        path.write_bytes(data.replace(b"meta", b"m\xe9ta"))
        code, _, err = run_cli("check-stability", str(path), "--depth", "2")
        assert code == 65
        assert "line 11, column 2: not UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ("check-stability", "schottky2", "--depth", "2", "--csv",
         "{missing}/x.csv"),
        ("whitehead", "a1 t1", "--genera", "2", "--rank", "1", "--dot",
         "{missing}/g.dot"),
        ("whitehead", "a b", "--dot", "{missing}/g.dot"),
        ("sweep", "--grid", "2", "--depth", "2", "--csv", "{missing}/s.csv"),
        ("examples", "--write", "{file}"),
    ])
    def test_io_error_is_74(self, tmp_path, capsys, command):
        # exit 1 would read "fail" or "not separable"
        (tmp_path / "file").write_text("")
        argv = [a.format(missing=tmp_path / "missing", file=tmp_path / "file")
                for a in command]
        assert main(argv) == 74
        _, err = capsys.readouterr()
        assert err.startswith("error: ") and str(tmp_path) in err

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

    @staticmethod
    def s2z_with(tmp_path, letter, matrix):
        """s2-times-z.rep with one generator's matrix replaced."""
        lines = gallery_text("s2-times-z").splitlines(keepends=True)
        k, = [k for k, line in enumerate(lines)
              if line.startswith(f"  {letter} = ")]
        lines[k] = f"  {letter} = {matrix}\n"
        path = tmp_path / "changed.rep"
        path.write_text("".join(lines))
        return path

    def test_overflowing_isometric_disk_is_a_failed_certificate(
            self, tmp_path, capsys):
        # b1's isometric disks are too large for floats: the certificate
        # records every failure and the sweep still runs, but b1 breaks
        # the surface relator, so no verdict but inconclusive can stand
        path = self.s2z_with(tmp_path, "b1",
                             "(2.0, 0.0) (0.0, 0.0) (1e-201, 0.0) (0.5, 0.0)")
        csv = tmp_path / "big-b1.csv"
        code = main(["check-stability", str(path), "--depth", "2",
                     "--csv", str(csv)])
        out = capsys.readouterr().out.splitlines()
        start = out.index("ping-pong certificate: FAILED") + 1
        failures = [line for line in out[start:] if line.startswith("  ")]
        assert len(failures) == 7
        assert failures.count("  b1 has no isometric disk") == 1
        assert failures.count("  B1 has no isometric disk") == 1
        assert code == 2 and "verdict: inconclusive" in out
        assert ("reason: relator residual 218 of factor 1 is not below "
                "1e-08: the matrices are no representation of the group"
                in out)
        assert len(csv.read_text().splitlines()) == 61  # header + 60 classes

    def test_overflowing_relator_is_no_representation(self, tmp_path,
                                                      capsys):
        # a1 = diag(1e100, 1e-100): the relator product overflows floats,
        # which the certificate and the verdict read as residual inf
        path = self.s2z_with(tmp_path, "a1",
                             "(1e100, 0.0) (0.0, 0.0) (0.0, 0.0) "
                             "(1e-100, 0.0)")
        code = main(["check-stability", str(path), "--depth", "2"])
        out = capsys.readouterr().out.splitlines()
        assert code == 2
        assert "  relator residual inf too large for factor 1" in out
        assert ("reason: relator residual inf of factor 1 is not below "
                "1e-08: the matrices are no representation of the group"
                in out)

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli("sweep", "--grid", "1,2", "--depth", "3",
                             "--csv", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "parameter,margin,k_est,a_est,verdict,error"
        assert len(lines) == 3
        assert "error" in lines[1] and "pass" in lines[2]

    def test_sweep_imports_no_numpy(self):
        # numpy is not a declared dependency, so nothing may import it
        script = ("import sys\n"
                  "from sepstab.cli import main\n"
                  "code = main(['sweep', '--grid', '2,3', '--depth', '2'])\n"
                  "assert code == 0, code\n"
                  "assert 'numpy' not in sys.modules\n")
        r = subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert "parameter,margin" in r.stdout

    def test_runtime_needs_no_mpmath(self, tmp_path):
        # mpmath is a test dependency only: with its import blocked, every
        # module imports and the CLI prints what it prints with it
        script = ("import contextlib, importlib, io, json, pkgutil, sys\n"
                  "if sys.argv[1] == 'block':\n"
                  "    sys.modules['mpmath'] = None\n"
                  "import sepstab\n"
                  "for mod in pkgutil.iter_modules(sepstab.__path__):\n"
                  "    importlib.import_module('sepstab.' + mod.name)\n"
                  "from sepstab.cli import main\n"
                  "runs = []\n"
                  "for argv in json.loads(sys.argv[2]):\n"
                  "    out = io.StringIO()\n"
                  "    with contextlib.redirect_stdout(out):\n"
                  "        runs.append((main(argv), out.getvalue()))\n"
                  "print(json.dumps(runs))\n")
        commands = json.dumps([
            ["check-stability", "s2-times-z", "--depth", "3"],
            ["check-stability", "pinched-a", "--depth", "2"],
            ["separable", "a1 t1 A1 T1", "--genera", "2", "--rank", "1"],
            ["whitehead", "a1 t1 b1 T1", "--genera", "2", "--rank", "1",
             "--dot", str(tmp_path / "g.dot")],
            ["examples", "--write", str(tmp_path)],
            ["check-stability", str(tmp_path / "schottky2.rep"),
             "--depth", "4"]])
        runs = {}
        for mode in ("block", "allow"):
            r = subprocess.run([sys.executable, "-c", script, mode, commands],
                               capture_output=True, text=True)
            assert r.returncode == 0, r.stderr
            runs[mode] = json.loads(r.stdout)
        assert runs["block"] == runs["allow"]
        assert [code for code, _ in runs["block"]] == [0, 1, 1, 0, 0, 0]

    def test_runtime_imports_no_dataclasses(self):
        # the records are NamedTuples and plain classes: dataclasses would
        # bring inspect, ast, dis and tokenize into every start-up (the
        # modules are listed with os, as pkgutil.iter_modules imports inspect)
        script = ("import contextlib, importlib, io, os, sys\n"
                  "import sepstab\n"
                  "for name in os.listdir(sepstab.__path__[0]):\n"
                  "    if name.endswith('.py') and name[0] != '_':\n"
                  "        importlib.import_module('sepstab.' + name[:-3])\n"
                  "from sepstab.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    code = main(['check-stability', 's2-times-z',\n"
                  "                 '--depth', '3'])\n"
                  "assert code == 0, code\n"
                  "print(sorted({'dataclasses', 'inspect'}\n"
                  "             & set(sys.modules)))\n")
        r = subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "[]\n"

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
