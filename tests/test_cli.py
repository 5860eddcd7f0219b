import glob
import json
import os
import re
import subprocess
import sys
import time

import pytest

from towerlim.cli import (
    EXIT_DEPTH,
    EXIT_ILL_DEFINED,
    EXIT_OK,
    EXIT_PARSE,
    dispatch,
    main,
)
from towerlim.towerfile import (
    ParseError,
    UnresolvedReference,
    dump_tower,
    parse,
    parse_text,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fixture(name):
    return os.path.join(ROOT, "towers", name)


with open(os.path.join(ROOT, "tests", "report_schema.json"), encoding="utf-8") as _fh:
    REPORT_SCHEMA = json.load(_fh)
_TYPES = {"string": str, "object": dict, "array": list, "integer": int}


def validate_report(report):
    """Check a report against tests/report_schema.json (the subset of JSON
    Schema that file uses).  Returns a list of problems."""
    if not isinstance(report, dict):
        return ["report is not an object"]
    props = REPORT_SCHEMA["properties"]
    problems = ["missing key %r" % key for key in REPORT_SCHEMA["required"]
                if key not in report]
    for key, value in report.items():
        if key not in props:
            problems.append("unexpected key %r" % key)
            continue
        spec = props[key]
        want = _TYPES[spec["type"]]
        if not isinstance(value, want) or (want is int and isinstance(value, bool)):
            problems.append("key %r must be %s" % (key, spec["type"]))
            continue
        if "enum" in spec and value not in spec["enum"]:
            problems.append("key %r not in its enumeration" % key)
        if "pattern" in spec and not re.match(spec["pattern"], value):
            problems.append("key %r does not match %s" % (key, spec["pattern"]))
        if "minimum" in spec and value < spec["minimum"]:
            problems.append("key %r below minimum" % key)
        if spec.get("items", {}).get("type") == "string":
            if not all(isinstance(x, str) for x in value):
                problems.append("entries of %r must be strings" % key)
    return problems


class TestParser:
    def test_solenoid_fixture(self):
        doc = parse(fixture("solenoid_2.tower"))
        t = doc.towers["main"]
        assert t.tail_group.smith_invariants == (1, [])
        assert t.tail_endo.matrix.data == ((2,),)
        assert "milnor" in doc.ses
        assert doc.stowers["shape"].family == "solenoid"

    def test_undefined_map_reference(self):
        text = "[group Zg]\ngenerators = 1\n[tower t]\ntail_group = Zg\ntail_endo = nope\n"
        with pytest.raises(UnresolvedReference):
            parse_text(text)

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_text("")

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_text("[group G]\ngenerators = 1\ncolour = blue\n")
        assert err.value.line == 3

    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError):
            parse_text("[wibble w]\n")

    def test_bad_matrix_entry(self):
        with pytest.raises(ParseError):
            parse_text("[group G]\ngenerators = 1\nrelations = [x]\n")

    def test_relator_rows_are_relators(self):
        doc = parse_text("[group G]\ngenerators = 2\nrelations = [2 0; 0 3]\n")
        assert doc.groups["G"].smith_invariants == (0, [6])

    def test_round_trip(self):
        # every [tower] of the shipped files comes back from its dump
        towers = [t for path in sorted(glob.glob(os.path.join(ROOT, "towers", "*.tower")))
                  for t in parse(path).towers.values()]
        assert len(towers) == 10
        for t in towers:
            assert parse_text(dump_tower(t)).towers["main"] == t

    def test_round_trip_of_lab_towers(self):
        from towerlim.lab import LabConfig, gen_tower, trial_rng
        cfg = LabConfig(master_seed=7, trials=300)
        prefixed = 0
        for i in range(300):
            t = gen_tower(trial_rng(7, "dump", i), cfg)
            prefixed += t.prefix_len > 0
            assert parse_text(dump_tower(t)).towers["main"] == t
        assert prefixed > 100

    def test_dump_tower_replayable(self):
        from towerlim.exactlat import cyclic_group, free_group, hom_make
        from towerlim.towers import periodic_tower
        Z = free_group(1)
        Z2 = cyclic_group(2)
        t = periodic_tower([Z2], [], Z, hom_make(Z, Z, [[6]]),
                           splice=hom_make(Z, Z2, [[1]]))
        doc = parse_text(dump_tower(t))
        back = doc.towers["main"]
        assert back.tail_endo.matrix == t.tail_endo.matrix
        assert back.prefix_groups[0].smith_invariants == (0, [2])

    def test_adic_quotient_is_not_dumped(self):
        from towerlim.exactlat import free_group, hom_make
        from towerlim.towers import TowerError, adic_quotient_tower, make_streamed
        Z = free_group(1)
        with pytest.raises(TowerError, match="canonical = G A"):
            dump_tower(adic_quotient_tower(Z, hom_make(Z, Z, [[2]])))
        text = dump_tower(make_streamed("cluster_h1", (3,)))
        assert parse_text(text).towers["main"].params == (3,)


class TestDispatch:
    def test_lim1_solenoid(self):
        code, report, text = dispatch(["lim1", fixture("solenoid_2.tower")])
        assert code == 0
        assert report["result"]["tag"] == "completion_quotient"
        assert "Z_2/Z" in text and "uncountable" in text

    def test_lim_zero(self):
        code, report, text = dispatch(["lim", fixture("solenoid_2.tower")])
        assert code == 0 and report["result"]["is_trivial"]

    def test_steenrod_json_fields(self):
        code, report, _ = dispatch(
            ["steenrod", fixture("hawaiian.tower"), "--degree", "1", "--json"])
        assert code == 0
        assert report["result"]["lim_part"]["tag"] == "full_product"
        assert report["result"]["lim1_part"]["is_trivial"]

    def test_six_term_joints(self):
        code, report, _ = dispatch(["six-term", fixture("solenoid_2.tower")])
        assert code == 0
        joints = dict(j.split(":") for j in report["verified_joints"])
        assert joints["lim_sub"] == "verified"
        assert joints["lim_total"] == "verified"

    def test_lab_exit_zero(self):
        code, report, text = dispatch(
            ["lab", "--suite", "ml_equiv", "--seed", "42", "--trials", "10"])
        assert code == 0
        assert report["result"]["failed"] == 0

    def test_telescope(self):
        code, report, _ = dispatch(
            ["telescope", fixture("solenoid_2.tower"), "--m", "2"])
        assert code == 0
        assert report["result"]["retracts_to_level0"]

    def test_reports_validate(self):
        for argv in (["lim1", fixture("solenoid_2.tower")],
                     ["ml", fixture("solenoid_2.tower")],
                     ["cech", fixture("solenoid_2.tower"), "--degree", "1"],
                     ["compare", fixture("compare_2_3.tower"),
                      "--a", "two", "--b", "three"]):
            _, report, _ = dispatch(argv)
            assert validate_report(report) == []


class TestResourceBounds:
    """Inputs past a resource bound exit 3 with a reason that names the
    bound, before the work allocates."""

    @staticmethod
    def run_timed(argv, capsys):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        return code, out, err, elapsed

    @pytest.mark.parametrize("p, degree, bound", [
        (10 ** 13, 0, "over the bound of 100000 vertices per level"),
        # level 2 of solenoid(183) has 3 * 183^2 = 100467 vertices
        (183, 1, "level 2 of solenoid(183) would have 100467 vertices, "
                 "over the bound of 100000 vertices per level")])
    def test_oversized_solenoid_exits_3(self, tmp_path, capsys, p, degree, bound):
        path = tmp_path / "big.tower"
        path.write_text("[stower s]\nfamily = solenoid\nparams = [%d]\n" % p)
        code, _, err, elapsed = self.run_timed(
            ["steenrod", str(path), "--degree", str(degree)], capsys)
        assert code == EXIT_DEPTH
        assert err.startswith("too large: ") and bound in err
        assert elapsed < 1.0

    def test_solenoid_100_answers(self, tmp_path, capsys):
        # level 2 is a 30,000-vertex circle; the spot check of the bond
        # from it runs through the reduced complexes
        path = tmp_path / "s100.tower"
        path.write_text("[stower s]\nfamily = solenoid\nparams = [100]\n")
        code, out, _, elapsed = self.run_timed(
            ["steenrod", str(path), "--degree", "1"], capsys)
        assert code == EXIT_OK and out == "H_1: lim1 part 0, lim part 0, splits yes -> 0\n"
        assert elapsed < 2.0

    def test_dense_residue_bound(self, capsys, monkeypatch):
        # level 2 of the earring reduces to one vertex and two loops, so
        # its boundary from edges is 1 x 2, past a bound of 1 entry
        from towerlim import errors
        monkeypatch.setattr(errors, "MAX_DENSE_ENTRIES", 1)
        code, _, err, _ = self.run_timed(
            ["cech", fixture("hawaiian.tower"), "--degree", "0"], capsys)
        assert code == EXIT_DEPTH
        assert err == ("too large: the dense residue of a boundary map would have "
                       "1 x 2 = 2 entries, over the bound of 1 entries on a dense residue\n")

    def test_generator_count_bound(self, tmp_path, capsys):
        path = tmp_path / "gens.tower"
        path.write_text("[group G]\ngenerators = 10000000000000\n"
                        "[map m]\nsource = G\ntarget = G\nmatrix = [1]\n"
                        "[tower t]\ntail_group = G\ntail_endo = m\n")
        code, _, err, elapsed = self.run_timed(["lim", str(path)], capsys)
        assert code == EXIT_DEPTH
        assert err == ("too large: [group G] declares 10000000000000 generators, "
                       "over the bound of 10000 generators per group\n")
        assert elapsed < 1.0


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tower"
        bad.write_text("[group G]\ngenerators = one\n")
        assert main(["lim", str(bad)]) == 2

    def test_missing_file_is_2(self):
        assert main(["lim", "/nonexistent/x.tower"]) == 2

    def test_ill_defined_is_4(self, tmp_path):
        bad = tmp_path / "bad.tower"
        bad.write_text("[group Z2]\ngenerators = 1\nrelations = [2]\n"
                       "[group Z4]\ngenerators = 1\nrelations = [4]\n"
                       "[map m]\nsource = Z2\ntarget = Z4\nmatrix = [1]\n")
        assert main(["lim", str(bad)]) == 4

    def test_ses_with_a_prefix_is_4(self, tmp_path):
        bad = tmp_path / "prefix.tower"
        bad.write_text("[group Zg]\ngenerators = 1\n"
                       "[group T]\ngenerators = 1\nrelations = [2]\n"
                       "[map one]\nsource = Zg\ntarget = Zg\nmatrix = [1]\n"
                       "[map s]\nsource = Zg\ntarget = T\nmatrix = [1]\n"
                       "[tower p]\ntail_group = Zg\ntail_endo = one\n"
                       "prefix_groups = T\nsplice = s\n"
                       "[ses e]\nsub = p\ntotal = p\nquot = p\n"
                       "inject = one\nsurject = one\n")
        assert main(["six-term", str(bad)]) == 4

    def test_lim_answers_past_a_sequence_that_is_not_exact(self, tmp_path, capsys):
        # an [ses] is built, and checked for exactness, only by the command
        # that reads it
        path = tmp_path / "not_exact.tower"
        path.write_text("[group Zg]\ngenerators = 1\n"
                        "[map one]\nsource = Zg\ntarget = Zg\nmatrix = [1]\n"
                        "[map two]\nsource = Zg\ntarget = Zg\nmatrix = [2]\n"
                        "[tower p]\ntail_group = Zg\ntail_endo = one\n"
                        "[ses e]\nsub = p\ntotal = p\nquot = p\n"
                        "inject = two\nsurject = one\n")
        assert main(["lim", str(path)]) == EXIT_OK
        assert main(["six-term", str(path)]) == EXIT_ILL_DEFINED
        out, err = capsys.readouterr()
        assert out == "lim = Z\n"
        assert err == ("ill-defined input: not exact at level 0: image of the inclusion "
                       "differs from the kernel of the projection\n")

    def test_ses_names_are_checked_when_the_file_is_read(self, tmp_path, capsys):
        path = tmp_path / "dangling.tower"
        path.write_text("[group Zg]\ngenerators = 1\n"
                        "[map one]\nsource = Zg\ntarget = Zg\nmatrix = [1]\n"
                        "[tower p]\ntail_group = Zg\ntail_endo = one\n"
                        "[ses e]\nsub = p\ntotal = p\ninject = one\nsurject = one\n"
                        "[ses f]\ncanonical = Zg\n")
        assert main(["lim", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == "parse error: line 10: [ses e] is missing 'quot'\n"
        path.write_text(path.read_text().replace("total = p", "total = p\nquot = q"))
        assert main(["lim", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == "parse error: unresolved reference: q\n"
        path.write_text(path.read_text().replace("quot = q", "quot = p"))
        assert main(["lim", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == ("parse error: line 17: canonical takes a group "
                                           "name and an endo name\n")

    @pytest.mark.parametrize("argv, kind", [
        (["six-term", "compare_2_3.tower"], "ses"),
        (["steenrod", "compare_2_3.tower", "--degree", "0"], "stower"),
        (["telescope", "interleave_4_2.tower", "--m", "1"], "stower"),
        (["lim", None], "tower"),
        (["ml", None], "tower"),
    ])
    def test_a_missing_kind_of_section_is_named(self, tmp_path, capsys, argv, kind):
        path = tmp_path / "group_only.tower"
        path.write_text("[group G]\ngenerators = 1\n")
        argv = [argv[0], str(path) if argv[1] is None else fixture(argv[1])] + argv[2:]
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err == "parse error: no [%s] section in the file\n" % kind

    def test_unresolved_is_2(self):
        assert main(["lim", fixture("compare_2_3.tower"), "--tower", "nope"]) == 2

    def test_json_to_stdout(self, capsys):
        assert main(["lim1", fixture("solenoid_2.tower"), "--json"]) == 0
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert parsed["task"] == "lim1"

    @pytest.mark.parametrize("family, params", [
        ("hawaiian_h1", "[3]"), ("finite_sets", "[7 8]"), ("finite_sets", "[7]")])
    def test_parameterless_family_with_parameters_is_2(self, tmp_path, capsys,
                                                       family, params):
        bad = tmp_path / "params.tower"
        bad.write_text("[tower t]\nfamily = %s\nparams = %s\n" % (family, params))
        for command in ("lim", "lim1", "ml"):
            assert main([command, str(bad)]) == EXIT_PARSE
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "parse error: line 3: %s takes no parameters\n" % family

    @pytest.mark.parametrize("command, section, message", [
        ("lim", "[tower t]\nfamily = finite_sets\nparams = [7]\n",
         "line 3: finite_sets takes no parameters"),
        ("steenrod", "[stower s]\nfamily = solenoid\nparams = [1]\n",
         "line 3: solenoid needs one parameter p >= 2"),
        ("lim", "[tower t]\nfamily = cluster_h1\n",
         "line 2: cluster_h1 needs one parameter p >= 2"),
        ("steenrod", "[stower s]\nfamily = cluster_solenoids\n",
         "line 2: cluster_solenoids needs one parameter p >= 2"),
        ("lim", "[tower t]\nfamily = nosuch\nparams = [1]\n", "line 2: nosuch"),
        ("steenrod", "[stower s]\nfamily = nosuch\nparams = [1]\n", "line 2: nosuch"),
    ], ids=["finite_sets [7]", "solenoid [1]", "cluster_h1 unparameterised",
            "cluster_solenoids unparameterised", "unknown tower", "unknown stower"])
    def test_refused_params_are_located_at_their_line(self, tmp_path, capsys,
                                                       command, section, message):
        # params a known family refuses are blamed on `params =`; an
        # unknown family, or params missing, on `family =`
        bad = tmp_path / "params.tower"
        bad.write_text(section)
        argv = [command, str(bad)] + (["--degree", "0"] if command == "steenrod" else [])
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err == "parse error: %s\n" % message

    def test_adic_quotient_tower_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "adic.tower"
        bad.write_text("[tower main]\nfamily = adic_quotient\nparams = [1 2]\n")
        assert main(["lim", str(bad)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: line 2: adic_quotient")
        assert "[ses] canonical = G A" in err and "Traceback" not in err

    def test_depth_limited_is_3(self):
        assert main(["cech", fixture("hawaiian.tower"), "--degree", "1"]) == 3

    @pytest.mark.parametrize("name", ["hawaiian.tower", "cluster_2.tower"])
    def test_cech_degree_0_of_a_wedge_is_z(self, name):
        # every level is connected, and the spot-checked bonds are
        # isomorphisms of H^0 = Z
        code, report, text = dispatch(["cech", fixture(name), "--degree", "0"])
        assert code == EXIT_OK and text == "H^0 = Z"
        assert report["result"]["invariants"] == {"rank": 1, "torsion": []}
        assert validate_report(report) == []

    def test_cech_of_a_constant_self_map_is_zero(self, tmp_path):
        f = tmp_path / "const.tower"
        f.write_text("[complex C]\nvertices = 3\nsimplices = [0 1; 1 2; 0 2]\n"
                     "[smap c]\nsource = C\ntarget = C\nvertex_map = [0 0 0]\n"
                     "[stower main]\ntail_complex = C\ntail_map = c\n")
        code, report, text = dispatch(["cech", str(f), "--degree", "1"])
        assert code == 0 and text == "H^1 = 0"
        assert report["result"]["is_trivial"]

    @pytest.mark.parametrize("kind", ["stower", "tower"])
    def test_params_error_is_located_once(self, tmp_path, kind):
        bad = tmp_path / "bad.tower"
        bad.write_text("[%s main]\nfamily = solenoid\nparams = [2; 3]\n" % kind)
        with pytest.raises(ParseError) as info:
            parse(str(bad))
        assert str(info.value) == "line 3: params must be a single row"

    @pytest.mark.parametrize("section,message", [
        ("[stower s]\nfamily = solenoid\nparams = [2; 3]\n",
         "line 9: params must be a single row"),
        ("[complex C]\nvertices = x\nsimplices = [0 1]\n",
         "line 8: expected an integer, got 'x'"),
        ("[complex C]\nvertices = 2\nsimplices = [x]\n",
         "line 9: matrix entries must be decimal integers"),
        ("[complex C]\nvertices = 2\n", "line 7: [complex C] is missing 'simplices'"),
        ("[smap c]\nsource = C\ntarget = C\nvertex_map = [0]\n",
         "unresolved reference: C"),
        ("[complex C]\nvertices = 2\nsimplices = [0 1]\n"
         "[smap c]\nsource = C\ntarget = C\nvertex_map = [0; 1]\n",
         "line 10: vertex_map must be a single row"),
        ("[stower s]\ntail_complex = C\ntail_map = c\n", "unresolved reference: C"),
    ])
    def test_lim_rejects_a_malformed_simplicial_section(self, tmp_path, capsys,
                                                        section, message):
        bad = tmp_path / "bad.tower"
        bad.write_text("[group Z]\ngenerators = 1\n[map two]\nsource = Z\ntarget = Z\n"
                       "matrix = [2]\n" + section + "[tower main]\ntail_group = Z\n"
                       "tail_endo = two\n")
        assert main(["lim", str(bad)]) == EXIT_PARSE
        assert capsys.readouterr().err == "parse error: %s\n" % message

    @pytest.mark.parametrize("section,message", [
        ("[stower s]\nfamily = nosuch\n", "line 2: nosuch"),
        ("[complex C]\nvertices = 2\nsimplices = [0 2]\n"
         "[smap c]\nsource = C\ntarget = C\nvertex_map = [0 1]\n"
         "[stower s]\ntail_complex = C\ntail_map = c\n", "bad simplex (0, 2)"),
        ("[complex C]\nvertices = 2\nsimplices = [0 0 1]\n"
         "[smap c]\nsource = C\ntarget = C\nvertex_map = [0 1]\n"
         "[stower s]\ntail_complex = C\ntail_map = c\n", "bad simplex (0, 0, 1)"),
    ])
    def test_steenrod_rejects_an_ill_built_simplicial_section(self, tmp_path, capsys,
                                                              section, message):
        bad = tmp_path / "bad.tower"
        bad.write_text(section)
        assert main(["steenrod", str(bad), "--degree", "0"]) == EXIT_PARSE
        assert capsys.readouterr().err == "parse error: %s\n" % message


COMMANDS = ("lim", "lim1", "ml", "six-term", "steenrod", "cech", "interleave",
            "compare", "telescope", "lab")


class TestCommandSurface:
    """What `main` shows for bad or missing commands, and the exceptions it
    maps to exit codes, whichever modules the command loaded."""

    def test_unknown_suite_is_2_and_names_the_suites(self, capsys):
        from towerlim.lab import SUITE_NAMES
        with pytest.raises(SystemExit) as info:
            main(["lab", "--suite", "nosuch"])
        assert info.value.code == EXIT_PARSE
        err = capsys.readouterr().err
        assert "nosuch" in err and all(name in err for name in SUITE_NAMES)

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == EXIT_OK
        out = capsys.readouterr().out
        assert all(name in out for name in COMMANDS)

    def test_unknown_command_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["nosuch", fixture("solenoid_2.tower")])
        assert info.value.code == EXIT_PARSE
        err = capsys.readouterr().err
        assert "nosuch" in err and all(name in err for name in COMMANDS)

    @pytest.mark.parametrize("argv, option", [
        (["lim", "solenoid_2.tower", "--js"], "--js"),
        (["lim1", "solenoid_2.tower", "--jso"], "--jso"),
        (["compare", "compare_2_3.tower", "--a", "two", "--b", "three", "--dep", "1"],
         "--dep"),
    ])
    def test_abbreviated_option_is_refused(self, capsys, argv, option):
        # each option has one spelling, so main never prints text for a
        # --json that argparse would have completed
        with pytest.raises(SystemExit) as info:
            main([argv[0], fixture(argv[1])] + argv[2:])
        assert info.value.code == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: %s" % option in err

    def test_shape_error_is_4(self, capsys):
        code = main(["telescope", fixture("solenoid_2.tower"), "--m", "-1"])
        assert code == EXIT_ILL_DEFINED
        assert capsys.readouterr().err == "ill-defined input: telescope needs m >= 0\n"

    @pytest.mark.parametrize("argv, message", [
        (["interleave", "interleave_4_2.tower", "--a", "four", "--b", "two", "--depth", "-1"],
         "interleave needs depth >= 0"),
        (["compare", "compare_2_3.tower", "--a", "two", "--b", "three", "--depth", "-3"],
         "compare needs depth >= 0"),
        (["lab", "--suite", "prohom", "--trials", "-1"], "lab needs trials >= 0"),
        (["lab", "--suite", "ml_equiv", "--trials", "2", "--depth", "-1"],
         "lab needs depth >= 0"),
    ])
    def test_negative_depth_or_trials_is_4(self, monkeypatch, capsys, argv, message):
        from towerlim import lab, procat

        def no_work(*args, **kwargs):
            raise AssertionError("ran before the argument check")

        for module, name in ((procat, "find_interleaving"), (procat, "compare_invariants"),
                             (procat, "separating_invariant"), (lab, "run_suite")):
            monkeypatch.setattr(module, name, no_work)
        if argv[0] != "lab":
            argv = [argv[0], fixture(argv[1])] + argv[2:]
        assert main(argv) == EXIT_ILL_DEFINED
        out, err = capsys.readouterr()
        assert (out, err) == ("", "ill-defined input: %s\n" % message)

    def test_degree_mismatch_is_4(self, monkeypatch, capsys):
        from towerlim import shape

        def mismatch(*args):
            raise shape.DegreeMismatch("degrees differ")

        monkeypatch.setattr(shape, "homology_tower", mismatch)
        assert main(["steenrod", fixture("solenoid_2.tower"), "--degree", "0"]) == \
            EXIT_ILL_DEFINED
        assert capsys.readouterr().err == "ill-defined input: degrees differ\n"

    def test_too_large_has_one_class_object(self):
        from towerlim import cli, errors, limits
        assert cli.TooLarge is errors.TooLarge is limits.TooLarge

    def test_cli_names_every_mapped_exception(self):
        # the benchmark worker maps exceptions to exit codes by these names
        from towerlim import cli
        for name in ("ParseError", "UnresolvedReference", "DimensionMismatch",
                     "TooLarge", "IllDefined", "TowerError", "SimplicialError",
                     "ShapeError", "DegreeMismatch", "UnknownSuite"):
            assert issubclass(getattr(cli, name), Exception), name


def _fresh(code):
    """Run CODE in a fresh interpreter on this checkout; its printed JSON."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.startswith('towerlim'))"


class TestImportBoundary:
    """A process loads only the modules its command runs."""

    def test_commands_load_only_their_modules(self):
        after_lim, after_steenrod = _fresh(
            "import json, sys\n"
            "import towerlim.cli as cli\n"
            "assert cli.main(['lim', 'towers/solenoid_2.tower']) == 0\n"
            "lim = %s\n"
            "assert cli.main(['steenrod', 'towers/solenoid_2.tower', '--degree', '0']) == 0\n"
            "print(json.dumps([lim, %s]))" % (LOADED, LOADED))
        lazy = {"towerlim." + m for m in ("procat", "shape", "simplicial", "lab")}
        assert not lazy & set(after_lim)
        assert {"towerlim.shape", "towerlim.simplicial"} <= set(after_steenrod)

    def test_no_command_loads_dataclasses(self):
        # the records are plain classes, so no command pays for importing
        # dataclasses and the inspect, ast, dis and tokenize it pulls in;
        # the input digest is the interpreter's own SHA-256, so none loads
        # hashlib, _hashlib or OpenSSL; the command line is read from the
        # command table, so none loads argparse and the gettext and locale
        # it pulls in; and no module imports __future__
        commands = [
            ["lim", "towers/solenoid_2.tower"],
            ["lim1", "towers/solenoid_2.tower"],
            ["ml", "towers/hawaiian.tower"],
            ["six-term", "towers/solenoid_2.tower"],
            ["steenrod", "towers/solenoid_2.tower", "--degree", "0"],
            ["cech", "towers/solenoid_2.tower", "--degree", "1"],
            ["telescope", "towers/solenoid_2.tower", "--m", "2"],
            ["interleave", "towers/interleave_4_2.tower", "--a", "four", "--b", "two",
             "--depth", "2"],
            ["compare", "towers/compare_2_3.tower", "--a", "two", "--b", "three"],
            ["lab", "--suite", "ml_equiv", "--seed", "1", "--trials", "2"],
        ]
        codes, loaded = _fresh(
            "import json, sys\n"
            "import towerlim.cli as cli\n"
            "codes = [cli.main(argv) for argv in %r]\n"
            "print(json.dumps([codes, sorted(sys.modules)]))" % (commands,))
        assert codes == [0] * len(commands)
        assert not {"dataclasses", "inspect", "hashlib", "_hashlib", "argparse",
                    "gettext", "locale", "__future__"} & set(loaded)

    def test_bare_import_loads_no_submodule(self):
        loaded, unresolved, unlisted = _fresh(
            "import json, sys\n"
            "import towerlim\n"
            "loaded = %s\n"
            "unresolved = [n for n in towerlim.__all__ if n != '__version__' and\n"
            "              getattr(sys.modules[getattr(towerlim, n).__module__], n)\n"
            "              is not getattr(towerlim, n)]\n"
            "unlisted = sorted(set(towerlim.__all__) - set(dir(towerlim)))\n"
            "print(json.dumps([loaded, unresolved, unlisted]))" % LOADED)
        assert loaded == ["towerlim"]
        assert unresolved == [] and unlisted == []

    def test_submodules_are_attributes_of_a_bare_import(self):
        package = os.path.join(ROOT, "src", "towerlim")
        names = sorted(f[:-3] for f in os.listdir(package)
                       if f.endswith(".py") and f != "__init__.py")
        missing, unknown = _fresh(
            "import json, sys\n"
            "import towerlim\n"
            "missing = [m for m in %r\n"
            "           if getattr(towerlim, m) is not sys.modules['towerlim.' + m]]\n"
            "unknown = not hasattr(towerlim, 'nosuch')\n"
            "print(json.dumps([missing, unknown]))" % names)
        assert missing == [] and unknown


class TestGoldenReports:
    @pytest.mark.parametrize("argv,name", [
        (["lim1", "towers/solenoid_2.tower", "--json"], "lim1_solenoid_2"),
        (["steenrod", "towers/hawaiian.tower", "--degree", "1", "--json"],
         "steenrod_hawaiian_1"),
        (["six-term", "towers/solenoid_2.tower", "--json"], "six_term_solenoid_2"),
        (["compare", "towers/compare_2_3.tower", "--a", "two", "--b", "three",
          "--json"], "compare_2_3"),
        (["ml", "towers/hawaiian.tower", "--json"], "ml_hawaiian"),
        (["ml", "towers/cluster_2.tower", "--json"], "ml_cluster_2"),
        (["ml", "towers/null_sequence.tower", "--json"], "ml_null_sequence"),
        (["cech", "towers/solenoid_5.tower", "--degree", "1", "--json"],
         "cech_solenoid_5_1"),
        (["interleave", "towers/interleave_4_2.tower", "--a", "four", "--b", "two",
          "--depth", "2", "--json"], "interleave_4_2"),
        (["interleave", "towers/compare_2_3.tower", "--a", "two", "--b", "three",
          "--json"], "interleave_2_3"),
    ])
    def test_byte_for_byte(self, argv, name):
        from towerlim.report import report_json
        argv = [a if not a.startswith("towers/") else os.path.join(ROOT, a)
                for a in argv]
        _, report, _ = dispatch(argv)
        with open(os.path.join(ROOT, "tests", "golden", name + ".json"), "rb") as fh:
            golden = fh.read()
        assert report_json(report).encode("utf-8") == golden

    def test_golden_reports_validate(self):
        gdir = os.path.join(ROOT, "tests", "golden")
        for name in os.listdir(gdir):
            with open(os.path.join(gdir, name)) as fh:
                assert validate_report(json.load(fh)) == []


def _digest_inputs():
    inputs = {"empty": b"", "non-ascii str": "[group Ĝ]\ngenerators = 1  # Čech, lim¹\n"}
    for path in sorted(glob.glob(os.path.join(ROOT, "towers", "*.tower"))):
        with open(path, "rb") as fh:
            inputs[os.path.basename(path)] = fh.read()
    inputs["1 MB"] = bytes(range(256)) * 4096
    return inputs


DIGEST_INPUTS = _digest_inputs()


@pytest.mark.parametrize("data", DIGEST_INPUTS.values(), ids=DIGEST_INPUTS.keys())
def test_input_digest_matches_hashlib(data):
    # the report's built-in SHA-256 against OpenSSL's, so every recorded
    # digest stays the same
    import hashlib
    from towerlim.report import input_digest
    raw = data.encode("utf-8") if isinstance(data, str) else data
    assert input_digest(data) == "sha256:" + hashlib.sha256(raw).hexdigest()


SMOKE_COMMANDS = (["lim"], ["lim1"], ["ml"], ["six-term"],
                  ["cech", "--degree", "0"], ["cech", "--degree", "1"],
                  ["steenrod", "--degree", "1"], ["telescope", "--m", "1"]) + tuple(
    [cmd, "--a", a, "--b", b, "--depth", depth]
    for cmd in ("interleave", "compare")
    for a, b in (("four", "two"), ("two", "three"))     # the two shipped pair files
    for depth in ("1", "2"))


@pytest.mark.parametrize("command", SMOKE_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(os.path.join(ROOT, "towers")) if f.endswith(".tower")))
def test_every_sample_input_exits_with_a_code(name, command, capsys):
    # a command that does not apply to a file (no tower, no stower, no
    # ses) is a parse error, never a traceback
    code = main([command[0], fixture(name)] + command[1:])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_DEPTH, EXIT_ILL_DEFINED)
    assert "Traceback" not in capsys.readouterr().err


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "towerlim.cli", "lim1",
         os.path.join(ROOT, "towers", "solenoid_3.tower")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Z_3/Z" in proc.stdout
