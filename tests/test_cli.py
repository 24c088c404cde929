import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sqdepth import cli, complexes, ideals, invariants, reports
from sqdepth.cli import main
from sqdepth.errors import CapExceededError
from sqdepth.homology import RATIONALS, CoefficientField
from sqdepth.ideals import IdealPair, minimalize
from sqdepth.invariants import alpha
from sqdepth.problems import parse_problem_file
from sqdepth.randgen import random_module_pair, random_pair, random_quotient_pair
from sqdepth.reports import (
    build_depth_document,
    build_invariants_document,
    build_verify_document,
    serialize_document,
)

import oracles

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SRC = CORPUS.parent / "src"

TINY = "n: 2\nlabel: tiny\nJ: x1, x2\nI: x1*x2\n"


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny.ideal"
    path.write_text(TINY, encoding="utf-8")
    return path


class TestInvariantsCommand:
    def test_human_output(self, tiny_file, capsys):
        assert main(["invariants", str(tiny_file)]) == 0
        out = capsys.readouterr().out
        assert "hdepth: 1" in out
        assert "dim: 1" in out
        assert "alpha: 0 2 0" in out

    def test_json_document(self, tiny_file, tmp_path, capsys):
        json_path = tmp_path / "out.json"
        assert main(["invariants", str(tiny_file), "--json", str(json_path)]) == 0
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        assert doc["command"] == "invariants"
        assert doc["n"] == 2
        assert doc["alpha"] == ["0", "2", "0"]
        assert doc["hdepth"] == 1 and doc["dim"] == 1
        assert doc["depth"] is None and doc["cm"] is None
        assert doc["h_vector"] == ["0", "2"]
        assert {"alpha", "beta_table", "checks", "cm", "depth", "dim", "field",
                "h_vector", "hdepth", "n"} <= set(doc)

    def test_deterministic_modulo_timing(self, tiny_file, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["invariants", str(tiny_file), "--json", str(p1)])
        main(["invariants", str(tiny_file), "--json", str(p2)])
        d1 = json.loads(p1.read_text())
        d2 = json.loads(p2.read_text())
        d1.pop("timing_ms"), d2.pop("timing_ms")
        assert d1 == d2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ideal"
        bad.write_text("n: 2\nJ: unit\nI: x1*x1\n", encoding="utf-8")
        assert main(["invariants", str(bad)]) == 1
        assert "non-squarefree" in capsys.readouterr().err

    def test_parse_error_names_its_place_in_the_file(self, tmp_path, capsys):
        # used to name the position inside the value: "line 1, col 4"
        bad = tmp_path / "bad.ideal"
        bad.write_text("n: 4\n# x5 is out of range\nJ: unit\n\nI: x1*x5\n", encoding="utf-8")
        assert main(["depth", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: line 5, col 7: variable index 5 out of range 1..4\n"
        assert captured.out == ""

    def test_invalid_pair_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ideal"
        bad.write_text("n: 2\nJ: x1*x2\nI: x1\n", encoding="utf-8")
        assert main(["invariants", str(bad)]) == 1

    def test_variable_count_beyond_limit(self, tmp_path, capsys):
        bad = tmp_path / "wide.ideal"
        bad.write_text("n: 70\nJ: unit\nI: x1\n", encoding="utf-8")
        assert main(["invariants", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 1:")
        assert "70" in err and "Traceback" not in err

    def test_composite_field(self, tiny_file, capsys):
        assert main(["invariants", str(tiny_file), "--field", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "4 is not 0 or a prime" in err

    def test_cap_exceeded(self, tiny_file, capsys):
        assert main(["invariants", str(tiny_file), "--max-n", "1"]) == 1
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("invariants", "depth", "verify"))
    @pytest.mark.parametrize("cap", ("0", "-1"))
    def test_max_n_below_one_names_the_flag(self, command, cap, tiny_file, capsys):
        # used to end in "n=2 exceeds the enumeration cap -1"
        assert main([command, str(tiny_file), "--max-n", cap]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --max-n {cap}: N must be at least 1\n"
        assert captured.out == ""

    def test_max_n_below_one_in_a_random_sweep(self, capsys):
        assert main(["verify", "--random", "3", "--max-n", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --max-n 0: N must be at least 1\n"
        assert captured.out == ""

    def test_table_too_large_for_memory(self, tmp_path, capsys):
        # raising --max-n to 40 used to end in numpy's allocation error; the
        # path x1*x2, ..., x39*x40 uses all 40 variables, so alpha's tables
        # span 2^40 masks
        path = ", ".join(f"x{v}*x{v + 1}" for v in range(1, 40))
        wide = tmp_path / "wide.ideal"
        wide.write_text(f"n: 40\nJ: unit\nI: {path}\n", encoding="utf-8")
        assert main(["invariants", str(wide), "--max-n", "40"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bytes" in err and "n=40" in err

    def test_free_variables_need_no_table(self, tmp_path, capsys):
        # x1*x2 and x39*x40 use 4 of the 40 variables: alpha is counted on
        # 2^4 masks and the other 36 variables are free
        wide = tmp_path / "wide.ideal"
        wide.write_text("n: 40\nJ: unit\nI: x1*x2, x39*x40\n", encoding="utf-8")
        assert main(["invariants", str(wide), "--max-n", "40"]) == 0
        out = capsys.readouterr().out.splitlines()
        counts = next(line for line in out if line.startswith("alpha:")).split()[1:]
        assert (counts[2], counts[38]) == ("778", "4")
        assert "hdepth: 38" in out

    def test_few_generators_need_no_table(self, tmp_path, capsys):
        # three disjoint generators of 15 variables each use 45 of the 63
        # variables: invariants counts alpha by inclusion-exclusion over
        # them, while depth and verify build Delta(J) over 2^45 masks and
        # stop at the table budget
        gens = ", ".join("*".join(f"x{v}" for v in range(first, first + 15))
                         for first in (1, 16, 31))
        wide = tmp_path / "wide.ideal"
        wide.write_text(f"n: 63\nJ: {gens}\nI: zero\n", encoding="utf-8")
        assert main(["invariants", str(wide), "--max-n", "63"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "hdepth: 62" in out and "dim: 63" in out
        for command in ("depth", "verify"):
            assert main([command, str(wide), "--max-n", "63"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: 45 of the n=63 variables need") and err.count("\n") == 1


class TestUnreadableFiles:
    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
    def test_problem_file_is_an_error(self, case, tmp_path, capsys):
        path = tmp_path if case == "directory" else tmp_path / f"{case}.ideal"
        if case == "not-utf8":
            path.write_bytes(TINY.encode() + b"# \xff\n")
        assert main(["depth", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read problem file {path}: ")
        assert captured.out == ""

    def test_json_into_a_missing_directory(self, tiny_file, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "x.json"
        assert main(["invariants", str(tiny_file), "--json", str(target)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")

    def test_random_sweep_json_into_a_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "x.json"
        assert main(["verify", "--random", "2", "--json", str(target)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")


class TestEnumerationCap:
    BUILDERS = (build_invariants_document, build_depth_document, build_verify_document)

    @pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
    def test_refused_before_any_table(self, build, monkeypatch):
        pair = IdealPair.quotient(minimalize([0b11] + [1 << v for v in range(2, 12)], 12))

        def no_tables(*args, **kwargs):
            raise AssertionError("a subset table was sized")

        # every table builder sizes its tables here before it allocates
        with monkeypatch.context() as m:
            m.setattr(ideals, "check_table_budget", no_tables)
            m.setattr(invariants, "check_table_budget", no_tables)
            with pytest.raises(CapExceededError) as refused:
                build(pair, RATIONALS, {}, cap=11)
        assert str(refused.value) == (
            "n=12 exceeds the enumeration cap 11; raise it explicitly if intended")
        assert build(pair, RATIONALS, {}, cap=12)["n"] == 12


class TestDepthCommand:
    def test_depth_fields(self, tiny_file, tmp_path, capsys):
        json_path = tmp_path / "out.json"
        assert main(["depth", str(tiny_file), "--json", str(json_path)]) == 0
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        assert doc["depth"] == 1 and doc["cm"] is True
        assert doc["field"] == "QQ"
        out = capsys.readouterr().out
        assert "depth: 1" in out

    def test_prime_field_recorded(self, tiny_file, tmp_path):
        json_path = tmp_path / "out.json"
        assert main(["depth", str(tiny_file), "--field", "32003",
                     "--json", str(json_path)]) == 0
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        assert doc["field"] == "GF(32003)"

    def test_prime_too_large_for_exact_ranks(self, capsys):
        # mod-p ranks overflowed int64 here and reported depth 3 (QQ: 4)
        assert main(["depth", str(CORPUS / "section3-example.ideal"),
                     "--field", "4294967311"]) == 1
        captured = capsys.readouterr()
        assert "depth:" not in captured.out
        assert captured.err.startswith("error: ")
        assert "2^31" in captured.err

    def test_face_cap_exceeded(self, tmp_path, monkeypatch, capsys):
        # the top-face module on six variables has no cone vertex, and its
        # pass lists 22 delta faces by level 2
        from sqdepth import homology

        path = tmp_path / "top-face-6.ideal"
        path.write_text("n: 6\nJ: x1*x2*x3*x4*x5*x6\nI: zero\n", encoding="utf-8")
        monkeypatch.setattr(homology, "FACE_CAP", 20)
        assert main(["depth", str(path)]) == 1
        captured = capsys.readouterr()
        assert "depth:" not in captured.out
        assert captured.err.startswith("error: face count exceeds the cap 20")

    def test_cone_vertices_count_nothing_against_the_cap(self, tmp_path, monkeypatch, capsys):
        # S on six variables: every vertex is a cone vertex, so the pass
        # lists no face and answers under the cap that the module above
        # exceeds
        from sqdepth import homology

        path = tmp_path / "s6.ideal"
        path.write_text("n: 6\nJ: unit\nI: zero\n", encoding="utf-8")
        monkeypatch.setattr(homology, "FACE_CAP", 20)
        assert main(["depth", str(path)]) == 0
        assert "depth: 6  (QQ)" in capsys.readouterr().out.splitlines()

    def test_free_variables_answer(self, tmp_path):
        # x1*x2 and x23*x24 leave x3..x22 in every facet of delta: the pass
        # runs on the link pair at those 20 cone vertices, four vertices
        # and two missing edges, not on the 2^24 faces of delta
        path = tmp_path / "free-24.ideal"
        path.write_text("n: 24\nJ: unit\nI: x1*x2, x23*x24\n", encoding="utf-8")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "sqdepth", "depth", str(path)],
                             capture_output=True, text=True, env=env, timeout=10)
        assert (run.returncode, run.stderr) == (0, "")
        assert "depth: 22  (QQ)" in run.stdout.splitlines()

    def test_witness_on_non_cm(self, tmp_path, capsys):
        path = tmp_path / "disc.ideal"
        path.write_text("n: 3\nJ: unit\nI: x1*x2, x1*x3\n", encoding="utf-8")
        json_path = tmp_path / "out.json"
        assert main(["depth", str(path), "--json", str(json_path)]) == 0
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        assert doc["cm"] is False
        assert doc["cm_witness"] == {"face": "{}", "dimension": 0}


class TestClosedStdout:
    # a reader that stops early, as `sqdepth depth ... | head -1` does,
    # closes the pipe: the run ends with exit code 1 and no traceback

    def test_broken_pipe_in_process(self, tmp_path, monkeypatch, capsys):
        sink = (tmp_path / "stdout").open("w")

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return sink.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            assert main(["depth", str(CORPUS / "rp2-qq.ideal")]) == 1
            # what is left of the report goes to the null device
            assert os.path.samestat(os.fstat(sink.fileno()), os.stat(os.devnull))
        finally:
            sink.close()
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_pipe_closed_before_the_first_write(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        try:
            run = subprocess.run([sys.executable, "-m", "sqdepth", "depth",
                                  str(CORPUS / "rp2-qq.ideal")],
                                 stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (run.returncode, run.stderr) == (1, b"")


class TestVerifyCommand:
    def test_all_checks_pass(self, tiny_file, tmp_path, capsys):
        json_path = tmp_path / "out.json"
        assert main(["verify", str(tiny_file), "--json", str(json_path)]) == 0
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        statuses = {c["name"]: c["status"] for c in doc["checks"]}
        assert statuses["hdepth-degree-bounds"] == "pass"
        assert statuses["depth-le-hdepth"] == "pass"
        assert "fail" not in statuses.values()

    def test_skip_depth_skips_checks(self, tiny_file, tmp_path):
        json_path = tmp_path / "out.json"
        assert main(["verify", str(tiny_file), "--skip-depth",
                     "--json", str(json_path)]) == 0
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        statuses = {c["name"]: c["status"] for c in doc["checks"]}
        assert doc["depth"] is None
        assert statuses["depth-le-hdepth"] == "skipped"

    def test_random_sweep(self, capsys):
        assert main(["verify", "--random", "30", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "30 of 30 random instances verified" in out

    def test_full_simplex_trivial_file(self, tmp_path, capsys):
        path = tmp_path / "full.ideal"
        path.write_text("n: 6\nJ: unit\nI: zero\n", encoding="utf-8")
        json_path = tmp_path / "out.json"
        assert main(["verify", str(path), "--json", str(json_path)]) == 0
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        assert doc["dim"] == 6 and doc["hdepth"] == 6 and doc["depth"] == 6
        assert not any(c["status"] == "fail" for c in doc["checks"])

    def test_verify_without_file_or_random(self, capsys):
        assert main(["verify"]) == 1

    def test_verify_without_file_or_random_is_an_error_line(self, capsys):
        # the one error path that printed its message without "error: "
        assert main(["verify"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: verify needs a problem file or --random COUNT\n"
        assert captured.out == ""

    def test_negative_random_count(self, capsys):
        assert main(["verify", "--random", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --random -3")
        assert "verified" not in captured.out

    def test_file_and_random_together(self, tiny_file, capsys):
        assert main(["verify", str(tiny_file), "--random", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert str(tiny_file) in captured.err
        assert captured.out == ""


def _statuses(doc):
    return {c["name"]: c["status"] for c in doc["checks"]}


class TestSkeletonCheck:
    KINDS = (random_quotient_pair, random_module_pair, random_pair)

    def test_detects_a_dropped_face(self, monkeypatch):
        # the check compares face-table counts with alpha; losing one face
        # of psi must surface at the level of that face's size
        real = complexes.face_table
        dropped = []

        def drop_first_face(x):
            table = real(x)
            if isinstance(x, complexes.RelativeComplex):
                face = int(np.flatnonzero(oracles.unpack(table, x.n))[0])
                table &= ~(1 << face)  # a table over 2^6 masks is one int
                dropped.append(face)
            return table

        rng = random.Random(83)
        for kind in self.KINDS:
            pair = kind(rng, 6)
            doc = build_verify_document(pair, CoefficientField(0), {}, skip_depth=True)
            assert _statuses(doc)["skeleton-h-vector"] == "pass"
            with monkeypatch.context() as m:
                m.setattr(complexes, "face_table", drop_first_face)
                doc = build_verify_document(pair, CoefficientField(0), {}, skip_depth=True)
            check = next(c for c in doc["checks"] if c["name"] == "skeleton-h-vector")
            assert check["status"] == "fail"
            assert check["details"].startswith(f"level {dropped[-1].bit_count()}:")

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
    def test_all_checks_pass_at_n20(self, kind):
        pair = kind(random.Random(20), 20)
        doc = build_verify_document(pair, CoefficientField(0), {}, skip_depth=True)
        assert doc["n"] == 20
        assert set(_statuses(doc).values()) <= {"pass", "skipped"}
        assert _statuses(doc)["skeleton-h-vector"] == "pass"


class TestColonChecks:
    KINDS = (random_quotient_pair, random_module_pair, random_pair)

    @staticmethod
    def _check(doc, name):
        return next(c for c in doc["checks"] if c["name"] == name)

    def test_detects_a_dropped_facet_of_psi(self, monkeypatch):
        # psi's facets come from Delta(I) and Delta(J), the colon's from the
        # table of (I : J); losing one facet of psi must fail the comparison
        real = reports.relative_of_pair

        def drop_first_facet(pair):
            psi = real(pair)
            psi.__dict__["facets"] = psi.facets[1:]  # the cached facets, one short
            return psi

        rng = random.Random(89)
        for kind in self.KINDS:
            pair = kind(rng, 6)
            doc = build_verify_document(pair, CoefficientField(0), {}, skip_depth=True)
            assert self._check(doc, "facet-colon-agreement")["status"] == "pass"
            with monkeypatch.context() as m:
                m.setattr(reports, "relative_of_pair", drop_first_facet)
                doc = build_verify_document(pair, CoefficientField(0), {}, skip_depth=True)
            check = self._check(doc, "facet-colon-agreement")
            assert (check["status"], check["details"]) == ("fail", "facet sets differ")

    def test_detects_a_wrong_dim(self, monkeypatch):
        # the report's dim is alpha's top degree; zeroing that count moves
        # dim down by one, and the colon path must disagree
        real = reports.alpha

        def drop_top_degree(pair):
            a = real(pair)
            counts = list(a.counts)
            counts[a.max_degree] = 0
            return invariants.AlphaVector(a.n, tuple(counts))

        rng = random.Random(97)
        for kind in self.KINDS:
            pair = kind(rng, 6)
            while alpha(pair).min_degree == alpha(pair).max_degree:
                pair = kind(rng, 6)
            dim = alpha(pair).max_degree
            doc = build_verify_document(pair, CoefficientField(0), {}, skip_depth=True)
            assert self._check(doc, "dim-colon-agreement")["status"] == "pass"
            with monkeypatch.context() as m:
                m.setattr(reports, "alpha", drop_top_degree)
                doc = build_verify_document(pair, CoefficientField(0), {}, skip_depth=True)
            check = self._check(doc, "dim-colon-agreement")
            assert check["status"] == "fail"
            assert check["details"] == f"alpha path {dim - 1}, colon path {dim}"


class TestCorpusCommand:
    def test_bundled_corpus_green(self, capsys):
        assert main(["corpus", str(CORPUS)]) == 0
        out = capsys.readouterr().out
        assert "7 passed, 0 failed, 7 total" in out

    def test_moore_space_golden_sees_the_torsion_over_gf3(self):
        # the corpus file is the oracles' test input, and its GF(3) golden
        # has depth 2 < hdepth = dim = 3 with every check passing or skipped
        problem = parse_problem_file(CORPUS / "moore-space-mod-3.ideal")
        assert problem.pair() == oracles.moore_space_mod_3()
        golden = json.loads((CORPUS / "moore-space-mod-3.golden.json").read_text(encoding="utf-8"))
        assert (golden["command"], golden["field"], golden["flags"]["field"]) == ("verify", "GF(3)", 3)
        assert (golden["depth"], golden["hdepth"], golden["dim"], golden["cm"]) == (2, 3, 3, False)
        assert {c["status"] for c in golden["checks"]} <= {"pass", "skipped"}

    def test_rp2_depth_depends_on_the_field(self):
        qq = json.loads((CORPUS / "rp2-qq.golden.json").read_text(encoding="utf-8"))
        gf2 = json.loads((CORPUS / "rp2-gf2.golden.json").read_text(encoding="utf-8"))
        assert (qq["field"], qq["depth"], qq["cm"], qq["cm_witness"]) == ("QQ", 3, True, None)
        assert (gf2["field"], gf2["depth"], gf2["cm"]) == ("GF(2)", 2, False)
        assert gf2["cm_witness"] == {"face": "{}", "dimension": 1}
        assert qq["alpha"] == gf2["alpha"] and qq["dim"] == gf2["dim"] == 3

    def test_duval_ideal_depth_golden(self):
        # the module 0 < I of the Duval ideal with depth, beside the golden
        # of the same module that skips it
        with_depth = json.loads((CORPUS / "duval-ideal-depth.golden.json").read_text(encoding="utf-8"))
        skipped = json.loads((CORPUS / "duval-ideal.golden.json").read_text(encoding="utf-8"))
        assert (with_depth["depth"], with_depth["cm"], with_depth["dim"]) == (5, False, 16)
        assert with_depth["cm_witness"] == {"face": "{1,2}", "dimension": 2}
        assert with_depth["flags"]["skip_depth"] is False
        assert skipped["flags"]["skip_depth"] is True and skipped["depth"] is None
        assert with_depth["alpha"] == skipped["alpha"] and with_depth["hdepth"] == skipped["hdepth"]

    def test_corrupted_golden_named(self, tmp_path, capsys):
        for f in CORPUS.glob("section3-example.*"):
            shutil.copy(f, tmp_path / f.name)
        golden = tmp_path / "section3-example.golden.json"
        corrupted = golden.read_text(encoding="utf-8").replace('"hdepth": 4', '"hdepth": 3')
        assert '"hdepth": 3' in corrupted
        golden.write_text(corrupted, encoding="utf-8")
        assert main(["corpus", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL section3-example.ideal" in out

    def test_unreadable_golden_named(self, tmp_path, capsys):
        shutil.copy(CORPUS / "section3-example.ideal", tmp_path / "x.ideal")
        (tmp_path / "x.golden.json").write_text("not json", encoding="utf-8")
        assert main(["corpus", str(tmp_path)]) == 1
        assert "not a readable report" in capsys.readouterr().out

    @pytest.mark.parametrize("golden", [
        b'{"command": "verify", "flags": []}',
        '{"command": "verify", "label": "\xff"}'.encode("latin-1"),
    ], ids=["flags-not-an-object", "not-utf8"])
    def test_malformed_golden_named(self, golden, tmp_path, capsys):
        shutil.copy(CORPUS / "section3-example.ideal", tmp_path / "a.ideal")
        (tmp_path / "a.golden.json").write_bytes(golden)
        for f in CORPUS.glob("section3-example.*"):
            shutil.copy(f, tmp_path / f.name)
        assert main(["corpus", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL a.ideal: golden is not a readable report document" in out
        assert "PASS section3-example.ideal" in out
        assert "1 passed, 1 failed, 2 total" in out

    @pytest.mark.parametrize("old, new", [
        ('"max_n": 24', '"max_n": "24"'),
        ('"skip_depth": false', '"skip_depth": "false"'),
        ('"field": 0', '"field": false'),
    ], ids=["max-n-string", "skip-depth-string", "field-bool"])
    def test_golden_flag_of_wrong_type_named(self, old, new, tmp_path, capsys):
        for f in CORPUS.glob("section3-example.*"):
            shutil.copy(f, tmp_path / f.name)
            shutil.copy(f, tmp_path / f.name.replace("section3-example", "bad"))
        golden = tmp_path / "bad.golden.json"
        text = golden.read_text(encoding="utf-8")
        assert old in text
        golden.write_text(text.replace(old, new), encoding="utf-8")
        assert main(["corpus", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL bad.ideal: golden is not a readable report document" in out
        assert "PASS section3-example.ideal" in out
        assert "1 passed, 1 failed, 2 total" in out

    def test_unreadable_problem_file_named(self, tmp_path, capsys):
        for f in CORPUS.glob("section3-example.*"):
            shutil.copy(f, tmp_path / f.name)
        problem = tmp_path / "section3-example.ideal"
        problem.write_bytes(problem.read_bytes() + b"# \xff\n")
        assert main(["corpus", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL section3-example.ideal: cannot recompute report: cannot read problem" in out

    def test_missing_golden_reported(self, tmp_path, capsys):
        shutil.copy(CORPUS / "section3-example.ideal", tmp_path / "x.ideal")
        assert main(["corpus", str(tmp_path)]) == 1
        assert "missing golden" in capsys.readouterr().out

    def test_empty_directory_is_an_error(self, tmp_path, capsys):
        # a corpus with no problem file would pass vacuously
        (tmp_path / "notes.txt").write_text("no problems here\n", encoding="utf-8")
        assert main(["corpus", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: no .ideal files in {tmp_path}\n"
        assert captured.out == ""

    def test_missing_directory_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        assert main(["corpus", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: not a directory: {missing}\n"
        assert captured.out == ""


def _regenerated(path: Path) -> tuple[str, str]:
    """The golden of a problem file and the report rebuilt with the golden's
    own command and flags, as `sqdepth corpus` rebuilds it."""
    golden_text = path.with_name(path.stem + ".golden.json").read_text(encoding="utf-8")
    golden = json.loads(golden_text)
    problem = parse_problem_file(path)
    flags = golden["flags"]
    doc = cli._build_document(golden["command"], problem.pair(),
                              CoefficientField(flags.get("field", 0)), flags, problem.label)
    return golden_text, serialize_document(doc, include_timing=False)


class TestGoldenFreshness:
    def test_goldens_regenerate_byte_identical(self):
        # the committed goldens must match what the current code produces
        for path in sorted(CORPUS.glob("*.ideal")):
            golden_text, produced = _regenerated(path)
            assert produced == golden_text

    def test_depth_golden_is_rebuilt_with_its_own_command(self, tmp_path):
        # a depth golden that `sqdepth corpus` passes passes here too
        path = tmp_path / "section3-example.ideal"
        shutil.copy(CORPUS / path.name, path)
        problem = parse_problem_file(path)
        doc = build_depth_document(problem.pair(), RATIONALS,
                                   {"field": 0, "max_n": 24, "skip_depth": False},
                                   label=problem.label)
        path.with_name("section3-example.golden.json").write_text(
            serialize_document(doc, include_timing=False), encoding="utf-8")
        assert main(["corpus", str(tmp_path)]) == 0
        golden_text, produced = _regenerated(path)
        assert produced == golden_text
