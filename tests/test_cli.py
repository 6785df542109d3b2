import decimal
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time

import pytest

from subtree_density import families
from subtree_density.cli import CSEQ_CAP, main
from subtree_density.dp import global_stats
from subtree_density.tree import serialize

from test_tree import NEEDS_DIGIT_LIMIT


@pytest.fixture
def p4_file(tmp_path):
    f = tmp_path / "p4.tree"
    f.write_text("4\n0 1\n1 2\n2 3\n")
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_text(capsys, p4_file):
    code, out, _ = run(capsys, "stats", "--tree", p4_file)
    assert code == 0
    assert "mu=2" in out and "density=1/2" in out and "mu_prime=2" in out


def test_stats_json(capsys, p4_file):
    code, out, _ = run(capsys, "stats", "--tree", p4_file, "--format", "json")
    blob = json.loads(out)
    assert blob["subtree_count"] == "10"
    assert blob["mu"] == {"num": "2", "den": "1"}


def test_oracle_agreement(capsys, p4_file):
    code, out, _ = run(capsys, "oracle", "--tree", p4_file)
    assert code == 0 and "agreement=ok" in out


def test_oracle_json_carries_agreement(capsys, p4_file):
    code, out, _ = run(capsys, "oracle", "--tree", p4_file, "--format", "json")
    blob = json.loads(out)
    assert code == 0 and blob["agreement"] is True and blob["subtree_count"] == "10"


def test_oracle_mismatch_exits_1(capsys, monkeypatch, p4_file):
    other = global_stats(families.path(5))
    monkeypatch.setattr("subtree_density.oracle.oracle_stats", lambda tree: other)
    code, out, _ = run(capsys, "oracle", "--tree", p4_file, "--format", "json")
    assert code == 1 and json.loads(out) == {**other.to_json_dict(), "agreement": False}
    code, out, _ = run(capsys, "oracle", "--tree", p4_file)
    assert code == 1 and out.endswith("\nMISMATCH: oracle disagrees with the DP computation\n")


def test_oracle_dump(capsys, p4_file):
    code, out, _ = run(capsys, "oracle", "--tree", p4_file, "--dump")
    assert code == 0
    assert len(out.splitlines()) == 10 and "0,1,2,3" in out.splitlines()


def test_cseq(capsys):
    code, out, _ = run(capsys, "cseq", "--count", "3")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].startswith("0 1/2")
    assert lines[1].startswith("1 3/5")
    assert lines[2].startswith("2 69/100")


def test_cseq_count_bound_checked_before_the_table(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "cseq", "--count", str(CSEQ_CAP + 1))
    assert time.perf_counter() - start < 0.5  # the table alone takes seconds at this count
    assert (code, out, err) == (1, "", f"error: --count must be at most {CSEQ_CAP}, "
                                       f"got {CSEQ_CAP + 1}\n")


def test_family_build(capsys):
    code, out, _ = run(capsys, "family", "--family", "starfish", "--params", "k=3,r=2")
    assert code == 0 and out.startswith("10\n")


def test_family_sweep_csv(capsys):
    code, out, _ = run(capsys, "family", "--family", "path", "--sweep", "n=4..6")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].startswith("param,n,leaves,twigs,diameter,density_num")
    assert len(lines) == 4


def test_enumerate_blocks(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4")
    assert code == 0
    assert out.count("---") == 1  # two trees on 4 vertices


def test_enumerate_series_reduced(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4..6", "--series-reduced")
    assert code == 0
    assert out.count("---") == 3  # 1 + 1 + 2 trees


@pytest.mark.parametrize("n, bad", [
    ("17..19", 19), ("0..2", 0),
    pytest.param("4.." + "7" * 4000, "7" * 40 + "… (4000 characters)", id="4000-digits"),
])
def test_enumerate_range_checked_before_any_tree(capsys, n, bad):
    code, out, err = run(capsys, "enumerate", "--n", n, "--series-reduced")
    assert (code, out) == (1, "")
    assert err == f"error: enumeration requires 1 <= n <= 18, got {bad}\n"


HUGE = str(10 ** 30)


@pytest.mark.parametrize("argv, named", [
    (["sample", "--n", HUGE], "n_target"),
    (["verify", "--source", "sample", "--n", HUGE, "--count", "1"], "n_target"),
    (["stats", "--decimals", HUGE], "--decimals"),
    (["oracle", "--decimals", HUGE], "--decimals"),
    (["family", "--family", "star", "--sweep", "m=3..4", "--decimals", HUGE], "--decimals"),
], ids=["sample", "verify-sample", "stats", "oracle", "family-sweep"])
def test_huge_numeric_argument_is_an_error(capsys, p4_file, argv, named):
    if argv[0] in ("stats", "oracle"):
        argv = argv + ["--tree", p4_file]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")  # no partial output, such as a sweep's CSV header
    assert err.startswith("error: ") and named in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (("sample", "--n", "1000001"), "sample_series_reduced requires n_target <= 1000000, "
                                   "got 1000001"),
    (("stats", "--tree", "P4", "--decimals", "1000001"),
     "--decimals must be at most 1000000, got 1000001"),
    (("oracle", "--tree", "P4", "--decimals", "1000001"),
     "--decimals must be at most 1000000, got 1000001"),
    (("family", "--family", "path", "--params", "n=1000000000"),
     "family member 'path' has 1000000000 vertices > cap 1000000"),
    (("verify", "--source", "family", "--family", "path", "--params", "n=1000000000"),
     "family member 'path' has 1000000000 vertices > cap 1000000"),
    (("family", "--family", "path", "--sweep", "n=100000000..100000000"),
     "sweep instance n=100000000 has 100000000 vertices > cap 5000"),
    (("verify", "--source", "family", "--family", "path", "--sweep", "n=4..2000000"),
     "sweep instance n=2000000 has 2000000 vertices > cap 1000000"),
    (("family", "--family", "path", "--sweep", "n=4..100000000"),
     "sweep instance n=100000000 has 100000000 vertices > cap 5000"),
    # a size formula that is large only for invalid parameters leaves the constraint to say so
    (("family", "--family", "star_chain", "--params", "s=-2000,p=-2000"),
     "parameter constraint violated: star_chain requires s >= 1"),
    (("family", "--family", "starfish", "--params", "k=-2000,r=-2000"),
     "parameter constraint violated: starfish requires k >= 3"),
], ids=["sample", "stats", "oracle", "family", "verify-family", "family-sweep",
        "verify-family-sweep-range", "family-sweep-range", "star_chain-negative",
        "starfish-negative"])
def test_bounds_checked_before_any_tree(capsys, monkeypatch, p4_file, argv, message):
    def no_tree(*args):
        raise AssertionError("built a tree for a size above the bound")

    monkeypatch.setattr("subtree_density.enumeration._draws", no_tree)
    monkeypatch.setattr("subtree_density.families.Tree", no_tree)
    code, out, err = run(capsys, *(p4_file if a == "P4" else a for a in argv))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("oracle", "--tree", "P19"), "oracle refuses n = 19 > limit 18"),
    (("oracle", "--tree", "P19", "--dump"), "oracle refuses n = 19 > limit 18"),
    (("family", "--family", "star", "--params", "m=0"),
     "parameter constraint violated: star requires m >= 1"),
    (("family", "--family", "path", "--sweep", "n=4999..5001"),
     "sweep instance n=5001 has 5001 vertices > cap 5000"),
    (("sample", "--n", "3"), "sample_series_reduced requires n_target >= 4"),
], ids=["oracle", "oracle-dump", "family", "family-sweep", "sample"])
def test_failed_run_leaves_out_file_as_it_was(capsys, tmp_path, argv, message):
    p19 = tmp_path / "p19.tree"
    p19.write_text(serialize(families.path(19)))
    target = tmp_path / "kept.txt"
    target.write_text("sentinel\n")
    code, out, err = run(capsys, *(str(p19) if a == "P19" else a for a in argv),
                         "--out", str(target))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert target.read_text() == "sentinel\n"


def test_verify_enum_range_checked_before_any_check(capsys, monkeypatch):
    def no_checks(*args, **kwargs):
        raise AssertionError("run_checks started on a range it cannot finish")

    monkeypatch.setattr("subtree_density.cli.verify.run_checks", no_checks)
    code, out, err = run(capsys, "verify", "--source", "enum", "--n", "16..19")
    assert (code, out) == (1, "")
    assert err == "error: enumeration requires 1 <= n <= 18, got 19\n"


@pytest.mark.parametrize("out, message", [
    ("missing/r.txt", "--out 'missing/r.txt': 'missing' is not a directory"),
    (".", "--out '.' is a directory"),
], ids=["missing-directory", "directory"])
def test_bad_out_fails_before_the_run(capsys, monkeypatch, tmp_path, out, message):
    def no_checks(*args, **kwargs):
        raise AssertionError("run_checks started on an --out it cannot write")

    monkeypatch.setattr("subtree_density.cli.verify.run_checks", no_checks)
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, "verify", "--source", "enum", "--n", "4..12",
                            "--checks", "C1", "--out", out)
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert os.listdir(tmp_path) == []


def test_sample_deterministic(capsys):
    code1, out1, _ = run(capsys, "sample", "--n", "20", "--seed", "3", "--count", "2")
    code2, out2, _ = run(capsys, "sample", "--n", "20", "--seed", "3", "--count", "2")
    assert code1 == code2 == 0 and out1 == out2
    assert "---" in out1


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--source", "enum", "--n", "4..8",
                       "--checks", "C1,C2,C3,C4")
    assert code == 0 and "result=pass" in out


def test_verify_violation_exit_code(capsys):
    # the n=6 double star has density exactly 1/2, so the strict C12
    # window reports one violation and the exit code is 1
    code, out, _ = run(capsys, "verify", "--source", "enum", "--n", "4..8",
                       "--checks", "C12")
    assert code == 1 and "result=FAIL" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--source", "enum", "--n", "4..6",
                       "--checks", "C1", "--format", "json")
    blob = json.loads(out)
    assert code == 0 and blob["report"]["passed"] is True


def test_verify_repeated_check_runs_once(capsys):
    code, out, _ = run(capsys, "verify", "--source", "enum", "--n", "4..6",
                       "--checks", "C1,C4,C1", "--format", "json")
    report = json.loads(out)["report"]
    assert code == 0 and report["config"]["checks"] == ["C1", "C4"]
    assert [o["trees_examined"] for o in report["checks"]] == [11, 11]  # 2 + 3 + 6 trees


def test_verify_file_source(capsys, p4_file):
    code, out, _ = run(capsys, "verify", "--source", "file", "--tree", p4_file,
                       "--checks", "C1,C4")
    assert code == 0


def test_unknown_command_usage():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_domain_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.tree"
    bad.write_text("3\n0 1\n1 2\n2 0\n")
    code, _, err = run(capsys, "stats", "--tree", str(bad))
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "stats", "--tree", str(tmp_path / "missing.tree"))
    assert code == 1 and "No such file" in err


def test_closed_stdout_ends_quietly():
    # the reader is gone before the first write, as after `| head -1`
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "subtree_density.cli", "enumerate", "--n", "4..14",
             "--series-reduced"], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def usage_error(*argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code


def test_separator_inside_comment(capsys, tmp_path):
    f = tmp_path / "p4.tree"
    f.write_text("4\n0 1\n1 2 # --- note\n2 3\n")
    code, out, _ = run(capsys, "stats", "--tree", str(f))
    assert code == 0 and "subtrees=10" in out


def test_parse_error_names_file_line(capsys, tmp_path):
    f = tmp_path / "two.tree"
    f.write_text("2\n0 1\n---\n3\n0 1\n1 x\n")
    code, _, err = run(capsys, "verify", "--source", "file", "--tree", str(f),
                       "--checks", "C1")
    assert code == 1 and "line 6" in err


@pytest.mark.parametrize("argv", [
    ("enumerate", "--n", "4", "--format", "json"),
    ("enumerate", "--n", "4", "--decimals", "3"),
    ("sample", "--n", "20", "--format", "json"),
    ("sample", "--n", "20", "--decimals", "3"),
    ("cseq", "--format", "json"),
    ("cseq", "--decimals", "3"),
    ("verify", "--source", "enum", "--n", "4", "--decimals", "3"),
    ("stats", "--tree", "t.tree", "--format", "csv"),
    ("family", "--family", "path", "--sweep", "n=4..6", "--format", "text"),
])
def test_unread_flags_rejected(capsys, argv):
    assert usage_error(*argv) == 2


@pytest.mark.parametrize("argv, message", [
    (("family", "--family", "path", "--params", "n=3", "--format", "json", "--decimals", "3"),
     "--decimals is not read with --format json"),
    (("family", "--family", "path", "--params", "n=3", "--format", "csv"),
     "--format and --decimals are read only with --sweep"),
    (("family", "--family", "path", "--params", "n=3", "--decimals", "3"),
     "--format and --decimals are read only with --sweep"),
    (("family", "--family", "path", "--sweep", "n=4..6", "--format", "json", "--decimals", "3"),
     "--decimals is not read with --format json"),
    (("oracle", "--tree", "P4", "--dump", "--format", "json", "--decimals", "3"),
     "--decimals is not read with --format json"),
    (("oracle", "--tree", "P4", "--dump", "--format", "text"),
     "--format and --decimals are not read with --dump"),
    (("oracle", "--tree", "P4", "--dump", "--decimals", "3"),
     "--format and --decimals are not read with --dump"),
    (("oracle", "--tree", "P4", "--format", "json", "--decimals", "3"),
     "--decimals is not read with --format json"),
    (("stats", "--tree", "P4", "--format", "json", "--decimals", "3"),
     "--decimals is not read with --format json"),
])
def test_flags_this_run_leaves_unread_rejected(capsys, p4_file, argv, message):
    assert usage_error(*(p4_file if a == "P4" else a for a in argv)) == 2
    assert message in capsys.readouterr().err


def test_family_sweep_json(capsys):
    code, out, _ = run(capsys, "family", "--family", "path", "--sweep", "n=4..6",
                       "--format", "json")
    points = json.loads(out)
    assert code == 0 and [p["n"] for p in points] == [4, 5, 6]
    assert points[0]["density"] == {"num": "1", "den": "2"}


# star sweep m = 1..6: (n, leaves, twigs, diameter, density num, den) per m
_STAR_SWEEP = [(2, 2, 0, 1, 2, 3), (3, 2, 1, 2, 5, 9), (4, 3, 1, 2, 23, 44),
               (5, 4, 1, 2, 13, 25), (6, 5, 1, 2, 39, 74), (7, 6, 1, 2, 131, 245)]


def test_star_sweep_csv_text_pinned(capsys):
    code, out, _ = run(capsys, "family", "--family", "star", "--sweep", "m=1..6")
    assert code == 0 and out == """\
param,n,leaves,twigs,diameter,density_num,density_den,density_decimal,\
leaf_fraction_decimal,twig_fraction_decimal
1,2,2,0,1,2,3,0.666666666667,1,0
2,3,2,1,2,5,9,0.555555555556,0.666666666667,0.333333333333
3,4,3,1,2,23,44,0.522727272727,0.75,0.25
4,5,4,1,2,13,25,0.52,0.8,0.2
5,6,5,1,2,39,74,0.527027027027,0.833333333333,0.166666666667
6,7,6,1,2,131,245,0.534693877551,0.857142857143,0.142857142857
"""


def test_star_sweep_json_text_pinned(capsys):
    code, out, _ = run(capsys, "family", "--family", "star", "--sweep", "m=1..6",
                       "--format", "json")
    rows = [{"param": m, "n": n, "leaves": l, "twigs": t, "diameter": diam,
             "density": {"num": str(num), "den": str(den)}}
            for m, (n, l, t, diam, num, den) in enumerate(_STAR_SWEEP, start=1)]
    assert code == 0 and out == json.dumps(rows, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ("sample", "--n", "20", "--count", "-1"),
    ("sample", "--n", "20", "--count", "0"),
    ("cseq", "--count", "0"),
])
def test_count_below_one_rejected(capsys, argv):
    assert usage_error(*argv) == 2


@pytest.mark.parametrize("argv", [
    ("enumerate", "--n", "4.."),
    ("enumerate", "--n", "x"),
    ("enumerate", "--n", "6..4"),
    ("family", "--family", "path", "--sweep", "n=6..4"),
    ("verify", "--source", "enum", "--n", "6..4"),
    ("verify", "--source", "family", "--family", "path", "--sweep", "n=6..4"),
    ("family", "--family", "path", "--sweep", "n4..6"),
])
def test_bad_or_reversed_range_rejected(capsys, argv):
    assert usage_error(*argv) == 2


@pytest.mark.parametrize("argv", [
    ("stats", "--tree", "P4", "--decimals", "0"),
    ("stats", "--tree", "P4", "--decimals", "-3"),
    ("oracle", "--tree", "P4", "--decimals", "0"),
    ("family", "--family", "path", "--sweep", "n=4..6", "--decimals", "0"),
])
def test_decimals_below_one_rejected(capsys, p4_file, argv):
    assert usage_error(*(p4_file if a == "P4" else a for a in argv)) == 2
    assert "--decimals: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("checks, named", [
    (",", "no check id"),
    ("C13", "['C13']"),
    ("C1,C99,C2", "['C99']"),
])
def test_bad_check_ids_rejected(capsys, checks, named):
    assert usage_error("verify", "--source", "enum", "--n", "4..5",
                       "--checks", checks) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("sample", "--n", "20..30"),
    ("verify", "--source", "sample", "--n", "20..30", "--count", "1"),
])
def test_range_where_one_size_is_used_rejected(capsys, argv):
    assert usage_error(*argv) == 2


def test_verify_sample_needs_n(capsys):
    assert usage_error("verify", "--source", "sample", "--count", "1") == 2
    assert "--source sample needs --n N" in capsys.readouterr().err


def test_verify_default_n_is_enum_range(capsys):
    # the config keeps the defaults of the flags that the source leaves unread
    code, out, _ = run(capsys, "verify", "--source", "family", "--family", "path",
                       "--params", "n=5", "--checks", "C1", "--format", "json")
    config = json.loads(out)["report"]["config"]
    assert code == 0 and config["n"] == "4..12"
    assert (config["series_reduced"], config["seed"], config["count"]) == (False, 0, 200)


def test_verify_config_keeps_typed_n(capsys):
    code, out, _ = run(capsys, "verify", "--source", "sample", "--n", "20..20",
                       "--count", "1", "--checks", "C7", "--format", "json")
    assert code == 0 and json.loads(out)["report"]["config"]["n"] == "20..20"


def test_counts_beyond_int_digit_limit(capsys, tmp_path):
    tree = tmp_path / "star.tree"
    assert run(capsys, "family", "--family", "star", "--params", "m=15000",
               "--out", str(tree))[0] == 0
    code, out, _ = run(capsys, "stats", "--tree", str(tree))
    assert code == 0
    # Decimal(int) is exact and prints every digit under the default digit limit
    assert out.splitlines()[1] == "subtrees=" + str(decimal.Decimal(2 ** 15000 + 15000))


@pytest.fixture(scope="module")
def star15000_file(tmp_path_factory):
    f = tmp_path_factory.mktemp("star") / "star15000.tree"
    f.write_text(serialize(families.star(15000)))
    return str(f)


@NEEDS_DIGIT_LIMIT
@pytest.mark.parametrize("argv", [
    ("stats", "--format", "json"),
    ("stats",),
    ("cseq", "--count", "302"),
], ids=["stats-json", "stats-text", "cseq"])
def test_main_leaves_int_digit_limit_as_found(capsys, star15000_file, argv):
    # N(star(15000)) has 4,516 digits; c_j's denominators pass the default
    # limit of 4,300 digits at j = 174 and reach 13,195 at j = 301
    if argv[0] == "stats":
        argv += ("--tree", star15000_file)
    limit = sys.get_int_max_str_digits()
    assert run(capsys, *argv)[0] == 0
    assert sys.get_int_max_str_digits() == limit


@NEEDS_DIGIT_LIMIT
def test_huge_vertex_count_is_a_parse_error(capsys, tmp_path):
    # int() refuses 5,000 digits under the digit limit; with the limit lifted
    # the count parsed, and the tree failed on its edge count instead
    f = tmp_path / "huge.tree"
    f.write_text("1" * 5000 + "\n")
    code, out, err = run(capsys, "stats", "--tree", str(f))
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1: invalid vertex count '111") and len(err) < 200


def test_long_vertex_count_gives_a_short_error(capsys, tmp_path):
    # 4,000 digits parse under the digit limit; the edge-count error quotes 40
    f = tmp_path / "long.tree"
    f.write_text("1" * 4000 + "\n")
    code, out, err = run(capsys, "stats", "--tree", str(f))
    assert (code, out) == (1, "")
    assert err == "error: edge count 0 != n-1 = " + "1" * 40 + "… (4000 characters)\n"


@pytest.mark.parametrize("params, message", [
    ("k=x,r=2", "parameter 'k' needs an integer, got 'x'"),
    ("k,r=2", "bad parameter 'k', expected name=value"),
])
def test_bad_params_rejected(capsys, params, message):
    assert usage_error("family", "--family", "starfish", "--params", params) == 2
    assert message in capsys.readouterr().err


def test_out_file(capsys, tmp_path):
    target = tmp_path / "c.txt"
    code, out, _ = run(capsys, "cseq", "--count", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[1].startswith("1 3/5")


@pytest.mark.parametrize("argv, named", [
    (("--source", "file", "--tree", "P4", "--n", "4..9"), "--source file does not read --n"),
    (("--source", "enum", "--n", "4..5", "--seed", "7", "--count", "3", "--family", "path"),
     "--source enum does not read --seed, --count, --family"),
    (("--source", "enum", "--seed", "0"), "--source enum does not read --seed"),
    (("--source", "sample", "--n", "20", "--series-reduced"),
     "--source sample does not read --series-reduced"),
    (("--source", "sample", "--n", "20", "--tree", "P4"), "--source sample does not read --tree"),
    (("--source", "family", "--family", "path", "--params", "n=5", "--n", "4"),
     "--source family does not read --n"),
    (("--source", "file", "--tree", "P4", "--sweep", "n=4..5"),
     "--source file does not read --sweep"),
])
def test_verify_flags_its_source_leaves_unread_rejected(capsys, p4_file, argv, named):
    assert usage_error("verify", *(p4_file if a == "P4" else a for a in argv)) == 2
    assert named in capsys.readouterr().err


@pytest.fixture
def two_tree_file(tmp_path):
    f = tmp_path / "two.tree"
    f.write_text("4\n0 1\n1 2\n2 3\n---\n4\n0 1\n0 2\n0 3\n")
    return str(f)


@pytest.mark.parametrize("command", [("stats",), ("oracle",), ("oracle", "--dump")])
def test_stats_and_oracle_read_one_tree(capsys, two_tree_file, command):
    code, out, err = run(capsys, *command, "--tree", two_tree_file)
    assert (code, out) == (1, "")
    assert f"holds 2 trees; {command[0]} reads one" in err


def test_verify_file_source_reads_every_tree(capsys, two_tree_file):
    code, out, _ = run(capsys, "verify", "--source", "file", "--tree", two_tree_file,
                       "--checks", "C1", "--format", "json")
    assert code == 0 and json.loads(out)["report"]["checks"][0]["trees_examined"] == 2


@pytest.mark.parametrize("argv, message", [
    (("family", "--family", "star", "--params", "m=5,m=6"),
     "parameter 'm' is given twice in --params"),
    (("family", "--family", "star", "--params", "m=5", "--sweep", "m=1..2"),
     "parameter 'm' is given by both --params and --sweep"),
    (("verify", "--source", "family", "--family", "star", "--params", "m=5",
      "--sweep", "m=1..2"), "parameter 'm' is given by both --params and --sweep"),
])
def test_parameter_given_twice_rejected(capsys, argv, message):
    assert usage_error(*argv) == 2
    assert message in capsys.readouterr().err


def _readme_blocks(language):
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        return re.findall(rf"```{language}\n(.*?)```", fh.read(), re.S)


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    """Every `subtree-density` line of the README's `sh` blocks exits 0."""
    # `\`-continued lines are joined
    lines = "".join(_readme_blocks("sh")).replace("\\\n", " ").splitlines()
    printf = [line for line in lines if line.startswith("printf ")]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("subtree-density ")]
    assert len(printf) == 1 and len(commands) >= 9
    content, target = re.fullmatch(r"printf '([^']*)' > (\S+)", printf[0]).groups()
    monkeypatch.chdir(tmp_path)
    (tmp_path / target).write_text(content.replace("\\n", "\n"))
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv


def test_readme_library_example_runs():
    """The README's `python` blocks run, so every name they import still exists."""
    blocks = _readme_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("argv, command", [
    (("family", "--family", "star", "--params", "m=5,m=6"), "family"),
    (("stats", "--tree", "P4", "--format", "json", "--decimals", "3"), "stats"),
    (("verify", "--source", "file", "--tree", "P4", "--n", "4..5"), "verify"),
    (("family", "--params", "n=4"), "family"),
    (("verify", "--source", "file"), "verify"),
])
def test_usage_error_prints_the_subcommand_usage(capsys, p4_file, argv, command):
    assert usage_error(*(p4_file if a == "P4" else a for a in argv)) == 2
    assert capsys.readouterr().err.startswith(f"usage: subtree-density {command} ")


# SHA-256 of the stdout of commands whose numbers come from N(T) and the order
# sum S; a verify report is digested as its body, without `elapsed_seconds`
@pytest.mark.parametrize("command, digest", [
    ("verify --source family --family starfish --params k=3 --sweep r=1..20 "
     "--checks C2,C5,C12 --format json",
     "163d9593bbf93665264e1ac8b82a2a3d3a4a7c7ea31b9cc091d0939163c0483b"),
    ("verify --source family --family star_chain --params p=5 --sweep s=1..40 --format json",
     "3f1a9aae9034b4a8a438cd139715045c03026737c2c5fdd7aecf211e8cbf7760"),
    ("family --family star_chain --params p=5 --sweep s=1..60",
     "b75076cbaf04ff362eba9d5573ef4d94d0c29b3b85637727dd852d39091792d8"),
    ("family --family star_chain --params p=5 --sweep s=1..60 --format json",
     "8ab5148b0aeb46927d1176b69b68e31bb00136280801d30b6015f7b6d8908f99"),
], ids=["verify-starfish-C2,C5,C12", "verify-star_chain-all", "sweep-csv", "sweep-json"])
def test_density_outputs_keep_their_bytes(capsys, command, digest):
    code, out, _ = run(capsys, *command.split())
    if command.startswith("verify"):
        out = json.dumps(json.loads(out)["report"], sort_keys=True, indent=2)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
