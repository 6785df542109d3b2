import json
import os
import re
import shlex
import subprocess
import sys

import pytest

from subtree_density.cli import main


@pytest.fixture(autouse=True)
def restore_int_digit_limit():
    """main() lifts the interpreter's int-to-str digit limit; undo it per test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


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
    assert out.splitlines()[1] == "subtrees=" + str(2 ** 15000 + 15000)


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


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    """Every `subtree-density` line of the README's `sh` blocks exits 0."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()  # join `\`-continued lines
    printf = [line for line in lines if line.startswith("printf ")]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("subtree-density ")]
    assert len(printf) == 1 and len(commands) >= 9
    content, target = re.fullmatch(r"printf '([^']*)' > (\S+)", printf[0]).groups()
    monkeypatch.chdir(tmp_path)
    (tmp_path / target).write_text(content.replace("\\n", "\n"))
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv


@pytest.mark.parametrize("argv, command", [
    (("family", "--family", "star", "--params", "m=5,m=6"), "family"),
    (("stats", "--tree", "P4", "--format", "json", "--decimals", "3"), "stats"),
    (("verify", "--source", "file", "--tree", "P4", "--n", "4..5"), "verify"),
])
def test_usage_error_prints_the_subcommand_usage(capsys, p4_file, argv, command):
    assert usage_error(*(p4_file if a == "P4" else a for a in argv)) == 2
    assert capsys.readouterr().err.startswith(f"usage: subtree-density {command} ")
