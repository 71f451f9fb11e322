import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcubed import cli, orbits, published, quadforms
from pcubed.cli import main
from pcubed.groups import Family


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_check(capsys):
    code, out = run(capsys, "classify", "-p", "3", "--check")
    assert code == 0
    assert "61 = 6*3+43" in out


def test_classify_family_filter(capsys):
    code, out = run(capsys, "classify", "-p", "7", "--family", "heisenberg")
    assert code == 0
    assert "23 orbits" in out


def test_classify_json(capsys):
    code, out = run(capsys, "classify", "-p", "3", "--family", "gp", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["family"] == "gp"
    assert len(payload[0]["orbits"]) == 9


def test_morita_md(capsys):
    code, out = run(capsys, "morita", "-p", "3", "--check")
    assert code == 0
    assert "47 Morita classes" in out
    rows = [l for l in out.splitlines() if l.startswith("|")]
    assert len(rows) == 2 + 13


def test_morita_json(capsys):
    code, out = run(capsys, "morita", "-p", "5", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["components"]) == 57


def test_quadforms_table(capsys):
    code, out = run(capsys, "quadforms", "-n", "3", "-p", "3")
    assert code == 0
    assert out.count("rank=") == 7
    code, out = run(capsys, "quadforms", "-n", "2", "-p", "5")
    assert code == 0
    assert out.count("rank=") == 5


def test_quadforms_which_h(capsys):
    code, out = run(capsys, "quadforms", "-p", "5", "--which-h")
    assert code == 0
    assert "h = 2" in out


@pytest.mark.parametrize(
    "argv, err",
    [
        (["-n", "2", "--which-h"], "argument --which-h: not allowed with argument -n"),
        (["-n", "3", "--which-h"], "argument --which-h: not allowed with argument -n"),  # 3 is -n's default
        (["--which-h", "-n", "1"], "argument -n: not allowed with argument --which-h"),
    ],
)
def test_quadforms_refuses_a_dimension_with_which_h(capsys, argv, err):
    # --which-h prints no forms, so a -n beside it would be ignored
    assert main(["quadforms", "-p", "5", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pcubed: {err}\n"


def test_quadforms_prints_every_prime(capsys):
    code, out = run(capsys, "quadforms", "-n", "1", "-p", "3,5")
    assert code == 0
    headers = [l for l in out.splitlines() if "congruence classes" in l]
    assert headers == ["3 congruence classes of rank <= 1 over F_3:", "3 congruence classes of rank <= 1 over F_5:"]
    assert out.count("rank=") == 6
    code, out = run(capsys, "quadforms", "-p", "5,3", "--which-h")
    assert code == 0
    assert out == "p=5: h = 2\np=3: h = 1\n"


def test_classify_csv(capsys):
    code, out = run(capsys, "classify", "-p", "3", "--family", "gp", "--format", "csv")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 1 + 9


@pytest.mark.parametrize("spec", ["elem_abelian:0:1", "elem_abelian:6:0"])
def test_verify_detects_elementary_abelian_corruption(capsys, spec):
    code, out = run(capsys, "verify", "-p", "3", "--corrupt", spec)
    assert code == 1
    assert "FAIL" in out


def test_verify_fails_when_a_prime_before_the_last_fails(capsys):
    # gp:1:0 fails checks at p = 3 only, so the exit code must not be the last prime's
    fails = {}
    for order in ("3,5", "5,3"):
        code, out = run(capsys, "verify", "-p", order, "--corrupt", "gp:1:0")
        assert code == 1, order
        fails[order] = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails["3,5"] == fails["5,3"] != []


def test_a_count_mismatch_fails_check_and_verify(capsys, monkeypatch):
    # one family's published orbit count and the Morita histogram, each off by one
    orbit_count, morita_histogram = published.orbit_count, published.morita_histogram
    monkeypatch.setattr(published, "orbit_count", lambda fam, p: orbit_count(fam, p) + (fam is Family.GP))
    monkeypatch.setattr(published, "morita_histogram", lambda p: {**morita_histogram(p), 3: 2})
    code, out = run(capsys, "classify", "-p", "3,5", "--check")
    assert code == 1
    marked = [line for line in out.splitlines() if "MISMATCH" in line]
    assert [line.split()[1] for line in marked] == ["gp", "total", "gp", "total"]
    assert "MISMATCH (expected 10)" in marked[0]
    assert run(capsys, "classify", "-p", "3,5") == (0, out)
    code, out = run(capsys, "morita", "-p", "3", "--check")
    assert code == 1
    assert "47 Morita classes (expected 48)" in out
    assert run(capsys, "morita", "-p", "3") == (0, out)
    code, out = run(capsys, "verify", "-p", "3")
    assert code == 1
    assert "FAIL  counts.gp.p3  [9 orbits]" in out.splitlines()


def test_a_congruence_class_count_mismatch_fails_verify(capsys, monkeypatch):
    # the representatives are 2n + 1 by construction, so the check must also read the
    # class count off the orbits: here the Heisenberg index has one chi = 0 orbit too many
    counts = cli._congruence_counts

    def one_more_chi_zero_orbit(indices):
        index = indices[Family.HEISENBERG]
        extra = orbits.Orbit(rep=index.model.cls((0, 1, 0, 0)), size=1)
        return counts({**indices, Family.HEISENBERG: dataclasses.replace(index, orbits=index.orbits + [extra])})

    monkeypatch.setattr(cli, "_congruence_counts", one_more_chi_zero_orbit)
    code, out = run(capsys, "verify", "-p", "3")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL  quadforms.classes.n2.p3  [5 representatives]"
    ]


def test_verify_runs_no_congruence_closure_of_its_own(capsys, monkeypatch):
    # the class counts come from the model orbits verify has already enumerated
    def refuse(n, p):
        raise AssertionError("verify closed the quadratic forms a second time")

    monkeypatch.setattr(quadforms, "count_congruence_classes", refuse)
    monkeypatch.setattr(cli, "count_congruence_classes", refuse, raising=False)  # were cli to import it again
    code, out = run(capsys, "verify", "-p", "3,5")
    assert code == 0
    assert "FAIL" not in out


def test_verify_counts_the_congruence_classes_at_p17(capsys):
    # verify's class counts at a prime past the p <= 13 agreement that test_criterion_5_quadratic_forms checks
    code, out = run(capsys, "verify", "-p", "17", "--max-states", "893871739")
    assert code == 0
    assert [line for line in out.splitlines() if "quadforms.classes" in line] == [
        f"PASS  quadforms.classes.n{n}.p17  [{2 * n + 1} representatives]" for n in (1, 2, 3)
    ]


def test_usage_error_exit_code(capsys):
    # quadforms enumerates no orbits and verify has one output format, so neither takes these flags;
    # and orbits-dump is no subcommand: classify --format csv writes its orbit rows
    for argv in (
        ["no-such-command"],
        ["orbits-dump", "-p", "3"],
        ["quadforms", "--max-states", "5"],
        ["verify", "--format", "md"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pcubed: ") and captured.err.count("\n") == 1, captured.err


def test_invalid_prime_exit_code(capsys):
    assert main(["classify", "-p", "2"]) == 2
    assert main(["classify", "-p", "9"]) == 2
    err = capsys.readouterr().err
    assert "odd prime" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.md"
    code, out = run(capsys, "morita", "-p", "3", "-o", str(target))
    assert code == 0
    assert out == ""
    assert "nontrivial Morita classes: 13" in target.read_text()
    code, stdout = run(capsys, "morita", "-p", "3")
    assert code == 0
    assert target.read_bytes() == stdout.encode()


def test_unwritable_output_is_a_one_line_usage_error(tmp_path, capsys, monkeypatch):
    def computed(*args, **kwargs):
        raise AssertionError("the computation ran before the -o path was opened")

    # the -o path is opened first, so the bad path ends the command before any computing
    monkeypatch.setattr(cli, "representatives", computed)
    target = tmp_path / "missing" / "out.txt"
    assert main(["quadforms", "-n", "1", "-p", "3", "-o", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pcubed: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["morita", "-p", "3", "--max-states", "10"],
        ["verify", "-p", "3", "--corrupt", "bogus"],
        ["classify", "-p", "3", "--family", "bogus"],
    ],
)
def test_usage_error_leaves_an_existing_output_file_as_it_was(tmp_path, capsys, argv):
    # these errors are found before the -o file is opened: they must neither empty it nor create it
    target = tmp_path / "out.md"
    target.write_bytes(b"precious\n")
    assert main(argv + ["-o", str(target)]) == 2
    assert capsys.readouterr().err.startswith("pcubed: ")
    assert target.read_bytes() == b"precious\n"
    new = tmp_path / "new.md"
    assert main(argv + ["-o", str(new)]) == 2
    assert capsys.readouterr().err.startswith("pcubed: ")
    assert not new.exists()


@pytest.mark.parametrize("command", ["classify", "morita", "verify", "quadforms"])
@pytest.mark.parametrize("prime", ["9", "2", "1"])
def test_non_odd_prime_is_a_one_line_usage_error(capsys, command, prime):
    assert main([command, "-p", prime]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pcubed: -p takes odd primes only, got {prime}\n"


@pytest.mark.parametrize("command", ["classify", "morita", "verify", "quadforms"])
@pytest.mark.parametrize("primes, repeated", [("3,3", "3"), ("3,5,3", "3"), ("7,5,7,5,11", "5, 7")])
def test_a_repeated_prime_is_a_one_line_usage_error(capsys, command, primes, repeated):
    # each prime's tables would be computed and printed once per mention
    assert main([command, "-p", primes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pcubed: -p takes each prime once, got {repeated} more than once\n"


@pytest.mark.parametrize("primes", ["1_1", "3,,5", "3,", "+3", ",", "x", ""])
def test_a_malformed_prime_list_is_a_one_line_usage_error(capsys, primes):
    # every token is ASCII digits: int() would read 1_1 as 11 and +3 as 3, and empty tokens were dropped
    assert main(["classify", "-p", primes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("pcubed: empty prime list\n" if not primes else f"pcubed: bad prime list {primes!r}\n")


@pytest.mark.parametrize(
    "command, option, value",
    [("classify", "--max-states", v) for v in ("1_0", "+10", " 10", "")] + [("quadforms", "-n", v) for v in (" +3", "1_0")],
)
def test_an_integer_option_takes_ascii_digits_only(capsys, command, option, value):
    # as -p and --corrupt: int() would read 1_0 as 10, +10 as 10 and " +3" as 3
    assert main([command, "-p", "3", option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pcubed: argument {option}: not a decimal integer: {value!r}\n"


def test_quadforms_rank_outside_its_choices_is_a_one_line_usage_error(capsys):
    assert main(["quadforms", "-n", "4", "-p", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "pcubed: argument -n: invalid choice: 4 (choose from 1, 2, 3)\n"


@pytest.mark.parametrize(
    "spec",
    [
        "heisenberg:9:9", "heisenberg:1:4", "heisenberg:-1:0", "heisenberg:1", "heisenberg:a:2", "nope:1:2", "",
        "heisenberg:0_1:2", "heisenberg:+1:2", "heisenberg: 1:2",
    ],
)
def test_verify_bad_corrupt_spec_is_a_one_line_usage_error(capsys, spec):
    assert main(["verify", "-p", "3", "--corrupt", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pcubed: --corrupt ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, err",
    [
        (["classify", "-p", "3", "--family="], "pcubed: unknown family ''\n"),
        (["classify", "-p", "3", "-o", ""], "pcubed: cannot write : No such file or directory\n"),
    ],
    ids=["classify-family", "output"],
)
def test_an_empty_option_value_is_a_one_line_usage_error(capsys, argv, err):
    # an empty value is a value: it must not fall back to every family or to stdout
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize("command", ["classify", "verify"])
@pytest.mark.parametrize("prime, total", [("1000000007", 1000000007**3), ("17", 17**7)])
def test_a_state_space_above_the_bound_is_refused_before_any_work(capsys, monkeypatch, command, prime, total):
    def computed(*args, **kwargs):
        raise AssertionError("the computation ran before the state space was checked")

    # classify starts with the cyclic model (p^3 states), verify with the identity suite;
    # at p = 17 the first model above the bound is the (Z/p)^3 one (p^7 states)
    monkeypatch.setattr(cli, "enumerate_orbits", computed)
    monkeypatch.setattr(cli, "verify_identity_suite", computed)
    assert main([command, "-p", prime]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pcubed: state space {total} above the bound 100000000\n"


def test_a_state_space_past_int32_frontiers_is_a_usage_error(capsys, monkeypatch, tmp_path):
    def computed(*args, **kwargs):
        raise AssertionError("the computation ran before the state space was checked")

    # both pass a raised bound but reach 2**31, past the BFS's int32 frontiers; the
    # second would first spend minutes on a primitive root of p**3
    monkeypatch.setattr(orbits, "_bfs", computed)
    monkeypatch.setattr(cli, "enumerate_orbits", computed)
    for prime, family, bound, total in [
        (23, "elem_abelian", 23**7, 23**7),
        (1000000007, "cyclic", 10**30, 1000000007**3),
    ]:
        out = tmp_path / f"{family}.txt"
        argv = ["classify", "-p", str(prime), "--family", family, "--max-states", str(bound), "-o", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pcubed: state space {total} at or above 2^31, too large for int32 frontiers\n"
        assert not out.exists()  # refused before the -o file is opened


# every flag of every subcommand, so most draws pair a flag with a subcommand that lacks it
FUZZ_FLAGS = ["-p", "--primes", "--format", "-o", "--output", "--family", "--check", "--max-states",
              "--corrupt", "-n", "--which-h", "--bogus", "-z"]
FUZZ_VALUES = ["3", "5", "3,5", "5,3", "3,3", "2", "9", "", "x", "-1", "0", "1", "200", "100000",
               "md", "json", "csv", "gp", "bogus", "heisenberg:1:2", "heisenberg:9:9", "out.txt", "missing/out.txt",
               "a\nb"]
FUZZ_ITEM = st.one_of(
    st.tuples(st.sampled_from(FUZZ_FLAGS), st.sampled_from(FUZZ_VALUES)).map(list),
    st.tuples(st.sampled_from([f for f in FUZZ_FLAGS if f.startswith("--")]), st.sampled_from(FUZZ_VALUES))
    .map(lambda fv: ["=".join(fv)]),
    st.sampled_from(FUZZ_FLAGS + FUZZ_VALUES).map(lambda tok: [tok]),
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from([[], ["classify"], ["morita"], ["verify"], ["quadforms"], ["orbits-dump"], ["nope"]]),
    items=st.lists(FUZZ_ITEM, max_size=5),
)
def test_every_argv_exits_0_1_or_2_and_a_usage_error_is_one_line(command, items):
    argv = command + [tok for item in items for tok in item]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # any value can follow -o, so every -o path is relative to the temp dir
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("pcubed: ") and err.getvalue().count("\n") == 1, (argv, err.getvalue())


BIG_PRIME = 1000000000000000003


def _cli_in_subprocess(*argv, stdout=subprocess.PIPE):
    # a child with a timeout, so a -p that hangs the parser fails the test instead of hanging it;
    # its stdout is block-buffered, as when run from a shell, whatever PYTHONUNBUFFERED says here
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-m", "pcubed.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
    )


def test_a_large_prime_reaches_the_state_space_refusal():
    proc = _cli_in_subprocess("classify", "-p", str(BIG_PRIME))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"pcubed: state space {BIG_PRIME**3} above the bound 100000000\n"


def test_quadforms_of_a_large_prime():
    proc = _cli_in_subprocess("quadforms", "-n", "1", "-p", str(BIG_PRIME))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        f"3 congruence classes of rank <= 1 over F_{BIG_PRIME}:\n"
        "  diag(0,)  rank=0  disc=None\n"
        "  diag(1,)  rank=1  disc=square\n"
        "  diag(2,)  rank=1  disc=nonsquare\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_output_to_a_pipe_named_by_its_path():
    # -o /dev/stdout opens the capturing pipe, which cannot be truncated or sought
    proc = _cli_in_subprocess("classify", "-p", "3", "-o", "/dev/stdout")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _cli_in_subprocess("classify", "-p", "3").stdout
    assert proc.stderr == ""


@pytest.mark.parametrize(
    ("target", "reason"),
    [("-o /dev/full", "No space left on device"), ("/dev/full", "No space left on device"), ("pipe", "Broken pipe")],
    ids=["output", "stdout", "closed-pipe"],
)
def test_a_failed_write_is_a_one_line_error_with_exit_2(target, reason):
    # /dev/full opens, then fails every write with ENOSPC: through -o, or as the child's stdout;
    # a pipe whose read end is closed fails them with EPIPE. Nothing may be left to fail at exit.
    if "/dev/full" in target and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    if target == "-o /dev/full":
        proc = _cli_in_subprocess("classify", "-p", "3", "-o", "/dev/full")
        assert proc.stdout == ""
    elif target == "/dev/full":
        with open("/dev/full", "w") as full:
            proc = _cli_in_subprocess("classify", "-p", "3", stdout=full)
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _cli_in_subprocess("classify", "-p", "3", stdout=write_end)
        finally:
            os.close(write_end)
    where = "/dev/full" if target == "-o /dev/full" else "stdout"
    assert (proc.returncode, proc.stderr) == (2, f"pcubed: cannot write {where}: {reason}\n")
