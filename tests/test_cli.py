import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncgb import completion, oracle
from ncgb.cli import build_parser, main
from ncgb.fileformat import parse_presentation
from ncgb.presentation import critical_branchings

from conftest import BRAIDED_TEXT, COMPLETED_BRAIDED_TEXT, HEAVY_STEP_TEXT, SKIPPING_TEXT

QUANTUM_PLANE_TEXT = "alphabet: x y\norder: deglex\nrules:\ny.x -> 2*x.y\n"

# The image y.y of x is not smaller than x, so parsing the file fails.
BAD_IMAGE_TEXT = "alphabet: x y\norder: deglex\nrules:\nx -> y.y\n"

SRC = str(Path(__file__).resolve().parents[1] / "src")

# The whole --trace report of the braided example, layout included.
BRAIDED_TRACE = """\
step 0
  branchings:
    (y.z.x, (1, 0), (0, 1))
  seeds:
    y.z.x - y.x.y
    y.z.x - x.x
  normalised family kernels:
    y.z.x - y.x.y
    y.z.x - x.x
  complement rules:
    y.x.y -> x.x
  operator after:
    y.z -> x
    z.x -> x.y
    y.x.y -> x.x
step 1
  branchings:
    (y.z.x, (1, 0), (0, 1)) (old)
    (y.x.y.z, (2, 0), (0, 1))
    (y.x.y.x.y, (2, 0), (0, 2))
  seeds:
    y.x.y.z - y.x.x
    y.x.y.z - x.x.z
    y.x.y.x.y - y.x.x.x
    y.x.y.x.y - x.x.x.y
  normalised family kernels:
    y.x.y.z - y.x.x
    y.x.y.z - x.x.z
    y.x.y.x.y - y.x.x.x
    y.x.y.x.y - x.x.x.y
  complement rules:
    y.x.x -> x.x.z
    y.x.x.x -> x.x.x.y
  operator after:
    y.z -> x
    z.x -> x.y
    y.x.x -> x.x.z
    y.x.y -> x.x
    y.x.x.x -> x.x.x.y
step 2
  branchings:
    (y.z.x, (1, 0), (0, 1)) (old)
    (y.x.x.x, (0, 1), (0, 0))
    (y.x.y.z, (2, 0), (0, 1)) (old)
    (y.x.y.x.x, (2, 0), (0, 2))
    (y.x.y.x.y, (2, 0), (0, 2)) (old)
    (y.x.y.x.x.x, (2, 0), (0, 3))
  seeds:
    y.x.x.x - x.x.z.x
    y.x.x.x - x.x.x.y
    y.x.y.x.x - y.x.x.x.z
    y.x.y.x.x - x.x.x.x
    y.x.y.x.x.x - y.x.x.x.x.y
    y.x.y.x.x.x - x.x.x.x.x
  normalised family kernels:
    y.x.x.x - x.x.z.x
    y.x.x.x - x.x.x.y
    y.x.y.x.x - y.x.x.x.z
    y.x.y.x.x - x.x.x.x
    y.x.y.x.x.x - y.x.x.x.x.y
    y.x.y.x.x.x - x.x.x.x.x
    y.x.x.x.x.y - x.x.x.y.x.y
    x.x.x.y.x.y - x.x.x.x.x
    y.x.x.x.z - x.x.x.y.z
    x.x.x.y.z - x.x.x.x
    x.x.z.x - x.x.x.y
  complement rules:
    (identity)
  operator after:
    y.z -> x
    z.x -> x.y
    y.x.x -> x.x.z
    y.x.y -> x.x
    y.x.x.x -> x.x.x.y
"""


@pytest.fixture
def braided_file(tmp_path):
    path = tmp_path / "braided.txt"
    path.write_text(BRAIDED_TEXT)
    return str(path)


@pytest.fixture
def completed_file(tmp_path):
    path = tmp_path / "completed.txt"
    path.write_text(COMPLETED_BRAIDED_TEXT)
    return str(path)


def test_complete_braided(braided_file, capsys):
    assert main(["complete", braided_file]) == 0
    out = capsys.readouterr().out
    assert "y.x.y -> x.x" in out
    assert "y.x.x -> x.x.z" in out
    assert "y.x.x.x -> x.x.x.y" in out
    assert "status: converged" in out
    assert "iterations: 3" in out
    assert "branchings: 6" in out


def test_complete_reads_a_file_with_a_byte_order_mark(braided_file, tmp_path, capsys):
    assert main(["complete", braided_file]) == 0
    expected = capsys.readouterr().out
    bom = tmp_path / "bom.txt"
    bom.write_text(BRAIDED_TEXT, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["complete", str(bom)]) == 0
    assert capsys.readouterr().out == expected


def test_complete_output_is_reparsable(braided_file, tmp_path, capsys):
    main(["complete", braided_file])
    out = capsys.readouterr().out
    rules_text = out[: out.index("status:")]
    again = tmp_path / "again.txt"
    again.write_text(rules_text)
    assert main(["check", str(again)]) == 0


def test_complete_cap_exit_code(braided_file, capsys):
    assert main(["complete", braided_file, "--max-iter", "1"]) == 1
    assert "status: iteration_cap" in capsys.readouterr().out
    assert main(["complete", braided_file, "--max-deg", "2"]) == 1
    assert "status: degree_cap" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, options, code, status, steps, count",
    [
        (BRAIDED_TEXT, [], 0, "converged", 3, 6),
        (BRAIDED_TEXT, ["--max-iter", "1"], 1, "iteration_cap", 1, 3),
        (BRAIDED_TEXT, ["--max-deg", "2"], 1, "degree_cap", 1, 3),
        (QUANTUM_PLANE_TEXT, [], 0, "converged", 0, 0),
    ],
    ids=["converged", "iteration_cap", "degree_cap", "quantum_plane"],
)
def test_complete_branchings_count_the_printed_presentation(
    tmp_path, capsys, text, options, code, status, steps, count
):
    # The branchings: line counts every critical branching of the printed
    # presentation, capped or not; the quantum plane has none and no step.
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main(["complete", str(path), *options]) == code
    out = capsys.readouterr().out
    printed = parse_presentation(out[: out.index("status:")])
    assert out.endswith(f"status: {status}\niterations: {steps}\nbranchings: {count}\n")
    assert len(critical_branchings(printed)) == count


def test_complete_trace(braided_file, tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    assert main(["complete", braided_file, "--trace", str(trace)]) == 0
    text = trace.read_text()
    assert "step 0" in text and "step 2" in text
    assert "(y.z.x, (1, 0), (0, 1))" in text
    assert "(y.x.y.z, (2, 0), (0, 1))" in text
    assert "(y.x.y.x.y, (2, 0), (0, 2))" in text
    assert "y.x.y -> x.x" in text
    assert "y.x.x -> x.x.z" in text
    assert "y.x.x.x -> x.x.x.y" in text
    assert "(identity)" in text


def test_complete_trace_golden(braided_file, tmp_path):
    trace = tmp_path / "trace.txt"
    assert main(["complete", braided_file, "--trace", str(trace)]) == 0
    assert trace.read_text() == BRAIDED_TRACE


def test_complete_trace_reads_each_step_seeds_and_family(tmp_path, capsys, monkeypatch):
    # The report reads each step's spol_seeds and normalised_family, and
    # each builds the step's seed rules, while only the family normalises
    # them: a traced run builds the seed rules three times per step and
    # normalises them twice, and an untraced run does each once.
    heavy = tmp_path / "heavy.txt"
    heavy.write_text(HEAVY_STEP_TEXT)
    calls = dict.fromkeys(("_seeds", "normalisation"), 0)
    for name in calls:

        def counting(*args, _name=name, _f=getattr(completion, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(completion, name, counting)
    args = ["complete", str(heavy), "--max-iter", "10", "--max-deg", "5"]
    assert main(args) == 1
    untraced = capsys.readouterr().out
    assert calls == {"_seeds": 3, "normalisation": 3}
    calls.update(dict.fromkeys(calls, 0))
    trace = tmp_path / "trace.txt"
    assert main(args + ["--trace", str(trace)]) == 1
    assert capsys.readouterr().out == untraced
    assert calls == {"_seeds": 9, "normalisation": 6}
    # The whole report: 1,698 lines over three steps.
    digest = hashlib.sha256(trace.read_bytes()).hexdigest()
    assert digest.startswith("88a16a2d543b1e83")


def test_complete_unwritable_trace_prints_nothing(braided_file, tmp_path, capsys):
    # The trace is written before the result is printed, so a path that
    # cannot be written, here a directory, exits 2 with nothing on stdout.
    assert main(["complete", braided_file, "--trace", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_check(braided_file, completed_file, capsys):
    assert main(["check", braided_file]) == 1
    assert capsys.readouterr().out == (
        "branching (y.z.x, (1, 0), (0, 1)): SP = y.x.y - x.x, "
        "normal form = y.x.y - x.x [UNSOLVABLE]\n"
        "not confluent\n"
    )
    assert main(["check", completed_file]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("confluent")
    assert "UNSOLVABLE" not in out


def test_reduce(completed_file, braided_file, tmp_path, capsys):
    plane = tmp_path / "plane.txt"
    plane.write_text(QUANTUM_PLANE_TEXT)
    for path, poly, expected in (
        (completed_file, "y.z.x", "x.x"),
        (completed_file, "y.x.y.x.y - x.x.x.y", "0"),
        (braided_file, "y.x.y", "y.x.y"),
        (braided_file, "y.z.x - x.x", "0"),
        # More than one rewrite: y.y.x -> 2*y.x.y -> 4*x.y.y.
        (str(plane), "y.y.x - x", "4*x.y.y - x"),
        # The zero polynomial parses through the general term path.
        (braided_file, "0", "0"),
    ):
        assert main(["reduce", path, poly]) == 0
        assert capsys.readouterr().out == expected + "\n"


def test_repeated_key_with_rational_images(tmp_path, capsys):
    # Two rules share the left-hand side z.z, so parsing meets the lines of
    # z.z - 2*x and z.z - y - 1/3, and the rule y -> 2*x - 1/3 comes out.
    path = tmp_path / "repeated.txt"
    path.write_text(
        "alphabet: x y z\norder: deglex\nrules:\nz.z -> 2*x\nz.z -> y + 1/3\n"
    )
    assert main(["complete", str(path)]) == 0
    assert capsys.readouterr().out == (
        "alphabet: x y z\norder: deglex\nrules:\n"
        "y -> 2*x - 1/3\nz.x -> x.z\nz.z -> 2*x\n"
        "status: converged\niterations: 2\nbranchings: 2\n"
    )
    assert main(["reduce", str(path), "z.z.z - 3*y.z"]) == 0
    assert capsys.readouterr().out == "-4*x.z + z\n"


def test_branchings(braided_file, completed_file, capsys):
    assert main(["branchings", braided_file]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["(y.z.x, (1, 0), (0, 1)): SP = y.x.y - x.x"]
    assert main(["branchings", completed_file]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 6


def test_oracle(braided_file, capsys):
    assert main(["oracle", braided_file]) == 0
    assert "AGREE" in capsys.readouterr().out


def test_oracle_is_inconclusive_when_both_engines_hit_their_caps(tmp_path, capsys):
    # The naive completion skips residues above degree 4 before it reaches
    # a basis holding y, and the lattice completion stops at degree 4.
    path = tmp_path / "skipping.txt"
    path.write_text(SKIPPING_TEXT)
    assert main(["oracle", str(path), "--max-deg", "4"]) == 1
    assert capsys.readouterr().out == "INCONCLUSIVE: both engines hit their caps\n"
    assert main(["oracle", str(path), "--max-deg", "5"]) == 0
    assert capsys.readouterr().out == "AGREE\n"


def test_oracle_enumerates_no_words(braided_file, capsys):
    # The CLI compares leading words only; listing the |A|^d words of
    # length <= d took 3 s at --max-deg 11 and tripled with each degree, so
    # the library holds no enumerator and --max-deg 30 (3^30 words) runs.
    assert not hasattr(oracle, "lm_set_up_to_degree")
    assert main(["oracle", braided_file, "--max-deg", "30"]) == 0
    assert capsys.readouterr().out == "AGREE\n"


def test_oracle_disagree_lists_leading_word_witnesses(braided_file, capsys, monkeypatch):
    # An oracle that stops at the input rules lacks the three rules the
    # lattice completion adds; each is a witness, and nothing else is.
    def stopped(R, degree_cap, iteration_cap):
        assert iteration_cap == completion.CompletionLimits().max_iterations
        return oracle.BuchbergerResult(R, converged=True)

    monkeypatch.setattr(oracle, "buchberger", stopped)
    assert main(["oracle", braided_file]) == 1
    assert capsys.readouterr().out == (
        "DISAGREE\n"
        "  y.x.x (lattice only)\n"
        "  y.x.y (lattice only)\n"
        "  y.x.x.x (lattice only)\n"
    )
    assert main(["oracle", braided_file, "--max-deg", "3"]) == 1
    assert "y.x.x.x" not in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("alphabet: x\norder: deglex\nrules:\nx.x - x\n")
    assert main(["check", str(bad)]) == 2
    assert "line 4" in capsys.readouterr().err
    bad.write_text(BAD_IMAGE_TEXT)
    assert main(["complete", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: line 4: rule right-hand side not smaller than left-hand side\n"
    )


def test_zero_denominator_exit_code(braided_file, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("alphabet: x y\norder: deglex\nrules:\ny.x -> 1/0*x\n")
    assert main(["complete", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: line 4: malformed rational")
    for poly in ("3/0*x", "x - 2/0"):
        assert main(["reduce", braided_file, poly]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_reduce_argument_error_names_argument(braided_file, capsys):
    for poly, message in (("3/0*x", "malformed rational '3/0'"), ("", "empty polynomial")):
        assert main(["reduce", braided_file, poly]) == 2
        err = capsys.readouterr().err
        assert err == f"error: polynomial argument {poly!r}: {message}\n"


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.txt")]) == 2
    assert "error" in capsys.readouterr().err


def test_complete_default_limits_are_completion_limits():
    args = build_parser().parse_args(["complete", "f"])
    defaults = completion.CompletionLimits()
    assert (args.max_iter, args.max_deg) == (defaults.max_iterations, defaults.max_rule_degree)


def test_non_positive_limits_exit_code(braided_file, capsys):
    for argv in (
        ["complete", braided_file, "--max-iter", "0"],
        ["complete", braided_file, "--max-deg", "0"],
        ["oracle", braided_file, "--max-deg", "0"],
    ):
        assert main(argv) == 2
        assert "error: completion limits must be positive" in capsys.readouterr().err


def test_usage_error():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "command, text, options, code, last",
    [
        ("complete", BRAIDED_TEXT, [], 0, ["branchings: 6"]),
        ("check", BRAIDED_TEXT, [], 1, ["not confluent"]),
        ("complete", BAD_IMAGE_TEXT, [], 2, []),
        # The oracle lists no word, so degree 30 (3^30 words) ends at once.
        ("oracle", BRAIDED_TEXT, ["--max-deg", "30"], 0, ["AGREE"]),
    ],
    ids=["complete", "check", "bad_image", "oracle_degree_30"],
)
def test_module_exits_with_the_code_main_returns(
    tmp_path, command, text, options, code, last
):
    # python -m ncgb.cli runs the __main__ guard, which no in-process test
    # reaches: its sys.exit(main()) turns main's return value into the
    # process exit code.
    path = tmp_path / "input.txt"
    path.write_text(text)
    run = subprocess.run(
        [sys.executable, "-m", "ncgb.cli", command, str(path), *options],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=20,
    )
    assert run.returncode == code
    assert run.stdout.splitlines()[-1:] == last
