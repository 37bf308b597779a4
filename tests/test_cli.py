import hashlib

import pytest

from ncgb import completion, oracle
from ncgb.cli import main

from conftest import BRAIDED_TEXT, COMPLETED_BRAIDED_TEXT, HEAVY_STEP_TEXT, SKIPPING_TEXT

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


def test_complete_trace_builds_each_step_seed_rules_once(tmp_path, capsys, monkeypatch):
    # The report reads each step's seed rules once and normalises them once,
    # so a traced run does the loop's work twice, and an untraced run once.
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
    assert calls == {"_seeds": 6, "normalisation": 6}
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
    out = capsys.readouterr().out
    assert "not confluent" in out
    assert "UNSOLVABLE" in out
    assert "SP = y.x.y - x.x" in out
    assert main(["check", completed_file]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("confluent")
    assert "UNSOLVABLE" not in out


def test_reduce(completed_file, braided_file, capsys):
    assert main(["reduce", completed_file, "y.z.x"]) == 0
    assert capsys.readouterr().out.strip() == "x.x"
    assert main(["reduce", completed_file, "y.x.y.x.y - x.x.x.y"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["reduce", braided_file, "y.x.y"]) == 0
    assert capsys.readouterr().out.strip() == "y.x.y"


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


def test_oracle_enumerates_no_words(braided_file, capsys, monkeypatch):
    # The CLI compares leading words only; listing the |A|^d words of
    # length <= d took 3 s at --max-deg 11 and tripled with each degree.
    def enumerating(R, d):
        raise AssertionError("lm_set_up_to_degree called")

    monkeypatch.setattr(oracle, "lm_set_up_to_degree", enumerating)
    assert main(["oracle", braided_file, "--max-deg", "30"]) == 0
    assert capsys.readouterr().out == "AGREE\n"


def test_oracle_disagree_lists_leading_word_witnesses(braided_file, capsys, monkeypatch):
    # An oracle that stops at the input rules lacks the three rules the
    # lattice completion adds; each is a witness, and nothing else is.
    def stopped(R, degree_cap, iteration_cap):
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
