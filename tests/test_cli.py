import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bladesim.cli
from bladesim import ParseError, parse
from bladesim.bench import KERNELS, bench_rows
from bladesim.cli import build_parser, main, parse_sizes

BELL_SRC = "qubits 2\nh 0\ncnot 0 1\nmeasure 0\nmeasure 1\n"
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(BELL_SRC)
    return path


def test_parse_sizes():
    assert parse_sizes("2^3..2^5") == [8, 16, 32]
    assert parse_sizes("10,20") == [10, 20]
    assert parse_sizes("2^4") == [16]
    assert parse_sizes("4..40") == [4, 8, 16, 32]
    with pytest.raises(ValueError):
        parse_sizes("8..4")
    with pytest.raises(ValueError):
        parse_sizes("0")
    assert parse_sizes("2^24") == [2**24]
    with pytest.raises(ValueError, match="limit 2\\^24"):
        parse_sizes("2^25")
    # each refused item is named, not int()'s message about its digits
    for text, item in [("abc", "abc"), ("2^x", "2^x"), ("4,,8", ""), ("", ""), ("2^3..z", "z")]:
        with pytest.raises(ValueError) as err:
            parse_sizes(text)
        assert str(err.value) == f"bad size {item!r}", text


def test_run_writes_report(bell_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", str(bell_file), "--shots", "200", "--seed", "9", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["backend"] == "stabilizer"
    assert report["shots"] == 200
    assert set(report["counts"]) <= {"00", "11"}
    assert "timing" in report


def test_run_stdout_and_backend_choice(bell_file, capsys):
    code = main(["run", str(bell_file), "--backend", "statevector", "--shots", "5"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["backend"] == "statevector"
    assert len(report["records"]) == 5


def test_run_reports_byte_identical_modulo_timing(bell_file, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert main(["run", str(bell_file), "--shots", "64", "--seed", "1", "--out", str(p)]) == 0
    docs = []
    for p in paths:
        doc = json.loads(p.read_text())
        doc.pop("timing")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def _ghz_run_peak_mb(tmp_path, n: int, shots: int) -> float:
    """Peak RSS in MB of `bladesim run` on GHZ-n with every qubit measured.

    The child prints its own peak RSS in kB as Linux's VmHWM: its ru_maxrss
    would also hold this process's peak, which Linux carries over through
    fork and exec.
    """
    path = tmp_path / f"ghz{n}.qc"
    measures = "".join(f"measure {q}\n" for q in range(n))
    path.write_text(f"qubits {n}\nh 0\n" + "".join(f"cnot 0 {q}\n" for q in range(1, n)) + measures)
    script = (
        "import sys\n"
        "from bladesim.cli import main\n"
        "assert main(['run', sys.argv[1], '--shots', sys.argv[2], '--seed', '1', '--out', sys.argv[3]]) == 0\n"
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-c", script, str(path), str(shots), os.devnull]
    out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return int(out.stdout) / 1024


def test_ghz1000_report_peaks_under_150_mb(tmp_path):
    # GHZ-1000 at 10^4 shots writes a 91 MB report, whose records' text is
    # built a chunk at a time
    peak = _ghz_run_peak_mb(tmp_path, 1000, 10_000)
    assert peak < 150, peak


def test_ghz4000_report_peaks_under_150_mb(tmp_path):
    # GHZ-4000 at 3 shots: the largest arrays are the final stabilizers' 16 MB
    # letter matrix and the 16 MB of its written text; their bits are
    # unpacked 512 rows (4 MB) at a time
    peak = _ghz_run_peak_mb(tmp_path, 4000, 3)
    assert peak < 150, peak


def test_ghz8192_report_peaks_under_250_mb(tmp_path):
    # GHZ-8192 at 3 shots: a 34 MB tableau, a 67 MB letter matrix and 67 MB
    # of report text; the rows' whole 134 MB bit matrix must never be alive
    peak = _ghz_run_peak_mb(tmp_path, 8192, 3)
    assert peak < 250, peak


def test_validate_exit_codes(bell_file, tmp_path, capsys):
    out = tmp_path / "val.json"
    code = main(["validate", str(bell_file), "--shots", "2000", "--seed", "0", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "[PASS]" in printed and "[FAIL]" not in printed
    report = json.loads(out.read_text())
    assert report["passed"] is True


def test_validate_failure_exit_code(bell_file, capsys, monkeypatch):
    import bladesim.tableau

    # S's rule without its sign flip: Y -> +X
    rules = bladesim.tableau._RULES
    monkeypatch.setitem(bladesim.tableau._GATES, "s", bladesim.tableau._compile("s", rules["s"]._replace(flip=())))
    src = "qubits 1\nh 0\ns 0\ns 0\nh 0\nmeasure 0\n"
    path = bell_file.parent / "corrupt_target.qc"
    path.write_text(src)
    code = main(["validate", str(path), "--shots", "500"])
    assert code == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_validate_zero_norm_dense_collapse_exits_1(tmp_path, capsys, monkeypatch):
    # a dense projector for the wrong outcome leaves nothing to collapse onto
    # at a certain outcome: validate reports the failure, with no traceback
    import bladesim.backends

    original = bladesim.backends.projector_words
    monkeypatch.setattr(bladesim.backends, "projector_words", lambda n, q, o: original(n, q, 1 - o))
    path = tmp_path / "measure.qc"
    path.write_text("qubits 1\nmeasure 0\n")
    assert main(["validate", str(path), "--shots", "100"]) == 1
    printed = capsys.readouterr()
    assert "[FAIL] dense_clifford_matches_statevector: op 0 (measure 0)" in printed.out
    assert printed.err == ""


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.qc"
    bad.write_text("qubits 2\nh 9\n")
    code = main(["run", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 2")


@pytest.mark.parametrize(
    "source, accepted",
    [
        ("qubits 2\r\nh 0\r\ncnot 0 1\r\nmeasure 0\r\n", True),  # CRLF: each line's CR is trailing whitespace
        ("qubits 2\rh 0\rmeasure 0\r", False),  # lone CRs end no line: one line, refused after the header
        ("qubits 1\nh\r0\n", True),  # a CR inside a line is whitespace: h 0
    ],
    ids=["crlf", "lone-cr", "in-line-cr"],
)
def test_the_cli_reads_carriage_returns_as_parse_does(source, accepted, tmp_path, capsys, monkeypatch):
    path = tmp_path / "cr.qc"
    path.write_bytes(source.encode("utf-8"))
    seen, real_run = [], bladesim.cli.backends.run

    def run(circuit, **kwargs):
        seen.append(circuit)
        return real_run(circuit, **kwargs)

    monkeypatch.setattr(bladesim.cli.backends, "run", run)
    code = main(["run", str(path)])
    try:
        want = parse(source)
    except ParseError as err:
        assert not accepted
        assert (code, capsys.readouterr().err, seen) == (2, f"parse error: {err}\n", [])
    else:
        assert accepted
        assert (code, seen) == (0, [want])


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.qc")])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "{dir}/nope.qc"],
        ["run", "{dir}/bad.qc"],
        ["run", "{dir}/wide13.qc", "--backend", "dense-clifford"],
        ["run", "{dir}/wide13.qc", "--backend", "statevector"],
        ["validate", "{dir}/wide13.qc"],
        ["run", "{dir}/huge_n.qc"],
        ["run", "{dir}/huge_slot.qc"],
        ["run", "{dir}/fullwidth.qc"],
        ["run", "{dir}/bell.qc", "--seed", "-1"],
        ["run", "{dir}/det.qc", "--seed", "-1"],
        ["bench", "--sizes", "abc"],
        ["bench", "--sizes", "8..4"],
        ["bench", "--sizes", "2^-1"],
        ["bench", "--sizes", "2^70", "--kernel", "pauli-mul"],
        ["bench", "--sizes", "1..2^70", "--kernel", "pauli-mul"],
        ["run", "{dir}/bell.qc", "--shots", "0"],
        ["run", "{dir}/bell.qc", "--shots", "2000000"],
        ["validate", "{dir}/bell.qc", "--shots", "2000000"],
        ["bench", "--sizes", "64", "--reps", "0"],
    ],
    ids=lambda argv: " ".join(argv).replace("{dir}/", ""),
)
def test_bad_input_exits_2_with_a_message(argv, bell_file, capsys):
    folder = bell_file.parent
    (folder / "bad.qc").write_text("qubits 2\nh 9\n")
    (folder / "det.qc").write_text("qubits 1\nx 0\nmeasure 0\n")  # no random outcome
    (folder / "wide13.qc").write_text("qubits 13\nh 0\nmeasure 0\n")  # past both dense backends' cap of 12
    (folder / "huge_n.qc").write_text("qubits 100000000\nh 0\nmeasure 0\n")
    (folder / "huge_slot.qc").write_text("qubits 1\nh 0\nmeasure 0 -> 1000000000000\n")
    (folder / "fullwidth.qc").write_text("qubits \uff13\nh 0\n", encoding="utf-8")
    code = main([arg.replace("{dir}", str(folder)) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip() and "Traceback" not in err


@pytest.mark.parametrize("sizes, item", [("abc", "abc"), ("2^x", "2^x"), ("4,,8", ""), ("", "")])
def test_bad_size_is_named(sizes, item, capsys):
    assert main(["bench", "--sizes", sizes]) == 2
    assert capsys.readouterr().err == f"error: bad size {item!r}\n"


def test_bench_single_point(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["bench", "--sizes", "64", "--reps", "3", "--kernel", "pauli-mul", "--csv", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "kernel,n,median_ns,p90_ns"
    assert len(lines) == 2
    assert lines[1].startswith("pauli-mul,64,")


def test_bench_both_kernels(capsys):
    code = main(["bench", "--sizes", "32,64", "--reps", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 5  # header + 2 sizes x 2 kernels
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["pauli-mul", "32"], ["pauli-mul", "64"], ["tableau-gate", "32"], ["tableau-gate", "64"]
    ]  # "both" stays the two scaling kernels; string-mul is timed only when asked for


def test_bench_string_mul_kernel(capsys):
    # the blade-string product's own kernel, word-parallel like pauli-mul, so no size is skipped
    code = main(["bench", "--sizes", "64,2^15", "--reps", "2", "--kernel", "string-mul"])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "kernel,n,median_ns,p90_ns"
    assert [line.split(",")[:2] for line in lines[1:]] == [["string-mul", "64"], ["string-mul", "32768"]]
    assert all(float(v) > 0 for line in lines[1:] for v in line.split(",")[2:])
    assert captured.err == ""


def test_bench_rows_refuses_unknown_kernels():
    # an unknown name used to time H gates under that name
    with pytest.raises(ValueError, match="pauli-mul, tableau-gate, string-mul"):
        bench_rows([8], reps=1, kernels=("blade-mul",))
    with pytest.raises(ValueError, match="'nope'"):
        bench_rows([8], reps=1, kernels=("pauli-mul", "nope"))
    assert [r["kernel"] for r in bench_rows([8], reps=1, kernels=KERNELS)] == list(KERNELS)


def test_bench_skips_oversized_tableau_points(capsys):
    code = main(["bench", "--sizes", "2^15", "--reps", "1"])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert len(lines) == 2 and lines[1].startswith("pauli-mul,32768,")
    assert "skipped" in captured.err


def test_bench_zero_reps_rejected(capsys):
    assert main(["bench", "--sizes", "64", "--reps", "0"]) == 2
    assert capsys.readouterr().err == "error: need at least one repetition\n"


def test_run_zero_shots_rejected(bell_file, capsys):
    # run and validate share one argument check, so the CLI prints its message and no usage
    for command in ("run", "validate"):
        code = main([command, str(bell_file), "--shots", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: shots must be at least 1\n"


def test_one_parser_serves_every_command(bell_file, tmp_path, capsys):
    # the parser is built once per process; each call still gets its own arguments
    out = tmp_path / "report.json"
    assert main(["run", str(bell_file), "--backend", "statevector", "--shots", "7", "--seed", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["backend"], report["shots"], report["seed"]) == ("statevector", 7, 2)
    assert main(["validate", str(bell_file), "--shots", "300", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["shots"], report["seed"], report["passed"]) == (300, 0, True)
    assert main(["bench", "--sizes", "64", "--reps", "0"]) == 2
    assert capsys.readouterr().err == "error: need at least one repetition\n"
    assert main(["run", str(bell_file), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["backend"], report["shots"], report["seed"]) == ("stabilizer", 1, 0)
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "source, line",
    [
        ("qubits " + "1" * 5000 + "\nh 0\n", 1),
        ("qubits 2\nh " + "1" * 5000 + "\n", 2),
        ("qubits 1\nh 0\nmeasure 0 -> " + "1" * 5000 + "\n", 3),
    ],
    ids=["count", "qubit", "slot"],
)
def test_over_long_integer_exits_2_with_its_position(source, line, tmp_path, capsys):
    path = tmp_path / "long.qc"
    path.write_text(source)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"parse error: line {line}, column ")


@pytest.mark.parametrize(
    "source, line",
    [
        ("qubits " + "1" * 2000 + "\nh 0\n", 1),
        ("qubits 2\nh " + "1" * 2000 + "\n", 2),
        ("qubits 1\nh 0\nmeasure 0 -> " + "1" * 2000 + "\n", 3),
    ],
    ids=["count", "qubit", "slot"],
)
def test_integer_past_a_lowered_digit_limit_exits_2(source, line, tmp_path, capsys, int_digit_limit_1000):
    path = tmp_path / "long.qc"
    path.write_text(source)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"parse error: line {line}, column ")
