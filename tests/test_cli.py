import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qic import __version__, cli
from qic.classifier import prepare_state
from qic.cli import build_parser, main
from qic.presets import PRESET_NAMES
from qic.qasm import parse_qasm
from qic.stats import wald_worst_case


def run_cli(*argv):
    """Invoke the CLI in-process, returning (exit_code, SystemExit or None)."""
    try:
        return main(list(argv)), None
    except SystemExit as exc:
        return exc.code, exc


class TestClassify:
    def test_preset_analytic_values(self, capsys):
        code, _ = run_cli("classify", "--preset", "xprime")
        out = capsys.readouterr().out
        assert code == 0
        assert "0.7292" in out
        assert "0.6294" in out
        assert "-1" in out

    def test_sampled_estimates_near_exact(self, capsys):
        code, _ = run_cli(
            "classify", "--preset", "xdoubleprime", "--shots", "8192", "--seed", "7"
        )
        out = capsys.readouterr().out
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("p_acc")][0]
        assert abs(float(line.split(":")[1]) - 0.913) < 0.02

    def test_json_embeds_seed_and_version(self, capsys):
        code, _ = run_cli("classify", "--preset", "xprime", "--format", "json")
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["seed"] == 1234
        assert "version" in payload
        assert payload["results"]["predicted"] == -1

    def test_zero_input_is_usage_error(self, capsys):
        code, _ = run_cli("classify", "--input", "0,0")
        assert code == 2

    def test_malformed_vector_is_usage_error(self):
        code, _ = run_cli("classify", "--input", "a,b")
        assert code == 2

    @pytest.mark.parametrize("text", ["nan,1", "inf,1", "1,-inf"])
    def test_non_finite_vector_is_usage_error(self, text, capsys):
        code, _ = run_cli("classify", "--input", text)
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_custom_training_pair(self, capsys):
        code, _ = run_cli(
            "classify", "--input", "1,0", "--x0", "1,0", "--x1", "0,1"
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "predicted    : -1" in out

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("QIC_SEED", "777")
        run_cli("classify", "--preset", "xprime", "--format", "json")
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 777

    @pytest.mark.parametrize("argv", [
        ("classify", "--preset", "xprime", "--shots", "100"),
        ("reproduce", "--table", "1"),
        ("reproduce", "--table", "2", "--reps", "1"),
        ("shots", "--eps", "0.1", "--format", "table"),
        ("shots", "--eps", "0.1", "--format", "json"),
    ], ids=" ".join)
    def test_negative_env_seed_is_usage_error(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("QIC_SEED", "-1")
        code, _ = run_cli(*argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"usage: qic {argv[0]} ")
        assert "QIC_SEED must be an integer >= 0, got '-1'" in captured.err

    def test_env_seed_not_an_integer_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QIC_SEED", "abc")
        for argv in (
            ("classify", "--preset", "xprime"),
            ("shots", "--eps", "0.1", "--format", "table"),
            ("shots", "--eps", "0.1", "--format", "json"),
        ):
            code, _ = run_cli(*argv)
            captured = capsys.readouterr()
            assert code == 2, argv
            assert "QIC_SEED must be an integer" in captured.err
            assert captured.out == ""

    def test_env_seed_read_on_every_call(self, capsys, monkeypatch):
        argv = ("classify", "--preset", "xprime", "--shots", "100", "--format", "json")
        outputs = {}
        for seed in ("5", "6"):
            monkeypatch.setenv("QIC_SEED", seed)
            assert run_cli(*argv) == (0, None)
            outputs[seed] = capsys.readouterr().out
        monkeypatch.delenv("QIC_SEED")
        for seed, out in outputs.items():
            run_cli(*argv, "--seed", seed)
            assert out == capsys.readouterr().out
        assert outputs["5"] != outputs["6"]

    def test_orthogonal_input_reports_check_failure(self, capsys):
        # input opposite to every training vector never survives postselection
        code, _ = run_cli("classify", "--input", "0,-1", "--x0", "0,1", "--x1", "0,1")
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestReproduce:
    def test_table1_values(self, capsys):
        code, _ = run_cli("reproduce", "--table", "1", "--format", "json")
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        by_input = {r["input"]: r for r in payload["results"]}
        assert abs(by_input["xprime"]["theory_p_acc"] - 0.729) < 1e-3
        assert abs(by_input["xprime"]["theory_p_c0"] - 0.629) < 1e-3
        assert abs(by_input["xdoubleprime"]["theory_p_acc"] - 0.913) < 1e-3
        assert abs(by_input["xdoubleprime"]["theory_p_c0"] - 0.547) < 1e-3
        for row in payload["results"]:
            assert row["predicted"] == -1
            assert abs(row["sim_p_acc"] - row["theory_p_acc"]) < 0.02

    def test_table1_builds_each_state_once(self, monkeypatch, capsys):
        built = []

        def counting_prepare(train, x_tilde):
            built.append(x_tilde)
            return prepare_state(train, x_tilde)

        monkeypatch.setattr(cli, "prepare_state", counting_prepare)
        code, _ = run_cli("reproduce", "--table", "1")
        assert code == 0
        assert len(built) == len(PRESET_NAMES)

    def test_table2_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code, _ = run_cli(
            "reproduce", "--table", "2", "--reps", "3", "--seed", "5", "-o", str(out)
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "dataset,reps,mean_error,variance,mean_p_acc,expected,tolerance,pass"
        assert len(lines) == 7
        assert lines[1].startswith("iris-1-2,3,")

    def test_table2_reduced_reps_labeled(self, capsys):
        code, _ = run_cli("reproduce", "--table", "2", "--reps", "2", "--seed", "1")
        err = capsys.readouterr().err
        assert code == 0
        assert "canonical" in err

    def test_table1_defaults_to_text_table(self, capsys):
        code, _ = run_cli("reproduce", "--table", "1")
        out = capsys.readouterr().out
        assert code == 0
        header = out.splitlines()[0].split()
        assert header == ["input", "kind", "p_acc", "p(c=0)", "p(c=1)", "label"]

    def test_table2_defaults_to_csv(self, tmp_path):
        default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
        code, _ = run_cli(
            "reproduce", "--table", "2", "--reps", "2", "--seed", "3", "-o", str(default)
        )
        assert code == 0
        run_cli("reproduce", "--table", "2", "--reps", "2", "--seed", "3",
                "--format", "csv", "-o", str(explicit))
        assert default.read_text().startswith("dataset,reps,mean_error,")
        assert default.read_bytes() == explicit.read_bytes()

    @pytest.mark.parametrize(
        "table, fmt", [("2", "json"), ("2", "table"), ("1", "csv")]
    )
    def test_unsupported_format_is_usage_error(self, table, fmt, capsys):
        code, _ = run_cli("reproduce", "--table", table, "--format", fmt, "--reps", "1")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"not {fmt}" in captured.err

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_table1_rejects_reps(self, fmt, capsys):
        code, _ = run_cli("reproduce", "--table", "1", "--format", fmt, "--reps", "5")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--reps" in captured.err

    def test_table2_reps_default_to_canonical(self, monkeypatch, capsys):
        calls = []

        def no_rows(reps, seed):
            calls.append(reps)
            return []

        monkeypatch.setattr(cli, "run_table2", no_rows)
        code, _ = run_cli("reproduce", "--table", "2", "--seed", "1")
        run_cli("reproduce", "--table", "2", "--seed", "1", "--reps", "7")
        assert code == 0
        assert calls == [1000, 7]
        assert capsys.readouterr().err.count("canonical") == 1

    def test_table2_byte_identical_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("reproduce", "--table", "2", "--reps", "3", "--seed", "9", "-o", str(a))
        run_cli("reproduce", "--table", "2", "--reps", "3", "--seed", "9", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestVerifyDecompositions:
    def test_default_run_passes(self, capsys):
        code, _ = run_cli("verify-decompositions")
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "<= 80" in out

    def test_injected_fault_fails(self, faulted_toffoli, capsys):
        code, _ = run_cli("verify-decompositions")
        out = capsys.readouterr().out
        assert code == 1
        failed = [line[6:].split("  ")[0] for line in out.splitlines()
                  if line.startswith("FAIL  ")]
        assert failed == faulted_toffoli


class TestExportQasm:
    def test_file_round_trips(self, tmp_path):
        path = tmp_path / "out.qasm"
        code, _ = run_cli("export-qasm", "--preset", "xprime", "-o", str(path))
        assert code == 0
        text = path.read_text()
        assert text.startswith("OPENQASM 2.0;")
        circ = parse_qasm(text)
        assert circ.n_qubits == 4
        assert len(circ.ops) <= 80

    def test_alternate_preset_contains_half_angle(self, tmp_path):
        path = tmp_path / "out.qasm"
        run_cli("export-qasm", "--preset", "xdoubleprime", "-o", str(path))
        assert "ry(1.517" in path.read_text()

    def test_unwritable_path_is_io_error(self, capsys):
        code, _ = run_cli(
            "export-qasm", "--preset", "xprime", "-o", "/nonexistent-dir/x.qasm"
        )
        assert code == 3


# one run of each subcommand that writes its result to stdout
STDOUT_COMMANDS = [
    ("classify", "--preset", "xprime"),
    ("reproduce", "--table", "1"),
    ("reproduce", "--table", "2", "--reps", "1"),
    ("verify-decompositions",),
    ("export-qasm", "--preset", "xprime"),
    ("shots", "--eps", "0.01"),
]


class FailingStdout(io.StringIO):
    """A stdout whose write or flush raises the given error."""

    def __init__(self, error: OSError, method: str):
        super().__init__()
        self.error, self.method = error, method

    def write(self, text):
        if self.method == "write":
            raise self.error
        return super().write(text)

    def flush(self):
        if self.method == "flush":
            raise self.error


class TestStdoutErrors:
    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize("error", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                                       OSError(errno.ENOSPC, "No space left on device")],
                             ids=["broken-pipe", "no-space"])
    @pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=" ".join)
    def test_failed_write_is_io_error(self, argv, error, method, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", FailingStdout(error, method))
        assert run_cli(*argv) == (3, None)
        monkeypatch.undo()
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"error: cannot write stdout: {error}"
        assert not [line for line in err[:-1] if line.startswith("error")]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_full_device_exits_3_with_one_error_line(self):
        # buffered stdout, so the text is still pending when the command returns
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "qic", "verify-decompositions"],
                                  stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        assert proc.returncode == 3
        assert proc.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"


class TestShots:
    def test_wald_budget(self, capsys):
        code, _ = run_cli("shots", "--eps", "0.01", "--z", "2.58", "--method", "wald")
        out = capsys.readouterr().out
        assert code == 0
        assert "16641" in out

    def test_wilson_budget(self, capsys):
        code, _ = run_cli("shots", "--eps", "0.01", "--z", "2.58", "--method", "wilson")
        out = capsys.readouterr().out
        assert code == 0
        assert "16648" in out

    def test_table_written_to_output_file(self, tmp_path, capsys):
        path = tmp_path / "shots.txt"
        code, _ = run_cli("shots", "--eps", "0.01", "-o", str(path))
        assert code == 0
        assert capsys.readouterr().out == ""
        assert path.read_text() == "shots          : 16641\nbound at shots : 0.01\n"

    def test_table_bound_keeps_significant_digits(self, capsys):
        # at six decimals a bound below 5e-7 would print as 0.000000
        code, _ = run_cli("shots", "--eps", "1e-7")
        assert code == 0
        assert capsys.readouterr().out == "shots          : 166410000000001\nbound at shots : 1e-07\n"

    def test_epsilon_out_of_range(self):
        code, _ = run_cli("shots", "--eps", "0.6")
        assert code == 2

    def test_json_payload(self, capsys):
        code, _ = run_cli("shots", "--eps", "0.01", "--format", "json")
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["command"] == "shots"
        assert payload["results"] == {"shots": 16641,
                                      "bound_at_shots": wald_worst_case(16641, 2.58)}
        assert payload["config"] == {"epsilon": 0.01, "z": 2.58, "method": "wald"}
        assert payload["seed"] == 1234
        assert payload["version"] == __version__


USAGE_ERRORS = [
    (("classify", "--input", "0,0"), "--input is a zero vector"),
    (("classify", "--input", "1,0,0"), "training pair is 2-dimensional"),
    (("classify", "--input", "1,0,0", "--x0", "0,1"),
     "input and training vectors must share one dimension"),
    (("classify", "--input", "1e200,1e200"), "--input: cannot normalize"),
    (("classify", "--preset", "xprime", "--shots", "0"), "--shots: must be >= 1, got 0"),
    (("classify", "--preset", "xprime", "--shots", "100", "--seed", "-1"),
     "--seed: must be >= 0, got -1"),
    (("reproduce", "--table", "1", "--seed", "-3"), "--seed: must be >= 0, got -3"),
    (("reproduce", "--table", "2", "--reps", "1", "--seed", "-1"),
     "--seed: must be >= 0, got -1"),
    (("reproduce", "--table", "1", "--reps", "5"), "--reps applies only to --table 2"),
    (("reproduce", "--table", "1", "--format", "csv"), "not csv"),
    (("reproduce", "--table", "2", "--reps", "0"), "--reps: must be >= 1, got 0"),
    (("reproduce", "--table", "2", "--reps", "-3"), "--reps: must be >= 1, got -3"),
    (("reproduce", "--table", "2", "--reps", "x"), "--reps: not an integer: 'x'"),
    (("shots", "--eps", "0.7"), "epsilon must be in (0, 0.5), got 0.7"),
    (("shots", "--eps", "0.1", "--z", "0"), "z must be positive"),
    (("shots", "--eps", "0.01", "--z", "inf"), "z must be positive and finite, got inf"),
    (("shots", "--eps", "0.01", "--z", "nan"), "z must be positive and finite, got nan"),
    (("shots", "--eps", "1e-300"), "epsilon 1e-300 at z 2.58 needs more than 2**53 shots"),
]


@pytest.mark.parametrize(
    "argv, message", USAGE_ERRORS, ids=[" ".join(argv) for argv, _ in USAGE_ERRORS]
)
def test_usage_error_names_its_subcommand(argv, message, capsys):
    code, _ = run_cli(*argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"usage: qic {argv[0]} ")
    assert message in captured.err


# every long option of each subcommand, written in full; "--x1=-1,1" is how a
# vector that starts with "-" is passed
FULL_OPTIONS = {
    "classify": (["--preset", "xprime", "--shots", "9", "--seed", "4", "--format", "json",
                  "--output", "out.json"],
                 ["--input", "0.6,0.8", "--x0", "0,1", "--x1=-1,1"]),
    "reproduce": (["--table", "2", "--reps", "3", "--seed", "4", "--format", "csv",
                   "--output", "grid.csv"],),
    "verify-decompositions": ([],),
    "export-qasm": (["--preset", "xdoubleprime", "--output", "circuit.qasm"],),
    "shots": (["--eps", "0.1", "--z", "2", "--method", "wilson", "--format", "json",
               "--output", "shots.json"],),
}


@pytest.mark.parametrize("command", FULL_OPTIONS)
def test_every_long_option_parses_in_full(command, capsys):
    assert run_cli(command, "--help")[0] == 0
    documented = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out)) - {"--help"}
    parsed = [build_parser().parse_args([command, *argv]) for argv in FULL_OPTIONS[command]]
    assert [args.command for args in parsed] == [command] * len(parsed)
    used = {a.split("=")[0] for argv in FULL_OPTIONS[command] for a in argv if a.startswith("--")}
    assert used == documented
    if command == "classify":
        assert list(parsed[1].x1) == [-1.0, 1.0]


def repeated_options():
    """(command, argv, option name) for each option of FULL_OPTIONS given a
    second time, --output as -o, and for repeats with a different value."""
    for command, argvs in FULL_OPTIONS.items():
        for argv in argvs:
            for k, arg in enumerate(argv):
                if arg.startswith("--"):
                    option = arg.split("=")[0]
                    again = argv[k:k + 1] if "=" in arg else argv[k:k + 2]
                    if option == "--output":
                        again = ["-o", *again[1:]]
                    yield command, [*argv, *again], option
    yield "classify", ["--preset", "xprime", "--preset", "xdoubleprime"], "--preset"
    yield "export-qasm", ["--preset", "xprime", "-o", "a.qasm", "--output", "b.qasm"], "--output"
    yield "shots", ["--eps", "0.1", "--eps=0.01"], "--eps"


REPEATED = list(repeated_options())


@pytest.mark.parametrize("command, argv, option", REPEATED,
                         ids=[" ".join([c, *a]) for c, a, _ in REPEATED])
def test_repeated_option_is_usage_error(command, argv, option, capsys, monkeypatch, tmp_path):
    # last-wins would run the command and write its -o file here
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(command, *argv)
    captured = capsys.readouterr()
    name = "-o/--output" if option == "--output" else option
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"usage: qic {command} ")
    assert captured.err.endswith(f"qic {command}: error: argument {name}: given more than once\n")
    assert list(tmp_path.iterdir()) == []


ABBREVIATED = [
    ("classify", "--inp", "0,1"),
    ("classify", "--pre", "xprime"),
    ("classify", "--preset", "xprime", "--sh", "10"),
    ("reproduce", "--tab", "1"),
    ("reproduce", "--table", "2", "--rep", "2"),
    ("export-qasm", "--pres", "xprime"),
    ("shots", "--ep", "0.1"),
    ("shots", "--eps", "0.1", "--meth", "wilson"),
    ("--vers",),
]


@pytest.mark.parametrize("argv", ABBREVIATED, ids=" ".join)
def test_abbreviated_option_is_usage_error(argv, capsys):
    code, _ = run_cli(*argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: qic")


# an unknown option or a stray argument after each subcommand, and what is left over
LEFTOVERS = [
    (("classify", "--preset", "xprime", "--bogus"), "--bogus"),
    (("classify", "--preset", "xprime", "stray"), "stray"),
    (("reproduce", "--table", "1", "--bogus", "1"), "--bogus 1"),
    (("verify-decompositions", "stray"), "stray"),
    (("export-qasm", "--preset", "xprime", "--bogus"), "--bogus"),
    (("shots", "--eps", "0.1", "--meth", "wilson"), "--meth wilson"),
    # a misspelt required option is named, not reported as missing
    (("classify", "--inp", "0,1"), "--inp 0,1"),
    (("reproduce", "--tab", "1"), "--tab 1"),
    (("export-qasm", "--pres", "xprime"), "--pres xprime"),
    (("shots", "--ep", "0.1"), "--ep 0.1"),
]


@pytest.mark.parametrize("argv, leftover", LEFTOVERS, ids=[" ".join(a) for a, _ in LEFTOVERS])
def test_leftover_arguments_show_the_subcommand_usage(argv, leftover, capsys):
    code, _ = run_cli(*argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"usage: qic {argv[0]} ")
    assert captured.err.endswith(f"qic {argv[0]}: error: unrecognized arguments: {leftover}\n")


@pytest.mark.parametrize("argv, without", [
    (("classify", "--seed", "x", "--inp", "1"), ("classify", "--seed", "x")),
    (("classify", "--preset", "xprime", "--input", "1,0", "--inp", "1"),
     ("classify", "--preset", "xprime", "--input", "1,0")),
    (("reproduce", "--bogus", "--table", "3"), ("reproduce", "--table", "3")),
    (("classify", "--inp", "1", "-h"), ("classify", "-h")),
], ids=["bad-value", "exclusive-options", "bad-choice", "help"])
def test_unrecognized_option_leaves_an_earlier_error_or_help_as_it_was(argv, without, capsys):
    # these stop before any leftover is reported, and show the usage with its
    # required options
    expected = run_cli(*without)[0], capsys.readouterr()
    assert (run_cli(*argv)[0], capsys.readouterr()) == expected


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qic.cli", "classify", "--preset", "xprime"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "p_acc" in proc.stdout


def test_package_runs_as_module():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "qic", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__


GOLDEN_25 = Path(__file__).resolve().parent / "golden" / "table2_reps25_seed0.csv"


class TestParserReuse:
    @pytest.mark.parametrize("before, code", [
        (("classify", "--preset", "xprime", "--format", "json"), 0),
        (("classify", "--input", "0,0"), 2),
        (("reproduce", "--table", "1", "--reps", "5"), 2),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
    def test_earlier_call_leaves_table2_unchanged(self, before, code, capsys):
        assert run_cli(*before)[0] == code
        capsys.readouterr()
        assert run_cli("reproduce", "--table", "2", "--reps", "25", "--seed", "0") == (0, None)
        assert capsys.readouterr().out.encode() == GOLDEN_25.read_bytes()

    def test_parser_is_built_at_most_once(self, capsys):
        build_parser.cache_clear()
        run_cli("classify", "--preset", "xprime")
        run_cli("classify", "--input", "0,0")
        run_cli("shots", "--eps", "0.01")
        run_cli("verify-decompositions")
        assert build_parser.cache_info()[:2] == (3, 1)  # (hits, misses)
