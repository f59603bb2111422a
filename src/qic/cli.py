"""Command-line interface: classify inputs, rerun the bundled reference
scenarios, verify gate decompositions, export QASM, and plan shot budgets.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O error. The
default seed can be overridden with the QIC_SEED environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .circuit import (
    build_experiment_circuit,
    decompose,
    verify_decompositions,
    with_interference,
)
from .classifier import (
    TrainingSet,
    classify,
    interfere_and_read,
    interfere_and_sample,
    prepare_state,
)
from .data import run_table2
from .encoding import normalize
from .errors import EstimationFailedError, ImpossibleBranchError, ZeroVectorError
from .presets import PRESET_NAMES, X0, X1, preset_input, training_set
from .qasm import export_qasm
from .stats import WORST_CASE, shots_for_error

DEFAULT_SEED = 1234
# Table 2's repetitions when --reps is not given
CANONICAL_REPS = 1000
ENV_SEED = "QIC_SEED"
# formats each reproduced table can be written in; the first is the default
_REPRODUCE_FORMATS = {1: ("table", "json"), 2: ("csv",)}


def _int_at_least(low: int):
    """argparse type: an integer of at least low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)
_seed = _int_at_least(0)  # numpy's generators take no negative seed


def _default_seed(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get(ENV_SEED, str(DEFAULT_SEED))
    try:
        return _seed(raw)
    except argparse.ArgumentTypeError:
        parser.error(f"{ENV_SEED} must be an integer >= 0, got {raw!r}")


def _parse_vector(text: str) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated vector: {text!r}")
    if not np.all(np.isfinite(vec)):
        raise argparse.ArgumentTypeError(f"vector entries must be finite: {text!r}")
    return vec


def _unit_or_usage(parser: argparse.ArgumentParser, name: str, vec: np.ndarray) -> np.ndarray:
    try:
        return normalize(vec)
    except ZeroVectorError:
        parser.error(f"{name} is a zero vector and has no direction")
    except ValueError as exc:
        parser.error(f"{name}: {exc}")


def _write_output(text: str, path: str | None) -> int:
    if path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 3
    return 0


def _json_payload(command: str, seed: int, config: dict, results) -> str:
    return json.dumps(
        {
            "command": command,
            "version": __version__,
            "seed": seed,
            "config": config,
            "results": results,
        },
        indent=2,
        sort_keys=True,
    ) + "\n"


# ---------------------------------------------------------------------------
# classify


def _cmd_classify(args, parser) -> int:
    seed = args.seed if args.seed is not None else _default_seed(parser)
    if args.preset:
        x_tilde = preset_input(args.preset)
    else:
        x_tilde = _unit_or_usage(parser, "--input", args.input)

    if args.x0 is not None or args.x1 is not None:
        v0 = _unit_or_usage(parser, "--x0", args.x0 if args.x0 is not None else X0)
        v1 = _unit_or_usage(parser, "--x1", args.x1 if args.x1 is not None else X1)
        if v0.shape != x_tilde.shape or v1.shape != x_tilde.shape:
            parser.error("input and training vectors must share one dimension")
        train = TrainingSet(vectors=np.stack([v0, v1]), labels=np.array([-1, +1]))
    else:
        if x_tilde.shape != (2,):
            parser.error("the bundled training pair is 2-dimensional; pass --x0/--x1")
        train = training_set()

    outcome = classify(train, x_tilde, shots=args.shots, seed=seed)

    result = {
        "p_acc": outcome.p_acc,
        "p_class_minus": outcome.p_class_minus,
        "p_class_plus": outcome.p_class_plus,
        "predicted": outcome.predicted,
        "shots": outcome.shots,
        "accepted": outcome.accepted,
    }
    if args.format == "json":
        config = {
            "preset": args.preset,
            "input": [float(v) for v in x_tilde],
            "shots": args.shots,
        }
        return _write_output(_json_payload("classify", seed, config, result), args.output)

    mode = "analytic" if args.shots is None else f"{args.shots} shots (seed {seed})"
    lines = [
        f"mode         : {mode}",
        f"p_acc        : {outcome.p_acc:.4f}",
        f"p(class=-1)  : {outcome.p_class_minus:.4f}",
        f"p(class=+1)  : {outcome.p_class_plus:.4f}",
        f"predicted    : {outcome.predicted:+d}",
    ]
    if outcome.accepted is not None:
        lines.insert(1, f"accepted     : {outcome.accepted}")
    return _write_output("\n".join(lines) + "\n", args.output)


# ---------------------------------------------------------------------------
# reproduce


def _table1_rows(seed: int) -> list[dict]:
    train = training_set()
    rows = []
    for name in PRESET_NAMES:
        state = prepare_state(train, preset_input(name))
        exact = interfere_and_read(state)
        sampled = interfere_and_sample(state, 8192, seed)
        rows.append(
            {
                "input": name,
                "theory_p_acc": exact.p_acc,
                "theory_p_c0": exact.p_class_minus,
                "theory_p_c1": exact.p_class_plus,
                "sim_p_acc": sampled.p_acc,
                "sim_p_c0": sampled.p_class_minus,
                "sim_p_c1": sampled.p_class_plus,
                "predicted": exact.predicted,
            }
        )
    return rows


def _cmd_reproduce(args, parser) -> int:
    formats = _REPRODUCE_FORMATS[args.table]
    fmt = formats[0] if args.format is None else args.format
    if fmt not in formats:
        parser.error(f"--table {args.table} is written as {' or '.join(formats)}, not {fmt}")
    if args.table == 1 and args.reps is not None:
        parser.error("--reps applies only to --table 2")
    seed = args.seed if args.seed is not None else _default_seed(parser)
    if args.table == 1:
        rows = _table1_rows(seed)
        if fmt == "json":
            return _write_output(
                _json_payload("reproduce-table1", seed, {"shots": 8192}, rows),
                args.output,
            )
        out = ["input          kind      p_acc   p(c=0)  p(c=1)  label"]
        for r in rows:
            out.append(
                f"{r['input']:<14} theory    {r['theory_p_acc']:.4f}  "
                f"{r['theory_p_c0']:.4f}  {r['theory_p_c1']:.4f}  {r['predicted']:+d}"
            )
            out.append(
                f"{r['input']:<14} sampled   {r['sim_p_acc']:.4f}  "
                f"{r['sim_p_c0']:.4f}  {r['sim_p_c1']:.4f}"
            )
        return _write_output("\n".join(out) + "\n", args.output)

    # table 2: full benchmark grid as CSV
    reps = CANONICAL_REPS if args.reps is None else args.reps
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["dataset", "reps", "mean_error", "variance", "mean_p_acc",
         "expected", "tolerance", "pass"]
    )
    for spec, report in run_table2(reps, seed):
        writer.writerow(
            [
                spec.key,
                reps,
                f"{report.mean_error:.6f}",
                f"{report.error_variance:.6f}",
                f"{report.mean_p_acc:.6f}",
                f"{spec.expected_error:.2f}",
                f"{spec.tolerance:.2f}",
                str(spec.passes(report)).lower(),
            ]
        )
    text = buf.getvalue()
    if reps != CANONICAL_REPS:
        print(f"note: {reps} repetitions (canonical runs use {CANONICAL_REPS})", file=sys.stderr)
    return _write_output(text, args.output)


# ---------------------------------------------------------------------------
# verify-decompositions


def _cmd_verify(args, parser) -> int:
    checks = verify_decompositions()
    width = max(len(name) for name, _, _ in checks)
    all_ok = True
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:<{width}}  {detail}")
        all_ok &= ok
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# export-qasm


def _cmd_export_qasm(args, parser) -> int:
    x_tilde = preset_input(args.preset)
    circ = decompose(with_interference(build_experiment_circuit(x_tilde, X0, X1)))
    return _write_output(export_qasm(circ), args.output)


# ---------------------------------------------------------------------------
# shots


def _cmd_shots(args, parser) -> int:
    # only the JSON payload reports the seed, but a bad QIC_SEED fails either format
    seed = _default_seed(parser)
    try:
        count = shots_for_error(args.eps, args.z, args.method)
    except ValueError as exc:  # epsilon or z out of range, or the count overflows
        parser.error(str(exc))
    bound = WORST_CASE[args.method](count, args.z)
    if args.format == "json":
        result = {"shots": count, "bound_at_shots": bound}
        config = {"epsilon": args.eps, "z": args.z, "method": args.method}
        return _write_output(
            _json_payload("shots", seed, config, result), args.output
        )
    return _write_output(
        f"shots          : {count}\nbound at shots : {bound:.6g}\n", args.output
    )


# ---------------------------------------------------------------------------


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser. argparse checks for missing required options
    before it hands back the arguments it did not recognize, so a misspelt
    required option (``classify --inp 0,1``) would be reported only as
    missing. When an option is not recognized, the arguments are first parsed
    with no option required, and any leftovers go back to main to report."""

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        # an option given twice, under any of its names, is an error, not a
        # new value; argparse reads every token that starts with an option's
        # name (--output=b, -ob) as that option, never as another's value
        given = [self._option_string_actions.get(a.partition("=")[0] if a[:2] == "--" else a[:2])
                 for a in args]
        for action in given:
            if action is not None and given.count(action) > 1:
                self.error(f"argument {'/'.join(action.option_strings)}: given more than once")
        if any(a.startswith("--") and a.partition("=")[0] not in self._option_string_actions
               for a in args):
            required = [item for item in (*self._actions, *self._mutually_exclusive_groups)
                        if item.required]
            for item in required:
                item.required = False
            # any error or help here comes again from the parse below, which
            # shows the usage with its required options
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    parsed = super().parse_known_args(args, namespace)
            except SystemExit:
                parsed = None
            finally:
                for item in required:
                    item.required = True
            if parsed is not None and parsed[1]:
                return parsed
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qic",
        description="amplitude-encoded interference classifier and simulator",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    # options match only in full: a prefix such as --inp would otherwise bind
    # to whichever option it starts, and one added later could change that
    add_command = functools.partial(
        parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser).add_parser,
        allow_abbrev=False,
    )

    p = add_command("classify", help="classify one input vector")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_NAMES)
    group.add_argument("--input", type=_parse_vector,
                       help="comma-separated vector, unit-normalized before encoding")
    p.add_argument("--x0", type=_parse_vector, help="training vector for class -1")
    p.add_argument("--x1", type=_parse_vector, help="training vector for class +1")
    p.add_argument("--shots", type=_positive_int, default=None,
                   help="sample instead of exact readout")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_classify, parser=p)

    p = add_command("reproduce", help="rerun the bundled reference scenarios")
    p.add_argument("--table", type=int, choices=(1, 2), required=True)
    p.add_argument("--reps", type=_positive_int, default=None,
                   help="repetitions for the benchmark grid "
                        f"(table 2 only; default {CANONICAL_REPS})")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--format", choices=("table", "json", "csv"), default=None,
                   help="table 1: table (default) or json; table 2: csv (default)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_reproduce, parser=p)

    p = add_command("verify-decompositions",
                    help="check every decomposition against its ideal unitary")
    p.set_defaults(func=_cmd_verify, parser=p)

    p = add_command("export-qasm", help="write the decomposed circuit as OpenQASM 2.0")
    p.add_argument("--preset", choices=PRESET_NAMES, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_export_qasm, parser=p)

    p = add_command("shots", help="shot budget for a target estimation error")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--z", type=float, default=2.58)
    p.add_argument("--method", choices=("wald", "wilson"), default="wald")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_shots, parser=p)

    return parser


# built by the first main call and reused: building it costs about as much as
# parsing. parse_known_args leaves it unchanged and returns a fresh Namespace.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    # leftovers are reported by the subcommand's parser, so its usage is shown
    args, extras = _parser.parse_known_args(argv)
    if extras:
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args, args.parser)
    except (ImpossibleBranchError, EstimationFailedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
