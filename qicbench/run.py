"""Run one benchmark workload of qic and print its metrics.

    python3 qicbench/run.py --workload grid|compile|wide|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree: the package is imported from ``src/``
there and nowhere else. With ``--trace 0`` the last line of standard output
is the JSON result with the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a traced run. The line before it is the full
record (versions, thread settings, seed, failed_frac). Spans, records and
scratch files go to ``.qicbench_out/`` under the root.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, so ops do not race the benchmark for the cores;
# set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".qicbench_out"
sys.path[:0] = [str(SRC), str(ROOT)]

import numpy as np  # noqa: E402

from qicbench.trace import Tracer  # noqa: E402
from qicbench.workloads import WORKLOADS  # noqa: E402

# set-up runs this many times per run (re-importing qic each time); the
# median is reported
SETUP_REPEATS = 5
# The timed phase runs its inputs in PASSES passes, and each input counts
# with its fastest pass. The first pass runs at least MIN_INPUTS inputs, so
# p90 has ten samples beyond it. Times are reported at a fixed machine
# speed: the speed at which probe() takes PROBE_REF_S (its fastest time on
# a 2-vCPU VM with Python 3.11). On a shared VM the CPU and memory speed
# drift by up to a third over seconds, and one vCPU can run 10% slower than
# the other for minutes. A probe next to each call tracks most of the
# drift; the fastest of three passes, seconds apart and on alternating
# CPUs, drops the spells and the slow CPU the probe misses. Raw figures are
# kept in the record.
PASSES = 3
MIN_INPUTS = 100
PROBE_LOOPS = 20_000
PROBE_AMPLITUDES = 1 << 19
PROBE_REF_S = 2.75e-3
# the traced run alternates untraced and traced phases, so drift cancels
# from the overhead estimate
TRACE_PHASES = 4


class ProgramMissing(RuntimeError):
    """The tree holds no qic sources to benchmark."""


def import_qic():
    """Import a fresh copy of qic from SRC, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "qic" or n.startswith("qic.")]:
        del sys.modules[name]
    qic = importlib.import_module("qic")
    importlib.import_module("qic.cli")
    if Path(qic.__file__).resolve().parent != SRC / "qic":
        raise ProgramMissing(f"qic was imported from {qic.__file__}, not {SRC}")
    return qic


def probe() -> float:
    """Seconds taken by fixed work like an op's: a pure-Python loop, then a
    pass over a freshly allocated 8 MiB complex array."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(PROBE_LOOPS):
        acc += k * k
    float((np.abs(np.ones(PROBE_AMPLITUDES, dtype=complex)) ** 2).sum())
    return time.perf_counter() - t0


def timed(fn, *args):
    """(result, raw seconds, seconds at the reference speed) of one call.

    The call is scaled by the faster of the probes run just before and just
    after it, so an interrupt that hits one probe is ignored.
    """
    before = probe()
    t0 = time.perf_counter()
    out = fn(*args)
    dt = time.perf_counter() - t0
    return out, dt, dt * PROBE_REF_S / min(before, probe())


@dataclass
class Phase:
    """Per input: ops per call, and the fastest pass in raw and scaled time."""

    ops: np.ndarray
    raw: np.ndarray
    best: np.ndarray
    attempted: int
    failed: int
    busy_s: float  # raw seconds inside the program, all passes


def timed_phase(workload, seconds: float, first: int, min_inputs: int = 1,
                tracer=None) -> Phase:
    """The first pass runs inputs from index `first` until seconds / PASSES
    have passed and `min_inputs` have run; each later pass reruns the same
    inputs. Passes take turns on the CPUs the process may use. Every output
    is checked by the oracle right after its call, untimed."""
    raw: list[list[float]] = []
    best: list[list[float]] = []
    ops: list[int] = []
    attempted = failed = 0
    busy = 0.0

    def call(i: int):
        nonlocal attempted, failed, busy
        inp = workload.inputs(i)
        if tracer is not None:
            tracer.op_id += 1
        (n, out), dt, dt_scaled = timed(_guarded, workload, inp)
        attempted += n
        failed += failed_ops(workload, inp, out, n)
        busy += dt
        return n, dt, dt_scaled

    cpus = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpus[0]})
        start = time.perf_counter()
        i = first
        while len(ops) < min_inputs or time.perf_counter() - start < seconds / PASSES:
            n, dt, dt_scaled = call(i)
            ops.append(n)
            raw.append([dt])
            best.append([dt_scaled])
            i += 1
        for p in range(1, PASSES):
            os.sched_setaffinity(0, {cpus[p % len(cpus)]})
            for k in range(len(ops)):
                _, dt, dt_scaled = call(first + k)
                raw[k].append(dt)
                best[k].append(dt_scaled)
    finally:
        os.sched_setaffinity(0, cpus)
    return Phase(np.array(ops), np.min(raw, axis=1), np.min(best, axis=1),
                 attempted, failed, busy)


def failed_ops(workload, inp, out, n: int) -> int:
    """How many of a call's n ops failed: all of them if it raised, else as
    many as the oracle rejects."""
    if isinstance(out, Exception):
        return n
    return min(n, workload.check(inp, out))


def _guarded(workload, inp):
    try:
        return workload.op(inp)
    except Exception as exc:  # a failing op is counted, not fatal
        return workload.ops_per_call, exc


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qic").glob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the tree's git repository, when it is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def ops_per_s(phases: list[Phase]) -> float:
    """Ops per second of scaled program time, each input at its fastest pass."""
    return float(sum(p.ops.sum() for p in phases) / sum(p.best.sum() for p in phases))


def latency_metrics(per_op_s: np.ndarray) -> dict:
    ms = 1e3 * per_op_s
    return {"op_p50_ms": float(np.percentile(ms, 50)),
            "op_p90_ms": float(np.percentile(ms, 90))}


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "qic" / "__init__.py").is_file():
        raise ProgramMissing(f"no qic package under {SRC}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed, ROOT, OUT_DIR)

    warm_input = workload.inputs(0)
    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        _, dt, dt_scaled = timed(lambda: workload.setup(import_qic(), warm_input))
        setup_raw.append(dt)
        setup_scaled.append(dt_scaled)

    if not trace:
        phase = timed_phase(workload, seconds, 0, MIN_INPUTS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        latency = latency_metrics(phase.best / phase.ops)
        metrics = {
            "setup_s": (float(np.median(setup_scaled)), "s"),
            "ops_per_s": (ops_per_s([phase]), "1/s"),
            "op_p50_ms": (latency["op_p50_ms"], "ms"),
            "op_p90_ms": (latency["op_p90_ms"], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        phases = [phase]
        extra = {
            "latency_samples": len(phase.ops),
            "samples_beyond_p90": int(np.sum(1e3 * phase.best / phase.ops
                                             > latency["op_p90_ms"])),
            "raw": {"setup_s": float(np.median(setup_raw)),
                    "ops_per_s": phase.ops.sum() / phase.raw.sum(),
                    **latency_metrics(phase.raw / phase.ops)},
        }
    else:
        tracer = Tracer()
        plain, traced = [], []
        for k in range(TRACE_PHASES):
            first = sum(len(p.ops) for p in plain + traced)
            if k % 2 == 0:
                plain.append(timed_phase(workload, seconds / TRACE_PHASES, first))
                continue
            tracer.install()
            try:
                traced.append(timed_phase(workload, seconds / TRACE_PHASES, first,
                                          tracer=tracer))
            finally:
                tracer.uninstall()
        phases = plain + traced
        rate_plain, rate_traced = ops_per_s(plain), ops_per_s(traced)
        metrics = tracer.report(sum(p.busy_s for p in traced),
                                sum(p.attempted for p in traced))
        metrics["trace.overhead"] = (1.0 - rate_traced / rate_plain, "ratio")
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.json")
        extra = {"untraced_ops_per_s": rate_plain, "traced_ops_per_s": rate_traced}

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record = {
        "workload": name, "seconds": seconds, "trace": int(trace), "passes": PASSES,
        **environment(seed),
        "setup_repeats_s": setup_raw,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        **extra,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def print_table(record: dict) -> None:
    name = record["workload"]
    print(f"{name:<8} {'failed_frac':<40} {record['failed_frac']:>16.6g}  ratio")
    for key, m in record["metrics"].items():
        print(f"{name:<8} {key:<40} {m['value']:>16.6g}  {m['unit']}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if args.workload == "all":
        return run_all(args)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_table(record)
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "metrics"}}))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
