#!/usr/bin/env python3
"""spdmeans benchmark runner.

    python3 spdbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0
    python3 spdbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload runs in one process with one
thread of load and BLAS held at BLAS_THREADS threads.  The run does a fixed
number of whole rounds, set by ``--seconds`` over the workload's nominal
round time, so the same arguments give the same work on every commit.

``--trace 0`` times the rounds with no tracing and reports the end-to-end
metrics, each operation's time divided by the host's slowness around it
(see HostSpeed).  ``--trace 1`` runs one set-up traced, then one round untraced and the same
round again with every layer wrapped (see tracing.py, layers.py), reports
the per-layer metrics of the traced round, the sampling time of the traced
set-up and the tracing overhead, and writes the round's spans.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "spdbench-out"
WORKLOAD_NAMES = ("verify-all", "spectra-large", "orbit-solve")
SETUP_REPEATS = 3

# (name, unit, better) for the end-to-end metrics, in output order.
END_TO_END = (
    ("checks_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _fail(message: str, code: int = 2):
    print(f"spdbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program() -> float:
    """Import spdmeans from this checkout's src/; returns the seconds taken."""
    if not (SRC / "spdmeans" / "__init__.py").is_file():
        _fail(f"no spdmeans sources under {SRC}")
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import spdmeans

    elapsed = time.perf_counter() - start
    if Path(spdmeans.__file__).resolve().parent != SRC / "spdmeans":
        _fail(f"imported spdmeans from {spdmeans.__file__}, not from {SRC}")
    return elapsed


def _check_declared(per_layer) -> None:
    """The metric names and units here must be those BENCHMARK.json lists."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text())
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", per_layer)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if declared != list(ours):
            _fail(f"BENCHMARK.json {key} does not match the metrics this runner emits")


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        p.read_bytes().count(b"\n") for p in sorted((SRC / "spdmeans").glob("*.py"))
    )
    return {
        "git_rev": _git_rev(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_reported": _blas_threads_reported(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "src_lines": src_lines,
    }


def _git_rev():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
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


def _blas_threads_reported():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class HostSpeed:
    """Samples a fixed calibration kernel between operations.

    The host is shared: for seconds or minutes at a time every operation,
    and this kernel with it, can run half again as slow.  The kernel is the
    benchmark's own code (pure-Python loops and small LAPACK calls, like the
    program's own mix), so a change to the program does not move it.  An
    operation's scaled time is its wall time divided by ``factor(i)``: the
    mean of the kernel samples just before and just after it, over
    ``REFERENCE_S``, about the kernel's median duration on a 2-core x86_64
    VM.  Scaled times are those the operation would take on that host.
    """

    REFERENCE_S = 0.0025
    INTERVAL_S = 0.1
    MAX_BURST = 5

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self._np = np
        self._mats = []
        for n in (3, 4, 5, 6) * 8:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            self._mats.append(g @ g.conj().T + np.eye(n))
        self.starts: list = []
        self.durations: list = []

    def _kernel(self) -> float:
        np = self._np
        acc = 0.0
        table: dict = {}
        for i in range(3000):
            key = i % 89
            table[key] = table.get(key, 0.0) + 0.5 * i
            acc += abs(table[key]) ** 0.5
        for m in self._mats:
            w, v = np.linalg.eigh(m)
            acc += float(np.real(np.trace((v * np.log(w)) @ v.conj().T)))
        return acc

    def sample(self, force: bool = False) -> None:
        """Sample the kernel if INTERVAL_S has passed since the last sample.

        After a long operation the kernel runs once per INTERVAL_S that
        passed, up to MAX_BURST times, and the sample is their mean, so a
        long stretch without samples still gets its share of kernel time.
        """
        start = time.perf_counter()
        elapsed = start - self.starts[-1] if self.starts else self.INTERVAL_S
        if elapsed < self.INTERVAL_S and not force:
            return
        runs = max(1, min(self.MAX_BURST, int(elapsed / self.INTERVAL_S)))
        for _ in range(runs):
            self._kernel()
        self.starts.append(start)
        self.durations.append((time.perf_counter() - start) / runs)

    def last(self) -> int:
        """Index of the latest sample."""
        return len(self.durations) - 1

    def factor(self, i: int) -> float:
        """Host slowness between sample ``i`` and the next one."""
        return (self.durations[i] + self.durations[i + 1]) / 2.0 / self.REFERENCE_S

    def mean_factor(self) -> float:
        """Time-weighted mean slowness over the whole run, for the record."""
        spans = [b - a for a, b in zip(self.starts, self.starts[1:])]
        weighted = sum(self.factor(i) * w for i, w in enumerate(spans))
        return weighted / sum(spans)


def _run_round(workload, r: int, outcome_cls, error_types, host) -> list:
    outcomes = []
    clock = time.perf_counter
    for label, meta, fn in workload.ops(r):
        out = outcome_cls(round=r, label=label, meta=meta)
        host.sample()
        out.sample = host.last()
        start = clock()
        try:
            out.result = fn()
        except error_types as exc:
            out.error = exc
        out.seconds = clock() - start
        if out.error is None:
            workload.settle(out)
        outcomes.append(out)
    return outcomes


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def _timing_metrics(workload, outcomes, seconds: list, setup_s: float) -> dict:
    """The timing metrics from per-operation times in seconds."""
    latencies = seconds
    if workload.latency_per_round:
        per_round: dict = {}
        for out, t in zip(outcomes, seconds):
            per_round[out.round] = per_round.get(out.round, 0.0) + t
        latencies = list(per_round.values())
    return {
        "checks_per_s": sum(out.verdicts for out in outcomes) / sum(seconds),
        "op_ms_p50": 1000.0 * statistics.median(latencies),
        "op_ms_p90": 1000.0 * _percentile(latencies, 90),
        "setup_s": setup_s,
    }


def run_workload(args) -> dict:
    import_s = _import_program()
    from layers import PER_LAYER, TARGETS, per_layer_values
    from spdmeans import SpdMeansError
    from workloads import WORKLOADS, Outcome
    import tracing

    _check_declared(PER_LAYER)
    cls = WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / cls.nominal_round_s))
    seed = abs(args.seed)
    if args.trace:
        round_seeds = cls.round_seeds(seed, 1) * 2
    else:
        round_seeds = cls.round_seeds(seed, rounds)
    out_dir = OUT_DIR / f"{args.workload}-seed{seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = cls(round_seeds, out_dir)

    host = HostSpeed()
    prepare_s, prepare_scaled = [], []
    for _ in range(SETUP_REPEATS):
        host.sample(force=True)
        start = time.perf_counter()
        workload.prepare()
        prepare_s.append(time.perf_counter() - start)
        host.sample(force=True)
        prepare_scaled.append(prepare_s[-1] / host.factor(host.last() - 1))
    import_scaled = import_s / host.factor(0)

    run = lambda r: _run_round(workload, r, Outcome, SpdMeansError, host)  # noqa: E731
    if not args.trace:
        outcomes = [out for r in range(len(round_seeds)) for out in run(r)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        host.sample(force=True)
        raw = _timing_metrics(workload, outcomes, [out.seconds for out in outcomes],
                              import_s + statistics.median(prepare_s))
        values = _timing_metrics(
            workload, outcomes, [out.seconds / host.factor(out.sample) for out in outcomes],
            import_scaled + statistics.median(prepare_scaled))
        values["peak_rss_mb"] = peak_rss_mb
        declared = END_TO_END
    else:
        setup_tracer = tracing.Tracer()
        patched = tracing.install(setup_tracer, TARGETS)
        try:
            workload.prepare()
        finally:
            tracing.uninstall(patched)
        raw = {}
        reference = run(0)
        tracer = tracing.Tracer()
        patched = tracing.install(tracer, TARGETS)
        try:
            traced = run(1)
        finally:
            tracing.uninstall(patched)
        outcomes = reference + traced
        host.sample(force=True)
        ref_s = sum(out.seconds / host.factor(out.sample) for out in reference)
        traced_s = sum(out.seconds / host.factor(out.sample) for out in traced)
        values = per_layer_values(tracer.summary(), tracer.counters)
        values["trace.overhead_pct"] = 100.0 * (traced_s / ref_s - 1.0)
        values["setup.sampling.wall_s"] = sum(
            row[1] for (span, _tag), row in setup_tracer.summary().items()
            if span.startswith("sampling.")
        )
        declared = PER_LAYER
        tracer.write_spans(out_dir / "spans.csv.gz")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in declared}

    problems = workload.check(outcomes)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for out in outcomes:
        if out.error is not None or not out.ok:
            print(f"failed op: round {out.round} {out.label}: {out.error!r}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(1 for out in outcomes if out.error is not None or not out.ok),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(round_seeds),
        "round_seeds": round_seeds,
        "environment": _environment(),
        "import_s": import_s,
        "host_factor": host.mean_factor(),
        "host_samples": len(host.durations),
        "raw_metrics": raw,
        "prepare_s": prepare_s,
        "ops": [[out.round, out.label, out.seconds, host.factor(out.sample), out.verdicts, out.ok]
                for out in outcomes],
        "result": result,
    }
    (out_dir / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    print("environment: " + json.dumps(record["environment"]))
    print(f"host slowness {host.mean_factor():.4f} (mean) from {len(host.durations)} kernel samples")
    for name, value in raw.items():
        print(f"{args.workload:>14}  unscaled {name:<39} {value:>14.6g}")
    for name, metric in metrics.items():
        print(f"{args.workload:>14}  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    return result


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited with code {proc.returncode}", 1)
        part = json.loads(lines[-1])
        print(f"{name:>14}  attempted {part['attempted']}  failed {part['failed']}  "
              f"correct {part['correct']}")
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
