"""Benchmark of the sinkgames command line, run from the root of a checkout.

    python3 bench/run.py --workload ladder-ssi --seed 1 --seconds 36 --trace 0
    python3 bench/run.py            # every workload, untraced and traced

A run imports ``sinkgames`` from the checkout's ``src/``, builds the
workload's inputs under ``.bench_work/``, then calls
``sinkgames.cli.main(argv)`` in a closed loop (one client, one thread) for
the given seconds, after one untimed warm-up job. Every job must exit 0;
its stdout and output file are hashed, jobs on one input must hash alike,
and each distinct output is checked. Each untraced job is followed by one
pass of the fixed kernel in ``reference.py``; ``job_ref`` is the job's time
over the kernel's, which the shared host's changes of speed do not move. With ``--trace 1`` every untraced job is followed by a traced job
on the same input, and the run reports the per-layer metrics and the
tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every job passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import reference
import tracer
import workloads

# set-ups before and after the timed loop: their median spans the run's
# machine conditions, not only its first seconds
SETUP_REPEATS = (4, 3)
TAIL_SAMPLES = 10
# the summary metrics BENCHMARK.json lists; the wall-time ones stay on the
# summary line, where the host's changes of speed show in them
END_TO_END = ("job_ref.p50", "setup_s", "peak_rss_mb")
# jobs before the timed loop: they fill the program's caches and are
# checked, but not timed
WARMUP_JOBS = 1


@dataclass
class JobResult:
    seconds: float
    error: str | None
    layers: dict | None = None
    # the reference kernel's time right after the job, when it was run
    ref_seconds: float | None = None


def import_sinkgames(src: Path):
    """Import ``sinkgames.cli`` afresh from ``src`` and return it."""
    for name in [m for m in sys.modules if m == "sinkgames" or m.startswith("sinkgames.")]:
        del sys.modules[name]
    cli = importlib.import_module("sinkgames.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"sinkgames was imported from {cli.__file__}, not from {src}")
    return cli


def run_job(cli, job: workloads.Job) -> tuple[float, str, str, bytes, str | None]:
    """(seconds, digest, stdout, output file bytes, error) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv)
    except Exception:  # a job that raises is counted as failed, not fatal
        code, error = None, traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()}"
    output = job.out_file.read_bytes() if job.out_file is not None and job.out_file.exists() else b""
    digest = hashlib.sha256(out.getvalue().encode() + b"\0" + output).hexdigest()
    return seconds, digest, out.getvalue(), output, error


class Runner:
    """Runs one workload's jobs and applies the determinism guard: the
    first output of each input is checked, and every later job on that
    input, traced or not, must reproduce it byte for byte."""

    def __init__(self, workload, jobs: list[workloads.Job]):
        self.workload = workload
        self.jobs = jobs
        self.verdicts: dict[str, tuple[str, str | None]] = {}
        self.exact: dict[str, tuple] = {}

    def loop(
        self, cli, seconds: float, trace: tracer.Tracer | None = None
    ) -> tuple[list[JobResult], list[JobResult], list[JobResult]]:
        """(warm-up, untraced, traced) jobs: the warm-up, then untraced
        jobs for ``seconds``, each followed by one timed pass of the
        reference kernel; with ``trace``, each untraced job is also
        followed by a traced job on the same input, so both see the same
        machine conditions."""
        warmup = [self.run(cli, self.jobs[i % len(self.jobs)], None) for i in range(WARMUP_JOBS)]
        reference.seconds()
        plain: list[JobResult] = []
        traced: list[JobResult] = []
        deadline = time.perf_counter() + seconds
        while not plain or time.perf_counter() < deadline:
            job = self.jobs[len(plain) % len(self.jobs)]
            plain.append(self.run(cli, job, None))
            plain[-1].ref_seconds = reference.seconds()
            if trace is not None:
                trace.install()
                try:
                    traced.append(self.run(cli, job, trace))
                finally:
                    trace.uninstall()
        return warmup, plain, traced

    def run(self, cli, job: workloads.Job, trace: tracer.Tracer | None) -> JobResult:
        elapsed, digest, stdout, output, error = run_job(cli, job)
        result = JobResult(elapsed, error)
        if trace is not None:
            result.layers = trace.take_job()
        if result.error is None:
            result.error = self.verify(job, digest, stdout, output, result.layers, trace)
        if result.error is not None:
            print(f"job on {job.key} failed: {result.error}", file=sys.stderr)
        return result

    def verify(self, job, digest, stdout, output, layers, trace) -> str | None:
        if job.key not in self.verdicts:
            self.verdicts[job.key] = (digest, self.workload.check(job, stdout, output))
        first, error = self.verdicts[job.key]
        if digest != first:
            return "output differs from an earlier job on the same input"
        if error is not None:
            return error
        if layers is not None:
            counts = tracer.exact_counts(layers, trace.missing)
            if self.exact.setdefault(job.key, counts) != counts:
                return "traced counts differ from an earlier job on the same input"
            iterations = layers["counts"]["solvers.iterations"]
            expected = self.workload.iterations
            if expected is not None and "solvers.run" not in trace.missing and iterations != expected:
                return f"traced {iterations:.0f} iterations, expected {expected}"
        return None


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_SAMPLES samples above it; the median when there are too few."""
    ranked = sorted(times)
    n = len(ranked)
    if n < 2 * TAIL_SAMPLES:
        return statistics.median(ranked), 50.0
    return ranked[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def metadata(root: Path, args, jobs: dict[str, int]) -> dict:
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted((root / "src").rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs,
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "src_lines": src_lines,
    }


def run_workload(args, root: Path) -> int:
    src = root / "src"
    if not (src / "sinkgames" / "__init__.py").is_file():
        print(f"error: no sinkgames package under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = workloads.WORKLOADS[args.workload]()
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    setups = []

    def setup():
        start = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cli = import_sinkgames(src)
        jobs = workload.build(args.seed, work)
        setups.append(time.perf_counter() - start)
        return cli, jobs

    try:
        for _ in range(SETUP_REPEATS[0]):
            cli, jobs = setup()
        runner = Runner(workload, jobs)
        trace = tracer.Tracer() if args.trace else None
        warmup, plain, traced = runner.loop(cli, args.seconds, trace)
        for _ in range(SETUP_REPEATS[1]):
            setup()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    everything = warmup + plain + traced
    failed = sum(r.error is not None for r in everything)
    times = [r.seconds for r in plain]
    ratios = [r.seconds / r.ref_seconds for r in plain]
    p50 = statistics.median(times)
    tail_s, tail_pct = tail(times)
    tail_ref, _ = tail(ratios)
    summary = {
        "job_ref.p50": {"value": statistics.median(ratios), "unit": "ref"},
        "job_ref.tail": {"value": tail_ref, "unit": "ref", "percentile": tail_pct, "samples": len(ratios)},
        "job_s.p50": {"value": p50, "unit": "s"},
        "job_s.tail": {"value": tail_s, "unit": "s", "percentile": tail_pct, "samples": len(times)},
        "jobs_per_s": {"value": sum(r.error is None for r in plain) / sum(times), "unit": "1/s"},
        "ref_s.p50": {"value": statistics.median(r.ref_seconds for r in plain), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "fail_ratio": {"value": failed / len(everything), "unit": "ratio"},
    }
    if args.trace:
        traced_p50 = statistics.median(r.seconds for r in traced)
        metrics = tracer.layer_metrics([r.layers for r in traced], trace.missing)
        metrics["tracing.job_s.p50"] = {"value": traced_p50, "unit": "s"}
        metrics["tracing.overhead_ratio"] = {"value": traced_p50 / p50, "unit": "ratio"}
    else:
        metrics = {k: {"value": summary[k]["value"], "unit": summary[k]["unit"]} for k in END_TO_END}

    jobs_run = {"warmup": len(warmup), "untraced": len(plain), "traced": len(traced)}
    print("meta " + json.dumps(metadata(root, args, jobs_run), sort_keys=True))
    print("summary " + json.dumps(summary))
    print(json.dumps({"correct": failed == 0, "attempted": len(everything), "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args, root: Path) -> int:
    """Every workload untraced then traced, each in its own process so
    peak memory is per workload; prints one table of each."""
    ok = True
    rows = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                print(f"{name} trace={trace}: exit code {proc.returncode}")
            if not lines or not lines[-1].startswith("{"):
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            meta = json.loads(next(line[5:] for line in lines if line.startswith("meta ")))
            summary = json.loads(next(line[8:] for line in lines if line.startswith("summary ")))
            rows.append((name, trace, meta, summary, result))
    meta = rows[0][2] if rows else {}
    print(f"python {meta.get('python')}  git {meta.get('git_sha')}  nproc {meta.get('nproc')}  "
          f"src_lines {meta.get('src_lines')}  seed {args.seed}  {meta.get('platform')}")
    for name, trace, meta, summary, result in rows:
        if trace:
            continue
        print(f"\n{name}: {meta['jobs']['untraced']} jobs")
        for metric, entry in summary.items():
            extra = f"  (p{entry['percentile']:.1f} of {entry['samples']})" if "percentile" in entry else ""
            print(f"  {metric:<14} {entry['value']:.6g} {entry['unit']}{extra}")
    for name, trace, meta, summary, result in rows:
        if not trace:
            continue
        print(f"\n{name} traced: {meta['jobs']['traced']} jobs, per job")
        for metric, entry in result["metrics"].items():
            value = "missing" if entry.get("missing") else f"{entry['value']:.6g}"
            print(f"  {metric:<40} {value} {entry['unit']}")
    print("\nall checks passed" if ok else "\nFAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all of them, untraced and traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.workload is None:
        return run_all(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
