"""End-to-end and per-layer benchmark of the ``bayesfuse`` CLI.

Run from the repository root::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload as a closed loop of sequential
``python -m bayesfuse.cli ...`` subprocesses, one at a time and no threads,
on input files generated from ``--seed``.  Every call's output is checked.
Passes over the workload's call sequence repeat until the next one would
overrun ``--seconds``.  Twice a pass, a no-op ``bayesfuse --help`` times
interpreter start and import (``setup_s``).

``--trace 1`` instead calls ``bayesfuse.cli.main(argv)`` in-process for the
same calls, with span recorders around each layer (see ``tracing.py``), and
reports per-layer self times and exact work counts.

The package is run from ``src/`` without installing it.  Inputs and outputs
live under ``.perfbench_work/`` and are deleted at the end; a results file
with the environment, sizes, every sample and (traced) the spans goes to
``.perfbench_results/``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"
WORKLOADS = ("verify", "conflate-discrete", "grid-smooth")
OP_TIMEOUT_S = 150
IMPORT_SAMPLES = 5

# Reported in the result line of every workload with --trace 0.  Only
# whole-pass figures are listed: on a shared 2-core VM the speed of the
# same call drifted by 20-30% over minutes, which spread single-subcommand
# medians across ten runs by more than 0.25 of their median (README.md).
END_TO_END = {"setup_s": "s", "workload_s": "s", "peak_rss_mb": "MB"}
# Time one pass spends in each subcommand; printed and kept in the results file.
LATENCIES = {
    "compat_s": "s",
    "posterior_s": "s",
    "posterior_weighted_s": "s",
    "loss_s": "s",
    "mlr_s": "s",
    "verify_s": "s",
    "loss_exhaustive_s": "s",
    "smooth_s": "s",
}

# Reported in the result line of every workload with --trace 1.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "fileio.self_s": "s",
    "dists.self_s": "s",
    "combine.self_s": "s",
    "information.self_s": "s",
    "ratios.self_s": "s",
    "search.self_s": "s",
    "fileio.load_distribution_s": "s",
    "fileio.save_distribution_s": "s",
    "fileio.bytes_read": "bytes",
    "fileio.bytes_written": "bytes",
    "dists.canonical_key_s": "s",
    "dists.canonical_key_calls": "count",
    "dists.from_pairs_s": "s",
    "combine.check_compatible_s": "s",
    "combine.bayes_posterior_s": "s",
    "combine.weighted_posterior_s": "s",
    "combine.proportionality_check_s": "s",
    "information.max_loss_s": "s",
    "ratios.ratio_profile_s": "s",
    "search.enumerate_simplex_s": "s",
}


class CliRunner:
    """Runs ``python -m bayesfuse.cli`` as a child and takes its own max-RSS."""

    def __init__(self, workdir: Path) -> None:
        self.env = dict(os.environ)
        paths = [str(SRC), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.stdout = workdir / "stdout.txt"
        self.stderr = workdir / "stderr.txt"

    def run(self, argv: list[str]) -> tuple[int, str, float, int]:
        """Exit code, stdout, wall seconds and max-RSS in KiB of one call."""
        with open(self.stdout, "w") as out, open(self.stderr, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "bayesfuse.cli", *argv],
                stdout=out,
                stderr=err,
                cwd=ROOT,
                env=self.env,
            )
            status, usage = _wait4(proc)
            elapsed = time.perf_counter() - start
        return status, self.stdout.read_text(encoding="utf-8"), elapsed, usage.ru_maxrss


class _Timeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Timeout


def _wait4(proc: subprocess.Popen):
    # os.wait4 gives this child's own rusage; Popen.wait would discard it.
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(OP_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except _Timeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _median(values):
    return statistics.median(values) if values else 0.0


def untraced_run(workload, workdir: Path, seconds: float) -> dict:
    import workloads

    runner = CliRunner(workdir)
    setup, passes, samples = [], [], {}
    peak_kib = 0
    attempted = failed = 0
    failures: list[str] = []
    setup_slots = {0, len(workload.ops) // 2}
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        seen: dict[str, dict] = {}
        per_metric: dict[str, float] = {}
        for i, op in enumerate(workload.ops):
            if i in setup_slots:
                rc, _, elapsed, rss = runner.run(["--help"])
                setup.append(elapsed)
                peak_kib = max(peak_kib, rss)
                attempted += 1
                if rc:
                    failed += 1
                    failures.append(f"--help: exit code {rc}")
            rc, text, elapsed, rss = runner.run(op.argv)
            peak_kib = max(peak_kib, rss)
            samples.setdefault(op.label, []).append(elapsed)
            per_metric[op.metric] = per_metric.get(op.metric, 0.0) + elapsed
            report = workloads.parse_report(text)
            seen[op.label] = report
            attempted += 1
            problem = workloads.run_check(op, rc, report, seen)
            if problem:
                failed += 1
                failures.append(f"{op.label}: {problem}")
        per_metric["workload_s"] = sum(samples[op.label][-1] for op in workload.ops)
        passes.append(per_metric)
        last = time.perf_counter() - pass_start
        if time.perf_counter() - start + last > seconds:
            break
    values = {
        name: _median([p[name] for p in passes if name in p]) for name in LATENCIES
    }
    # A mean, not a median: a pass is fast or slow as the machine is, and over
    # five to nine passes the mean spread less across runs than the median.
    values["workload_s"] = statistics.fmean(p["workload_s"] for p in passes)
    values["setup_s"] = _median(setup)
    values["peak_rss_mb"] = peak_kib / 1024.0
    values["failed_frac"] = failed / attempted
    return {
        "values": values,
        "passes": len(passes),
        "setup_samples": setup,
        "op_samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def import_seconds(workdir: Path) -> tuple[list[float], int]:
    """In-process ``import bayesfuse.cli`` times, each in a fresh interpreter,
    and the number of interpreters that failed to import it."""
    runner = CliRunner(workdir)
    code = (
        "import time; t = time.perf_counter(); import bayesfuse.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    samples, failed = [], 0
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=runner.env,
            timeout=OP_TIMEOUT_S,
        )
        if proc.returncode == 0:
            samples.append(float(proc.stdout))
        else:
            failed += 1
    return samples, failed


def environment(seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                cwd=ROOT,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _table(values: dict, units: dict) -> None:
    for name, unit in units.items():
        print(f"  {name:<34} {values[name]:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bayesfuse" / "cli.py").is_file():
        print(f"error: no bayesfuse package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_start = time.perf_counter()
        workload = workloads.build(args.workload, workdir, args.seed)
        generate_s = time.perf_counter() - setup_start
        if args.trace:
            import tracing

            result = tracing.traced_run(workload, args.seconds)
            imports, import_failed = import_seconds(workdir)
            result["values"]["cli.import_s"] = _median(imports)
            result["import_samples"] = imports
            result["attempted"] += IMPORT_SAMPLES
            result["failed"] += import_failed
            units = PER_LAYER
        else:
            result = untraced_run(workload, workdir, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = result["values"]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "sizes": workload.case.sizes,
        "run_seconds": args.seconds,
        "input_generation_s": generate_s,
        **result,
    }
    RESULTS.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, {result['passes']} passes, results in {out.relative_to(ROOT)}")
    _table(values, units)
    if args.trace:
        print("  (other layer values, kept out of the result line)")
        _table(values, {k: "" for k in sorted(values) if k not in PER_LAYER})
    else:
        _table(values, {**LATENCIES, "failed_frac": "ratio"})
    for failure in result["failures"][:20]:
        print(f"  FAILED {failure}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
