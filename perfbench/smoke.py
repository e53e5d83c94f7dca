"""Self-check of the benchmark itself, at minimum input sizes.

Run from the repository root::

    python3 perfbench/smoke.py

It makes one untraced and one traced pass of every workload at the sizes in
``inputs.SMOKE_SIZES`` and requires every output check to pass.  It then
corrupts written posteriors and reports and requires the same checks to
reject them, and compares the metric lists in ``BENCHMARK.json`` with the
ones ``run.py`` reports.  Exit code 0 means every step held.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run

SEED = 7


def _corruptions(workload) -> list[tuple[str, str | None]]:
    """(what was corrupted, check result) pairs; every result must be an error."""
    posterior = next(op for op in workload.ops if op.metric == "posterior_s")
    loss = next(op for op in workload.ops if op.metric == "loss_s")
    post = Path(posterior.argv[-1])
    payload = json.loads(post.read_text(encoding="utf-8"))
    results = []
    if payload["kind"] == "discrete":
        # Swapping two masses keeps the total at exactly 1, so only the
        # per-atom comparison can catch it.
        atoms = payload["atoms"]
        atoms[0][1], atoms[1][1] = atoms[1][1], atoms[0][1]
    else:
        densities = payload["densities"]
        i = len(densities) // 3
        densities[i], densities[i + 1] = densities[i + 1], densities[i]
    post.write_text(json.dumps(payload), encoding="utf-8")
    results.append(("posterior with two masses swapped", posterior.check(0, {}, {})))
    results.append(("posterior call that exited 3", posterior.check(3, {}, {})))
    loss_report = {"lower_bound_bits": "1", "value_bits": "1", "attained": "true"}
    results.append(("loss report off the bound", loss.check(0, loss_report, {})))
    return results


def main() -> int:
    if not (run.SRC / "bayesfuse" / "cli.py").is_file():
        print(f"error: no bayesfuse package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import tracing
    import workloads

    problems: list[str] = []
    for name in run.WORKLOADS:
        workdir = run.WORK / f"smoke-{name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload = workloads.build(name, workdir, SEED, smoke=True)
            plain = run.untraced_run(workload, workdir, 0)
            traced = tracing.traced_run(workload, 0)
            for mode, result in (("untraced", plain), ("traced", traced)):
                print(f"{name} {mode}: {result['attempted']} checked, {result['failed']} failed")
                problems.extend(f"{name} {mode}: {f}" for f in result["failures"])
            for what, verdict in _corruptions(workload):
                print(f"{name} rejects {what}: {verdict}")
                if verdict is None:
                    problems.append(f"{name}: check accepted a {what}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")

    for problem in problems:
        print(f"PROBLEM {problem}")
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
