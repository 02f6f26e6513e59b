"""tunnelfwi benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload desk_inversion --seed 1 --seconds 30 --trace 0

Workloads (see benchmarks/README.md): desk_inversion, case_forward and
case_sweep.  Each run is a closed loop with one caller: a single workload
process (``workloads.py``) makes one call at a time into the program, with
BLAS threads capped at the number of usable cores.  With ``--trace 0`` the
result holds the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
the per-layer metrics, and the spans go to ``.bench_out/`` as JSON lines.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the environment, the pass times and the exact counts.  ``--smoke`` shrinks
every workload so that a run takes seconds (for the harness's own tests).

Exits non-zero without a result if the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "workloads.py"
NEEDED = (ROOT / "src" / "tunnelfwi" / "__init__.py",
          ROOT / "configs" / "blindtest.cfg", ROOT / "BENCHMARK.json")
TIME_LIMIT_S = 170.0  # for all child processes of one run together


def git_sha():
    """Commit of the checkout from .git, or "unknown" outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env():
    """Environment of the workload process: BLAS threads <= usable cores."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            n = int(env.get(var, nproc))
        except ValueError:
            n = nproc
        env[var] = str(min(max(n, 1), nproc))
    env["TUNNELFWI_WORKERS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env, nproc


def run_child(argv, stdin_bytes, env, deadline):
    """Run one child; return (exit status, stdout, peak RSS in MB).

    The child is killed at ``deadline``; its peak RSS comes from wait4, so it
    is known even when the child was killed.
    """
    proc = subprocess.Popen([sys.executable, str(CHILD)] + argv, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        proc.stdin.write(stdin_bytes)
        proc.stdin.close()
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def last_json(out):
    lines = out.decode(errors="replace").strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("desk_inversion", "case_forward", "case_sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in NEEDED if not p.is_file()]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = time.monotonic() + TIME_LIMIT_S
    env, nproc = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    common += ["--smoke"] if args.smoke else []
    errors = []

    status, inputs, _ = run_child(["generate"] + common, b"", env, deadline)
    if status != 0:
        errors.append(f"input generation exited with {status}")
    result, peak_mb = None, None
    if not errors:
        spans = None
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
        argv = ["run"] + common + ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]
        argv += ["--spans", str(spans)] if spans else []
        status, out, peak_mb = run_child(argv, inputs, env, deadline)
        result = last_json(out)
        if status != 0 or result is None:
            kind = "was killed (out of memory or time)" if status < 0 \
                else f"exited with {status}"
            errors.append(f"workload process {kind}")
            result = None

    # an operation that never ran counts as attempted and failed
    attempted = result["attempted"] if result else 1
    failed = result["failed"] if result else 1
    failures = (result["failures"] if result else []) + errors

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = (result or {}).get("layers", {})
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {"peak_rss_mb": peak_mb}
        if result:
            values["setup_s"] = statistics.median(result["setup_s"])
            values["run_s"] = statistics.median(result["untraced_s"]) \
                if result["untraced_s"] else None
    metrics = {n: {"value": values[n], "unit": units[n]}
               for n in names if values.get(n) is not None}
    missing = [n for n in names if n not in metrics]
    if missing and not errors:
        failures.append(f"metrics not measured: {', '.join(missing)}")
        failed = max(failed, 1)

    env_record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "smoke": args.smoke, "nproc": nproc, "git_sha": git_sha(),
                  **((result or {}).get("env", {}))}
    print("env " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    if result:
        print(f"passes {result['passes']}: untraced "
              + " ".join(f"{t:.3f}" for t in result["untraced_s"]) + " s"
              + ("; traced " + " ".join(f"{t:.3f}" for t in result["traced_s"])
                 + " s" if result["traced_s"] else ""))
        print(f"exact counts {json.dumps(result['exact_counts'])}")
        if "misfit_ratio" in result:
            print(f"misfit_ratio {result['misfit_ratio']:.4f} (chi after / "
                  f"chi before over the slice's frequencies, lower is better)")
    for n in names:
        if n in metrics:
            print(f"{n} {metrics[n]['value']:.6g} {metrics[n]['unit']}")
    print(f"ops_failed {failed} of {attempted} attempted")
    for f in failures:
        print(f"failure: {f}")

    line = {"correct": failed == 0 and not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
