"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh process
with BLAS pinned to one thread.  Every metric is printed by name with
its unit; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
and the tracing overhead.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("train", "infer", "similarity")
# interpreter starts timed before and after the workload: the median of
# both groups is steadier than one burst on a machine whose speed drifts
SETUP_RUNS_BEFORE = 2
SETUP_RUNS_AFTER = 3
SETUP_TIMEOUT_S = 20
WORKER_TIMEOUT_S = 150
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def pinned_env():
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, HERE, env.get("PYTHONPATH")) if p)
    return env


def setup_seconds(env):
    """Wall time of one fresh interpreter importing matterbridge.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import matterbridge.cli"],
                   env=env, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - t0


def time_setup(env, runs, into):
    """Append `runs` set-up times to `into`; False if the import fails."""
    try:
        into.extend(setup_seconds(env) for _ in range(runs))
    except (subprocess.SubprocessError, OSError) as e:
        print(f"error: import of matterbridge.cli failed: {e}",
              file=sys.stderr)
        return False
    return True


def src_lines():
    total = 0
    for base, _, files in os.walk(os.path.join(SRC, "matterbridge")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "matterbridge", "cli.py")):
        print(f"error: no matterbridge sources under {SRC}", file=sys.stderr)
        return 2

    env = pinned_env()
    load_before = os.getloadavg()[0]
    setups = []
    if not args.trace and not time_setup(env, SETUP_RUNS_BEFORE, setups):
        return 1
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, tag)
    out = os.path.join(WORK, tag + ".json")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", work, "--out", out],
            env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload ran past {WORKER_TIMEOUT_S}s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        print(f"error: workload exited {proc.returncode}", file=sys.stderr)
        return 1
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out)
    if not args.trace and not time_setup(env, SETUP_RUNS_AFTER, setups):
        return 1

    metrics = result["metrics"]
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    env_record = dict(result["environment"], commit=commit(),
                      src_lines=src_lines(), load1_before=load_before,
                      load1_after=os.getloadavg()[0])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['measured_s']:.2f}s measured, closed loop, 1 client")
    print("environment " + json.dumps(env_record, sort_keys=True))
    if setups:
        print("setup_s runs " + " ".join(f"{s:.4f}" for s in setups))
    print("call seconds " + " ".join(f"{command}:{seconds:.4f}"
                                     for command, seconds in result["calls"]))
    for name, fig in sorted(result["figures"].items()):
        print(f"figure {name} = {fig['value']} {fig['unit']} "
              f"({fig['basis']})")
    for name, m in sorted(metrics.items()):
        print(f"metric {name} = {m['value']} {m['unit']}")
    for problem in result["problems"]:
        print(f"failed {problem}")
    if result.get("spans_file"):
        print(f"spans written to {os.path.relpath(result['spans_file'], ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
