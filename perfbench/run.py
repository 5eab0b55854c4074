"""The wordfibers benchmark.

    python3 perfbench/run.py --workload battery|large-groups|requests
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports wordfibers from that
checkout's src/.  Each workload runs in fresh child processes (child.py)
that drive `wordfibers.cli.run_command`, the entry point of `wfl`, with
stdout captured, and check every response against golden records.

--trace 0 prints the end-to-end metrics: set-up time is the median over
SETUP_RUNS fresh processes, and the rest come from the last of them, which
measures.  Every time is scaled to the reference speed by the reference
loop, which this process times between the children's steps (see
reference.py).  --trace 1 prints the per-layer metrics of a traced run, as
measured.  Human readable lines come first; the last line of stdout is the
JSON result.
See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
from checkout import WORK_DIR, CheckoutError, require_sources
from metrics import END_TO_END, PER_LAYER, UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5
# Four set-up processes and the measuring one end within 170 s even if all
# hang, inside the 180 s a run may take; a measuring process needs about 40 s.
SETUP_TIMEOUT_S = 15
CHILD_TIMEOUT_S = 110


def child_env() -> dict:
    env = dict(os.environ)
    # wfl reads these; the workload must not depend on the caller's shell.
    for name in ("WFL_THREADS", "WFL_BUDGET", "WFL_CACHE_DIR"):
        env.pop(name, None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(args, mode: str, work: Path, timeout: float) -> tuple[dict, list[float]]:
    """Run one child process to its end; returns its result and the reference
    loop's fastest time at each point where the child asked for it."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--work-dir", str(work),
    ]
    lines, loops = [], []
    t0 = time.monotonic()
    with subprocess.Popen(cmd + ["--t0", repr(t0)], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True, env=child_env(),
                          cwd=HERE.parent) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                if line == "reference\n":
                    loops.append(reference.fastest())
                    proc.stdin.write("\n")
                    proc.stdin.flush()
                else:
                    lines.append(line)
        except BrokenPipeError:
            pass  # the child ended while being answered; its exit code tells
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.wait()
            timer.cancel()
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited {proc.returncode}"
                           + (f" (killed; the limit is {timeout} s)" if proc.returncode < 0 else ""))
    return json.loads(lines[-1]), loops


def metric(name: str, value: float) -> dict:
    return {"value": value, "unit": UNITS[name]}


def end_to_end(args, work: Path) -> tuple[dict, dict]:
    """Every time is scaled to the reference speed (see reference.py) by the
    reference loop's fastest time over the run: after each set-up process,
    and before and after each pass of the measuring one."""
    setups, loops = [], []
    for i in range(SETUP_RUNS - 1):
        out, _ = run_child(args, "setup", work / f"setup{i}", SETUP_TIMEOUT_S)
        setups.append(out["setup_s"])
        loops.append(reference.fastest())
    run, measure_loops = run_child(args, "measure", work / "measure", CHILD_TIMEOUT_S)
    setups.append(run.pop("setup_s"))
    loops += measure_loops
    measured = {
        "setup_s": statistics.median(setups),
        "wall_s": run["wall_s"],
        **{name: q["value"] for name, q in run["quantiles"].items()},
    }
    scale = reference.speed(min(loops))
    values = {name: v * scale for name, v in measured.items()}
    values["peak_rss_mb"] = run["peak_rss_mb"]
    run.update(
        setup_runs_s=setups,
        measured=measured,
        reference={"speed": scale, "loop_fastest_s": min(loops), "loop_samples": len(loops)},
        at_reference_speed=values,
    )
    return {name: metric(name, values[name]) for name, _ in END_TO_END}, run


def per_layer(args, work: Path) -> tuple[dict, dict]:
    run, _ = run_child(args, "trace", work / "trace", CHILD_TIMEOUT_S)
    values = run.pop("per_layer")
    return {name: metric(name, values[name]) for name, _ in PER_LAYER}, run


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    try:
        require_sources()
    except CheckoutError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        metrics, run = (per_layer if args.trace else end_to_end)(args, work)
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    attempted, failed = run.pop("attempted"), run.pop("failed")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in run.get("at_reference_speed", {}).items():
        if name not in metrics:
            samples = run["quantiles"][name]["samples"]
            print(f"{name} = {value:.6g} ms ({samples} samples; not in BENCHMARK.json)")
    if "reference" in run:
        measured = ", ".join(f"{k} = {v:.6g}" for k, v in run["measured"].items())
        print(f"host speed x{run['reference']['speed']:.4g}; as measured: {measured}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for message in run.get("errors", []):
        print(f"error: {message}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **run}
    print("run " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
