"""One workload process: set-up, then timed passes, checked against golden records.

    python3 perfbench/child.py --workload W --seed N --seconds S
        --mode setup|measure|trace --t0 T --work-dir DIR

run.py starts it; it prints one JSON object on stdout.  `--t0` is the
launcher's time.monotonic() just before the start, so set-up time covers
interpreter start, imports, input generation and the cache pre-fill.

A pass is one sweep of the workload's inputs: the battery once, the
large-groups requests once in their seeded order, or the whole request
stream from the pre-filled cache.  Every pass issues the same requests in
the same order from the same starting state, so an operation does the same
work as every other issue of the same request at the same cache state, in
any pass.  Each operation is timed at the fastest of those issues: as with
`timeit`, the slower repeats measure other load on the machine, not the
program.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checkout import import_cli
from golden import Golden
from metrics import PER_LAYER, UNTRACED, pass_layer_metrics, percentile, quantile_report
from tracing import Tracer, instrument
from workloads import (
    BATTERY_ARGV,
    BATTERY_CHECKS,
    PREFILL_RECORDS,
    large_groups_order,
    requests_stream,
)

# Passes a measured run makes even when --seconds is short, so that every
# operation's time is the fastest of several issues.
MIN_PASSES = 3


@dataclass
class Op:
    seconds: float
    # Whether the result cache should serve the request; None when the
    # workload passes no --cache-dir.
    repeat: bool | None
    label: str  # the command and its first option, to group figures by request kind
    # Operations with the same key do the same work: the same request at the
    # same cache state.  Each operation is timed at the fastest of its key.
    key: object


@dataclass
class PassResult:
    wall: float = 0.0
    ops: list[Op] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)


def call(cli, argv) -> tuple[int | None, str, float, str | None]:
    """Run one request in-process; returns exit code, stdout, seconds, error."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        code, error = cli.run_command(list(argv), stdout=buf), None
    except Exception as err:  # a raising request is an error, not a crash
        code, error = None, f"{list(argv)} raised {type(err).__name__}: {err}"
    return code, buf.getvalue(), time.perf_counter() - start, error


class BatteryRunner:
    """`wfl --threads 1 verify battery`, once a pass.  Its 73 checks count as
    operations for the error rate; its latency is that of the one request."""

    def __init__(self, cli, seed: int, work: Path):
        self.cli = cli
        self.golden = Golden.load("battery")
        self.out = work / "battery_reports"
        self.argv = BATTERY_ARGV + ("--out", str(self.out))

    def counts(self) -> dict:
        return {"checks_per_pass": BATTERY_CHECKS}

    def run_pass(self) -> PassResult:
        shutil.rmtree(self.out, ignore_errors=True)
        res = PassResult(attempted=BATTERY_CHECKS)
        code, text, seconds, error = call(self.cli, self.argv)
        res.wall = seconds
        res.ops.append(Op(seconds, None, "verify battery", key=BATTERY_ARGV))
        bad = self.golden.battery_failures(BATTERY_ARGV, code, text, self.out)
        if error or bad:
            res.fail(error or f"battery checks differ from golden: {sorted(bad)[:10]}",
                     len(bad) or BATTERY_CHECKS)
        return res


class LargeGroupsRunner:
    """The large-groups requests in a seeded order, the same in every pass."""

    def __init__(self, cli, seed: int, work: Path):
        self.cli = cli
        self.golden = Golden.load("large-groups")
        self.order = large_groups_order(seed)

    def counts(self) -> dict:
        return {"requests_per_pass": len(self.order)}

    def run_pass(self) -> PassResult:
        res = PassResult()
        for argv in self.order:
            code, text, seconds, error = call(self.cli, argv)
            res.wall += seconds
            res.attempted += 1
            res.ops.append(Op(seconds, None, " ".join(argv[:4]), key=argv))
            why = error or self.golden.mismatch(argv, code, text)
            if why:
                res.fail(f"{list(argv)}: {why}")
        return res


class RequestsRunner:
    """A seeded stream of small requests against a pre-filled result cache."""

    def __init__(self, cli, seed: int, work: Path):
        self.cli = cli
        self.golden = Golden.load("requests")
        self.plan = requests_stream(seed)
        self.cache_dir = work / "cache"
        self.template = work / "prefill.jsonl"
        self.prefill_lines: dict[tuple, str] = {}
        self._prefill(seed, work)

    def _prefill(self, seed: int, work: Path) -> None:
        """Store the pre-filled requests, and filler records of the same size,
        through ResultCache.store, in a seeded order; keep the file as the
        starting state of every pass."""
        docs = []
        for argv in self.plan.prefilled:
            code, text, _, error = call(self.cli, argv)
            if error or code != 0:
                raise RuntimeError(f"pre-fill request {list(argv)} failed: {error or code}")
            doc = json.loads(text)
            self.prefill_lines[argv] = text
            docs.append((self.cli.request_digest(doc["request"]), {**doc, "exit_code": code}))
        fillers = [
            (hashlib.sha256(f"perfbench-filler-{i}".encode()).hexdigest(), docs[i % len(docs)][1])
            for i in range(PREFILL_RECORDS - len(docs))
        ]
        records = docs + fillers
        random.Random(seed).shuffle(records)
        build = self.cli.ResultCache(work / "prefill")
        for digest, doc in records:
            build.store(digest, doc)
        shutil.move(build.path, self.template)

    def counts(self) -> dict:
        repeats = sum(1 for _, r in self.plan.stream if r)
        return {
            "prefill_records": PREFILL_RECORDS,
            "prefilled_requests": len(self.plan.prefilled),
            "requests_per_pass": len(self.plan.stream),
            "repeats_per_pass": repeats,
            "fresh_per_pass": len(self.plan.stream) - repeats,
        }

    def run_pass(self) -> PassResult:
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(self.template, self.cache_dir / "cache.jsonl")
        stored = dict(self.prefill_lines)
        res = PassResult()
        for argv, repeat in self.plan.stream:
            full = ("--cache-dir", str(self.cache_dir)) + argv
            code, text, seconds, error = call(self.cli, full)
            res.wall += seconds
            res.attempted += 1
            res.ops.append(Op(seconds, repeat, " ".join(argv[:2]), key=len(res.ops)))
            why = error or self.golden.mismatch(argv, code, text)
            if not why and repeat and text != stored[argv]:
                why = "cache hit differs from the miss that stored it"
            if why:
                res.fail(f"{list(argv)}: {why}")
            stored.setdefault(argv, text)
        return res


RUNNERS = {
    "battery": BatteryRunner,
    "large-groups": LargeGroupsRunner,
    "requests": RequestsRunner,
}


def await_reference() -> None:
    """Let the launcher time the reference loop while this process waits."""
    sys.stdout.write("reference\n")
    sys.stdout.flush()
    sys.stdin.readline()


def run_passes(runner, seconds: float, min_passes: int) -> list[PassResult]:
    """Whole passes while the next one, as long as the last, still ends
    within `seconds`; at least `min_passes`.  The launcher times the
    reference loop before each pass and after the last."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        await_reference()
        passes.append(runner.run_pass())
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + passes[-1].wall > seconds:
            await_reference()
            return passes


def loadavg_1m() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def machine() -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
    }


def totals(passes: list[PassResult]) -> dict:
    errors = [e for p in passes for e in p.errors][:5]
    return {
        "passes": len(passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": errors,
    }


def fastest_ops(passes: list[PassResult]) -> list[Op]:
    """The operations of one pass, each with the fastest time of its key
    over all the passes."""
    best: dict = {}
    for p in passes:
        for op in p.ops:
            best[op.key] = min(op.seconds, best.get(op.key, op.seconds))
    return [Op(best[op.key], op.repeat, op.label, op.key) for op in passes[0].ops]


def cache_split_ms(ops: list[Op]) -> tuple[list[float], list[float]]:
    """Latencies of the requests the result cache serves, and of the others
    that pass --cache-dir."""
    hits = [1000 * op.seconds for op in ops if op.repeat is True]
    misses = [1000 * op.seconds for op in ops if op.repeat is False]
    return hits, misses


def measure(runner, seconds: float) -> dict:
    passes = run_passes(runner, seconds, MIN_PASSES)
    ops = fastest_ops(passes)
    ms = [1000 * op.seconds for op in ops]
    hits, misses = cache_split_ms(ops)
    by_label: dict[str, list[float]] = {}
    for op in ops:
        by_label.setdefault(op.label, []).append(1000 * op.seconds)
    quantiles = {
        "op_p50_ms": quantile_report(ms, 50),
        "op_p95_ms": quantile_report(ms, 95),
    }
    if hits and misses:
        quantiles["hit_p50_ms"] = quantile_report(hits, 50)
        quantiles["miss_p50_ms"] = quantile_report(misses, 50)
    return {
        **totals(passes),
        "wall_s": sum(op.seconds for op in ops),
        "pass_walls_s": [p.wall for p in passes],
        "quantiles": quantiles,
        "request_p50_ms": {k: statistics.median(v) for k, v in sorted(by_label.items())},
    }


def trace(runner, seconds: float) -> dict:
    """A warm-up pass, then untraced and traced passes in turn while they
    fit in `seconds`.  Per-layer metrics are medians over the traced passes;
    the overhead is the difference of the median pass times."""
    warm = [runner.run_pass()]
    tracer = Tracer()
    plain, traced, layer = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(runner.run_pass())
        remove = instrument(tracer)
        try:
            traced.append(runner.run_pass())
        finally:
            remove()
        layer.append(pass_layer_metrics(tracer.drain()))
        if time.perf_counter() + plain[-1].wall + traced[-1].wall > deadline:
            break
    # Counts repeat exactly from pass to pass; median_low keeps them whole.
    per_layer = {
        name: (statistics.median_low if unit == "count" else statistics.median)(
            [m[name] for m in layer])
        for name, unit in PER_LAYER
        if name not in UNTRACED
    }
    plain_wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in traced)
    per_layer["trace.overhead_s"] = traced_wall - plain_wall
    hits, misses = cache_split_ms(fastest_ops(plain))
    per_layer["cli.cache_hit_p50_ms"] = percentile(hits, 50) if hits else 0.0
    per_layer["cli.cache_miss_p50_ms"] = percentile(misses, 50) if misses else 0.0
    out = totals(warm + plain + traced)
    out.update(
        traced_passes=len(traced),
        untraced_wall_s=plain_wall,
        traced_wall_s=traced_wall,
        per_layer=per_layer,
    )
    return out


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=["setup", "measure", "trace"])
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--work-dir", type=Path, required=True)
    args = p.parse_args()
    load_start = loadavg_1m()
    cli = import_cli()
    args.work_dir.mkdir(parents=True, exist_ok=True)
    runner = RUNNERS[args.workload](cli, args.seed, args.work_dir)
    out = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "measure":
        out.update(measure(runner, args.seconds))
    elif args.mode == "trace":
        out.update(trace(runner, args.seconds))
    out.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        loadavg_1m={"start": load_start, "end": loadavg_1m()},
        machine=machine(),
        counts=runner.counts(),
    )
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
