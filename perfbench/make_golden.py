"""Take the golden records of every request in the workloads' pools.

    python3 perfbench/make_golden.py [workload ...]

Run it only on a commit whose outputs are known to be right: the benchmark
counts every later difference from these records as an error.
"""

from __future__ import annotations

import io
import json
import shutil
import sys

from checkout import WORK_DIR, import_cli
from golden import golden_path
from workloads import BATTERY_ARGV, BATTERY_CHECKS, WORKLOADS, pool_requests


def take(cli, argv) -> dict:
    buf = io.StringIO()
    code = cli.run_command(list(argv), stdout=buf)
    doc = json.loads(buf.getvalue())
    if code != 0:
        raise SystemExit(f"{list(argv)} exited {code}; only succeeding requests belong in a pool")
    return {"argv": list(argv), "exit_code": code, "result": doc["result"]}


def battery_golden(cli) -> dict:
    out = WORK_DIR / "golden-battery"
    try:
        record = take(cli, BATTERY_ARGV + ("--out", str(out)))
        record["argv"] = list(BATTERY_ARGV)
        summary = record["result"]["summary"]
        expected = {"total": str(BATTERY_CHECKS), "passed": "72", "inconclusive": "1",
                    "failed": "0"}
        if summary != expected:
            raise SystemExit(f"battery summary {summary}, expected {expected}")
        reports = {name: (out / name).read_text() for name in record["result"]["reports"]}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {"records": [record], "reports": reports}


def write(path, doc: dict) -> None:
    """JSON with one record, or one battery report, per line."""
    lines = [json.dumps(r, sort_keys=True) for r in doc["records"]]
    text = '{"records": [\n' + ",\n".join(lines) + "\n]"
    if "reports" in doc:
        reports = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(doc["reports"].items())]
        text += ',\n"reports": {\n' + ",\n".join(reports) + "\n}"
    path.write_text(text + "}\n")


def main(names: list[str]) -> None:
    cli = import_cli()
    for workload in names or WORKLOADS:
        if workload == "battery":
            doc = battery_golden(cli)
        else:
            doc = {"records": [take(cli, argv) for argv in pool_requests(workload)]}
        path = golden_path(workload)
        write(path, doc)
        print(f"{workload}: {len(doc['records'])} records -> {path.name}")


if __name__ == "__main__":
    main(sys.argv[1:])
