"""Golden records and the checks of each response against them.

golden/<workload>.json holds, for every request in that workload's pool, the
exit code and the `result` document `wfl` printed when the records were taken;
for the battery it also holds the text of every report file.  Only `result`
and the exit code are compared, so counters a later change adds to `stats`
do not count as errors.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def parse_response(stdout_text: str) -> dict:
    lines = stdout_text.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


class Golden:
    def __init__(self, doc: dict):
        self.records = {tuple(r["argv"]): r for r in doc["records"]}
        self.reports: dict[str, str] = doc.get("reports", {})

    @classmethod
    def load(cls, workload: str) -> "Golden":
        return cls(json.loads(golden_path(workload).read_text()))

    def mismatch(self, argv, exit_code: int, stdout_text: str) -> str | None:
        """Why a response differs from its golden record, or None if it does not."""
        record = self.records.get(tuple(argv))
        if record is None:
            return f"no golden record for {list(argv)}"
        if exit_code != record["exit_code"]:
            return f"exit code {exit_code}, expected {record['exit_code']}"
        try:
            result = parse_response(stdout_text)["result"]
        except (ValueError, KeyError, TypeError) as err:
            return f"unreadable response: {err}"
        if result != record["result"]:
            return "result differs from the golden record"
        return None

    def battery_failures(self, argv, exit_code: int, stdout_text: str,
                         out_dir: Path) -> set[int]:
        """Indices of the battery checks whose report or outcome is wrong.

        When the response is wrong but no single check can be blamed, every
        check counts as failed."""
        expected = self.records[tuple(argv)]["result"]
        names = expected["reports"]
        failed = set()
        try:
            outcomes = parse_response(stdout_text)["result"]["outcomes"]
        except (ValueError, KeyError, TypeError):
            outcomes = None
        for i, name in enumerate(names):
            path = out_dir / name
            text = path.read_text() if path.is_file() else None
            if text != self.reports.get(name):
                failed.add(i)
            elif outcomes is None or i >= len(outcomes) or outcomes[i] != expected["outcomes"][i]:
                failed.add(i)
        if not failed and self.mismatch(argv, exit_code, stdout_text) is not None:
            failed = set(range(len(names)))
        return failed
