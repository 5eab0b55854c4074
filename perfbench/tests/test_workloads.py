import json
import re
from collections import Counter
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from workloads import (
    DIST_ISSUES,
    DIST_POOL,
    LARGE_GROUPS_POOL,
    REQUESTS_MIX,
    STREAM_REPEATS,
    WORKLOADS,
    large_groups_order,
    requests_stream,
)

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def command_of(argv):
    return " ".join(argv[:2])


def test_stream_is_a_function_of_the_seed():
    assert requests_stream(5) == requests_stream(5)
    assert requests_stream(5) != requests_stream(6)


def test_every_seed_issues_the_same_mix():
    fresh_mix = {c: n for c, (_, n) in REQUESTS_MIX.items()}
    for seed in range(1, 6):
        plan = requests_stream(seed)
        fresh = [a for a, repeat in plan.stream if not repeat]
        assert sum(1 for _, repeat in plan.stream if repeat) == STREAM_REPEATS
        assert Counter(command_of(a) for a in fresh) == fresh_mix
        assert Counter(command_of(a) for a in plan.prefilled) == {
            c: n for c, (n, _) in REQUESTS_MIX.items()}


def test_repeats_follow_their_first_issue():
    plan = requests_stream(11)
    seen = set(plan.prefilled)
    for argv, repeat in plan.stream:
        assert (argv in seen) == repeat
        seen.add(argv)


def test_large_groups_order_is_the_whole_pool():
    for seed in (1, 2):
        order = large_groups_order(seed)
        assert order == large_groups_order(seed)
        assert sorted(order) == sorted(LARGE_GROUPS_POOL + DIST_POOL * DIST_ISSUES)
    assert large_groups_order(1) != large_groups_order(2)


def test_benchmark_json_matches_the_code():
    doc = json.loads(BENCHMARK_JSON.read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER)
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for entry in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]:
        assert name.match(entry["name"])
