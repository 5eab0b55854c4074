import copy
import io
import json

import pytest

from child import RequestsRunner
from golden import Golden
from workloads import BATTERY_ARGV, WORKLOADS, RequestStream, pool_requests

ARGV = ("word", "mconst", "-l", "2", "-d", "1")


def respond(argv):
    from wordfibers import cli

    buf = io.StringIO()
    return cli.run_command(list(argv), stdout=buf), buf.getvalue()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_records_cover_every_pool_request(workload):
    golden = Golden.load(workload)
    assert set(golden.records) == set(pool_requests(workload))
    assert all(r["exit_code"] == 0 for r in golden.records.values())


def test_battery_golden_summary():
    golden = Golden.load("battery")
    result = golden.records[BATTERY_ARGV]["result"]
    assert result["summary"] == {"total": "73", "passed": "72", "inconclusive": "1",
                                 "failed": "0"}
    assert result["outcomes"].count("inconclusive-sampled") == 1
    assert sorted(golden.reports) == sorted(result["reports"])


def test_matching_record_is_not_an_error():
    code, text = respond(ARGV)
    assert Golden.load("requests").mismatch(ARGV, code, text) is None


def test_wrong_result_is_an_error():
    code, text = respond(ARGV)
    record = copy.deepcopy(Golden.load("requests").records[ARGV])
    record["result"]["M"] = str(int(record["result"]["M"]) + 1)
    assert Golden({"records": [record]}).mismatch(ARGV, code, text) is not None


def test_wrong_exit_code_is_an_error():
    code, text = respond(ARGV)
    record = dict(Golden.load("requests").records[ARGV], exit_code=1)
    assert "exit code" in Golden({"records": [record]}).mismatch(ARGV, code, text)


def test_unknown_request_is_an_error():
    code, text = respond(ARGV)
    assert Golden({"records": []}).mismatch(ARGV, code, text) is not None


def battery_doc(reports):
    names = sorted(reports)
    result = {"outcomes": ["pass"] * len(names), "reports": names}
    record = {"argv": list(BATTERY_ARGV), "exit_code": 0, "result": result}
    return {"records": [record], "reports": reports}, result


def test_battery_report_mismatch_blames_one_check(tmp_path):
    reports = {"check_000_a.json": "{\"a\":1}\n", "check_001_b.json": "{\"b\":2}\n"}
    doc, result = battery_doc(reports)
    for name, text in reports.items():
        (tmp_path / name).write_text(text)
    stdout = json.dumps({"result": result}) + "\n"
    golden = Golden(doc)
    assert golden.battery_failures(BATTERY_ARGV, 0, stdout, tmp_path) == set()
    wrong = copy.deepcopy(doc)
    wrong["reports"]["check_001_b.json"] = "{\"b\":3}\n"
    assert Golden(wrong).battery_failures(BATTERY_ARGV, 0, stdout, tmp_path) == {1}


def test_battery_without_reports_fails_every_check(tmp_path):
    doc, result = battery_doc({"check_000_a.json": "x\n", "check_001_b.json": "y\n"})
    stdout = json.dumps({"result": result}) + "\n"
    assert Golden(doc).battery_failures(BATTERY_ARGV, 0, stdout, tmp_path) == {0, 1}


def test_battery_wrong_summary_fails_every_check(tmp_path):
    doc, result = battery_doc({"check_000_a.json": "x\n"})
    (tmp_path / "check_000_a.json").write_text("x\n")
    stdout = json.dumps({"result": {**result, "summary": "other"}}) + "\n"
    assert Golden(doc).battery_failures(BATTERY_ARGV, 0, stdout, tmp_path) == {0}


def test_runner_counts_a_wrong_golden_record(tmp_path):
    from wordfibers import cli

    runner = RequestsRunner(cli, 3, tmp_path)
    plan = runner.plan
    first = plan.prefilled[0]
    fresh = next(a for a, repeat in plan.stream if not repeat)
    runner.plan = RequestStream(plan.prefilled, ((first, True), (fresh, False), (fresh, True)))
    assert runner.run_pass().failed == 0
    wrong = copy.deepcopy(runner.golden.records[fresh])
    wrong["result"] = {"not": "the result"}
    runner.golden.records[fresh] = wrong
    res = runner.run_pass()
    assert (res.attempted, res.failed) == (3, 2)
