import concurrent.futures
import dataclasses
import decimal
import io
import json
import os
import shlex
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wordfibers.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    canonical,
    default_battery_path,
    dumps_canonical,
    parse_fraction,
    run_command,
)


def run(argv):
    out = io.StringIO()
    code = run_command(argv, stdout=out)
    text = out.getvalue()
    assert text.endswith("\n")
    return code, json.loads(text), text


def count_builds(monkeypatch, key):
    """A list that gains one entry each time structure kept on a group under
    ``key`` is built, by `automorphism_group` (``("aut",)``) and the like,
    whether or not a generator-image search runs."""
    import wordfibers.groups as groups

    builds = []
    real = groups._derived

    def counting(g, k, build):
        if k != key:
            return real(g, k, build)
        return real(g, k, lambda: builds.append(None) or build())

    monkeypatch.setattr(groups, "_derived", counting)
    return builds


class TestParseFraction:
    def test_forms(self):
        from fractions import Fraction

        assert parse_fraction("1/2") == Fraction(1, 2)
        assert parse_fraction("3") == 3
        assert parse_fraction("0.25") == Fraction(1, 4)

    def test_zero_denominator_is_a_value_error_naming_the_text(self):
        with pytest.raises(ValueError, match="zero denominator in ' 3/0'"):
            parse_fraction(" 3/0")

    def expect_one_usage_error(self, argv):
        code, doc, text = run(argv)
        assert code == EXIT_USAGE and doc["status"] == "usage-error"
        assert text.count("\n") == 1
        assert doc["result"]["error"] == "zero denominator in '1/0'"

    def test_zero_rho(self):
        self.expect_one_usage_error(["bounds", "alt", "--word", "x1", "--rho", "1/0"])

    def test_zero_eta_zero(self):
        self.expect_one_usage_error(
            ["bounds", "radical-bound", "--word", "x1", "--rho", "1/2", "--n-zero", "5",
             "--eta-zero", "1/0"]
        )

    def test_zero_epsilon_factor(self):
        self.expect_one_usage_error(
            ["verify", "variation-bound", "--simple", "alt:5", "--word", "x1",
             "--epsilon-factor", "1/0"]
        )

    def test_zero_epsilon_factor_in_a_manifest(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            [{"check": "variation-bound", "simple": "alt:5", "word": "x1",
              "epsilon_factor": "1/0"}]
        ))
        self.expect_one_usage_error(
            ["verify", "battery", "--manifest", str(manifest), "--out", str(tmp_path / "out")]
        )


class TestSchema:
    def test_document_shape(self):
        code, doc, _ = run(["word", "mconst", "-l", "1", "-d", "1"])
        assert code == EXIT_OK
        assert set(doc) == {"schema_version", "request", "result", "status", "stats"}
        assert doc["status"] == "ok"
        assert doc["result"]["M"] == "341"

    def test_sorted_keys_and_compact(self):
        _, _, text = run(["word", "mconst", "-l", "2", "-d", "3"])
        parsed = json.loads(text)
        assert text == json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n"


class TestWordCommands:
    def test_parse(self):
        code, doc, _ = run(["word", "parse", "--word", "[x1,x2]"])
        assert code == EXIT_OK
        assert doc["result"]["word"] == "x1 x2 x1^-1 x2^-1"
        assert doc["result"]["length"] == "4"

    def test_variations(self):
        code, doc, _ = run(["word", "variations", "--word", "[x1,x2]", "--limit", "3"])
        assert doc["result"]["count"] == "16"
        assert len(doc["result"]["variations"]) == 3

    def test_variations_limit_zero_and_negative(self):
        argv = ["word", "variations", "--word", "[x1,x2]", "--limit"]
        code, doc, _ = run(argv + ["0"])
        assert code == EXIT_OK and doc["result"]["variations"] == []
        code, doc, text = run(argv + ["-1"])
        assert code == EXIT_USAGE and doc["status"] == "usage-error"
        assert text.count("\n") == 1

    def test_syntax_error_is_usage(self):
        code, doc, _ = run(["word", "parse", "--word", "y1"])
        assert code == EXIT_USAGE
        assert doc["status"] == "usage-error"


class TestGroupCommands:
    def test_make(self):
        code, doc, _ = run(["group", "make", "--spec", "dih:3"])
        assert doc["result"]["order"] == "6"
        assert doc["result"]["abelian"] is False

    def test_auts(self):
        code, doc, _ = run(["group", "auts", "--spec", "q8"])
        assert doc["result"]["aut_size"] == "24"
        assert doc["result"]["inner_size"] == "4"

    def test_subgroups(self):
        code, doc, _ = run(["group", "subgroups", "--spec", "cyc:4"])
        assert doc["result"]["count"] == "3"

    def test_series(self):
        code, doc, _ = run(["group", "series", "--spec", "dih:3"])
        orders = [c["order"] for c in doc["result"]["chain"]]
        assert orders == ["1", "3", "6"]

    def test_radical(self):
        code, doc, _ = run(["group", "radical", "--spec", "prod:(alt:5)x(cyc:2)"])
        assert doc["result"]["order"] == "2"

    def test_radical_of_sym6(self):
        code, doc, _ = run(["group", "radical", "--spec", "sym:6"])
        assert code == EXIT_OK
        assert doc["result"] == {"order": "1", "elements": ["0"]}

    def test_cap_exit(self):
        code, doc, _ = run(["group", "make", "--spec", "sym:8"])
        assert code == EXIT_BUDGET
        assert doc["status"] == "budget-exceeded"
        assert doc["result"]["error"] == "order 40320 exceeds cap 4096"
        code, doc, _ = run(["group", "make", "--spec", "cyc:5000"])
        assert code == EXIT_BUDGET
        assert doc["result"]["error"] == "order 5000 exceeds cap 4096"

    @pytest.mark.parametrize("spec", ["sym:1000000", "alt:100000", "pow:(cyc:3)^10000"])
    def test_huge_orders_are_refused_before_they_are_computed(self, spec):
        run(["group", "make", "--spec", "cyc:1"])  # builds the parser, once per process
        start = time.perf_counter()
        code, doc, _ = run(["group", "make", "--spec", spec])
        assert time.perf_counter() - start < 0.1
        assert code == EXIT_BUDGET
        assert doc["result"]["error"] == f"order of {spec} exceeds cap 4096"

    def test_power_of_the_trivial_group_is_answered_at_once(self):
        start = time.perf_counter()
        code, doc, _ = run(["group", "make", "--spec", "pow:(cyc:1)^1000000000"])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK and doc["result"]["order"] == "1"

    def test_subgroup_cap_guards_only_the_subgroups_command(self):
        spec = "prod:(alt:5)x(cyc:4)"  # order 240, above the subgroup cap of 200
        code, doc, _ = run(["group", "subgroups", "--spec", spec])
        assert code == EXIT_BUDGET
        code, doc, _ = run(["group", "series", "--spec", spec])
        assert code == EXIT_OK
        assert [c["order"] for c in doc["result"]["chain"]] == ["1", "2", "4", "240"]
        code, doc, _ = run(["verify", "submult", "--group", spec, "--subgroup", "order:4",
                            "--word", "x1^2", "--auts", "inn"])
        assert code == EXIT_OK
        assert doc["result"]["params"]["subgroup_order"] == "4"


    def test_auts_reports_its_search_in_stats(self):
        code, doc, _ = run(["group", "auts", "--spec", "alt:6"])
        assert code == EXIT_OK
        assert doc["stats"] == {"aut_candidates": "18", "aut_generators": "2", "exit_code": "0"}
        assert set(doc["result"]) == {"aut_size", "inner_size", "order"}

    def test_auts_without_a_search_reports_none_in_stats(self):
        # alt:5 carries its Φ (every automorphism of A_5 is a conjugation in S_5)
        code, doc, _ = run(["group", "auts", "--spec", "alt:5"])
        assert code == EXIT_OK and doc["result"]["aut_size"] == "120"
        assert doc["stats"] == {"aut_candidates": "0", "aut_generators": "0", "exit_code": "0"}

    def test_aut_of_sym6_is_answered_on_every_path(self):
        code, doc, _ = run(["group", "auts", "--spec", "sym:6"])
        assert code == EXIT_OK and doc["result"]["aut_size"] == "1440"
        code, doc, _ = run(["group", "series", "--spec", "sym:6"])
        assert code == EXIT_OK
        assert [c["order"] for c in doc["result"]["chain"]] == ["1", "360", "720"]

    @pytest.mark.parametrize("spec", ["pow:(cyc:2)^8", "pow:(alt:5)^2"])
    @pytest.mark.parametrize("action", ["auts", "series"])
    def test_refused_before_any_kernel_block(self, monkeypatch, spec, action):
        import time

        import wordfibers.groups as groups

        def no_blocks(*args):
            raise AssertionError("a kernel block ran")

        monkeypatch.setattr(groups, "_hom_rows", no_blocks)
        start = time.perf_counter()
        code, doc, _ = run(["group", action, "--spec", spec])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_BUDGET
        assert "exceeds cap" in doc["result"]["error"]

    def test_series_refuses_on_the_aut_cap_before_class_closures(self, monkeypatch):
        import wordfibers.groups as groups

        def no_closures(*args):
            raise AssertionError("class closures were built")

        monkeypatch.setattr(groups, "_class_closures", no_closures)
        code, doc, _ = run(["group", "series", "--spec", "pow:(alt:5)^2"])
        assert code == EXIT_BUDGET
        assert "exceeds cap" in doc["result"]["error"]

    @pytest.mark.parametrize("check, auts", [
        ("submult", ["--auts", "inn"]), ("submult", ["--auts", "aut"]), ("rewrite", []),
    ])
    def test_checks_refuse_on_the_aut_cap_before_reading_subgroup_and_word(self, check, auts):
        code, doc, _ = run(["verify", check, "--group", "pow:(alt:5)^2", "--subgroup", "bogus",
                            "--word", "x1^", *auts])
        assert code == EXIT_BUDGET
        assert "exceeds cap" in doc["result"]["error"]


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def golden_records(workload, command):
    records = json.loads((GOLDEN / f"{workload}.json").read_text())["records"]
    return [r for r in records if r["argv"][0] == command]


GROUP_RECORDS = golden_records("large-groups", "group")
FIBER_RECORDS = golden_records("large-groups", "fiber") + golden_records("requests", "fiber")
# the rest of the requests pool: bounds, word and group make
REQUEST_RECORDS = [r for command in ("bounds", "word", "group")
                   for r in golden_records("requests", command)]


def test_group_records_cover_every_structure_command():
    assert {r["argv"][1] for r in GROUP_RECORDS} == {"make", "series", "subgroups", "auts",
                                                     "radical"}


def test_fiber_records_cover_the_chunked_path():
    assert Counter(r["argv"][1] for r in FIBER_RECORDS) == {"pi": 61, "dist": 9, "max": 40}
    # alt:5, 60^4 arguments: above the kernel's block, which would sweep them
    # in chunks; the kernel splits this word into four one-letter segments
    # instead, so tests/test_fibers.py covers the chunked sweep (TestSplitWords)
    assert ["fiber", "pi", "--group", "alt:5", "--word", "x1 x2 x3 x4"] in [
        r["argv"] for r in FIBER_RECORDS
    ]


@pytest.mark.parametrize(
    "record", GROUP_RECORDS + FIBER_RECORDS, ids=lambda r: " ".join(r["argv"])
)
def test_group_record_of_the_benchmark_golden_file(record):
    code, doc, _ = run(record["argv"])
    assert code == record["exit_code"]
    assert doc["result"] == record["result"]


def test_request_records_cover_the_rest_of_the_pool():
    assert len(REQUEST_RECORDS) == 327
    assert len(REQUEST_RECORDS) + len(golden_records("requests", "fiber")) == len(
        json.loads((GOLDEN / "requests.json").read_text())["records"]
    )


@pytest.mark.parametrize("record", REQUEST_RECORDS, ids=lambda r: " ".join(r["argv"]))
def test_request_record_of_the_benchmark_golden_file(record):
    code, doc, _ = run(record["argv"])
    assert code == record["exit_code"]
    assert doc["result"] == record["result"]


def readme_commands():
    """The `wfl` lines of the README's CLI block, split as a shell would,
    each with its `# ->` note (or None)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for line in readme.splitlines():
        if line.startswith("wfl "):
            command, _, note = line.partition("# ->")
            commands.append((shlex.split(command)[1:], note.strip() or None))
    return commands


def test_every_readme_command_succeeds(tmp_path):
    commands = readme_commands()
    assert len(commands) == 23
    results = {}
    for argv, note in commands:
        if argv[:2] == ["verify", "battery"]:
            argv = argv[:2] + ["--out", str(tmp_path)]
        code, doc, _ = run(argv)
        assert code == EXIT_OK, argv
        results[note] = doc["result"]
    assert results['{"M": "341"}'] == {"M": "341"}
    pi = results["max fiber 4, proportion 2/3"]
    assert (pi["max_fiber"], pi["proportion"]) == ("4", "2/3")
    assert float(results["threshold 28800"]["threshold"]) == 28800


class TestCanonical:
    @pytest.mark.parametrize("items", [
        [1, 2, 3],
        (0, -7, 10**20),
        [True, 1],
        [np.int64(5), 6],
        [Fraction(1, 3), 2],
        [[1, 2], [3]],
        [10**5000],
        [4, 10**5000],
        [],
    ], ids=["ints", "tuple", "bool", "np.int64", "Fraction", "nested", "huge", "int-and-huge",
            "empty"])
    def test_a_list_reads_as_its_elements_one_by_one(self, items):
        per_element = [canonical(x) for x in items]
        assert dumps_canonical(canonical(items)) == dumps_canonical(per_element)

    def test_ints_past_the_digit_limit_take_the_per_element_path(self, monkeypatch):
        import wordfibers.cli as cli

        calls = []
        monkeypatch.setattr(cli, "_digits", lambda v: calls.append(v) or str(decimal.Decimal(v)))
        assert canonical([3, 10**5000])[1] == str(decimal.Decimal(10**5000))
        assert calls == [3, 10**5000]
        calls.clear()
        assert canonical([3, 4]) == ["3", "4"] and calls == []
        assert canonical([True, 4]) == [True, "4"] and calls == [4]


def reference_canonical(obj):
    """`canonical` by its isinstance chain alone, with no dispatch on exact
    types first."""
    from wordfibers import bounds
    from wordfibers.cli import _digits

    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return _digits(obj)
    if isinstance(obj, Fraction):
        return f"{_digits(obj.numerator)}/{_digits(obj.denominator)}"
    if isinstance(obj, np.ndarray):
        return reference_canonical(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [reference_canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): reference_canonical(v) for k, v in obj.items()}
    if isinstance(obj, bounds.mpmath.mpf):
        return bounds.mpmath.nstr(obj, 50)
    if isinstance(obj, bounds.LogNumber):
        doc = {"ln": obj.ln_str(50)}
        if obj.exact is not None:
            doc["exact"] = _digits(obj.exact)
        if obj.is_factorial_of is not None:
            doc["is_factorial_of"] = _digits(obj.is_factorial_of)
        return doc
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: reference_canonical(v) for k, v in vars(obj).items()}
    if obj is None or isinstance(obj, (str, float)):
        return obj
    return str(obj)


class TestCanonicalDispatch:
    def test_equals_the_isinstance_chain_on_nested_values(self):
        from wordfibers import bounds

        class Text(str):
            pass

        class Table(dict):
            pass

        @dataclasses.dataclass
        class Leaf:
            value: object
            note: str = "leaf"

        tree = {
            "flags": [True, False, None],
            "ints": (np.int64(7), 8, -9, 10**5000, np.int32(3)),
            "ratio": Fraction(10**30, 7),
            "rows": np.arange(6).reshape(2, 3),
            "leaf": Leaf({1: [Fraction(1, 2), np.int64(2)], "s": Text("x")}),
            "bounds": [bounds.mpmath.mpf(2) / 3,
                       bounds.LogNumber(bounds.mpmath.mpf(5), exact=148, is_factorial_of=5),
                       bounds.LogNumber(bounds.mpmath.mpf("0.5"))],
            3: Table({"nested": [{"deep": 1.5}, "text", Path("p")]}),
        }
        got = canonical(tree)
        assert dumps_canonical(got) == dumps_canonical(reference_canonical(tree))
        assert got["flags"] == [True, False, None] and got["ints"][0] == "7"


class TestFiberCommands:
    def test_pi(self):
        code, doc, _ = run(["fiber", "pi", "--group", "dih:3", "--word", "x1^2"])
        assert doc["result"]["max_fiber"] == "4"
        assert doc["result"]["proportion"] == "2/3"

    def test_dist(self):
        code, doc, _ = run(["fiber", "dist", "--group", "cyc:2", "--word", "x1^2"])
        assert doc["result"]["counts"] == ["2", "0"]

    def test_max_exact(self):
        code, doc, _ = run(
            [
                "fiber",
                "max",
                "--group",
                "sym:3",
                "--word",
                "x1 x2",
                "--auts",
                "aut",
            ]
        )
        assert code == EXIT_OK
        assert doc["result"]["value"] == "6"
        assert doc["result"]["status"] == "exact"

    @pytest.mark.parametrize("flag", [["--mode", "sample"], ["--samples", "10"], ["--seed", "3"]])
    def test_max_refuses_the_retired_sampling_flags(self, flag):
        # the search is exact only, so argparse knows no sampling option
        code, doc, _ = run(
            ["--no-cache", "fiber", "max", "--group", "dih:4", "--word", "x1^2", *flag]
        )
        assert (code, doc["status"], doc["result"]) == (EXIT_USAGE, "usage-error", None)

    def test_max_refuses_over_budget_before_any_scan(self, monkeypatch):
        import wordfibers.fibers as fibers

        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before the budget was checked")

        monkeypatch.setattr(fibers, "_scan_normal_forms", no_scan)
        # Aut(dih:4) has 8 elements: 8 rows in normal form, 8 arguments each
        argv = ["fiber", "max", "--group", "dih:4", "--word", "x1^2"]
        code, doc, _ = run(["--no-cache", "--budget", "63", *argv])
        assert (code, doc["status"]) == (EXIT_BUDGET, "budget-exceeded")
        assert doc["result"] == {"error": "exact search needs 64 evaluations, budget is 63"}
        monkeypatch.undo()
        code, doc, _ = run(["--no-cache", "--budget", "64", *argv])
        assert code == EXIT_OK
        assert (doc["result"]["value"], doc["result"]["tuples_examined"]) == ("6", "64")
        assert doc["stats"]["evaluations_performed"] == "64"

    def test_budget_exit(self):
        code, doc, _ = run(
            ["--budget", "10", "fiber", "pi", "--group", "alt:4", "--word", "[x1,x2]"]
        )
        assert code == EXIT_BUDGET

    def test_counts_beyond_64_bits_are_refused_within_the_budget(self):
        # 120^11 argument tuples fit the budget but not the int64 fiber counts
        word = " ".join(f"x{i}" for i in range(1, 12))
        argv = ["--budget", str(10**30), "fiber", "pi", "--group", "sym:5", "--word", word]
        code, doc, _ = run(argv)
        assert code == EXIT_BUDGET
        assert doc["status"] == "budget-exceeded"
        assert doc["result"] == {"error": "120^11 argument tuples exceed the 64-bit fiber counts"}
        code, doc, _ = run(argv[:-1] + [" ".join(word.split()[:9])])
        assert code == EXIT_OK
        assert doc["result"] == {"max_fiber": str(120**8), "proportion": "1/120"}

    def test_max_reports_work_in_stats_and_coverage_in_result(self):
        argv = ["fiber", "max", "--group", "alt:4", "--word", "[x1,x2]", "--auts", "aut"]
        code, doc, _ = run(argv)
        assert code == EXIT_OK
        # one pair per orbit of Aut(alt:4) = S4 on its 576 pairs: 43 orbits
        assert doc["stats"] == {
            "evaluations_performed": str(43 * 12**2),
            "exit_code": "0",
            "tuples_scanned": "43",
        }
        assert doc["result"]["tuples_examined"] == str(24**4)
        assert doc["result"]["evaluations"] == str(24**4 * 12**2)
        code, doc, _ = run(["--budget", str(24**2 * 12**2 - 1)] + argv)
        assert code == EXIT_BUDGET


class TestVerifyCommands:
    def test_dihedral_pass(self):
        code, doc, _ = run(["verify", "dihedral", "--o", "3"])
        assert code == EXIT_OK
        assert doc["result"]["outcome"] == "pass"
        assert doc["result"]["witness"]["group_max"] == "4"
        assert doc["result"]["witness"]["product"] == "2"

    def test_dihedral_even_rejected(self):
        code, doc, _ = run(["verify", "dihedral", "--o", "4"])
        assert code == EXIT_USAGE

    def test_identity_max(self):
        code, doc, _ = run(
            ["verify", "identity-max", "--group", "sym:3", "--word", "x1^2",
             "--auts", "aut"]
        )
        assert code == EXIT_OK
        assert doc["result"]["outcome"] == "pass"

    def test_submult(self):
        code, doc, _ = run(
            ["verify", "submult", "--group", "dih:4", "--subgroup", "center",
             "--word", "[x1,x2]", "--auts", "aut"]
        )
        assert code == EXIT_OK

    def test_rewrite(self):
        code, doc, _ = run(
            ["verify", "rewrite", "--group", "sym:3", "--subgroup", "order:3",
             "--word", "x1^3", "--trials", "25", "--seed", "5"]
        )
        assert code == EXIT_OK
        assert doc["result"]["outcome"] == "pass"

    def test_rewrite_builds_aut_once(self, monkeypatch):
        builds = count_builds(monkeypatch, ("aut",))
        code, doc, _ = run(
            ["--no-cache", "verify", "rewrite", "--group", "alt:4", "--subgroup", "order:4",
             "--word", "[x1,x2]", "--trials", "5"]
        )
        assert code == EXIT_OK and doc["result"]["outcome"] == "pass"
        assert len(builds) == 1

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_rewrite_refuses_trials_below_one(self, trials):
        code, doc, _ = run(
            ["verify", "rewrite", "--group", "sym:3", "--subgroup", "order:3",
             "--word", "x1^2", "--trials", trials]
        )
        assert code == EXIT_USAGE
        assert doc["result"]["error"] == f"trials must be >= 1, got {trials}"

    def test_variation_bound_refuses_samples_below_one(self):
        code, doc, _ = run(
            ["verify", "variation-bound", "--simple", "alt:5", "--n", "2",
             "--word", "x1", "--samples", "-5"]
        )
        assert code == EXIT_USAGE
        assert doc["result"]["error"] == "samples must be >= 1, got -5"

    def test_variation_bound_negative_control_exits_one(self):
        code, doc, _ = run(
            ["verify", "variation-bound", "--simple", "alt:5", "--n", "1",
             "--word", "x1", "--epsilon-factor", "1/2"]
        )
        assert code == EXIT_CHECK_FAILED
        assert doc["status"] == "fail"
        assert doc["result"]["outcome"] == "fail"


class TestDeterminism:
    def test_byte_identical_across_thread_counts(self, monkeypatch):
        import wordfibers.fibers as fibers

        # two tuples per batch on groups of order 8 and two variables, so the
        # searches span several batches and more than one thread splits them
        monkeypatch.setattr(fibers, "_BATCH_ELEMENTS", 2 * 8**2)
        cases = [
            ["verify", "identity-max", "--group", "q8", "--word", "x1 x2 x1",
             "--auts", "aut"],
            ["fiber", "max", "--group", "dih:4", "--word", "[x1,x2]", "--auts", "aut"],
            ["bounds", "exclude", "--word", "x1", "--rho", "1"],
        ]
        for argv in cases:
            _, _, one = run(["--threads", "1"] + argv)
            _, _, four = run(["--threads", "4"] + argv)
            assert one == four

    def test_repeat_run_identical(self):
        argv = ["fiber", "pi", "--group", "alt:4", "--word", "x1^2"]
        assert run(argv)[2] == run(argv)[2]


class TestCache:
    def test_cache_hit_is_byte_identical(self, tmp_path):
        argv = ["--cache-dir", str(tmp_path), "verify", "identity-max",
                "--group", "sym:3", "--word", "x1^2", "--auts", "aut"]
        code1, _, text1 = run(argv)
        cache_file = tmp_path / "cache.jsonl"
        assert cache_file.exists()
        code2, _, text2 = run(argv)
        assert (code1, text1) == (code2, text2)
        # only one record was written
        assert len(cache_file.read_text().splitlines()) == 1

    def test_cache_disabled_matches_enabled(self, tmp_path):
        argv_tail = ["fiber", "pi", "--group", "dih:5", "--word", "x1^3"]
        _, _, cached = run(["--cache-dir", str(tmp_path)] + argv_tail)
        _, _, cached_again = run(["--cache-dir", str(tmp_path)] + argv_tail)
        _, _, plain = run(argv_tail)
        assert cached == cached_again == plain

    @pytest.mark.parametrize("corrupt", ["{broken json", "[1]", '"x"', "no stats"])
    def test_corrupt_lines_skipped(self, tmp_path, capsys, corrupt):
        argv = ["--cache-dir", str(tmp_path), "word", "mconst", "-l", "1", "-d", "1"]
        _, _, first = run(argv)
        cache_file = tmp_path / "cache.jsonl"
        good = cache_file.read_text()
        if corrupt == "no stats":  # the request's own record, less a field a hit re-emits
            record = json.loads(good)
            del record["stats"]
            corrupt = json.dumps(record)
        cache_file.write_text(corrupt + "\n" + good)
        capsys.readouterr()
        _, _, second = run(argv)
        assert first == second
        assert capsys.readouterr().err == "warning: skipping corrupt cache line 1\n"

    @pytest.mark.parametrize("where, via_env", [
        ("file", False), ("file", True), ("store is a directory", False)])
    def test_an_unusable_cache_dir_is_a_usage_error(self, tmp_path, monkeypatch, where, via_env):
        cache_dir = tmp_path / "cache"
        if where == "file":
            cache_dir.write_text("")
        else:
            (cache_dir / "cache.jsonl").mkdir(parents=True)
        argv = ["word", "parse", "--word", "x1"]
        if via_env:
            monkeypatch.setenv("WFL_CACHE_DIR", str(cache_dir))
        else:
            argv = ["--cache-dir", str(cache_dir), *argv]
        code, doc, text = run(argv)
        assert code == EXIT_USAGE and doc["status"] == "usage-error"
        assert "cannot be used" in doc["result"]["error"] and text.count("\n") == 1

    def test_different_params_different_digest(self, tmp_path):
        run(["--cache-dir", str(tmp_path), "word", "mconst", "-l", "1", "-d", "1"])
        code, doc, _ = run(
            ["--cache-dir", str(tmp_path), "word", "mconst", "-l", "2", "-d", "1"]
        )
        assert doc["result"]["M"] == "299593"  # (8^7 - 1) / 7

    def test_only_a_cached_request_computes_its_digest(self, monkeypatch, tmp_path):
        import wordfibers.cli as cli

        digests = []
        real = cli.request_digest
        monkeypatch.setattr(cli, "request_digest", lambda r: digests.append(r) or real(r))
        monkeypatch.delenv("WFL_CACHE_DIR", raising=False)
        argv = ["fiber", "pi", "--group", "dih:5", "--word", "x1^3"]
        plain = run(argv)
        assert digests == []
        assert run(["--cache-dir", str(tmp_path), *argv]) == plain and len(digests) == 1

    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    def test_an_empty_cache_dir_means_no_cache(self, tmp_path, monkeypatch, via_env):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("WFL_CACHE_DIR", raising=False)
        argv = ["fiber", "pi", "--group", "dih:5", "--word", "x1^3"]
        plain = run(argv)
        if via_env:
            monkeypatch.setenv("WFL_CACHE_DIR", "")
        else:
            argv = ["--cache-dir", "", *argv]
        assert run(argv) == plain == run(argv)
        assert list(tmp_path.iterdir()) == []

    def test_battery_is_never_cached(self, tmp_path):
        # its reports are files, which a cached answer would not write again
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"check": "dihedral", "o": 3}]))
        argv = ["--cache-dir", str(tmp_path / "cache"), "verify", "battery",
                "--manifest", str(manifest), "--out", str(tmp_path / "out")]
        assert run(argv) == run(argv) and run(argv)[0] == EXIT_OK
        assert not (tmp_path / "cache").exists()


class TestBattery:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_shipped_battery_matches_the_benchmark_golden_file(
        self, monkeypatch, tmp_path, threads
    ):
        import wordfibers.fibers as fibers

        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        if threads == "2":
            # batches of at most 4096 word values, so the larger searches span
            # several batches and are split over a pool (at the default size
            # every search of the battery fits in one batch)
            monkeypatch.setattr(fibers, "_BATCH_ELEMENTS", 4096)
        golden = json.loads((GOLDEN / "battery.json").read_text())
        (record,) = golden["records"]
        code, doc, _ = run(["--threads", threads, "verify", "battery", "--out", str(tmp_path)])
        assert (len(pools) > 0) == (threads == "2") and set(pools) <= {2}
        assert code == record["exit_code"]
        assert doc["result"] == record["result"]
        assert len(golden["reports"]) == len(doc["result"]["reports"]) == 73
        for name in doc["result"]["reports"]:
            assert (tmp_path / name).read_text() == golden["reports"][name], name

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "empty.json"
        manifest.write_text("[]")
        code, doc, _ = run(
            ["verify", "battery", "--manifest", str(manifest), "--out",
             str(tmp_path / "out")]
        )
        assert code == EXIT_OK
        assert doc["result"]["summary"]["total"] == "0"

    def test_small_manifest_passes_and_writes_reports(self, tmp_path):
        entries = [
            {"check": "dihedral", "o": 3},
            {"check": "identity-max", "group": "cyc:4", "word": "x1^2", "auts": "aut"},
            {"check": "submult", "group": "sym:3", "subgroup": "order:3",
             "word": "x1^2", "auts": "aut"},
            {"check": "rewrite", "group": "dih:4", "subgroup": "center",
             "word": "x1^2", "trials": 10, "seed": 1},
            {"check": "variation-projection", "group": "cyc:2", "word": "x1^2"},
        ]
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(entries))
        out_dir = tmp_path / "reports"
        code, doc, _ = run(
            ["verify", "battery", "--manifest", str(manifest), "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        assert doc["result"]["summary"]["passed"] == "5"
        files = sorted(p.name for p in out_dir.iterdir())
        assert len(files) == 5
        first = json.loads((out_dir / doc["result"]["reports"][0]).read_text())
        assert first["outcome"] == "pass"

    def test_falsified_bound_fails_with_counterexample(self, tmp_path):
        entries = [
            {"check": "variation-bound", "simple": "alt:5", "n": 1, "word": "x1",
             "epsilon_factor": "1/2"},
        ]
        manifest = tmp_path / "bad.json"
        manifest.write_text(json.dumps(entries))
        out_dir = tmp_path / "reports"
        code, doc, _ = run(
            ["verify", "battery", "--manifest", str(manifest), "--out", str(out_dir)]
        )
        assert code == EXIT_CHECK_FAILED
        report = json.loads((out_dir / doc["result"]["reports"][0]).read_text())
        assert report["outcome"] == "fail"
        assert "proportion" in report["witness"]

    def test_malformed_manifest(self, tmp_path):
        manifest = tmp_path / "nota.json"
        manifest.write_text("{}")
        code, doc, _ = run(
            ["verify", "battery", "--manifest", str(manifest), "--out",
             str(tmp_path / "out")]
        )
        assert code == EXIT_USAGE

    def test_default_manifest_exists_and_is_well_formed(self):
        entries = json.loads(default_battery_path().read_text())
        assert isinstance(entries, list) and len(entries) > 50
        kinds = {e["check"] for e in entries}
        assert {"dihedral", "identity-max", "submult", "rewrite"} <= kinds

    def _run_manifest(self, tmp_path, entries):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(entries))
        return run(
            ["verify", "battery", "--manifest", str(manifest), "--out",
             str(tmp_path / "out")]
        )

    def test_misspelt_key_is_rejected_before_any_check_runs(self, tmp_path, monkeypatch):
        import wordfibers.cli as cli

        ran = []
        monkeypatch.setattr(cli, "run_battery_entry", lambda *args: ran.append(args))
        entries = [
            {"check": "dihedral", "o": 3},
            {"check": "rewrite", "group": "sym:3", "subgroup": "order:3",
             "word": "x1^2", "trails": 10},
        ]
        code, doc, _ = self._run_manifest(tmp_path, entries)
        assert ran == []
        assert code == EXIT_USAGE
        assert doc["status"] == "usage-error"
        assert "manifest entry 1" in doc["result"]["error"]
        assert "'trails'" in doc["result"]["error"]
        assert not (tmp_path / "out").exists()

    def test_value_outside_choices_is_rejected(self, tmp_path):
        entries = [{"check": "identity-max", "group": "cyc:4", "word": "x1^2",
                    "auts": "id"}]
        code, doc, _ = self._run_manifest(tmp_path, entries)
        assert code == EXIT_USAGE
        assert "manifest entry 0" in doc["result"]["error"]
        assert "auts" in doc["result"]["error"]

    def test_missing_required_key_and_unknown_check(self, tmp_path):
        code, doc, _ = self._run_manifest(tmp_path, [{"check": "dihedral"}])
        assert code == EXIT_USAGE and "'o'" in doc["result"]["error"]
        for entry in ({"check": "no-such-check"}, {"check": ["dihedral"]}, ["dihedral"]):
            code, doc, _ = self._run_manifest(tmp_path, [entry])
            assert code == EXIT_USAGE and "manifest entry 0" in doc["result"]["error"]

    @pytest.mark.parametrize("entry,key", [
        ({"check": "dihedral", "o": 3.9}, "'o'"),
        ({"check": "dihedral", "o": True}, "'o'"),
        ({"check": "rewrite", "group": "sym:3", "subgroup": "order:3", "word": "x1^3",
          "trials": True}, "'trials'"),
        ({"check": "dihedral", "o": 3, "budget": 1e6}, "'budget'"),
        ({"check": "dihedral", "o": 3, "budget": False}, "'budget'"),
        ({"check": "dihedral", "o": 3, "budget": -1}, "'budget' must be at least 0"),
    ])
    def test_integer_key_rejects_bools_and_floats(self, tmp_path, entry, key):
        code, doc, _ = self._run_manifest(tmp_path, [{"check": "dihedral", "o": 3}, entry])
        assert code == EXIT_USAGE
        assert "manifest entry 1" in doc["result"]["error"]
        assert key in doc["result"]["error"]
        assert not (tmp_path / "out").exists()

    def test_a_zero_entry_budget_is_a_budget(self, tmp_path):
        # 0 passes validation, and refuses its entry's search with exit 3
        code, doc, _ = self._run_manifest(
            tmp_path, [{"check": "dihedral", "o": 3}, {"check": "dihedral", "o": 3, "budget": 0}]
        )
        assert (code, doc["status"]) == (EXIT_BUDGET, "budget-exceeded")
        assert doc["result"] == {"error": "6^1 evaluations exceed budget 0"}

    @pytest.mark.parametrize("keyed, expected", [((0,), EXIT_BUDGET), ((0, 1), EXIT_OK)])
    def test_an_entry_budget_governs_that_entry_alone(self, tmp_path, keyed, expected):
        entry = {"check": "identity-max", "group": "sym:3", "word": "x1^2"}
        entries = [{**entry, "budget": 10**6} if i in keyed else entry for i in range(2)]
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(entries))
        code, doc, _ = run(["--budget", "5", "verify", "battery", "--manifest", str(manifest),
                            "--out", str(tmp_path / "out")])
        assert code == expected
        if expected == EXIT_BUDGET:
            assert doc["result"] == {"error": "exact search needs 36 evaluations, budget is 5"}
        else:
            assert doc["result"]["outcomes"] == ["pass", "pass"]

    def test_integer_strings_stay_accepted(self):
        from wordfibers.cli import _entry_params

        _, params, budget = _entry_params(0, {"check": "dihedral", "o": "3", "budget": "50"}, 1)
        assert params == {"o": 3} and budget == 50

    def test_default_manifest_validates_against_the_registry(self):
        from wordfibers.cli import _entry_params

        entries = json.loads(default_battery_path().read_text())
        for index, entry in enumerate(entries):
            _entry_params(index, entry, 1)


# One cheap entry per registered check; the CLI invocation is derived from it.
REGISTRY_CASES = {
    "identity-max": {"group": "sym:3", "word": "x1^2", "auts": "inn"},
    "submult": {"group": "dih:4", "subgroup": "center", "word": "[x1,x2]"},
    "dihedral": {"o": 5},
    "rewrite": {"group": "dih:4", "subgroup": "center", "word": "x1^2",
                "trials": 4, "seed": 3},
    "variation-bound": {"simple": "alt:5", "n": 2, "word": "x1", "samples": 3,
                        "seed": 7, "exponent_mode": "floor", "epsilon_factor": "1"},
    "variation-projection": {"group": "cyc:2", "word": "x1^2"},
}


class TestCheckRegistry:
    def test_every_registered_check_has_a_case(self):
        from wordfibers.cli import CHECKS

        assert set(CHECKS) == set(REGISTRY_CASES)

    def test_manifest_entry_and_cli_give_the_same_report(self, tmp_path):
        for name, params in REGISTRY_CASES.items():
            manifest = tmp_path / f"{name}.json"
            manifest.write_text(json.dumps([{"check": name, **params}]))
            out_dir = tmp_path / name
            code, doc, _ = run(
                ["verify", "battery", "--manifest", str(manifest), "--out", str(out_dir)]
            )
            assert code == EXIT_OK, name
            report = (out_dir / doc["result"]["reports"][0]).read_text()
            argv = ["verify", name]
            for key, value in params.items():
                argv += ["--" + key.replace("_", "-"), str(value)]
            code, doc, _ = run(argv)
            assert code == EXIT_OK, name
            assert dumps_canonical(doc["result"]) + "\n" == report, name

    @pytest.mark.parametrize(
        "argv, params",
        [
            (["variation-bound", "--simple", "alt:5", "--word", "x1"],
             {"epsilon_factor": "1", "exponent_mode": "ceil", "n": "1",
              "samples": "1000", "seed": "0", "simple": "alt:5", "word": "x1"}),
            (["identity-max", "--group", "cyc:3", "--word", "x1^2"],
             {"auts": "aut", "group": "cyc:3", "word": "x1^2"}),
            (["submult", "--group", "cyc:4", "--subgroup", "center", "--word", "x1^2"],
             {"auts": "aut", "group": "cyc:4", "subgroup": "center", "word": "x1^2"}),
            (["dihedral", "--o", "3"], {"o": "3"}),
            (["rewrite", "--group", "cyc:4", "--subgroup", "center", "--word", "x1^2"],
             {"group": "cyc:4", "seed": "0", "subgroup": "center", "trials": "100",
              "word": "x1^2"}),
        ],
    )
    def test_request_params_are_pinned(self, argv, params):
        # The request params, defaults included, feed the cache digest.
        code, doc, _ = run(["verify", *argv])
        assert code == EXIT_OK
        assert doc["request"]["command"] == f"verify {argv[0]}"
        assert doc["request"]["params"] == params

    def test_variation_projection_subcommand(self):
        code, doc, _ = run(
            ["verify", "variation-projection", "--group", "cyc:2", "--word", "x1^2"]
        )
        assert code == EXIT_OK
        assert doc["result"]["claim"] == "variation-projection"
        assert doc["result"]["outcome"] == "pass"


# One argv for each subcommand that `test_request_params_are_pinned` does not
# cover, and the params its request echoes.
ECHO_CASES = [
    (["word", "parse", "--word", "x1 x2"], {"word": "x1 x2"}),
    (["word", "variations", "--word", "x1^2"], {"limit": "64", "word": "x1^2"}),
    (["word", "mconst", "-l", "1", "-d", "2"], {"d": "2", "l": "1"}),
    (["group", "make", "--spec", "cyc:3"], {"spec": "cyc:3"}),
    (["group", "auts", "--spec", "cyc:3"], {"spec": "cyc:3", "tables": False}),
    (["group", "subgroups", "--spec", "cyc:3"], {"spec": "cyc:3"}),
    (["group", "series", "--spec", "cyc:3"], {"spec": "cyc:3"}),
    (["group", "radical", "--spec", "cyc:3"], {"spec": "cyc:3"}),
    (["fiber", "dist", "--group", "cyc:3", "--word", "x1^2"],
     {"auts": "id", "group": "cyc:3", "word": "x1^2"}),
    (["fiber", "pi", "--group", "cyc:3", "--word", "x1^2"],
     {"group": "cyc:3", "word": "x1^2"}),
    (["fiber", "max", "--group", "cyc:3", "--word", "x1^2"],
     {"auts": "aut", "group": "cyc:3", "target": "any", "word": "x1^2"}),
    (["verify", "variation-projection", "--group", "cyc:2", "--word", "x1^2"],
     {"group": "cyc:2", "word": "x1^2"}),
    (["verify", "battery"], {"out": "battery_reports"}),
    (["bounds", "exclude", "--word", "x1", "--rho", "1"], {"rho": "1", "word": "x1"}),
    (["bounds", "alt", "--word", "x1", "--rho", "1/2"], {"rho": "1/2", "word": "x1"}),
    (["bounds", "lie", "--word", "x1", "--rho", "1"], {"rho": "1", "word": "x1"}),
    (["bounds", "n0", "--word", "x1", "--rho", "1/2", "--order", "60"],
     {"order": "60", "rho": "1/2", "word": "x1"}),
    (["bounds", "radical-bound", "--word", "x1", "--rho", "1/2", "--n-zero", "100",
      "--eta-zero", "1/100"],
     {"eta_zero": "1/100", "factors": "", "n_zero": "100", "rho": "1/2", "word": "x1"}),
]


@pytest.mark.parametrize(
    "argv, params", ECHO_CASES, ids=[" ".join(argv[:2]) for argv, _ in ECHO_CASES]
)
def test_request_params_of_every_subcommand_are_pinned(monkeypatch, tmp_path, argv, params):
    # The request params feed the result cache's digest: defaults are echoed
    # (`tables` as false), options with no value (`--tuple`, `--manifest`)
    # are not, and each key is the option's dest.
    monkeypatch.chdir(tmp_path)  # the battery writes its reports to ./battery_reports
    code, doc, _ = run(argv)
    assert code == EXIT_OK
    assert doc["request"]["command"] == " ".join(argv[:2])
    assert doc["request"]["params"] == params


class TestBoundsCommands:
    def test_mconst_via_words(self):
        code, doc, _ = run(["word", "mconst", "-l", "1", "-d", "1"])
        assert doc["result"]["M"] == "341"

    def test_lie(self):
        code, doc, _ = run(["bounds", "lie", "--word", "[x1,x2]", "--rho", "1"])
        assert doc["result"]["term_const"] == "28800"

    def test_alt(self):
        code, doc, _ = run(["bounds", "alt", "--word", "x1", "--rho", "1/2"])
        assert doc["result"]["term_rho"]["exact"] == str(2 ** (16 * 341))
        assert "ln" in doc["result"]["threshold"]

    def test_exact_values_beyond_the_int_string_limit(self):
        # term_rho is 7^(16*341), 4611 digits: past the 4300 digits str()
        # converts by default, so the digits are compared as Decimals
        code, doc, _ = run(["bounds", "alt", "--word", "x1", "--rho", "1/7"])
        assert code == EXIT_OK
        exact = doc["result"]["term_rho"]["exact"]
        assert len(exact) == 4611
        assert decimal.Decimal(exact) == decimal.Decimal(7 ** (16 * 341))

    def test_n0(self):
        code, doc, _ = run(
            ["bounds", "n0", "--word", "x1^2", "--rho", "1", "--order", "60"]
        )
        assert doc["result"]["n0"] == "0"

    def test_n0_refuses_orders_below_60(self):
        code, doc, _ = run(
            ["bounds", "n0", "--word", "x1^2", "--rho", "1/2", "--order", "59"]
        )
        assert code == EXIT_USAGE
        assert doc["result"]["error"] == "nonabelian simple groups have order at least 60"

    def test_n0_of_a_long_word(self):
        # 60^35 has 63 digits: a 60-digit interval holds eps = 1 - 1/60^35
        # and 1 at once, so n0 is read at a wider precision
        import mpmath

        code, doc, _ = run(["bounds", "n0", "--word", "x1^35", "--rho", "1/2", "--order", "60"])
        with mpmath.workdps(3 * 63 + 200):
            oracle = mpmath.floor(35**2 * mpmath.log(0.5) / mpmath.log(1 - mpmath.mpf(60) ** -35))
        assert (code, doc["result"]["n0"]) == (EXIT_OK, str(int(oracle)))

    def test_radical_bound_of_a_long_word(self):
        code, doc, _ = run(["bounds", "radical-bound", "--word", "x1^40", "--rho", "1/2",
                            "--factors", "60:120", "--n-zero", "100", "--eta-zero", "1/2"])
        assert code == EXIT_OK
        assert set(doc["result"]["bound"]) == {"ln"}

    @pytest.mark.parametrize("action", ["alt", "exclude"])
    def test_alt_refuses_m_prime_past_its_digit_cap(self, action):
        start = time.perf_counter()
        code, doc, _ = run(["bounds", action, "--word", "x1^113", "--rho", "1/2"])
        assert (code, doc["status"]) == (EXIT_BUDGET, "budget-exceeded")
        assert doc["result"]["error"] == "M'(113) has more than 1000 digits"
        assert time.perf_counter() - start < 1

    def test_radical_bound(self):
        code, doc, _ = run(
            ["bounds", "radical-bound", "--word", "x1", "--rho", "0.97",
             "--factors", "60:120", "--n-zero", "1000000", "--eta-zero", "1/100"]
        )
        assert doc["result"]["bound"]["exact"] == "120"

    @pytest.mark.parametrize("factors, entry", [
        ("60", "60"), ("60:x", "60:x"), ("60:120,", ""), ("60:120:7", "60:120:7"),
        ("60:120,,168:336", ""),
    ])
    def test_radical_bound_names_a_bad_factors_entry(self, factors, entry):
        code, doc, _ = run(["bounds", "radical-bound", "--word", "x1^2", "--rho", "1/2",
                            "--factors", factors, "--n-zero", "10", "--eta-zero", "1/2"])
        assert (code, doc["status"]) == (EXIT_USAGE, "usage-error")
        assert doc["result"]["error"] == f"--factors entry {entry!r} is not order:autorder"

    def test_exclude(self):
        code, doc, _ = run(["bounds", "exclude", "--word", "x1", "--rho", "1"])
        assert doc["result"]["M"] == "341"
        assert doc["result"]["lie"]["term_const"] == "288"
        assert len(doc["result"]["narrative"]) == 3

    @pytest.mark.parametrize("action", ["alt", "exclude"])
    @pytest.mark.parametrize("word, rho", [("x1^42", "1"), ("x1^43", "1/2")])
    def test_long_words_stay_in_log_space(self, action, word, rho):
        # the exponent 16 M' l - 2 passes the float range at x1^42, the rho
        # power 16 M' at x1^43
        code, doc, text = run(["bounds", action, "--word", word, "--rho", rho])
        assert code == EXIT_OK
        assert text.count("\n") == 1
        alt = doc["result"] if action == "alt" else doc["result"]["alt"]
        assert "exact" not in alt["ceil_argument"]
        assert "ln" in alt["threshold"]
        if rho != "1":
            assert set(alt["term_rho"]) == {"ln"}


class TestEnvironmentVariables:
    def test_budget_env(self, monkeypatch):
        monkeypatch.setenv("WFL_BUDGET", "10")
        code, doc, _ = run(["fiber", "pi", "--group", "alt:4", "--word", "[x1,x2]"])
        assert code == EXIT_BUDGET
        # flag wins over the environment
        code, doc, _ = run(
            ["--budget", "100000000", "fiber", "pi", "--group", "alt:4",
             "--word", "[x1,x2]"]
        )
        assert code == EXIT_OK

    def test_threads_env(self, monkeypatch):
        argv = ["verify", "identity-max", "--group", "dih:4", "--word", "x1^2",
                "--auts", "aut"]
        _, _, base = run(argv)
        monkeypatch.setenv("WFL_THREADS", "3")
        _, _, threaded = run(argv)
        assert base == threaded

    def test_cache_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WFL_CACHE_DIR", str(tmp_path))
        _, _, first = run(["word", "mconst", "-l", "1", "-d", "1"])
        assert (tmp_path / "cache.jsonl").exists()
        _, _, second = run(["word", "mconst", "-l", "1", "-d", "1"])
        assert first == second


class TestUsageErrors:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_handler_replaced_after_the_parser_is_built_is_called(self, monkeypatch):
        import wordfibers.cli as cli

        build_parser()
        original, calls = cli.cmd_word_mconst, []

        def spy(args, ctx):
            calls.append(args.action)
            return original(args, ctx)

        monkeypatch.setattr(cli, "cmd_word_mconst", spy)
        assert run(["word", "mconst", "-l", "1", "-d", "1"])[0] == EXIT_OK
        assert calls == ["mconst"]

    def test_help_exits_zero_and_writes_no_document(self, capsys):
        out = io.StringIO()
        assert run_command(["bounds", "n0", "--help"], stdout=out) == EXIT_OK
        assert out.getvalue() == ""
        assert capsys.readouterr().out.startswith("usage: wfl bounds n0")

    def test_unknown_subcommand(self):
        code, doc, _ = run(["word", "frobnicate"])
        assert code == EXIT_USAGE
        assert doc["status"] == "usage-error"

    def test_missing_required(self):
        code, doc, _ = run(["fiber", "pi", "--group", "cyc:2"])
        assert code == EXIT_USAGE

    def test_tuple_index_out_of_range(self):
        code, doc, _ = run(
            ["fiber", "dist", "--group", "cyc:4", "--word", "x1^2",
             "--auts", "aut", "--tuple", "0,9"]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("index", ["99", "-1"])
    def test_subgroup_index_out_of_range(self, index):
        code, doc, text = run(
            ["verify", "submult", "--group", "sym:3", "--subgroup", f"indices:0,{index}",
             "--word", "x1^2", "--auts", "inn"]
        )
        assert code == EXIT_USAGE and doc["status"] == "usage-error"
        assert text.count("\n") == 1  # one JSON document
        assert f"element index {index} out of range" in doc["result"]["error"]

    def test_target_out_of_range(self):
        code, doc, _ = run(
            ["fiber", "max", "--group", "cyc:4", "--word", "x1^2",
             "--auts", "aut", "--target", "11"]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv, error", [
        (["fiber", "max", "--group", "cyc:4", "--word", "x1^2", "--target", "x"],
         "--target: 'x' is not an integer"),
        (["fiber", "dist", "--group", "cyc:4", "--word", "x1 x2", "--tuple", "1,,2"],
         "--tuple: '' is not an integer"),
        (["fiber", "dist", "--group", "cyc:4", "--word", "x1^2", "--tuple", ""],
         "--tuple: '' is not an integer"),
        (["verify", "submult", "--group", "cyc:4", "--subgroup", "order:x", "--word", "x1^2"],
         "subgroup selector 'order:x': 'x' is not an integer"),
        (["verify", "submult", "--group", "cyc:4", "--subgroup", "indices:1,x",
          "--word", "x1^2"],
         "subgroup selector 'indices:1,x': 'x' is not an integer"),
    ])
    def test_a_bad_integer_names_its_option_or_selector(self, argv, error):
        code, doc, _ = run(["--no-cache", *argv])
        assert (code, doc["status"], doc["result"]) == (
            EXIT_USAGE, "usage-error", {"error": error})

    @pytest.mark.parametrize("argv", [
        ["word", "variations", "--word", "x1 x1^-1"],
        ["fiber", "pi", "--group", "cyc:4", "--word", "x1 x1^-1"],
        ["verify", "identity-max", "--group", "cyc:4", "--word", "x2 x2^-1"],
        ["bounds", "alt", "--word", "[x1,x1]", "--rho", "1/2"],
    ])
    def test_every_command_but_word_parse_refuses_the_empty_word(self, argv):
        code, doc, _ = run(["--no-cache", *argv])
        text = argv[argv.index("--word") + 1]
        assert (code, doc["result"]) == (
            EXIT_USAGE, {"error": f"word {text!r} reduces to the empty word"})
        code, doc, _ = run(["--no-cache", "word", "parse", "--word", text])
        assert (code, doc["result"]["length"]) == (EXIT_OK, "0")


class TestEntryPoint:
    @staticmethod
    def python(*args):
        """`python *args` in a child process that imports wordfibers from the
        same place as this test does."""
        import wordfibers

        src = str(Path(wordfibers.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    @classmethod
    def wfl(cls, *argv):
        """`python -m wordfibers.cli`, through `main()` and `sys.exit`."""
        return cls.python("-m", "wordfibers.cli", *argv)

    def test_import_loads_no_module_that_only_some_requests_need(self):
        # the bounds handlers import `bounds` and mpmath on first use, a tuple
        # search imports `concurrent.futures` only to open a pool, and
        # `request_digest` imports `hashlib` only for a result cache
        lazy = ["concurrent.futures", "hashlib", "mpmath", "wordfibers.bounds"]
        proc = self.python("-c", "import sys, wordfibers.cli; "
                           f"print(sorted(set({lazy}) & set(sys.modules)))")
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_a_bounds_request_in_a_fresh_process(self):
        argv = ["bounds", "radical-bound", "--word", "x1", "--rho", "1/2",
                "--factors", "60:120", "--n-zero", "1000000", "--eta-zero", "1/100"]
        proc = self.wfl(*argv)
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout) == run(argv)[1]

    def test_subprocess_invocation(self):
        proc = self.wfl("verify", "dihedral", "--o", "5")
        assert proc.returncode == 0
        assert proc.stdout.endswith("\n") and proc.stdout.count("\n") == 1
        doc = json.loads(proc.stdout)
        assert doc["result"]["witness"]["group_max"] == "6"

    @pytest.mark.parametrize("entry", ["1.0", "0.9", "1e3", "99999999999999999999999"])
    def test_a_table_entry_that_is_no_int32_is_refused_in_a_fresh_process(self, tmp_path, entry):
        # a fresh process runs with the default warning filters, not the
        # test suite's
        path = tmp_path / "bad.tbl"
        path.write_text(f"2\n0 1\n1 {entry}\n")
        proc = self.wfl("group", "make", "--spec", f"table:{path}")
        assert proc.returncode == EXIT_USAGE, proc.stdout
        assert "malformed table rows" in json.loads(proc.stdout)["result"]["error"]

    def test_usage_error_is_one_json_line(self):
        proc = self.wfl("word", "frobnicate")
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout.endswith("\n") and proc.stdout.count("\n") == 1
        assert json.loads(proc.stdout)["status"] == "usage-error"

    def test_help_exits_zero_with_the_help_text_alone(self):
        proc = self.wfl("word", "parse", "--help")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert proc.stdout.startswith("usage: wfl word parse")
        assert "--word WORD" in proc.stdout
        assert not any(line.startswith("{") for line in proc.stdout.splitlines())

    def test_cayley_table_workflow(self, tmp_path):
        path = tmp_path / "c4.tbl"
        path.write_text("4\n" + "".join(
            " ".join(str((a + b) % 4) for b in range(4)) + "\n" for a in range(4)
        ))
        code, doc, _ = run(["group", "make", "--spec", f"table:{path}"])
        assert code == EXIT_OK
        assert doc["result"]["order"] == "4"
        bad = tmp_path / "bad.tbl"
        bad.write_text("2\n0 1\n1 1\n")
        code, doc, _ = run(["group", "make", "--spec", f"table:{bad}"])
        assert code == EXIT_USAGE


class TestSharedStructure:
    """One request builds each group spec once, and each group's Aut(G) and
    normal lattice once; a new request builds them again."""

    @staticmethod
    def count(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, **k: calls.append(None) or real(*a, **k)
        )
        return calls

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_shipped_battery_builds_each_structure_once(self, monkeypatch, tmp_path, threads,
                                                        scans):
        import wordfibers.groups as groups

        import wordfibers.verify as verify

        import wordfibers.cli as cli

        auts = count_builds(monkeypatch, ("aut",))
        lattices = self.count(monkeypatch, groups, "_lattice")
        sections = self.count(monkeypatch, groups, "section")
        section_sets = self.count(monkeypatch, groups, "_section_autset")
        wreaths = self.count(monkeypatch, verify, "wreath_counts")
        parses = self.count(monkeypatch, cli, "parse_word")
        validations = self.count(monkeypatch, cli, "_entry_params")
        golden = json.loads((GOLDEN / "battery.json").read_text())
        code, doc, _ = run(["--threads", threads, "verify", "battery", "--out", str(tmp_path)])
        assert (code, doc["result"]) == (golden["records"][0]["exit_code"],
                                         golden["records"][0]["result"])
        for name in doc["result"]["reports"]:
            assert (tmp_path / name).read_text() == golden["reports"][name], name
        # 10 of the 16 specs need Aut(G); 4 resolve order:<k> selectors.  The
        # entries run in order on one thread, whatever the thread count.
        assert (len(auts), len(lattices)) == (10, 4)
        # the 20 submult entries on 5 subgroups build 10 sections and 10
        # section sets, each once: those of an order:<k> subgroup are kept
        # on its lattice handle, and the center and radical handles are kept
        # on their group; the 300 samples of the alt:5, n = 2 entry are
        # counted in one block
        assert (len(sections), len(section_sets), len(wreaths)) == (10, 10, 1)
        # the 66 word fields hold 6 distinct texts, each parsed once; the 73
        # entries are validated once, before any runs
        assert (len(parses), len(validations)) == (6, 73)
        # 50 exact scans; the other 52 exact searches read a scan kept on
        # their set or found by content on another; on two threads a scan of
        # several batches is split into ranges
        if threads == "1":
            assert len(scans) == 50

    def test_each_request_builds_its_own_groups(self, monkeypatch):
        phis = count_builds(monkeypatch, ("phi",))
        argv = ["verify", "submult", "--group", "alt:4", "--subgroup", "order:4",
                "--word", "x1^2", "--auts", "inn"]
        first, second = run(argv), run(argv)
        assert first == second and first[0] == EXIT_OK
        assert len(phis) == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "submult", "--group", "dih:4", "--subgroup", "order:4", "--word", "x1^2"],
        ["fiber", "max", "--group", "dih:4", "--word", "[x1,x2]", "--auts", "aut"],
    ], ids=["submult", "fiber-max"])
    def test_a_request_leaves_no_reference_cycles(self, argv, scan_table):
        # Aut(G), the lattice and the scans kept on an automorphism set point
        # back at their group; the request drops them at its end, so its
        # groups are freed at once, and with them every scan the content
        # table indexes
        import gc

        run(argv)  # builds the parser, once per process
        gc.collect()
        gc.disable()
        try:
            assert run(argv)[0] == EXIT_OK
            assert len(scan_table) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    @staticmethod
    def count_kinds(monkeypatch):
        """A list of the kind of each `AutSet` built."""
        import wordfibers.groups as groups

        kinds = []

        class CountingAutSet(groups.AutSet):
            def __init__(self, group, tables, kind):
                kinds.append(kind)
                super().__init__(group, tables, kind)

        monkeypatch.setattr(groups, "AutSet", CountingAutSet)
        return kinds

    @pytest.mark.parametrize("argv, inner, full", [
        # `group auts` counts the rows of Inn(G) and sorts no AutSet of them
        (["group", "auts", "--spec", "sym:4"], 0, 1),
        # the characteristic flag reads Φ, and no table of Aut(G) is built
        (["verify", "submult", "--group", "sym:3", "--subgroup", "order:3", "--word", "x1^2",
          "--auts", "inn"], 1, 0),
    ])
    def test_inner_automorphisms_are_built_once(self, monkeypatch, argv, inner, full):
        # Inn(G) is kept on the group, and Aut(G), built as Inn(G)·Φ, reads it there
        kinds = self.count_kinds(monkeypatch)
        assert run(argv)[0] == EXIT_OK
        assert kinds.count("inner") == inner and kinds.count("full") == full

    @pytest.mark.parametrize("argv", [
        ["group", "subgroups", "--spec", "alt:5"],
        ["group", "series", "--spec", "prod:(sym:4)x(cyc:3)"],
        ["group", "radical", "--spec", "sym:5"],
        *(["verify", "submult", "--group", group, "--subgroup", subgroup, "--word", "x1^2",
           "--auts", "inn"]
          for group in ("dih:4", "sym:4", "alt:4")
          for subgroup in ("center", "order:4", "radical")),
    ])
    def test_structure_requests_build_no_aut_table(self, monkeypatch, argv):
        # the flags read Inn(G) and Φ; the center is characteristic as built
        import wordfibers.groups as groups

        kinds = self.count_kinds(monkeypatch)
        closures = self.count(monkeypatch, groups, "_closure")
        composites = self.count(monkeypatch, groups, "_compose_after")
        assert run(argv)[0] == EXIT_OK
        assert kinds.count("full") == 0 and not composites
        if "radical" not in argv:
            assert not closures

    def test_submult_builds_the_quotient_and_the_subgroup_once(self, monkeypatch):
        import wordfibers.groups as groups

        sections = self.count(monkeypatch, groups, "section")
        for subgroup in ("center", "order:4"):
            sections.clear()
            code, _, _ = run(["verify", "submult", "--group", "dih:4", "--subgroup",
                              subgroup, "--word", "x1^2"])
            assert code == EXIT_OK and len(sections) == 2, subgroup


class TestThreadSettings:
    ARGV = ["word", "parse", "--word", "x1"]

    @pytest.mark.parametrize("name, value", [
        ("WFL_THREADS", "abc"), ("WFL_THREADS", "0"), ("WFL_THREADS", "-3"),
        ("WFL_BUDGET", "abc"), ("WFL_BUDGET", "1e5"), ("WFL_BUDGET", "-1"),
    ])
    def test_bad_environment_value_is_a_usage_error(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        code, doc, text = run(self.ARGV)
        assert code == EXIT_USAGE and doc["status"] == "usage-error"
        assert text.count("\n") == 1
        assert doc["result"]["error"].startswith(f"{name}={value!r}: ")

    @pytest.mark.parametrize("flag, value", [
        ("--threads", "0"), ("--threads", "-1"), ("--threads", "two"), ("--budget", "-1"),
    ], ids=["0", "-1", "two", "budget--1"])
    def test_bad_threads_flag_is_a_usage_error(self, monkeypatch, flag, value):
        # the flag is read first; argparse refuses it and names it on stderr
        monkeypatch.setenv(f"WFL_{flag[2:].upper()}", "2")
        code, doc, _ = run([flag, value, *self.ARGV])
        assert code == EXIT_USAGE and doc["status"] == "usage-error"

    @pytest.mark.parametrize("where", ["flag", "environment"])
    def test_a_zero_budget_is_a_budget(self, monkeypatch, where):
        # 0 is the least budget taken: it refuses every search, with exit 3
        argv = ["--no-cache", "fiber", "pi", "--group", "cyc:2", "--word", "x1"]
        if where == "flag":
            argv[1:1] = ["--budget", "0"]
        else:
            monkeypatch.setenv("WFL_BUDGET", "0")
        code, doc, _ = run(argv)
        assert (code, doc["status"], doc["request"]["budget"]) == (
            EXIT_BUDGET, "budget-exceeded", "0")
        assert doc["result"] == {"error": "2^1 evaluations exceed budget 0"}

    def test_worker_pools_are_capped_at_the_core_count(self, monkeypatch, tmp_path):
        from concurrent.futures import Future

        import wordfibers.fibers as fibers

        workers = []

        class InlinePool:
            """Records its size and runs every task at once, on this thread."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args, **kwargs):
                future = Future()
                future.set_result(fn(*args, **kwargs))
                return future

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
        # two tuples per batch on sym:3 with two variables: the 6^2 scanned
        # rows span several batches, so the pool opens
        monkeypatch.setattr(fibers, "_BATCH_ELEMENTS", 2 * 6**2)
        argv = ["fiber", "max", "--group", "sym:3", "--word", "x1 x2 x1^-1 x2"]
        _, _, expected = run(argv)
        _, _, threaded = run(["--threads", "64", *argv])
        assert threaded == expected and workers == [2]
        # a battery entry's search is split the same way
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            [{"check": "identity-max", "group": "sym:3", "word": "x1 x2 x1^-1 x2"}]
        ))
        code, _, _ = run(["--threads", "2", "verify", "battery", "--manifest", str(manifest),
                          "--out", str(tmp_path / "out")])
        assert code == EXIT_OK and workers == [2, 2]
