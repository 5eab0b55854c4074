import io
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from tracing import Span, Tracer, instrument, self_times


def span(sid, start, end, parent=None, name="x", layer="cli"):
    return Span(sid, name, layer, parent, 1, start, end)


def test_self_time_subtracts_children():
    spans = [span(1, 0.0, 10.0), span(2, 1.0, 3.0, 1), span(3, 5.0, 6.0, 1), span(4, 1.5, 2.5, 2)]
    own = self_times(spans)
    assert own[1] == pytest.approx(7.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    # Two checks on two worker threads overlap in [3, 4]; the parent waits
    # on both, so only [2, 6] is covered.
    spans = [span(1, 0.0, 8.0), span(2, 2.0, 4.0, 1), span(3, 3.0, 6.0, 1)]
    assert self_times(spans)[1] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span(1, 0.0, 4.0), span(2, 3.0, 9.0, 1)]
    assert self_times(spans)[1] == pytest.approx(3.0)


class StepClock:
    """A clock that advances one unit per read, from any thread."""

    def __init__(self):
        self.now = 0.0
        self.lock = threading.Lock()

    def __call__(self):
        with self.lock:
            self.now += 1.0
            return self.now


def test_worker_thread_spans_take_the_adopted_parent():
    tracer = Tracer(clock=StepClock())
    battery = tracer.begin("cli.cmd_verify_battery", "cli")
    tracer.adopted = battery

    def check(i):
        s = tracer.begin("cli.run_battery_entry", "cli")
        inner = tracer.begin("fibers.max_fiber", "fibers")
        tracer.end(inner)
        tracer.end(s)
        return s

    with ThreadPoolExecutor(max_workers=2) as pool:
        checks = list(pool.map(check, range(6)))
    tracer.adopted = None
    tracer.end(battery)
    spans = tracer.drain()
    assert all(c.parent == battery.sid and c.request == battery.request for c in checks)
    assert {s.request for s in spans} == {battery.request}
    own = self_times(spans)
    covered = sum(c.duration for c in checks)
    # The checks ran one after another or overlapped; either way the battery
    # keeps at most its duration minus the longest check.
    assert 0 <= own[battery.sid] <= battery.duration - max(c.duration for c in checks)
    assert own[battery.sid] >= battery.duration - covered
    for c in checks:
        assert own[c.sid] == pytest.approx(c.duration - 1.0)


def test_spans_without_parent_start_a_new_request():
    tracer = Tracer(clock=StepClock())
    a = tracer.begin("cli.run_command", "cli")
    tracer.end(a)
    b = tracer.begin("cli.run_command", "cli")
    tracer.end(b)
    assert a.parent is None and b.parent is None
    assert a.request != b.request


@pytest.fixture
def traced():
    from wordfibers import cli

    tracer = Tracer()
    remove = instrument(tracer)
    try:
        yield tracer, cli
    finally:
        remove()


def test_instrument_sees_calls_through_imported_bindings(traced):
    tracer, cli = traced
    assert cli.run_command(["group", "auts", "--spec", "sym:3"], stdout=io.StringIO()) == 0
    spans = {s.name: s for s in tracer.drain()}
    root = spans["cli.run_command"]
    assert spans["cli.cmd_group_auts"].parent == root.sid
    # cli calls make_group and automorphism_group through `from .groups import`.
    assert spans["groups.make_group"].parent == spans["cli.cmd_group_auts"].sid
    assert spans["groups.automorphism_group"].attrs == {"found": 6}
    assert "groups.table_build" in spans


def test_instrument_parents_battery_checks_across_threads(traced, tmp_path):
    tracer, cli = traced
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([
        {"check": "dihedral", "o": 3},
        {"check": "identity-max", "group": "cyc:4", "word": "x1^2"},
        {"check": "rewrite", "group": "sym:3", "subgroup": "order:3", "word": "x1^2",
         "trials": 3},
    ]))
    argv = ["--threads", "2", "verify", "battery", "--manifest", str(manifest),
            "--out", str(tmp_path / "out")]
    assert cli.run_command(argv, stdout=io.StringIO()) == 0
    spans = tracer.drain()
    battery = next(s for s in spans if s.name == "cli.cmd_verify_battery")
    checks = [s for s in spans if s.name == "cli.run_battery_entry"]
    assert len(checks) == 3
    assert all(c.parent == battery.sid for c in checks)
    assert {s.request for s in spans} == {battery.request}
    rewrite = next(s for s in spans if s.name == "verify.check_rewrite")
    assert rewrite.attrs["equivalences"] > 0
    own = self_times(spans)
    assert own[battery.sid] < battery.duration


def test_remove_restores_the_original_functions():
    from wordfibers import cli, groups

    before = (cli.make_group, groups.make_group, groups.FiniteGroup.__dict__["table"],
              cli.ResultCache.lookup)
    remove = instrument(Tracer())
    assert cli.make_group is not before[0]
    remove()
    after = (cli.make_group, groups.make_group, groups.FiniteGroup.__dict__["table"],
             cli.ResultCache.lookup)
    assert all(a is b for a, b in zip(after, before))
