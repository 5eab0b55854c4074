import weakref

import pytest

import wordfibers.fibers as fibers


@pytest.fixture(autouse=True)
def scan_table(monkeypatch):
    """An empty content table of exact scans (`fibers._SCANS`) for each
    test: sets of earlier tests that the cyclic garbage collector has not
    freed yet would otherwise lend it their scans."""
    table = weakref.WeakValueDictionary()
    monkeypatch.setattr(fibers, "_SCANS", table)
    return table


@pytest.fixture
def scans(monkeypatch):
    """The (group, word) of every `fibers._scan_range` call in the test: one
    per exact scan on one thread, and one per sampled search."""
    calls = []
    real = fibers._scan_range

    def counting(ev, batches):
        calls.append((ev.g, str(ev.w)))
        return real(ev, batches)

    monkeypatch.setattr(fibers, "_scan_range", counting)
    return calls
