import pytest

import wordfibers.fibers as fibers


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
