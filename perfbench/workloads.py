"""Request pools and the seeded generators of the three workloads.

Every pool is a fixed list, so golden records are taken once for each request
in it (see make_golden.py).  The seed picks only the order of the requests
and, for `requests`, which pool entries are pre-filled, issued fresh or
repeated.  The per-command counts are fixed, so every seed issues the same
mix of work and the figures of different seeds can be compared.

This module does not import wordfibers: it only builds `wfl` argument lists.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("battery", "large-groups", "requests")

# `--out` is appended at run time; the battery's `result` does not name it.
BATTERY_ARGV = ("--threads", "1", "verify", "battery")
BATTERY_CHECKS = 73

# Single-shot requests on groups of order 60 to 720, all succeeding at this
# commit; the exact 2-variable search on alt:5 and the Aut of sym:6 are
# refused (exit 3) and stay out, since a refusal takes no time.
LARGE_GROUPS_POOL = (
    ("group", "make", "--spec", "sym:6"),
    ("group", "make", "--spec", "alt:6"),
    ("group", "series", "--spec", "prod:(sym:4)x(cyc:3)"),
    ("group", "subgroups", "--spec", "alt:5"),
    ("fiber", "pi", "--group", "alt:5", "--word", "x1 x2 x3 x4"),
    ("group", "auts", "--spec", "alt:5"),
    ("group", "auts", "--spec", "sym:5"),
    ("group", "radical", "--spec", "sym:5"),
    ("fiber", "dist", "--group", "sym:5", "--word", "x1 x2 x3", "--auts", "inn",
     "--tuple", "5,9,17"),
)
# `fiber dist` on alt:5 over Aut(alt:5), which has 120 elements, at 8 fixed
# tuples, each issued DIST_ISSUES times a pass.  These requests cost about the
# same and are most of each pass's requests, so the per-request median falls
# among them rather than on one of the few heavy requests.  Every pass issues
# all of them, so the seed does not change the mix; and each is timed at the
# fastest of its many issues in a run.
DIST_TUPLES = tuple(
    ",".join(str(x) for x in random.Random(i).sample(range(120), 4)) for i in range(8)
)
DIST_POOL = tuple(
    ("fiber", "dist", "--group", "alt:5", "--word", "[x1,x2]", "--auts", "aut", "--tuple", t)
    for t in DIST_TUPLES
)
DIST_ISSUES = 4

# -- the `requests` pool -------------------------------------------------------

WORDS = (
    "x1^2", "x1^3", "x1^4", "x1^5", "x1^6", "x1 x2", "x1^2 x2^2", "x1^2 x2^3",
    "x1^3 x2^2", "[x1,x2]", "[x1,x2] x3^2", "x1 x2 x1", "x1 x2 x3",
    "x1 x2^-1 x1^2", "[x1,x2^2]", "[x1^2,x2]", "[[x1,x2],x3]",
    "x1^2 x2 x1^-1 x2", "x1^3 x2^-2", "x1 x2 x1^-1 x2^2", "x1^2 x2^2 x3^2",
    "[x1,x2][x3,x4]", "x1^-1 x2^3 x1", "x1 x2 x3 x1^-1",
)
BOUND_WORDS = WORDS[:12]
RHOS = ("1/2", "1/3", "2/3", "1/10")
SIMPLE_ORDERS = ("60", "168", "360")
FACTOR_LISTS = ("60:120", "60:120,168:336", "168:336,360:1440", "60:120,360:1440,504:1512")
SMALL_GROUPS = (
    "cyc:2", "cyc:3", "cyc:4", "cyc:5", "cyc:6", "cyc:7", "cyc:8", "cyc:9",
    "cyc:10", "cyc:12", "cyc:16", "cyc:24", "dih:3", "dih:4", "dih:5", "dih:6",
    "dih:8", "dih:10", "dih:12", "sym:3", "sym:4", "alt:4", "q8",
    "prod:(cyc:2)x(cyc:2)", "prod:(cyc:2)x(cyc:4)", "prod:(cyc:3)x(cyc:3)",
    "prod:(sym:3)x(cyc:2)", "prod:(cyc:2)x(q8)", "pow:(cyc:2)^3", "pow:(cyc:2)^4",
    "pow:(cyc:3)^2",
)
PI_GROUPS = ("cyc:6", "cyc:8", "dih:4", "dih:6", "sym:3", "sym:4", "alt:4", "q8",
             "prod:(cyc:2)x(cyc:4)", "pow:(cyc:2)^3", "dih:12", "cyc:24")
PI_WORDS = ("x1^2", "x1^3", "[x1,x2]", "x1 x2 x1", "x1^2 x2^2")
# Exact searches of at most about 3e5 evaluations whose batches stay small,
# so that peak memory does not depend on which of them a seed picks.
MAX_CASES = (
    ("cyc:4", "aut"), ("cyc:5", "aut"), ("cyc:6", "aut"), ("cyc:8", "aut"),
    ("sym:3", "inn"), ("sym:3", "aut"), ("dih:4", "inn"), ("cyc:7", "aut"),
    ("prod:(cyc:2)x(cyc:2)", "aut"), ("q8", "inn"),
)
MAX_WORDS = ("x1^2", "x1^3", "x1 x2 x1", "[x1,x2]")


def _requests_pool() -> dict[str, tuple[tuple[str, ...], ...]]:
    prod = itertools.product
    pool = {
        "bounds exclude": [("bounds", "exclude", "--word", w, "--rho", r)
                           for w, r in prod(BOUND_WORDS, RHOS)],
        "bounds alt": [("bounds", "alt", "--word", w, "--rho", r)
                       for w, r in prod(BOUND_WORDS, RHOS)],
        "bounds lie": [("bounds", "lie", "--word", w, "--rho", r)
                       for w, r in prod(BOUND_WORDS, RHOS)],
        "bounds n0": [("bounds", "n0", "--word", w, "--rho", r, "--order", o)
                      for w, r, o in prod(BOUND_WORDS[:8], RHOS[:2], SIMPLE_ORDERS)],
        "bounds radical-bound": [
            ("bounds", "radical-bound", "--word", w, "--rho", r, "--factors", f,
             "--n-zero", "1000", "--eta-zero", "1/2")
            for w, r, f in prod(BOUND_WORDS[:4], RHOS[:2], FACTOR_LISTS)
        ],
        "word parse": [("word", "parse", "--word", w) for w in WORDS],
        "word variations": [("word", "variations", "--word", w, "--limit", "16")
                            for w in WORDS],
        "word mconst": [("word", "mconst", "-l", str(l), "-d", str(d))
                        for l, d in prod(range(1, 7), range(1, 5))],
        "group make": [("group", "make", "--spec", s) for s in SMALL_GROUPS],
        "fiber pi": [("fiber", "pi", "--group", g, "--word", w)
                     for g, w in prod(PI_GROUPS, PI_WORDS)],
        "fiber max": [("fiber", "max", "--group", g, "--word", w, "--auts", a)
                      for (g, a), w in prod(MAX_CASES, MAX_WORDS)],
    }
    return {k: tuple(v) for k, v in pool.items()}


REQUESTS_POOL = _requests_pool()

# Requests per stream, by command: (pre-filled, issued fresh).  Repeats are
# drawn from the pre-filled and already issued requests, so the stream is
# STREAM_REPEATS repeats plus the fresh requests, about half of each.
REQUESTS_MIX = {
    "bounds exclude": (5, 16),
    "bounds alt": (4, 12),
    "bounds lie": (4, 12),
    "bounds n0": (4, 12),
    "bounds radical-bound": (3, 8),
    "word parse": (5, 14),
    "word variations": (4, 12),
    "word mconst": (3, 10),
    "group make": (3, 10),
    "fiber pi": (3, 8),
    "fiber max": (2, 6),
}
STREAM_REPEATS = 120
# Records in the cache file before each pass: the pre-filled requests plus
# filler records of the same size under digests no request has.  ResultCache
# re-reads the whole file on every lookup, so this size sets lookup cost.
PREFILL_RECORDS = 500


def pool_requests(workload: str) -> list[tuple[str, ...]]:
    """Every request a workload can issue, without run-time arguments."""
    if workload == "battery":
        return [BATTERY_ARGV]
    if workload == "large-groups":
        return list(LARGE_GROUPS_POOL + DIST_POOL)
    if workload == "requests":
        return [r for entries in REQUESTS_POOL.values() for r in entries]
    raise ValueError(f"unknown workload {workload!r}")


def large_groups_order(seed: int) -> list[tuple[str, ...]]:
    requests = list(LARGE_GROUPS_POOL + DIST_POOL * DIST_ISSUES)
    random.Random(seed).shuffle(requests)
    return requests


@dataclass(frozen=True)
class RequestStream:
    prefilled: tuple[tuple[str, ...], ...]
    # (argv, repeat): repeat is True when the request was pre-filled or
    # issued earlier in the stream, so it should be served from the cache.
    stream: tuple[tuple[tuple[str, ...], bool], ...]


def requests_stream(seed: int) -> RequestStream:
    rng = random.Random(seed)
    prefilled: list[tuple[str, ...]] = []
    fresh: list[tuple[str, ...]] = []
    for command, (n_pre, n_fresh) in REQUESTS_MIX.items():
        picks = rng.sample(REQUESTS_POOL[command], n_pre + n_fresh)
        prefilled += picks[:n_pre]
        fresh += picks[n_pre:]
    rng.shuffle(fresh)
    flags = [True] * STREAM_REPEATS + [False] * len(fresh)
    rng.shuffle(flags)
    seen = list(prefilled)
    stream = []
    for repeat in flags:
        if repeat:
            argv = rng.choice(seen)
        else:
            argv = fresh.pop()
            seen.append(argv)
        stream.append((argv, repeat))
    return RequestStream(prefilled=tuple(prefilled), stream=tuple(stream))
