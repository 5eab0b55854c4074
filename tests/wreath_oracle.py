"""Dense tables of members of B wr S_n on S^n, the oracle for the counts that
`wordfibers.fibers.wreath_counts` takes on S, the dense counts on those
tables, and the rebuild of full rows from the factors it returns.  Imported
by the test modules; pytest collects no tests here."""

import numpy as np

import wordfibers.fibers as fibers
from wordfibers.groups import power_group

WREATH_WORDS = ["x1", "x1^2", "x1^3", "x1 x2 x1", "x1 x2^-1", "[x1,x2]"]


def wreath_rows(base, n, base_indices, sigmas):
    """The (k, |S|^n) int32 tables of (a_1 x ... x a_n) o sigma on S^n, one row
    per part: a_i is base row ``base_indices[r, i]`` and sigma = ``sigmas[r]``,
    a permutation of the n coordinates (output coordinate i reads input
    coordinate sigma^-1(i)).  Coordinate 0 is the most significant digit of an
    S^n index, as in `power_group`.

    Input coordinate j goes to output coordinate sigma(j), weighted
    |S|^(n-1-sigma(j)), so a row is the outer sum over j of the small vectors
    a_sigma(j) * weight: n - 1 broadcast additions and no gather of S^n size.
    """
    s = base.group.order
    sigmas = np.asarray(sigmas, dtype=np.intp)
    picked = np.take_along_axis(np.asarray(base_indices, dtype=np.intp), sigmas, axis=1)
    weights = (s ** np.arange(n - 1, -1, -1, dtype=np.int32))[sigmas]
    parts = base.tables[picked] * weights[:, :, None]  # (k, n, |S|), part j for input j
    rows = parts[:, 0]
    for j in range(1, n):
        rows = (rows[:, :, None] + parts[:, j, None, :]).reshape(len(parts), -1)
    return rows


def draw_wreath_parts(rng, m, n, k):
    """k seeded (base indices, sigma) parts, drawn in the order the sampled
    variation check draws them: n base indices, then a permutation."""
    base_indices, sigmas = [], []
    for _ in range(k):
        base_indices.append(rng.integers(0, m, size=n))
        sigmas.append(rng.permutation(n))
    return np.array(base_indices), np.array(sigmas)


def dense_wreath_counts(s, w, base, n, base_indices, sigmas):
    """The fiber counts on the table of S^n: the `wreath_rows` tables of each
    tuple, counted by the kernel one tuple at a time."""
    k, l = base_indices.shape[:2]
    rows = wreath_rows(base, n, base_indices.reshape(k * l, n), sigmas.reshape(k * l, n))
    ev = fibers._BatchEvaluator(power_group(s, n), w, rows)
    return np.concatenate([ev.counts([np.array([r * l + i]) for i in range(l)]) for r in range(k)])


def factor_rows(parts, k, q, n):
    """The (k, q^n) counts of k tuples rebuilt from the factors that
    `wreath_counts` returns: each tuple's product of its components' counts,
    placed on their coordinates.  Checks that the patterns' tuples split
    0..k-1 and that every factor holds (tuples, q^|C|) int64 counts."""
    members = np.concatenate([m for m, _ in parts])
    assert sorted(members.tolist()) == list(range(k))
    out = np.zeros((k, q**n), dtype=np.int64)
    for members, factors in parts:
        joint = np.ones((len(members),) + (1,) * n, dtype=np.int64)
        for coords, counts in factors:
            assert counts.shape == (len(members), q ** len(coords)) and counts.dtype == np.int64
            shape = [q if c in coords else 1 for c in range(n)]
            joint = joint * counts.reshape([len(members)] + shape)
        out[members] = joint.reshape(len(members), -1)
    return out
