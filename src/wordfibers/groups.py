"""Concrete finite groups on indexed elements, their automorphisms and structure.

Every group lives on element indices 0..order-1 with the identity at index 0
and carries a dense multiplication table.  Symmetric and alternating groups
number their permutations in ``itertools.permutations`` (lexicographic) order
and build the table eagerly at construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CapExceeded

# The caps are read when a function runs; no function takes one as a
# parameter.
DEFAULT_ORDER_CAP = 4096
# Table steps a generator-image search may take (`plan_hom_search`); it
# bounds automorphism groups and isomorphism tests alike.
HOM_WORK_CAP = 10**8
SUBGROUP_ORDER_CAP = 200
RADICAL_ORDER_CAP = 360
AUTSET_SIZE_CAP = 500_000
_ASSOC_FULL_CHECK_CAP = 64
_ASSOC_RANDOM_TRIPLES = 100_000
_COMPOSE_BLOCK_ELEMENTS = 1 << 17
_HOM_BLOCK_ELEMENTS = 1 << 18


class FiniteGroup:
    """A finite group by indexed elements with a dense multiplication table."""

    def __init__(self, order: int, *, table: np.ndarray, spec: str = ""):
        tbl = np.asarray(table)
        if tbl.shape != (order, order):
            raise ValueError("table shape does not match order")
        self.order = order
        self.spec = spec
        self._table = np.ascontiguousarray(tbl, dtype=np.int32)
        self._derived: dict = {}  # see `_derived`

    # -- core operations ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self._table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inv_table[a])

    @property
    def identity(self) -> int:
        return 0

    @property
    def table(self) -> np.ndarray:
        """Dense multiplication table: ``table[a, b]`` is the index of a*b."""
        return self._table

    @cached_property
    def inv_table(self) -> np.ndarray:
        """``inv_table[a]`` is the index of a^-1: the column of the identity,
        index 0, in row a, which is a permutation of 0..n-1 and so has its
        least entry there."""
        return np.argmin(self.table, axis=1).astype(np.int32)

    # -- derived structure ---------------------------------------------------

    @cached_property
    def element_orders(self) -> np.ndarray:
        n = self.order
        table = self.table
        orders = np.zeros(n, dtype=np.int64)
        power = np.arange(n, dtype=np.int32)
        k = 1
        while (orders == 0).any():
            hit = (power == 0) & (orders == 0)
            orders[hit] = k
            power = table[power, np.arange(n)]
            k += 1
        return orders

    @cached_property
    def is_abelian(self) -> bool:
        t = self.table
        return bool((t == t.T).all())

    @cached_property
    def center(self) -> tuple[int, ...]:
        t = self.table
        return tuple(int(g) for g in range(self.order) if (t[g] == t[:, g]).all())

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        n = self.order
        t, inv = self.table, self.inv_table
        hh = np.arange(n)
        seen = np.zeros(n, dtype=bool)
        classes = []
        for g in range(n):
            if seen[g]:
                continue
            orbit = np.unique(t[t[hh, g], inv[hh]])
            seen[orbit] = True
            classes.append(tuple(int(x) for x in orbit))
        return tuple(classes)

    @cached_property
    def class_size_of(self) -> np.ndarray:
        sizes = np.zeros(self.order, dtype=np.int64)
        for cls in self.conjugacy_classes:
            for g in cls:
                sizes[g] = len(cls)
        return sizes

    def validate(self, seed: int = 0) -> None:
        """Check group axioms; exhaustive for small orders, sampled above."""
        n = self.order
        t = self.table
        if t.min() < 0 or t.max() >= n:
            raise ValueError("table entries out of range")
        if (t[0] != np.arange(n)).any() or (t[:, 0] != np.arange(n)).any():
            raise ValueError("index 0 is not the identity")
        if sorted(int(x) for x in self.inv_table) != list(range(n)) or (
            t[np.arange(n), self.inv_table] != 0
        ).any():
            raise ValueError("missing inverses")
        if n <= _ASSOC_FULL_CHECK_CAP:
            a = np.arange(n)
            lhs = t[t[a[:, None, None], a[None, :, None]], a[None, None, :]]
            rhs = t[a[:, None, None], t[a[None, :, None], a[None, None, :]]]
            if (lhs != rhs).any():
                raise ValueError("multiplication is not associative")
        else:
            rng = np.random.default_rng(seed)
            a, b, c = rng.integers(0, n, size=(3, _ASSOC_RANDOM_TRIPLES))
            if (t[t[a, b], c] != t[a, t[b, c]]).any():
                raise ValueError("multiplication is not associative (sampled)")

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, spec={self.spec!r})"


def _derived(g: FiniteGroup, key: tuple, build):
    """``build()``, kept on ``g`` under ``key``: structure that is a function
    of the group and the key is built once per group object.  Two threads
    that race on a key may both build it; the first value stored is the one
    every caller gets."""
    value = g._derived.get(key)
    if value is None:
        value = g._derived.setdefault(key, build())
    return value


# -- constructions -----------------------------------------------------------


def _cyclic_table(n: int) -> np.ndarray:
    a = np.arange(n, dtype=np.int64)
    return ((a[:, None] + a[None, :]) % n).astype(np.int32)


def _dihedral_table(o: int) -> np.ndarray:
    # element f*o + k stands for s^f r^k; (f1,k1)(f2,k2) = (f1^f2, k2 + (-1)^f2 k1)
    n = 2 * o
    idx = np.arange(n)
    f, k = idx // o, idx % o
    f1, f2 = f[:, None], f[None, :]
    k1, k2 = k[:, None], k[None, :]
    sign = 1 - 2 * f2
    return ((f1 ^ f2) * o + (k2 + sign * k1) % o).astype(np.int32)


def _quaternion_table() -> np.ndarray:
    # indices: 0:1 1:-1 2:i 3:-i 4:j 5:-j 6:k 7:-k
    axis_mul = {
        ("e", "e"): (1, "e"), ("e", "i"): (1, "i"), ("e", "j"): (1, "j"), ("e", "k"): (1, "k"),
        ("i", "e"): (1, "i"), ("j", "e"): (1, "j"), ("k", "e"): (1, "k"),
        ("i", "i"): (-1, "e"), ("j", "j"): (-1, "e"), ("k", "k"): (-1, "e"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }
    axes = ["e", "i", "j", "k"]
    enc = lambda sign, axis: axes.index(axis) * 2 + (0 if sign == 1 else 1)
    table = np.zeros((8, 8), dtype=np.int32)
    for a in range(8):
        for b in range(8):
            sa, xa = (1 if a % 2 == 0 else -1), axes[a // 2]
            sb, xb = (1 if b % 2 == 0 else -1), axes[b // 2]
            s, x = axis_mul[(xa, xb)]
            table[a, b] = enc(sa * sb * s, x)
    return table


def direct_product(g1: FiniteGroup, g2: FiniteGroup, spec: str = "") -> FiniteGroup:
    """Direct product with index a*|G2| + b."""
    n1, n2 = g1.order, g2.order
    table = np.add(
        (g1.table * n2)[:, None, :, None], g2.table[None, :, None, :], dtype=np.int32
    ).reshape(n1 * n2, n1 * n2)
    return FiniteGroup(
        n1 * n2,
        table=table,
        spec=spec or f"prod:({g1.spec})x({g2.spec})",
    )


def _capped(order: int) -> int:
    if order > DEFAULT_ORDER_CAP:
        raise CapExceeded(f"order {order} exceeds cap {DEFAULT_ORDER_CAP}")
    return order


def _capped_product(factors: Iterable[int], what: str) -> int:
    """The product of the positive ``factors``, refused above the order cap.

    The loop stops once the product passes the square of the cap, so a huge
    order costs a few steps; it is then named by ``what``, never by its
    digits.  A smaller refused order is named by its value."""
    order = 1
    for f in factors:
        order *= f
        if order > DEFAULT_ORDER_CAP**2:
            raise CapExceeded(f"order of {what} exceeds cap {DEFAULT_ORDER_CAP}")
    return _capped(order)


def power_group(s: FiniteGroup, n: int) -> FiniteGroup:
    """Direct power S^n; coordinate 0 is the most significant index digit."""
    if n < 1:
        raise ValueError("power must be >= 1")
    spec = f"pow:({s.spec})^{n}"
    if s.order == 1:
        return FiniteGroup(1, table=s.table, spec=spec)
    _capped_product(itertools.repeat(s.order, n), spec)
    g = s
    for _ in range(n - 1):
        g = direct_product(g, s)
    return FiniteGroup(g.order, table=g.table, spec=spec)


def _perm_group(n: int, even_only: bool) -> FiniteGroup:
    """S_n or A_n with table[a, b] the index of "perm a after perm b".

    Each permutation is encoded as a base-n integer.  ``itertools.permutations``
    yields lexicographic order, so the codes ascend and ``searchsorted`` ranks
    a product's code back to its element index.  Products are composed in
    blocks of rows to keep the temporaries at a few MB.
    """
    perms = [
        p for p in itertools.permutations(range(n)) if not even_only or _perm_parity(p) == 0
    ]
    arr = np.array(perms, dtype=np.int64)
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = arr @ weights
    order = len(perms)
    table = np.empty((order, order), dtype=np.int32)
    rows = max(1, _COMPOSE_BLOCK_ELEMENTS // (order * n))
    for lo in range(0, order, rows):
        composed = arr[lo : lo + rows][:, arr]  # [a, b, x] = perm a applied to perm b's x
        table[lo : lo + rows] = np.searchsorted(codes, composed @ weights)
    name = f"alt:{n}" if even_only else f"sym:{n}"
    return FiniteGroup(order, table=table, spec=name)


def _perm_parity(p: Sequence[int]) -> int:
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def _split_outer(spec: str, prefix: str) -> tuple[str, str]:
    """Split 'prefix:(A)<sep>(B)' style specs on the balanced outer parens."""
    body = spec[len(prefix) :]
    if not body.startswith("("):
        raise ValueError(f"malformed spec {spec!r}")
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return body[1:i], body[i + 1 :]
    raise ValueError(f"unbalanced parentheses in spec {spec!r}")


def make_group(spec: str) -> FiniteGroup:
    """Build a group from a construction string, refusing orders above
    `DEFAULT_ORDER_CAP` before any table is built.

    Grammar: cyc:n | sym:n | alt:n | dih:o | q8 | prod:(s1)x(s2) | pow:(s)^n
    | table:<path>.
    """
    spec = spec.strip()

    def cap(order: int) -> int:
        if order < 1:
            raise ValueError(f"order must be positive in spec {spec!r}")
        return _capped(order)

    if spec.startswith("cyc:"):
        n = cap(int(spec[4:]))
        return FiniteGroup(n, table=_cyclic_table(n), spec=spec)
    if spec.startswith("sym:") or spec.startswith("alt:"):
        n = int(spec[4:])
        if n < 1:
            raise ValueError(f"degree must be positive in spec {spec!r}")
        even = spec.startswith("alt:")
        _capped_product(range(3 if even else 2, n + 1), spec)  # n! or n!/2
        return _perm_group(n, even)
    if spec.startswith("dih:"):
        o = int(spec[4:])
        if o < 1:
            raise ValueError(f"dihedral parameter must be positive, got {o}")
        cap(2 * o)
        return FiniteGroup(2 * o, table=_dihedral_table(o), spec=spec)
    if spec == "q8":
        return FiniteGroup(8, table=_quaternion_table(), spec=spec)
    if spec.startswith("prod:"):
        left, rest = _split_outer(spec, "prod:")
        if not rest.startswith("x("):
            raise ValueError(f"malformed spec {spec!r}")
        right, tail = _split_outer("x:" + rest[1:], "x:")
        if tail:
            raise ValueError(f"trailing characters in spec {spec!r}")
        g1 = make_group(left)
        g2 = make_group(right)
        cap(g1.order * g2.order)
        return direct_product(g1, g2, spec=spec)
    if spec.startswith("pow:"):
        inner, rest = _split_outer(spec, "pow:")
        if not rest.startswith("^"):
            raise ValueError(f"malformed spec {spec!r}")
        n = int(rest[1:])
        s = make_group(inner)
        g = power_group(s, n)
        g.spec = spec
        return g
    if spec.startswith("table:"):
        table = read_cayley_table(spec[6:])
        cap(table.shape[0])
        g = FiniteGroup(table.shape[0], table=table, spec=spec)
        g.validate()
        return g
    raise ValueError(f"unknown group spec {spec!r}")


# -- Cayley table files -------------------------------------------------------


def read_cayley_table(path: str | Path) -> np.ndarray:
    """Read the table file format: order line, then one row of indices per line."""
    lines = Path(path).read_text().split("\n")
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise ValueError("empty table file")
    try:
        n = int(rows[0])
    except ValueError:
        raise ValueError(f"bad order line {rows[0]!r}") from None
    if n < 1 or len(rows) != n + 1:
        raise ValueError(f"expected {n} table rows, found {len(rows) - 1}")
    table = np.empty((n, n), dtype=np.int32)
    for i, line in enumerate(rows[1:]):
        parts = line.split()
        if len(parts) != n:
            raise ValueError(f"row {i} has {len(parts)} entries, expected {n}")
        try:
            table[i] = [int(x) for x in parts]
        except ValueError:
            raise ValueError(f"row {i} contains a non-integer entry") from None
    if table.min() < 0 or table.max() >= n:
        raise ValueError("table entries out of range")
    if (table[0] != np.arange(n)).any() or (table[:, 0] != np.arange(n)).any():
        raise ValueError("row/column 0 must be the identity permutation")
    return table


# -- automorphisms ------------------------------------------------------------


def is_automorphism(g: FiniteGroup, perm: np.ndarray) -> bool:
    """Full homomorphism-law check of one table row over all pairs."""
    t, p = g.table, np.asarray(perm)
    return bool(
        p.shape == (g.order,) and p[0] == 0 and (np.sort(p) == np.arange(g.order)).all()
        and (p[t] == t[p[:, None], p[None, :]]).all()
    )


_SUBGROUP_KINDS = ("full", "inner", "identity-only")


def _row_view(rows: np.ndarray) -> np.ndarray:
    """One void scalar per row, holding its entries as big-endian int32.

    Rows of non-negative ints compare bytewise (memcmp) in the same order as
    tuples of their entries, so this view sorts and searches rows."""
    n = rows.shape[-1]
    return rows.astype(">i4").view(np.dtype((np.void, 4 * n))).ravel()


def _as_rows(tables, n: int) -> np.ndarray:
    """`tables` as an (m, n) array of rows; a single row of n entries is
    m = 1, and any other shape is refused."""
    rows = np.asarray(tables)
    if rows.ndim == 1 and rows.shape[0] == n:
        rows = rows[None]
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"expected rows of {n} entries, got shape {rows.shape}")
    return rows


def _canonical_rows(tables: np.ndarray) -> np.ndarray:
    """The distinct rows of a stack of permutation tables, in lexicographic
    order, as one int32 array: one argsort of `_row_view` orders them, and
    equal rows end up adjacent."""
    rows = np.ascontiguousarray(tables, dtype=np.int32)
    order = np.argsort(_row_view(rows), kind="stable")
    rows = rows[order]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows if keep.all() else rows[keep]


class AutSet:
    """An enumerated subset of Aut(G): the member tables as the rows of one
    sorted int32 array.

    Row order is lexicographic, which puts the identity automorphism first;
    a member is its row, and its index is its row number (`index`).
    ``contains_inner`` is computed, never trusted.  The kinds in
    ``_SUBGROUP_KINDS`` name the sets this module builds as subgroups of
    Aut(G) (`automorphism_group`, `inner_automorphisms`, `identity_autset`);
    ``is_closed`` takes them as closed and checks any other set.  ``search``
    is the `HomSearch` that enumerated the set, when one did.
    """

    search: Optional["HomSearch"] = None

    def __init__(self, group: FiniteGroup, tables: np.ndarray, kind: str):
        self.group = group
        self.tables = _canonical_rows(_as_rows(tables, group.order))
        self.tables.setflags(write=False)
        self.kind = kind
        if not len(self.tables) or (self.tables[0] != np.arange(group.order)).any():
            raise ValueError("an AutSet must contain the identity automorphism")

    def __len__(self) -> int:
        return len(self.tables)

    @cached_property
    def _sorted_view(self) -> np.ndarray:
        # built on the first lookup rather than kept from `_canonical_rows`,
        # where it would be a third copy of the tables next to the caller's
        # unsorted stack and the sorted rows
        return _row_view(self.tables)

    def index(self, rows: np.ndarray) -> np.ndarray:
        """The row number of each given table in A, or -1 where it is not a
        member: a binary search of the sorted rows.  ``rows`` is one row of
        |G| entries or an (m, |G|) array."""
        view = self._sorted_view
        wanted = _row_view(_as_rows(rows, self.group.order))
        pos = np.minimum(np.searchsorted(view, wanted), len(view) - 1)
        return np.where(view[pos] == wanted, pos, -1)

    def _all_members(self, rows: np.ndarray) -> bool:
        return bool((self.index(rows) >= 0).all())

    @cached_property
    def contains_inner(self) -> bool:
        g = self.group
        t, inv = g.table, g.inv_table
        step = max(1, _COMPOSE_BLOCK_ELEMENTS // g.order)
        return all(
            self._all_members(t[t[lo : lo + step], inv[lo : lo + step, None]])
            for lo in range(0, g.order, step)
        )

    @cached_property
    def is_closed(self) -> bool:
        """Whether A is closed under composition, so a subgroup of Aut(G): a
        finite set of bijections closed under composition holds the inverses.

        Every product is composed, a block of rows at a time, and looked up.
        """
        if self.kind in _SUBGROUP_KINDS:
            return True
        t = self.tables
        m, n = t.shape
        step = max(1, _COMPOSE_BLOCK_ELEMENTS // (m * n))
        # block [i, j] = row lo + i after row j
        return all(
            self._all_members(t[lo : lo + step][:, t].reshape(-1, n)) for lo in range(0, m, step)
        )

    def __repr__(self) -> str:
        return f"AutSet(kind={self.kind!r}, size={len(self)}, |G|={self.group.order})"


def identity_autset(g: FiniteGroup) -> AutSet:
    return AutSet(g, np.arange(g.order, dtype=np.int32), kind="identity-only")


def inner_automorphisms(g: FiniteGroup) -> AutSet:
    """Row x is conj(x): y -> x y x^-1."""
    t, inv = g.table, g.inv_table
    return AutSet(g, t[t, inv[:, None]], kind="inner")


def _span_mask(table: np.ndarray, gens: Sequence[int]) -> np.ndarray:
    """Membership mask of the subgroup generated by gens (always holding 0).

    In a finite group every element of <gens> is a positive word in gens, so
    right-multiplying by gens breadth-first from the identity reaches all of
    it; each level is one table gather."""
    mask = np.zeros(table.shape[0], dtype=bool)
    mask[0] = True
    cols = np.unique(np.asarray(gens, dtype=np.int64))
    frontier = np.zeros(1 if cols.size else 0, dtype=np.int64)
    while frontier.size:
        prods = table[frontier[:, None], cols].ravel()
        frontier = np.unique(prods[~mask[prods]])
        mask[frontier] = True
    return mask


def _closure(table: np.ndarray, seeds: Iterable[int]) -> tuple[int, ...]:
    """Subgroup generated by the seed elements (always contains 0)."""
    return tuple(np.flatnonzero(_span_mask(table, [int(s) for s in seeds])).tolist())


def _bucket_keys(g: FiniteGroup) -> np.ndarray:
    """(element order, class size) of each element as one int64: an
    isomorphism maps each element into the bucket of elements sharing its key."""
    return g.element_orders * (g.order + 1) + g.class_size_of


def choose_generators(g: FiniteGroup) -> list[int]:
    """A small generating set, chosen deterministically.

    The first generator is the element of largest order (then smallest
    bucket, then least index).  Each later step scans the elements outside
    the current subgroup by (smallest bucket, largest order, least index) and
    takes the first whose addition gives G, or else the one that enlarges the
    subgroup most.  The choice stops with `CapExceeded` as soon as no
    further choice can keep the search work of `plan_hom_search` within
    `HOM_WORK_CAP`."""
    n = g.order
    table, orders = g.table, g.element_orders
    _, where, counts = np.unique(_bucket_keys(g), return_inverse=True, return_counts=True)
    sizes = counts[where.ravel()]
    idx = np.arange(n)
    scan = np.lexsort((idx, -orders, sizes))
    gens: list[int] = []
    candidates = 1
    span = _span_mask(table, gens)
    while not span.all():
        least = int(sizes[~span].min())
        _check_work(candidates * least, n, len(gens) + 1)
        if not gens:
            pick = int(np.lexsort((idx, sizes, -orders))[0])
            span = _span_mask(table, [pick])
        else:
            pick, best = -1, None
            for c in scan[~span[scan]].tolist():
                grown = _span_mask(table, gens + [c])
                if best is None or grown.sum() > best.sum():
                    pick, best = c, grown
                    if grown.all():
                        break
            span = best
        gens.append(pick)
        candidates *= int(sizes[pick])
        _check_work(candidates, n, len(gens))
    return gens


def _check_work(candidates: int, order: int, k: int) -> None:
    work = candidates * order * k
    if work > HOM_WORK_CAP:
        raise CapExceeded(
            f"generator-image search of at least {work} steps exceeds cap {HOM_WORK_CAP}"
        )


@dataclass
class HomSearch:
    """A generator-image search for the isomorphisms src -> dst, planned in
    full before any candidate is tested.

    ``buckets[j]`` holds the dst elements that may image ``generators[j]``;
    the search tests every tuple of their product, so its work is
    ``candidates * |src| * len(generators)`` table steps."""

    src: FiniteGroup
    dst: FiniteGroup
    generators: list[int]
    buckets: list[np.ndarray]

    @property
    def candidates(self) -> int:
        return math.prod(len(b) for b in self.buckets)


def plan_hom_search(src: FiniteGroup, dst: FiniteGroup) -> HomSearch:
    """Choose src's generators and their candidate images in dst; refuse
    (`CapExceeded`) when the search work would exceed `HOM_WORK_CAP`.

    The work bound uses src's own bucket sizes, which equal dst's when the two
    groups have the same (order, class size) profile, as `is_isomorphic`
    checks first; otherwise some bucket may only shrink."""
    gens = choose_generators(src)
    src_keys, dst_keys = _bucket_keys(src), _bucket_keys(dst)
    buckets = [np.flatnonzero(dst_keys == src_keys[s]).astype(np.int32) for s in gens]
    return HomSearch(src, dst, gens, buckets)


def _spanning_program(
    table: np.ndarray, gens: Sequence[int]
) -> tuple[list[tuple[np.ndarray, np.ndarray, np.ndarray]], tuple[np.ndarray, ...]]:
    """BFS levels of the right Cayley graph from the identity, and its
    non-tree edges.

    Each level is (elements x, parents p, generator positions j) with
    x = p * gens[j]; each non-tree edge is (x, j, x * gens[j])."""
    n, k = table.shape[0], len(gens)
    cols = np.asarray(gens, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    tree = np.zeros((n, k), dtype=bool)
    levels = []
    frontier = np.zeros(1 if k else 0, dtype=np.int64)
    while frontier.size:
        prods = table[frontier[:, None], cols].ravel()
        fresh = np.flatnonzero(~seen[prods])
        elems, first = np.unique(prods[fresh], return_index=True)
        pos = fresh[first]
        parents, js = frontier[pos // k], pos % k
        seen[elems] = True
        tree[parents, js] = True
        levels.append((elems, parents, js))
        frontier = elems.astype(np.int64)
    xs, js = np.nonzero(~tree)
    return levels, (xs, js, table[xs, cols[js]])


def _hom_rows(
    table_dst: np.ndarray,
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    edges: tuple[np.ndarray, ...],
    images: np.ndarray,
) -> np.ndarray:
    """The maps φ of a block of generator-image rows that are bijective
    homomorphisms, one per row, in row order.

    φ is built along the spanning program, φ(p * s_j) = φ(p) * h_j, so the
    tree edges hold by construction; a row is kept when every non-tree edge
    holds too and only the identity maps to the identity."""
    r, n = images.shape[0], table_dst.shape[0]
    phi = np.zeros((r, n), dtype=np.int32)
    for elems, parents, js in levels:
        phi[:, elems] = table_dst[phi[:, parents], images[:, js]]
    xs, js, ys = edges
    ok = (phi[:, ys] == table_dst[phi[:, xs], images[:, js]]).all(axis=1)
    ok &= (phi[:, 1:] != 0).all(axis=1)
    return phi[ok]


def _search_homs(search: HomSearch, *, find_all: bool, max_results: int) -> np.ndarray:
    """The bijective homomorphisms src -> dst with generator images in the
    buckets, stacked one per row (the first one only without ``find_all``).

    Blocks of the bucket product are walked in mixed-radix order (the first
    generator's image most significant), a bounded number of rows at a time.

    Why the rows kept are exactly the isomorphisms: every element of the
    finite group src is a positive word in the generators, so a map that
    satisfies φ(x * s_j) = φ(x) * φ(s_j) for every x and every generator s_j
    satisfies φ(x * y) = φ(x) * φ(y) for all y, by induction on the length of
    a word for y; with trivial kernel and |src| = |dst| it is a bijection.
    Conversely an isomorphism is fixed by its generator images, which keep
    their order and class size and so lie in the buckets.  The set found does
    not depend on which generators were chosen, and `AutSet` sorts it
    canonically, so any deterministic choice gives byte-identical output."""
    src, dst = search.src, search.dst
    levels, edges = _spanning_program(src.table, search.generators)
    radices = [len(b) for b in search.buckets]
    total = search.candidates
    rows = max(1, _HOM_BLOCK_ELEMENTS // (src.order * max(1, len(radices))))
    found: list[np.ndarray] = []
    count = 0
    for lo in range(0, total, rows):
        idx = np.arange(lo, min(lo + rows, total), dtype=np.int64)
        images = np.empty((idx.size, len(radices)), dtype=np.int32)
        for j in reversed(range(len(radices))):
            images[:, j] = search.buckets[j][idx % radices[j]]
            idx //= radices[j]
        homs = _hom_rows(dst.table, levels, edges, images)
        if not homs.size:
            continue
        if not find_all:
            return homs[:1]
        found.append(homs)
        count += len(homs)
        if count > max_results:
            raise CapExceeded(f"automorphism enumeration exceeds cap {max_results}")
    return np.concatenate(found) if found else np.empty((0, src.order), dtype=np.int32)


def automorphism_group(g: FiniteGroup) -> AutSet:
    """The full automorphism group, enumerated from blocked generator-image
    tests; refused before any test runs when the search work exceeds
    `HOM_WORK_CAP` (see `plan_hom_search`), and once more than
    `AUTSET_SIZE_CAP` automorphisms are found.

    Kept on ``g``, so repeated calls share one `AutSet` and its cached
    lookups."""

    def build() -> AutSet:
        search = plan_hom_search(g, g)
        found = _search_homs(search, find_all=True, max_results=AUTSET_SIZE_CAP)
        aut = AutSet(g, found, kind="full")
        aut.search = search
        return aut

    return _derived(g, ("aut",), build)


def is_isomorphic(g: FiniteGroup, h: FiniteGroup) -> tuple[bool, Optional[np.ndarray]]:
    """Isomorphism test with a witness map on success."""
    if g.order != h.order:
        return False, None
    profile = lambda k: sorted(zip(k.element_orders.tolist(), k.class_size_of.tolist()))
    if profile(g) != profile(h):
        return False, None
    found = _search_homs(plan_hom_search(g, h), find_all=False, max_results=1)
    if len(found):
        return True, found[0]
    return False, None


# -- subgroups and quotients ---------------------------------------------------


@dataclass
class SubgroupHandle:
    """A subgroup given by its sorted element indices plus structure flags."""

    group: FiniteGroup
    elements: tuple[int, ...]
    normal: Optional[bool] = None
    characteristic: Optional[bool] = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def element_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def __contains__(self, g: int) -> bool:
        return g in self.element_set

    @cached_property
    def as_group(self) -> FiniteGroup:
        """The subgroup as a group in its own right (`subgroup_group`), built
        on first use."""
        return subgroup_group(self.group, self)

    @cached_property
    def as_quotient(self) -> "QuotientHandle":
        """The quotient by this normal subgroup (`quotient`), built on first
        use."""
        return quotient(self.group, self)


def subgroup_handle(
    g: FiniteGroup,
    elements: Iterable[int],
    aut: Optional[AutSet] = None,
) -> SubgroupHandle:
    """Validate a set of indices as a subgroup; flags computed when possible."""
    elems = tuple(sorted(set(int(x) for x in elements)))
    bad = [x for x in elems if not 0 <= x < g.order]
    if bad:
        raise ValueError(f"element index {bad[0]} out of range 0..{g.order - 1}")
    if _closure(g.table, elems) != elems:
        raise ValueError("element set is not closed under the group operation")
    handle = SubgroupHandle(g, elems)
    handle.normal = _is_normal(g, elems)
    if aut is not None:
        handle.characteristic = _is_characteristic(elems, aut)
    return handle


def _is_normal(g: FiniteGroup, elems: tuple[int, ...]) -> bool:
    t, inv = g.table, g.inv_table
    members = np.zeros(g.order, dtype=bool)
    members[list(elems)] = True
    arr = np.asarray(elems, dtype=np.int64)
    for x in range(g.order):
        if not members[t[t[x, arr], inv[x]]].all():
            return False
    return True


def _is_characteristic(elems: tuple[int, ...], aut: AutSet) -> bool:
    members = np.zeros(aut.group.order, dtype=bool)
    members[list(elems)] = True
    return bool(members[aut.tables[:, list(elems)]].all())


def _lattice(
    g: FiniteGroup, atoms: Iterable[tuple[int, ...]], aut: AutSet
) -> list[SubgroupHandle]:
    """Every join of the atom subgroups (the trivial group included), flagged
    normal and characteristic under aut and sorted by (order, elements).

    A join of k atoms is reached from the join of k - 1 of them, so closing the
    found set under "join one more atom" finds them all."""
    atoms = sorted(set(atoms))
    found: dict[tuple[int, ...], None] = {(0,): None}
    worklist = [(0,)]
    while worklist:
        base = worklist.pop()
        base_set = set(base)
        for atom in atoms:
            if base_set.issuperset(atom):
                continue
            bigger = _closure(g.table, base + atom)
            if bigger not in found:
                found[bigger] = None
                worklist.append(bigger)
    return [
        SubgroupHandle(g, e, normal=_is_normal(g, e), characteristic=_is_characteristic(e, aut))
        for e in sorted(found, key=lambda e: (len(e), e))
    ]


def subgroups(g: FiniteGroup, aut: Optional[AutSet] = None) -> list[SubgroupHandle]:
    """All subgroups, each flagged normal and characteristic (under Aut(G)
    when aut is None).

    The atoms are the cyclic subgroups <x>: every subgroup H is the join of
    <h> over its elements h."""
    if g.order > SUBGROUP_ORDER_CAP:
        raise CapExceeded(f"subgroup enumeration capped at order {SUBGROUP_ORDER_CAP}")
    aut = automorphism_group(g) if aut is None else aut
    return _lattice(g, (_closure(g.table, [x]) for x in range(1, g.order)), aut)


def normal_subgroups(g: FiniteGroup, aut: Optional[AutSet] = None) -> list[SubgroupHandle]:
    """All normal subgroups, flagged as in `subgroups`.

    The atoms are the class closures: a normal subgroup N is the join of the
    normal closures of the classes it contains, and a join of normal subgroups
    is normal, so the joins are exactly the normal subgroups.  Aut(G) is
    resolved first, so its cap refuses before the class closures are built.

    The lattice is kept on ``g`` per automorphism set (the characteristic
    flags depend on it): each call returns a new list over the same handles,
    which keep their own cached `as_group` and `as_quotient`."""
    aut = automorphism_group(g) if aut is None else aut
    return list(_derived(g, ("normal", aut), lambda: _lattice(g, _class_closures(g), aut)))


@dataclass
class QuotientHandle:
    quotient: FiniteGroup
    projection: np.ndarray  # G index -> quotient index
    coset_reps: tuple[int, ...]


def quotient(g: FiniteGroup, n: SubgroupHandle) -> QuotientHandle:
    """Quotient group on minimal coset representatives."""
    if n.normal is None:
        n.normal = _is_normal(g, n.elements)
    if not n.normal:
        raise ValueError("subgroup is not normal; quotient undefined")
    t = g.table
    arr = np.asarray(n.elements, dtype=np.int64)
    proj = np.full(g.order, -1, dtype=np.int32)
    reps: list[int] = []
    for x in range(g.order):
        if proj[x] >= 0:
            continue
        idx = len(reps)
        proj[t[arr, x]] = idx  # coset N*x; x is its least member
        reps.append(x)
    qn = len(reps)
    reps_arr = np.asarray(reps, dtype=np.int64)
    qtable = proj[t[np.ix_(reps_arr, reps_arr)]]
    q = FiniteGroup(qn, table=qtable, spec=f"({g.spec})/<order {n.order}>")
    return QuotientHandle(quotient=q, projection=proj, coset_reps=tuple(reps))


def subgroup_group(g: FiniteGroup, n: SubgroupHandle) -> FiniteGroup:
    """The subgroup as a group in its own right, indexed by sorted elements."""
    arr = np.asarray(n.elements, dtype=np.int64)
    pos = np.full(g.order, -1, dtype=np.int32)
    pos[arr] = np.arange(len(arr), dtype=np.int32)
    table = pos[g.table[np.ix_(arr, arr)]]
    if (table < 0).any():
        raise ValueError("element set is not closed under the group operation")
    return FiniteGroup(len(arr), table=table, spec=f"<order {n.order} in {g.spec}>")


def _require_characteristic(g: FiniteGroup, n: SubgroupHandle) -> None:
    if n.characteristic is None:
        aut = automorphism_group(g)
        n.characteristic = _is_characteristic(n.elements, aut)
    if not n.characteristic:
        raise ValueError("subgroup is not characteristic")


def induced_autset(g: FiniteGroup, n: SubgroupHandle, a: AutSet) -> AutSet:
    """Automorphisms of G/N induced by members of A."""
    _require_characteristic(g, n)
    qh = n.as_quotient
    return AutSet(qh.quotient, qh.projection[a.tables[:, list(qh.coset_reps)]], kind="custom")


def restricted_autset(g: FiniteGroup, n: SubgroupHandle, a: AutSet) -> AutSet:
    """Restrictions of members of A to N, re-indexed to N's own numbering."""
    _require_characteristic(g, n)
    pos = np.full(g.order, -1, dtype=np.int32)
    pos[list(n.elements)] = np.arange(n.order, dtype=np.int32)
    restricted = pos[a.tables[:, list(n.elements)]]
    if (restricted < 0).any():
        raise ValueError("an automorphism does not stabilize the subgroup")
    return AutSet(n.as_group, restricted, kind="custom")


# -- characteristic series and simple decomposition ----------------------------


@dataclass
class FactorDecomposition:
    factor: FiniteGroup
    simple: FiniteGroup
    copies: int


@dataclass
class CharSeries:
    group: FiniteGroup
    chain: list[SubgroupHandle]
    factors: list[FactorDecomposition]


def characteristic_series(g: FiniteGroup, aut: Optional[AutSet] = None) -> CharSeries:
    """A maximal chain of characteristic subgroups with decomposed factors.

    The candidates come from `normal_subgroups`: every characteristic subgroup
    is normal, so the joins of the class closures reach all of them.  The
    chain is made deterministic by always taking the lexicographically
    smallest eligible next subgroup; only the factor multiset is meaningful.
    """
    char_subs = [s for s in normal_subgroups(g, aut) if s.characteristic]
    chain = [char_subs[0]]
    while chain[-1].order < g.order:
        cur = chain[-1].element_set
        above = [s for s in char_subs if cur < s.element_set]
        minimal = [s for s in above if not any(t.element_set < s.element_set for t in above)]
        chain.append(min(minimal, key=lambda s: s.elements))
    factors = []
    for lower, upper in zip(chain, chain[1:]):
        hgrp = upper.as_group
        pos = {gidx: i for i, gidx in enumerate(upper.elements)}
        inner = subgroup_handle(hgrp, [pos[x] for x in lower.elements])
        f = quotient(hgrp, inner).quotient
        simple, copies = decompose_char_simple(f)
        factors.append(FactorDecomposition(factor=f, simple=simple, copies=copies))
    return CharSeries(group=g, chain=chain, factors=factors)


def _class_closures(g: FiniteGroup) -> list[tuple[int, ...]]:
    """The normal closures of the non-identity conjugacy classes, without
    repeats, sorted by (order, elements).  Closing a class under products
    suffices because the generating set is conjugation-stable."""
    closures = {_closure(g.table, cls) for cls in g.conjugacy_classes if cls != (0,)}
    return sorted(closures, key=lambda c: (len(c), c))


def minimal_normal_subgroups(g: FiniteGroup) -> list[tuple[int, ...]]:
    closures = _class_closures(g)
    return [c for c in closures if not any(set(o) < set(c) for o in closures)]


def is_simple(g: FiniteGroup) -> bool:
    if g.order == 1:
        return False
    return all(c == tuple(range(g.order)) for c in _class_closures(g))


def decompose_char_simple(f: FiniteGroup) -> tuple[FiniteGroup, int]:
    """Write a characteristically simple group as (simple S, n) with F = S^n."""
    if f.order == 1:
        raise ValueError("the trivial group has no simple decomposition")
    minimal = minimal_normal_subgroups(f)[0]
    s = SubgroupHandle(f, minimal).as_group
    if not is_simple(s):
        raise ValueError(f"{f.spec or 'group'} is not characteristically simple")
    n = 0
    rest = f.order
    while rest % s.order == 0 and rest > 1:
        rest //= s.order
        n += 1
    if rest != 1:
        raise ValueError(f"{f.spec or 'group'} is not characteristically simple")
    if n == 1:
        return s, n  # s is a normal subgroup as large as f, so s is f
    ok, _ = is_isomorphic(f, power_group(s, n))
    if not ok:
        raise ValueError(f"{f.spec or 'group'} is not characteristically simple")
    return s, n


# -- solvable radical -----------------------------------------------------------


def derived_subgroup(g: FiniteGroup, elems: tuple[int, ...]) -> tuple[int, ...]:
    t, inv = g.table, g.inv_table
    arr = np.asarray(elems, dtype=np.int64)
    a = arr[:, None]
    b = arr[None, :]
    comm = t[t[t[a, b], inv[a]], inv[b]]  # a b a^-1 b^-1
    return _closure(t, np.unique(comm))


def is_solvable_subset(g: FiniteGroup, elems: tuple[int, ...]) -> bool:
    cur = elems
    while True:
        nxt = derived_subgroup(g, cur)
        if nxt == cur:
            return cur == (0,)
        cur = nxt


def solvable_radical(g: FiniteGroup) -> SubgroupHandle:
    """Largest solvable normal subgroup, as the join of solvable class closures."""
    if g.order > RADICAL_ORDER_CAP:
        raise CapExceeded(f"solvable radical capped at order {RADICAL_ORDER_CAP}")
    seeds: set[int] = {0}
    for closure in _class_closures(g):
        if is_solvable_subset(g, closure):
            seeds.update(closure)
    elems = _closure(g.table, seeds)
    return SubgroupHandle(g, elems, normal=True, characteristic=True)
