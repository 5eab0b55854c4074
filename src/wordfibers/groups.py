"""Concrete finite groups on indexed elements, their automorphisms and structure.

Every group lives on element indices 0..order-1 with the identity at index 0
and carries a dense multiplication table.  Symmetric and alternating groups
number their permutations in ``itertools.permutations`` (lexicographic) order
and build the table eagerly at construction.

Aut(G) = Inn(G)·Φ: the structure flags read the rows of Inn(G) and Φ
(`_phi_rows`), and only a request that reads every automorphism builds the
table of Aut(G) (`automorphism_group`).  Cyclic groups, and symmetric and
alternating groups of degree n ≠ 6, carry Φ in closed form from their
builders; every other group finds Φ by a generator-image search
(`plan_hom_search`), which the tests also use as the closed forms' oracle.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import CapExceeded

# The caps are read when a function runs; no function takes one as a
# parameter.
DEFAULT_ORDER_CAP = 4096
# Table steps a generator-image search may take (`plan_hom_search`); it
# bounds automorphism groups and isomorphism tests alike.
HOM_WORK_CAP = 10**8
SUBGROUP_ORDER_CAP = 200
AUTSET_SIZE_CAP = 500_000
_COMPOSE_BLOCK_ELEMENTS = 1 << 17
_HOM_BLOCK_ELEMENTS = 1 << 18


class FiniteGroup:
    """A finite group by indexed elements with a dense multiplication table.

    ``phi``, from a builder that knows it, is a zero-argument function
    returning rows Φ of automorphisms with Aut(G) = Inn(G)·Φ; `_phi_rows`
    calls it in place of the generator-image search, and only then.  Without
    it, Φ is searched for."""

    def __init__(
        self,
        order: int,
        *,
        table: np.ndarray,
        spec: str = "",
        phi: Optional[Callable[[], np.ndarray]] = None,
    ):
        tbl = np.asarray(table)
        if tbl.shape != (order, order):
            raise ValueError("table shape does not match order")
        self.order = order
        self.spec = spec
        self._table = np.ascontiguousarray(tbl, dtype=np.int32)
        self._phi = phi
        self._derived: dict = {}  # see `_derived`

    # -- core operations ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self._table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inv_table[a])

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
        """Whether the table is symmetric, compared a block of rows at a
        time, so a non-abelian group usually stops at its first block."""
        t, n = self.table, self.order
        step = max(1, _COMPOSE_BLOCK_ELEMENTS // n)
        return all((t[lo : lo + step] == t[:, lo : lo + step].T).all() for lo in range(0, n, step))

    @cached_property
    def center(self) -> tuple[int, ...]:
        if self.is_abelian:
            return tuple(range(self.order))
        t = self.table
        return tuple(np.flatnonzero((t == t.T).all(axis=1)).tolist())

    @cached_property
    def _classes(self) -> tuple[tuple[tuple[int, ...], ...], np.ndarray, np.ndarray]:
        """The conjugacy classes, and the least member and the size of each
        element's class, from one pass over the elements: an element that no
        smaller element's class holds is the least of a new class.  In an
        abelian group every class is one element, and the pass, one n-sized
        step per class, is skipped."""
        n = self.order
        if self.is_abelian:
            idx = np.arange(n, dtype=np.int64)
            return tuple((x,) for x in range(n)), idx, np.ones(n, dtype=np.int64)
        t, inv = self.table, self.inv_table
        seen = np.zeros(n, dtype=bool)
        least = np.empty(n, dtype=np.int64)
        sizes = np.empty(n, dtype=np.int64)
        classes = []
        for x in range(n):
            if seen[x]:
                continue
            orbit = np.zeros(n, dtype=bool)
            orbit[t[t[:, x], inv]] = True  # h x h^-1 over every h
            seen |= orbit
            members = np.flatnonzero(orbit)
            least[members] = x
            sizes[members] = len(members)
            classes.append(tuple(members.tolist()))
        return tuple(classes), least, sizes

    @property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """The classes by least member, each an ascending tuple."""
        return self._classes[0]

    @property
    def class_minima(self) -> np.ndarray:
        """``class_minima[g]`` is the least member of g's conjugacy class."""
        return self._classes[1]

    @property
    def class_size_of(self) -> np.ndarray:
        return self._classes[2]

    def validate(self) -> None:
        """Check the group axioms exactly, associativity by Light's test.

        Say a passes when (xa)y = x(ay) for all x and y.  If a and b pass,
        so does ab: (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).
        That step holds in any magma, so no group axiom is assumed: every
        left-normed product of passing generators passes, and these products
        with 0 are the reach that `_span_mask` walks.  The next generator a
        is the least element outside the reach; its test compares the rows
        t[xa] with t[x][t[a]], a block of rows x at a time.  Once the reach
        is G, every element passes and the table is associative.

        The generator bound: in a group, the reach is the subgroup the
        generators generate, and each generator outside a proper subgroup at
        least doubles it; a proper subgroup has at most |G|/2 elements, so
        ⌊log2 |G|⌋ generators reach G.  An associative table with identity
        and inverses is a group, so a reach still short of G after that many
        generators shows the table is not associative."""
        n, t = self.order, self.table
        _require_identity_at_0(t)
        if sorted(int(x) for x in self.inv_table) != list(range(n)) or (
            t[np.arange(n), self.inv_table] != 0
        ).any():
            raise ValueError("missing inverses")
        gens: list[int] = []
        reach = np.arange(n) == 0
        step = max(1, _COMPOSE_BLOCK_ELEMENTS // n)
        while not reach.all():
            a = int(np.argmin(reach))
            if len(gens) == n.bit_length() - 1 or any(
                (t[t[lo : lo + step, a]] != t[lo : lo + step, t[a]]).any()
                for lo in range(0, n, step)
            ):
                raise ValueError("multiplication is not associative")
            gens.append(a)
            reach = _span_mask(t, gens, reach)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, spec={self.spec!r})"


def _derived(owner, key: tuple, build):
    """``build()``, kept on ``owner``, a group or a subgroup handle, under
    ``key``: structure that is a function of the owner and the key is built
    once per owner object.  Two threads that race on a key may both build
    it; the first value stored is the one every caller gets."""
    value = owner._derived.get(key)
    if value is None:
        value = owner._derived.setdefault(key, build())
    return value


# -- constructions -----------------------------------------------------------


# The cyclic and dihedral tables are built in int32 and reduced in place, so
# a build holds one n×n array.
def _cyclic_table(n: int) -> np.ndarray:
    a = np.arange(n, dtype=np.int32)
    table = a[:, None] + a[None, :]
    table %= n
    return table


def _unit_rows(n: int) -> np.ndarray:
    """The automorphisms x -> u x mod n of C_n, one row per unit u mod n:
    Aut(C_n) is the group of units, and Inn(C_n) is trivial."""
    units = np.flatnonzero(np.gcd(np.arange(n), n) == 1).astype(np.int32)
    rows = units[:, None] * np.arange(n, dtype=np.int32)
    rows %= n
    return rows


def _dihedral_table(o: int) -> np.ndarray:
    # element f*o + k stands for s^f r^k; (f1,k1)(f2,k2) = (f1^f2, k2 + (-1)^f2 k1)
    idx = np.arange(2 * o, dtype=np.int32)
    f, k = idx // o, idx % o
    table = k[:, None] * (1 - 2 * f)[None, :]
    table += k[None, :]
    table %= o
    table[:o, o:] += o  # f1 ^ f2 = 1
    table[o:, :o] += o
    return table


def _quaternion_table() -> np.ndarray:
    # index 2 * axis + sign bit over the axes 0:1 1:i 2:j 3:k, so 0:1 1:-1
    # 2:i 3:-i 4:j 5:-j 6:k 7:-k.  The axis of a product is a xor b: 1 times
    # an axis is that axis, i i = -1, and i j = k, j k = i, k i = j.  Its
    # sign is the product of the signs, flipped for a = b ≠ 0 (i i = -1) and
    # for the reversed products j i = -k, k j = -i, i k = -j (b - a = 2 mod 3)
    idx = np.arange(8)
    a, b = idx[:, None] // 2, idx[None, :] // 2
    sign = idx[:, None] % 2 ^ idx[None, :] % 2
    sign ^= (a > 0) & (b > 0) & ((a == b) | ((b - a) % 3 == 2))
    return (2 * (a ^ b) + sign).astype(np.int32)


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


def power_group(s: FiniteGroup, n: int, spec: str = "") -> FiniteGroup:
    """Direct power S^n; coordinate 0 is the most significant index digit.
    ``spec`` names it, ``pow:(<spec of s>)^n`` by default."""
    if n < 1:
        raise ValueError("power must be >= 1")
    spec = spec or f"pow:({s.spec})^{n}"
    if s.order == 1:
        return FiniteGroup(1, table=s.table, spec=spec)
    _capped_product(itertools.repeat(s.order, n), spec)
    g = s
    for _ in range(n - 1):
        g = direct_product(g, s)
    return FiniteGroup(g.order, table=g.table, spec=spec)


def _perm_group(n: int, even_only: bool) -> FiniteGroup:
    """S_n or A_n with table[a, b] the index of "perm a after perm b".

    Each permutation p is encoded as the base-n integer code(p) = Σ_x w_x p[x],
    w_x = n^(n-1-x).  ``itertools.permutations`` yields lexicographic order,
    and A_n keeps the permutations with an even number of inversions (pairs
    x < y with p[x] > p[y]) in that order, so an element's index is the rank
    of its code, read from a dense array over all n^n codes.  A product's code
    is one matrix product: code(a ∘ b) = Σ_x w_x a[b[x]] = Σ_v a[v] w_{b⁻¹(v)},
    the row of a times the row of b's weights spread to the places b sends
    them.  The products are taken in float64, which BLAS multiplies, and are
    exact: every term and partial sum is an integer below n^n, and within the
    order cap n ≤ 7 (7! > 4096), so n^n ≤ 7^7 < 2^53 (it holds up to n = 13),
    and float64 holds every such integer exactly in any summation order and
    at any BLAS thread count.  They are composed in blocks of a quarter of
    `_COMPOSE_BLOCK_ELEMENTS` entries, whose float64 product and int64 codes
    stay at about 0.5 MB.

    For n ≠ 6 every automorphism of S_n or A_n is conjugation by an element
    of S_n (J. D. Dixon and B. Mortimer, *Permutation Groups*, 1996), so the
    group carries Φ (see `FiniteGroup`): the identity for S_n, and with it
    x -> τ x τ, τ = (0 1), for A_n with n >= 3.  That row is one gather of
    the permutations' codes; only the row is kept, not the rank array.
    """
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    perms = np.fromiter(flat, dtype=np.int64, count=n * math.factorial(n)).reshape(-1, n)
    if even_only:
        pairs = list(itertools.combinations(range(n), 2))
        i, j = [x for x, _ in pairs], [y for _, y in pairs]
        perms = perms[(perms[:, i] > perms[:, j]).sum(axis=1) % 2 == 0]
    order = len(perms)
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rank = np.zeros(n**n, dtype=np.int32)
    rank[perms @ weights] = np.arange(order, dtype=np.int32)
    spread = np.empty((n, order), dtype=np.float64)  # spread[b[x], b] = w_x
    spread[perms, np.arange(order)[:, None]] = weights
    rows_f = perms.astype(np.float64)
    table = np.empty((order, order), dtype=np.int32)
    rows = max(1, _COMPOSE_BLOCK_ELEMENTS // (4 * order))
    for lo in range(0, order, rows):
        table[lo : lo + rows] = rank[(rows_f[lo : lo + rows] @ spread).astype(np.int64)]
    name = f"alt:{n}" if even_only else f"sym:{n}"
    phi_rows = [np.arange(order, dtype=np.int32)]
    if even_only and n >= 3:
        tau = np.arange(n)
        tau[[0, 1]] = [1, 0]
        phi_rows.append(rank[tau[perms[:, tau]] @ weights])  # (τ x τ)[v] = τ[x[τ[v]]]
    phi = None if n == 6 else lambda: np.stack(phi_rows)
    return FiniteGroup(order, table=table, spec=name, phi=phi)


def _split_outer(spec: str, body: str, after: str) -> tuple[str, str]:
    """Split ``body``, a part of ``spec`` that starts with '(', at the
    parenthesis that closes the first: what is inside, and the rest, which
    must start with ``after`` and is returned without it."""
    if not body.startswith("("):
        raise ValueError(f"malformed spec {spec!r}")
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                if not body.startswith(after, i + 1):
                    raise ValueError(f"malformed spec {spec!r}")
                return body[1:i], body[i + 1 + len(after) :]
    raise ValueError(f"unbalanced parentheses in spec {spec!r}")


def _parameter(spec: str, text: str, low: str) -> int:
    """The integer ``text`` of ``spec``.  Text that is not an integer is a
    usage error that names the spec; so is a value below 1, with the
    message ``low``, formatted with the ``value`` and the ``spec``."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"parameter {text!r} in spec {spec!r} is not an integer") from None
    if value < 1:
        raise ValueError(low.format(value=value, spec=spec))
    return value


def make_group(spec: str) -> FiniteGroup:
    """Build a group from a construction string.

    Grammar: cyc:n | sym:n | alt:n | dih:o | q8 | prod:(s1)x(s2) | pow:(s)^n
    | table:<path>.

    The whole spec is planned first (`_plan_group`), and only then built:
    every order in it, of each factor, power and product, is checked against
    `DEFAULT_ORDER_CAP` before any table is built."""
    return _plan_group(spec)[2]()


def _plan_group(spec: str) -> tuple[int, str, Callable[[], FiniteGroup]]:
    """The order of the group that ``spec`` names, the spec the group
    carries, and a function that builds it; the plan itself builds nothing.

    A node reads its parameters (`_parameter`), plans its inner nodes, and
    refuses its order above the cap (`_capped`, `_capped_product`), in that
    order.  A group carries the stripped text of its spec, except S_n and
    A_n, which `_perm_group` names ``sym:n`` and ``alt:n``; a power too large
    to write out is named by its base's spec, as `power_group` names it.  A
    table node reads its file's order line here and its rows only when it is
    built, and is validated then (`_plan_table`)."""
    spec = spec.strip()
    kind, _, arg = spec.partition(":")
    if kind == "cyc":
        n = _capped(_parameter(spec, arg, "order must be positive in spec {spec!r}"))
        phi = lambda: _unit_rows(n)
        return n, spec, lambda: FiniteGroup(n, table=_cyclic_table(n), spec=spec, phi=phi)
    if kind in ("sym", "alt"):
        n = _parameter(spec, arg, "degree must be positive in spec {spec!r}")
        order = _capped_product(range(3 if kind == "alt" else 2, n + 1), spec)  # n! or n!/2
        return order, f"{kind}:{n}", lambda: _perm_group(n, kind == "alt")
    if kind == "dih":
        o = _parameter(spec, arg, "dihedral parameter must be positive, got {value}")
        build = lambda: FiniteGroup(2 * o, table=_dihedral_table(o), spec=spec)
        return _capped(2 * o), spec, build
    if spec == "q8":
        return 8, spec, lambda: FiniteGroup(8, table=_quaternion_table(), spec=spec)
    if kind == "prod":
        left, rest = _split_outer(spec, arg, "x")
        right, tail = _split_outer(spec, rest, "")
        if tail:
            raise ValueError(f"trailing characters in spec {spec!r}")
        (n1, _, build1), (n2, _, build2) = _plan_group(left), _plan_group(right)
        return _capped(n1 * n2), spec, lambda: direct_product(build1(), build2(), spec)
    if kind == "pow":
        inner, text = _split_outer(spec, arg, "^")
        n = _parameter(spec, text, "power must be >= 1")
        order, name, build = _plan_group(inner)
        if order > 1:
            order = _capped_product(itertools.repeat(order, n), f"pow:({name})^{n}")
        return order, spec, lambda: power_group(build(), n, spec)
    if kind == "table":
        n, parse = _plan_table(arg)

        def build_table() -> FiniteGroup:
            g = FiniteGroup(n, table=parse(), spec=spec)
            g.validate()
            return g

        return n, spec, build_table
    raise ValueError(f"unknown group spec {spec!r}")


# -- Cayley table files -------------------------------------------------------


def read_cayley_table(path: str | Path) -> np.ndarray:
    """Read the table file format: order line, then one row of indices per
    line.  An order above the cap is refused before any row is parsed; the
    rows are parsed in one `np.loadtxt`, which refuses a non-integer entry
    (``#`` included: no comments), an entry beyond int32 and a row of
    another length.  Parsed in int32, the table is the one array kept."""
    return _plan_table(path)[1]()


def _plan_table(path: str | Path) -> tuple[int, Callable[[], np.ndarray]]:
    """The order on a table file's order line, refused above the cap, and a
    function that parses the rows (`read_cayley_table`)."""
    lines = Path(path).read_text().split("\n")
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise ValueError("empty table file")
    try:
        n = int(rows[0])
    except ValueError:
        raise ValueError(f"bad order line {rows[0]!r}") from None
    _capped(n)
    if n < 1 or len(rows) != n + 1:
        raise ValueError(f"expected {n} table rows, found {len(rows) - 1}")

    def parse() -> np.ndarray:
        # a numpy that still reads "1.0" as an integer through a float warns
        # (DeprecationWarning) where a newer one raises: both are refused
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                table = np.loadtxt(rows[1:], dtype=np.int32, comments=None, ndmin=2)
            except (ValueError, OverflowError, DeprecationWarning) as err:
                raise ValueError(f"malformed table rows: {err}") from None
        if table.shape[1] != n:
            raise ValueError(f"rows have {table.shape[1]} entries, expected {n}")
        _require_identity_at_0(table)
        return table

    return n, parse


def _require_identity_at_0(table: np.ndarray) -> None:
    """Refuse a square table with an entry outside 0..n-1, or whose row and
    column 0 are not the identity permutation."""
    n = table.shape[0]
    if table.min() < 0 or table.max() >= n:
        raise ValueError("table entries out of range")
    if (table[0] != np.arange(n)).any() or (table[:, 0] != np.arange(n)).any():
        raise ValueError("row/column 0 must be the identity permutation")


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
    tuples of their entries, so this view sorts rows (`_canonical_rows`)."""
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
    ``is_closed`` takes them as closed and checks any other set.
    ``searches`` keeps the exact scans over the set that `fibers.max_fiber`
    has run or read, keyed by group object and word; a scan another set
    with equal rows already holds, for an equal group table, word and
    closedness, is found by content and kept here too
    (`fibers._search_all_tuples`).  The set's hold is what keeps a scan
    alive.  ``conjugation``, the table of beta alpha beta^-1 over a closed
    set that the orbit scan reads, is built on first use and kept too.
    """

    def __init__(self, group: FiniteGroup, tables: np.ndarray, kind: str):
        self.group = group
        self.tables = _canonical_rows(_as_rows(tables, group.order))
        self.tables.setflags(write=False)
        self.kind = kind
        self.searches: dict = {}
        if not len(self.tables) or (self.tables[0] != np.arange(group.order)).any():
            raise ValueError("an AutSet must contain the identity automorphism")

    def __len__(self) -> int:
        return len(self.tables)

    @cached_property
    def _labels(self):
        """`_column_labels` of the rows, built on the first lookup: a
        member's label is its row number."""
        return _column_labels(self.tables)

    def index(self, rows: np.ndarray) -> np.ndarray:
        """The row number of each given table in A, or -1 where it is not a
        member: each table's label (`_labels`) names the one member that
        could be it, which is then compared with the whole table.  ``rows``
        is one row of |G| entries or an (m, |G|) array.  The label is read
        from the entries mod |G|, so a table with an entry outside
        0..|G|-1, which is no member, gets some label and fails the
        comparison."""
        n = self.group.order
        rows = _as_rows(rows, n)
        cols, label_of = self._labels
        label = label_of(rows[:, cols] % n)
        label[(self.tables[label] != rows).any(axis=1)] = -1
        return label

    def _all_members(self, rows: np.ndarray) -> bool:
        return bool((self.index(rows) >= 0).all())

    @cached_property
    def contains_inner(self) -> bool:
        """Whether every row of Inn(G), which the group keeps, is a member."""
        return self._all_members(_inner_rows(self.group))

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

    @cached_property
    def conjugation(self) -> np.ndarray:
        """(|A|, |A|) int32 table of a closed set, read-only: entry [b, a] is
        the row number of beta alpha beta^-1, for beta row b and alpha row a.

        An automorphism is known by its values on a few elements, the
        columns of `_column_labels`: A is closed, so each product is a
        member, and exactly one member has its values there.  So only those
        values of the products are composed, x -> beta(alpha(beta^-1(x))), a
        block of conjugators beta at a time, and their labels are the row
        numbers (`_labels`)."""
        if not self.is_closed:
            raise ValueError("conjugation is defined on a closed automorphism set only")
        t = self.tables
        m, n = t.shape
        cols, label = self._labels
        inv = np.empty_like(t)
        inv[np.arange(m)[:, None], t] = np.arange(n, dtype=t.dtype)
        out = np.empty((m, m), dtype=np.int32)
        step = max(1, _COMPOSE_BLOCK_ELEMENTS // (m * len(cols)))
        for lo in range(0, m, step):
            beta = t[lo : lo + step]
            k = np.arange(len(beta))[:, None, None]
            # block [k, a, j] = beta_k(alpha_a(beta_k^-1(cols_j)))
            block = beta[k, t[:, inv[lo : lo + step][:, cols]].transpose(1, 0, 2)]
            out[lo : lo + len(beta)] = label(block.reshape(-1, len(cols))).reshape(len(beta), m)
        out.setflags(write=False)
        return out

    def __repr__(self) -> str:
        return f"AutSet(kind={self.kind!r}, size={len(self)}, |G|={self.group.order})"


def _column_labels(rows: np.ndarray):
    """Columns on which the given rows, distinct and in lexicographic order
    (an `AutSet`'s), are pairwise distinct, and a function from values on
    those columns to the number of the one row that has them.

    Each two adjacent rows first differ at some column, and those columns,
    in index order, are the ones taken (column 0 for a single row).  Sorted
    rows r < s first differ at the least such column of the adjacent pairs
    from r to s, so the taken columns tell every two rows apart.  Before a
    taken column c, a row's label is the number of adjacent pairs above it
    that first differ before c: rows share it exactly when they agree on
    every column before c.  Past c it counts the pairs that differ at c as
    well, and past the last column every pair, so it is the row number.  A
    table of (labels before c) * |G| entries maps each (label, value at c)
    to the label past c.  Values that no row has get a label of no meaning,
    -1 or any row number, still in range as an index: callers confirm it."""
    m, n = rows.shape
    first = (rows[1:] != rows[:-1]).argmax(axis=1)
    cols = np.unique(first) if m > 1 else np.zeros(1, dtype=np.int64)
    ranks = []
    for c in cols:
        before = np.zeros(m, dtype=np.int64)
        np.cumsum(first < c, out=before[1:])
        after = np.zeros(m, dtype=np.int32)
        np.cumsum(first <= c, out=after[1:])
        rank = np.full((before[-1] + 1) * n, -1, dtype=np.int32)
        rank[before * n + rows[:, c]] = after
        ranks.append(rank)

    def label_of(values: np.ndarray) -> np.ndarray:
        found = np.zeros(len(values), dtype=np.int64)
        for j, rank in enumerate(ranks):
            found[:] = rank[found * n + values[:, j]]
        return found

    return cols, label_of


def identity_autset(g: FiniteGroup) -> AutSet:
    return AutSet(g, np.arange(g.order, dtype=np.int32), kind="identity-only")


def _inner_rows(g: FiniteGroup) -> np.ndarray:
    """The rows conj(x): y -> x y x^-1, one per coset of the center Z(G), in
    the order of their least coset members x; read-only and kept on ``g``.
    Every conjugation in this module reads them, by row number where it
    keeps rows; `inner_automorphisms` sorts them only when Inn(G) is asked
    for as a set.

    Conjugation by xz equals conjugation by x for central z, so the row of
    the least member x of each coset xZ gives every inner automorphism once;
    an abelian group gets the identity row alone.  x is least in xZ when no
    x z is smaller; as z x = x z, rows z of the table hold the coset members,
    read a block of rows at a time."""

    def build() -> np.ndarray:
        t, inv = g.table, g.inv_table
        center = np.asarray(g.center, dtype=np.int64)
        least = np.arange(g.order)
        step = max(1, _COMPOSE_BLOCK_ELEMENTS // g.order)
        for lo in range(0, len(center), step):
            np.minimum(least, t[center[lo : lo + step]].min(axis=0), out=least)
        reps = np.flatnonzero(least == np.arange(g.order))
        rows = t[t[reps], inv[reps, None]]
        rows.setflags(write=False)
        return rows

    return _derived(g, ("inn-rows",), build)


def inner_automorphisms(g: FiniteGroup) -> AutSet:
    """Inn(G) as an `AutSet`: the rows of `_inner_rows`, sorted.  Kept on
    ``g``, as Aut(G) is."""
    return _derived(g, ("inn",), lambda: AutSet(g, _inner_rows(g), kind="inner"))


def _span_mask(
    table: np.ndarray, gens: Sequence[int], start: Optional[np.ndarray] = None
) -> np.ndarray:
    """Membership mask of the subgroup generated by gens (always holding 0).

    Right-multiplying by gens breadth-first from the identity reaches 0 and
    the left-normed products ((g1 g2) ...) gk of gens, in any table; each
    level is one table gather.  In a finite group every element of <gens> is
    a positive word in gens, so that reach is all of <gens>.  A `start`
    mask, holding 0 and only such products, is the first level: the walk
    from it reaches the same set, since 0 is in it, and in fewer levels when
    it holds long products, such as powers of gens.  With many seeds one
    gather per level beats the n·k Python steps of `_cayley_walk`, which
    serves the few generators of a search."""
    if start is None:
        start = np.zeros(table.shape[0], dtype=bool)
        start[0] = True
    mask = start.copy()
    cols = np.unique(np.asarray(gens, dtype=np.int64))
    frontier = np.flatnonzero(mask) if cols.size else np.zeros(0, dtype=np.int64)
    while frontier.size:
        fresh = np.zeros_like(mask)
        fresh[table[frontier[:, None], cols]] = True
        fresh &= ~mask
        mask |= fresh
        frontier = np.flatnonzero(fresh)
    return mask


def _closure(table: np.ndarray, seeds: Iterable[int]) -> tuple[int, ...]:
    """Subgroup generated by the seed elements (always contains 0)."""
    return tuple(np.flatnonzero(_span_mask(table, [int(s) for s in seeds])).tolist())


def _products(table: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> Iterator[np.ndarray]:
    """The products x y, x in ``xs`` and y in ``ys``, in blocks of rows x,
    each at most `_COMPOSE_BLOCK_ELEMENTS` entries, or one row x when ``ys``
    alone is larger."""
    step = max(1, _COMPOSE_BLOCK_ELEMENTS // len(ys))
    for lo in range(0, len(xs), step):
        yield table[xs[lo : lo + step, None], ys]


def _product_mask(table: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Membership mask of the product set XY."""
    mask = np.zeros(table.shape[0], dtype=bool)
    for block in _products(table, xs, ys):
        mask[block] = True
    return mask


def _join(table: np.ndarray, h: Sequence[int], a: Sequence[int]) -> tuple[int, ...]:
    """<H, A> of the subgroups H and A, given by their elements, as an
    ascending tuple, computed as a product of sets.

    If AH ⊆ HA, then <H, A> = HA: HA·HA = H(AH)A ⊆ H(HA)A = HA, so HA is
    closed under products, and a nonempty finite subset of a group closed
    under products is a subgroup; it holds H and A, as both hold 1, and
    lies in <H, A>.  Otherwise S is squared, S <- S·S, starting from
    S = HA: every S lies in <H, A> and holds 1, so S ⊆ S·S, and the S grow
    until S·S = S, which is then a subgroup holding H and A, so <H, A>.
    The k-th square holds every product of 2^k elements of H ∪ A, so it
    takes at most ⌈log2 |<H, A>|⌉ + 1 squarings.  The squaring stops early
    when only G fits: by Lagrange |<H, A>| divides |G| and is a multiple of
    lcm(|H|, |A|), and it is at least |S|; when no proper divisor of |G|
    is such a multiple and at least |S|, <H, A> = G.

    Each product set is gathered in blocks (`_products`), and AH ⊆ HA is
    read a block at a time, so no |X|×|Y| array is built."""
    n = table.shape[0]
    hs, as_ = np.asarray(h, dtype=np.int64), np.asarray(a, dtype=np.int64)
    mask = _product_mask(table, hs, as_)
    if all(mask[block].all() for block in _products(table, as_, hs)):
        return tuple(np.flatnonzero(mask).tolist())
    step = math.lcm(len(hs), len(as_))
    while True:
        elems = np.flatnonzero(mask)
        if not any(n % d == 0 for d in range(-(-len(elems) // step) * step, n, step)):
            return tuple(range(n))
        mask = _product_mask(table, elems, elems)
        if mask.sum() == len(elems):
            return tuple(elems.tolist())


def _bucket_keys(g: FiniteGroup) -> np.ndarray:
    """(element order, class size) of each element as one int64: an
    isomorphism maps each element into the bucket of elements sharing its key."""
    return g.element_orders * (g.order + 1) + g.class_size_of


@dataclass
class CayleyWalk:
    """A breadth-first walk of the right Cayley graph of <generators> from
    the identity, as plain lists in reach order.

    ``reached[0]`` is the identity; every later ``reached[i]`` is
    ``parents[i] * generators[positions[i]]``, first reached at depth
    ``depths[i] = depths of its parent + 1``.  Depths never fall along the
    lists, so each run of one depth is a BFS level.  The walk visits the
    parents in reach order and each parent's generator columns in order, and
    the first edge that reaches an element is its tree edge, so the tree is
    fixed by the table and the generators.  The identity's own entries are
    ``parents[0] = positions[0] = -1`` and ``depths[0] = 0``."""

    generators: list[int]
    reached: list[int]
    parents: list[int]
    positions: list[int]
    depths: list[int]


def _cayley_walk(table: np.ndarray, gens: Sequence[int]) -> CayleyWalk:
    """The `CayleyWalk` of ``gens``: one Python step per edge, n·k in all,
    over the generator columns as lists.  It reaches exactly <gens>, as
    `_span_mask` does."""
    cols = table[:, list(gens)].T.tolist()
    seen = bytearray(table.shape[0])
    seen[0] = 1
    walk = CayleyWalk(list(gens), [0], [-1], [-1], [0])
    reached, parents, positions, depths = walk.reached, walk.parents, walk.positions, walk.depths
    # the loop reads the elements appended while it runs: a list iterator
    # checks the length at every step
    for i, x in enumerate(reached):
        depth = depths[i] + 1
        for j, col in enumerate(cols):
            y = col[x]
            if not seen[y]:
                seen[y] = 1
                reached.append(y)
                parents.append(x)
                positions.append(j)
                depths.append(depth)
    return walk


def choose_generators(g: FiniteGroup) -> CayleyWalk:
    """A small generating set, chosen deterministically, and its Cayley walk.

    The first generator is the element of largest order (then smallest
    bucket, then least index).  Each later step scans the elements outside
    the current subgroup by (smallest bucket, largest order, least index) and
    takes the first whose addition gives G, or else the one that enlarges the
    subgroup most; each candidate's subgroup is the reach of its walk.  The
    choice stops with `CapExceeded` as soon as no further choice can keep
    the search work of `plan_hom_search` within `HOM_WORK_CAP`.

    The scan stops at the first candidate c whose bucket alone would push
    the work, ``candidates * |bucket(c)| * |G| * (k + 1)`` for k generators
    so far, past the cap: buckets grow along the scan, so every later
    candidate would too, and none is walked.  A choice that the cap lets
    through is unchanged by the stop.  Its pick lies in the scanned prefix,
    or the cap would refuse it, and it is the first in scan order that gives
    G, or else the first largest subgroup, in the prefix as in the whole
    scan."""
    n = g.order
    table, orders = g.table, g.element_orders
    _, where, counts = np.unique(_bucket_keys(g), return_inverse=True, return_counts=True)
    sizes = counts[where.ravel()]
    idx = np.arange(n)
    scan = np.lexsort((idx, -orders, sizes))
    candidates = 1
    walk = _cayley_walk(table, [])
    while len(walk.reached) < n:
        span = np.zeros(n, dtype=bool)
        span[walk.reached] = True
        gens = walk.generators
        _check_work(candidates * int(sizes[~span].min()), n, len(gens) + 1)
        if not gens:
            walk = _cayley_walk(table, [int(np.lexsort((idx, sizes, -orders))[0])])
        else:
            best = None
            for c in scan[~span[scan]].tolist():
                if candidates * int(sizes[c]) * n * (len(gens) + 1) > HOM_WORK_CAP:
                    break
                grown = _cayley_walk(table, gens + [c])
                if best is None or len(grown.reached) > len(best.reached):
                    best = grown
                    if len(grown.reached) == n:
                        break
            walk = best
        candidates *= int(sizes[walk.generators[-1]])
        _check_work(candidates, n, len(walk.generators))
    return walk


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

    ``walk`` is the `CayleyWalk` of src's chosen ``generators``, and
    ``buckets[j]`` holds the dst elements that may image ``generators[j]``.
    Their product, ``candidates`` tuples, bounds the search: the cap reads
    ``candidates * |src| * len(generators)`` table steps.  The search tests
    ``tried`` rows, fewer: ``heads`` holds the images of the first two
    generators up to conjugation in dst (see `plan_hom_search`), and each
    later generator runs over its whole bucket."""

    src: FiniteGroup
    dst: FiniteGroup
    walk: CayleyWalk
    buckets: list[np.ndarray]
    heads: np.ndarray

    @property
    def generators(self) -> list[int]:
        return self.walk.generators

    @property
    def candidates(self) -> int:
        return math.prod(len(b) for b in self.buckets)

    @property
    def tried(self) -> int:
        return len(self.heads) * math.prod(len(b) for b in self.buckets[2:])


def plan_hom_search(src: FiniteGroup, dst: FiniteGroup) -> HomSearch:
    """Choose src's generators and their candidate images in dst; refuse
    (`CapExceeded`) when the work of the whole bucket product would exceed
    `HOM_WORK_CAP`.

    The work bound uses src's own bucket sizes, which equal dst's when the two
    groups have the same (order, class size) profile, as `is_isomorphic`
    checks first; otherwise some bucket may only shrink.

    The first two generators' images are kept only up to conjugation in dst.
    The first image r runs over one representative of each conjugacy class
    in its bucket (the least member), and for each r the second image runs
    over the least member of each orbit of C_dst(r), acting by conjugation
    on its bucket.  Every isomorphism ψ has an inner automorphism c of dst
    with c∘ψ among those rows: conjugating by some x takes ψ(g_1) to its
    class's least member r, then conjugating by some y in C_dst(r), which
    keeps r, takes x ψ(g_2) x⁻¹ to its orbit's least member, and c∘ψ is an
    isomorphism again, with both images in the buckets.  So some row gives
    an isomorphism whenever one exists, and the rows give a set Φ of
    isomorphisms with every isomorphism in Inn(dst)·Φ."""
    walk = choose_generators(src)
    src_keys, dst_keys = _bucket_keys(src), _bucket_keys(dst)
    buckets = [np.flatnonzero(dst_keys == src_keys[s]).astype(np.int32) for s in walk.generators]
    return HomSearch(src, dst, walk, buckets, _head_images(dst, buckets))


def _head_images(dst: FiniteGroup, buckets: list[np.ndarray]) -> np.ndarray:
    """The rows of images (r, s) of the first two generators that
    `plan_hom_search` keeps: r least in its conjugacy class, s least in its
    C_dst(r)-orbit; one column with one generator, one empty row with none.

    C_dst(r) acts through its image in Inn(dst), the rows of `_inner_rows`
    that fix r: x commutes with r exactly when conjugation by x fixes r."""
    if not buckets:
        return np.zeros((1, 0), dtype=np.int32)
    first = buckets[0][dst.class_minima[buckets[0]] == buckets[0]]
    if len(buckets) == 1:
        return first[:, None]
    inn, second = _inner_rows(dst), buckets[1]
    rows = [np.zeros((0, 2), dtype=np.int32)]
    # an empty second bucket, which only groups of different profiles give,
    # leaves no row
    for r in first.tolist() if len(second) else []:
        centralizer = np.flatnonzero(inn[:, r] == r)
        least = second[_orbit_minima(dst, centralizer, second) == second]
        rows.append(np.column_stack([np.full(len(least), r, dtype=np.int32), least]))
    return np.concatenate(rows)


def _spanning_program(
    table: np.ndarray, walk: CayleyWalk
) -> tuple[list[tuple[np.ndarray, np.ndarray, np.ndarray]], tuple[np.ndarray, ...]]:
    """The walk's spanning tree cut into its BFS levels, and the non-tree
    edges of the right Cayley graph.

    Each level is one run of equal depth of the walk, (elements x, parents p,
    generator positions j) with x = p * gens[j]; each non-tree edge is
    (x, j, x * gens[j])."""
    n, k = table.shape[0], len(walk.generators)
    reached, parents, positions = (
        np.array(a, dtype=np.int64) for a in (walk.reached, walk.parents, walk.positions)
    )
    # where each depth starts, and the end; depth 0 is the identity alone
    cuts = [bisect.bisect_left(walk.depths, d) for d in range(1, walk.depths[-1] + 2)]
    levels = [
        (reached[lo:hi], parents[lo:hi], positions[lo:hi]) for lo, hi in zip(cuts, cuts[1:])
    ]
    tree = np.zeros((n, k), dtype=bool)
    tree[parents[1:], positions[1:]] = True
    xs, js = np.nonzero(~tree)
    return levels, (xs, js, table[xs, np.asarray(walk.generators, dtype=np.int64)[js]])


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
    holds too and only the identity maps to the identity.  Together the two
    kinds of edge are every edge of the Cayley graph, so any spanning tree
    keeps the same rows; the tree of `_cayley_walk` is deterministic: within
    one BFS level, an element's tree edge comes from its first parent in
    reach order, and from that parent's first generator column that reaches
    it."""
    r, n = images.shape[0], table_dst.shape[0]
    phi = np.zeros((r, n), dtype=np.int32)
    for elems, parents, js in levels:
        phi[:, elems] = table_dst[phi[:, parents], images[:, js]]
    xs, js, ys = edges
    ok = (phi[:, ys] == table_dst[phi[:, xs], images[:, js]]).all(axis=1)
    ok &= (phi[:, 1:] != 0).all(axis=1)
    return phi[ok]


def _search_homs(search: HomSearch, *, find_all: bool, max_results: int) -> np.ndarray:
    """The bijective homomorphisms src -> dst among the rows the search
    tries, stacked one per row (the first one only without ``find_all``).

    The rows are walked in blocks, a bounded number at a time, in mixed-radix
    order: the head row most significant, then each later generator's image.

    Why the rows kept are exactly the isomorphisms with those generator
    images: every element of the finite group src is a positive word in the
    generators, so a map that satisfies φ(x * s_j) = φ(x) * φ(s_j) for every
    x and every generator s_j satisfies φ(x * y) = φ(x) * φ(y) for all y, by
    induction on the length of a word for y; with trivial kernel and
    |src| = |dst| it is a bijection.  An isomorphism is fixed by its
    generator images, which keep their order and class size and so lie in
    the buckets; `plan_hom_search` says why the head rows miss none up to an
    inner automorphism.

    The program is the search's own `CayleyWalk`, the one that chose the
    generators, cut into its BFS levels (`_spanning_program`): the graph is
    walked once per search.  Which spanning tree the walk takes does not
    change the rows kept (`_hom_rows`), and the tree is deterministic."""
    src, dst = search.src, search.dst
    k = len(search.generators)
    levels, edges = _spanning_program(src.table, search.walk)
    heads, tails = search.heads, search.buckets[2:]
    total = search.tried
    rows = max(1, _HOM_BLOCK_ELEMENTS // (src.order * max(1, k)))
    found: list[np.ndarray] = []
    count = 0
    for lo in range(0, total, rows):
        idx = np.arange(lo, min(lo + rows, total), dtype=np.int64)
        images = np.empty((idx.size, k), dtype=np.int32)
        for j in reversed(range(len(tails))):
            images[:, 2 + j] = tails[j][idx % len(tails[j])]
            idx //= len(tails[j])
        images[:, : heads.shape[1]] = heads[idx]
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


def _compose_after(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Every composite c ∘ φ = c[φ] of a row c of ``inner`` and a row φ of
    ``outer``, inner-major: one gather ``inner[block][:, outer]`` per block
    of inner rows, each block at most `_COMPOSE_BLOCK_ELEMENTS` entries, or
    one inner row when ``outer`` alone is larger."""
    m, k, n = len(inner), len(outer), inner.shape[1]
    out = np.empty((m, k, n), dtype=np.int32)
    step = max(1, _COMPOSE_BLOCK_ELEMENTS // (k * n))
    for lo in range(0, m, step):
        out[lo : lo + step] = inner[lo : lo + step][:, outer]
    return out.reshape(m * k, n)


def _phi_rows(g: FiniteGroup) -> tuple[np.ndarray, Optional[HomSearch]]:
    """Rows Φ of automorphisms with Aut(G) = Inn(G)·Φ, and the `HomSearch`
    that found them; kept on ``g``.  The search is refused before any test
    runs when its work exceeds `HOM_WORK_CAP`, and stops when Φ exceeds
    `AUTSET_SIZE_CAP` rows.  Every automorphism is c∘φ with c inner and φ
    in Φ (`plan_hom_search`).

    A group whose builder knows Φ carries it (`FiniteGroup`), and no search
    runs, so `HOM_WORK_CAP` does not apply and the search is None.  These
    are C_n, whose automorphisms are x -> u x for the units u mod n, and S_n
    and A_n for n ≠ 6, whose automorphisms are all conjugations by elements
    of S_n (J. D. Dixon and B. Mortimer, *Permutation Groups*, 1996)."""

    def build() -> tuple[np.ndarray, Optional[HomSearch]]:
        if g._phi is not None:
            return g._phi(), None
        search = plan_hom_search(g, g)
        return _search_homs(search, find_all=True, max_results=AUTSET_SIZE_CAP), search

    return _derived(g, ("phi",), build)


def automorphism_group(g: FiniteGroup) -> AutSet:
    """The full automorphism group as the composites of Inn(G) and Φ
    (`_phi_rows`), refused before any composite is built when |Inn|·|Φ|
    exceeds `AUTSET_SIZE_CAP`.  Only a request that reads the rows builds
    it: the structure flags read Inn(G) and Φ.

    With two generators Φ meets each coset Inn(G)·ψ exactly once, so
    |Aut| = |Inn|·|Φ|: if φ' = c_z∘φ with φ, φ' in Φ, then z conjugates
    r = φ(g_1) to φ'(g_1), the least member of the same class, so
    φ'(g_1) = r and z lies in C_G(r); then z conjugates φ(g_2) to φ'(g_2),
    both least in one C_G(r)-orbit, so they are equal, and φ' = φ, as an
    automorphism is fixed by its generator images.  With more generators the
    later images are not reduced, so Φ may meet a coset more than once;
    `AutSet` drops the repeated composites, and |Inn|·|Φ| is an upper bound
    for the cap.  The set found does not depend on the generators or
    representatives chosen, nor on whether Φ is searched or carried, and
    `AutSet` sorts it canonically, so any deterministic choice gives
    byte-identical output.  Kept on ``g``, so repeated calls share one
    `AutSet` and its cached lookups."""

    def build() -> AutSet:
        outer, _ = _phi_rows(g)
        inner = _inner_rows(g)
        if len(inner) * len(outer) > AUTSET_SIZE_CAP:
            raise CapExceeded(f"automorphism enumeration exceeds cap {AUTSET_SIZE_CAP}")
        # with Inn(G) trivial the composites are Φ itself, and the group
        # keeps Φ once, as the sorted table
        aut = AutSet(g, outer if len(inner) == 1 else _compose_after(inner, outer), kind="full")
        if len(inner) == 1:
            g._derived[("phi",)] = (aut.tables, _phi_rows(g)[1])
        return aut

    return _derived(g, ("aut",), build)


def is_isomorphic(g: FiniteGroup, h: FiniteGroup) -> tuple[bool, Optional[np.ndarray]]:
    """Isomorphism test with a witness map on success.  The search tries the
    first two generator images up to conjugation in h (`plan_hom_search`),
    which keeps some isomorphism whenever one exists.

    No request calls it: the series reads its factors' simple groups off
    their class closures (`characteristic_series`).  It is the tests' oracle
    for those factors, and the check for isomorphisms between constructions
    such as PSL(2,5) and A_5."""
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
    """A subgroup given by its sorted element indices.  Its structure flags
    are computed from ``group`` on first read; a builder that already knows
    a flag assigns it instead.  Its sections, and the automorphism sets
    induced on them (`induced_autset`, `restricted_autset`), are kept on
    it."""

    group: FiniteGroup
    elements: tuple[int, ...]
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def normal(self) -> bool:
        """Whether every conjugate x H x^-1 lies in H, read against the rows
        of Inn(G), which the group keeps: conjugation by xz equals
        conjugation by x for central z, so one row per coset of Z(G) is
        every conjugation."""
        return self._invariant(_inner_rows(self.group))

    @cached_property
    def characteristic(self) -> bool:
        """Whether every automorphism of the group maps H onto itself.

        Aut(G) = Inn(G)·Φ (`_phi_rows`), so every automorphism is c∘φ with
        c inner and φ in Φ, and H is characteristic exactly when it is
        normal and Φ-invariant: then c(φ(H)) = c(H) = H, and both Inn(G) and
        Φ lie in Aut(G).  No table of Aut(G) is built, so only the caps on
        Φ's search refuse."""
        phi, _ = _phi_rows(self.group)
        return self.normal and self._invariant(phi)

    def _invariant(self, rows: np.ndarray) -> bool:
        """Whether every automorphism row maps H into H."""
        members = _members(self.group, self.elements)
        return all(members[c].all() for _, c in _row_images(rows, self.elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def element_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    @cached_property
    def as_group(self) -> "Section":
        """The subgroup as the section H/1 (`section`), built on first use."""
        return section(self.group, self.elements, (0,))

    @cached_property
    def as_quotient(self) -> "Section":
        """The quotient G/H by this normal subgroup (`section`), built on
        first use."""
        if not self.normal:
            raise ValueError("subgroup is not normal; quotient undefined")
        return section(self.group, range(self.group.order), self.elements)


def subgroup_handle(g: FiniteGroup, elements: Iterable[int]) -> SubgroupHandle:
    """Validate a set of indices as a subgroup."""
    elems = tuple(sorted(set(int(x) for x in elements)))
    bad = [x for x in elems if not 0 <= x < g.order]
    if bad:
        raise ValueError(f"element index {bad[0]} out of range 0..{g.order - 1}")
    if _closure(g.table, elems) != elems:
        raise ValueError("element set is not closed under the group operation")
    return SubgroupHandle(g, elems)


def _members(g: FiniteGroup, elems: Iterable[int]) -> np.ndarray:
    mask = np.zeros(g.order, dtype=bool)
    mask[list(elems)] = True
    return mask


def _row_images(
    rows: np.ndarray, elems: Sequence[int], which: Optional[np.ndarray] = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks ``(i, c)`` of images, ``c[k, j] = rows[i[k], elems[j]]``, over
    consecutive runs ``i`` of the row numbers ``which`` (every row by
    default).  A block holds at most `_COMPOSE_BLOCK_ELEMENTS` entries, so
    no |rows|×|G| array is built."""
    cols = np.asarray(elems, dtype=np.int64)
    which = np.arange(len(rows)) if which is None else which
    step = max(1, _COMPOSE_BLOCK_ELEMENTS // len(cols))
    for lo in range(0, len(which), step):
        i = which[lo : lo + step]
        yield i, rows[i[:, None], cols]


def _conjugacy_class(
    g: FiniteGroup, elems: tuple[int, ...]
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The conjugates of the subgroup ``elems``, ``elems`` first and each an
    ascending tuple, and the numbers of the rows of `_inner_rows` that fix
    it, the image N_G(elems)/Z(G) of its normalizer, as an ascending array.
    A conjugate is ``elems`` itself exactly when it lies inside it, as both
    have |elems| members; only the others are sorted."""
    members = _members(g, elems)
    normalizer, others = [], set()
    for i, c in _row_images(_inner_rows(g), elems):
        inside = members[c].all(axis=1)
        normalizer.append(i[inside])
        others.update(map(tuple, np.sort(c[~inside], axis=1).tolist()))
    return [elems, *others], np.concatenate(normalizer)


def _orbit_minima(
    g: FiniteGroup, rows: np.ndarray, elems: Optional[np.ndarray] = None
) -> np.ndarray:
    """The least image of e under the rows of `_inner_rows` numbered
    ``rows``, per element e of ``elems`` (all of G by default).  When the
    rows are the image in Inn(G) of a subgroup X, equal labels mark the
    orbits of X acting on G by conjugation: x and xz conjugate alike for
    central z, so the orbits of X are the orbits of its image.  For every
    row these are the conjugacy classes, which the group keeps."""
    elems = np.arange(g.order) if elems is None else np.asarray(elems, dtype=np.int64)
    inn = _inner_rows(g)
    if len(rows) == len(inn):
        return g.class_minima[elems]
    label = elems.copy()
    for _, c in _row_images(inn, elems, rows):
        np.minimum(label, c.min(axis=0), out=label)
    return label


def _lattice(g: FiniteGroup, atoms: Iterable[tuple[int, ...]]) -> list[SubgroupHandle]:
    """Every join of the atom subgroups (the trivial group included), flagged
    normal and sorted by (order, elements).

    The atoms must hold, for each element e ≠ 1, the least subgroup of the
    walked kind that contains e: <e>, or its normal closure.  So the atom of
    e is the least atom containing e, and a join holds e exactly when it
    holds e's atom.

    The walk goes one conjugacy class at a time.  It keeps a representative
    H per class found, joins H only with one atom per N_G(H)-orbit of the
    atoms H does not contain, and adds each new join's whole class at once.
    N_G(H) is kept as the numbers of its rows in `_inner_rows`
    (`_conjugacy_class`), whose orbits are its own (`_orbit_minima`).  Each
    join is a product of subgroups (`_join`).
    Why that finds every join: conjugation permutes the subgroups and the
    atoms (x<e>x^-1 = <x e x^-1>, likewise for normal closures), and for x in
    N_G(H), <H, x A x^-1> = x <H, A> x^-1, a conjugate of <H, A>.  By
    induction on the number of atoms in a join J = <J', A> with J' a join of
    fewer atoms and A not in J': some y J' y^-1 is a representative R, which
    does not contain y A y^-1.  The walk joins R with some x y A y^-1 x^-1,
    x in N_G(R), and gets x y J y^-1 x^-1.  That join is either new, and its
    class is added, or was found with its whole class; either way J is
    found.

    Atoms A and B lie in one N_G(H)-orbit exactly when some element whose
    atom is A is N_G(H)-conjugate to one whose atom is B; so each atom is
    keyed by the least orbit label (`_orbit_minima`) of its elements, and the
    key element's own atom represents the orbit.  A subgroup is normal
    exactly when its class has one member."""
    n = g.order
    atoms = sorted(set(atoms), key=lambda a: (len(a), a))
    atom_of = np.empty(n, dtype=np.int64)
    for i in reversed(range(len(atoms))):  # the least atom containing e wins
        atom_of[list(atoms[i])] = i
    class_size = {(0,): 1}
    worklist = [((0,), np.arange(len(_inner_rows(g))))]
    while worklist:
        h, normalizer = worklist.pop()
        outside = np.flatnonzero(~_members(g, h))
        ids, labels = atom_of[outside], _orbit_minima(g, normalizer)[outside]
        key = np.full(len(atoms), n)
        np.minimum.at(key, ids, labels)
        for e in np.unique(key[ids]).tolist():
            join = _join(g.table, h, atoms[atom_of[e]])
            if join not in class_size:
                conjugates, join_normalizer = _conjugacy_class(g, join)
                class_size.update(dict.fromkeys(conjugates, len(conjugates)))
                worklist.append((join, join_normalizer))
    handles = [SubgroupHandle(g, e) for e in sorted(class_size, key=lambda e: (len(e), e))]
    for h in handles:
        h.normal = class_size[h.elements] == 1
    return handles


def _power_mask(g: FiniteGroup) -> np.ndarray:
    """(|G|, |G|) mask whose row x is the cyclic subgroup <x>, from one walk
    over the powers of every element at once: row x marks x, x^2, ... and
    stops once it has marked the identity, x^k for k the order of x, so
    the walk costs the sum of the element orders."""
    n = g.order
    mask = np.zeros((n, n), dtype=bool)
    live = power = np.arange(n)
    while live.size:
        mask[live, power] = True
        going = power != 0
        live = live[going]
        power = g.table[power[going], live]
    return mask


def _cyclic_subgroups(g: FiniteGroup) -> set[tuple[int, ...]]:
    """The subgroups <x>, x ≠ 1: the distinct rows of `_power_mask`, found
    by their bytes, each turned into a tuple once."""
    rows = {row.tobytes(): row for row in _power_mask(g)[1:]}
    return {tuple(np.flatnonzero(row).tolist()) for row in rows.values()}


def subgroups(g: FiniteGroup) -> list[SubgroupHandle]:
    """All subgroups, each flagged normal.

    The atoms are the cyclic subgroups <x>: every subgroup H is the join of
    <h> over its elements h.  Φ, which the characteristic flags read, is
    found first, so its search's caps refuse before the lattice is walked."""
    if g.order > SUBGROUP_ORDER_CAP:
        raise CapExceeded(f"subgroup enumeration capped at order {SUBGROUP_ORDER_CAP}")
    _phi_rows(g)
    return _lattice(g, _cyclic_subgroups(g))


def normal_subgroups(g: FiniteGroup) -> list[SubgroupHandle]:
    """All normal subgroups, flagged as in `subgroups`.

    The atoms are the class closures: a normal subgroup N is the join of the
    normal closures of the classes it contains, and a join of normal subgroups
    is normal, so the joins are exactly the normal subgroups.  Φ is found
    first, so its search's caps refuse before the class closures are built.

    The lattice is kept on ``g``: each call returns a new list over the same
    handles, which keep their own cached flags and sections."""
    _phi_rows(g)
    return list(_derived(g, ("normal",), lambda: _lattice(g, _class_closures(g))))


@dataclass
class Section:
    """A section U/L of a group G, L normal in U: ``group`` is U/L on the
    cosets Lx, x in U, numbered in ascending order of their least members
    ``reps``, and ``projection[x]`` is the number of Lx for x in U, -1
    outside U.  A subgroup H is the section H/1, numbered by its ascending
    elements; a quotient is G/N; a series factor is U/L of consecutive
    terms."""

    group: FiniteGroup
    projection: np.ndarray
    reps: tuple[int, ...]


def section(g: FiniteGroup, upper: Sequence[int], lower: Sequence[int]) -> Section:
    """The section U/L of ``g`` for subgroups U = ``upper`` and L = ``lower``,
    each given by its ascending elements, L normal in U.  It is read from
    g's table, so no table of U is built: the walk over U in ascending order
    meets each coset Lx first at its least member x.  With L = 1 each x is
    its own coset, numbered at once.  A section of an abelian group is
    abelian, and is flagged so without a compare of its table."""
    projection = np.full(g.order, -1, dtype=np.int32)
    if len(lower) == 1:
        reps = tuple(upper)
        projection[list(reps)] = np.arange(len(reps))
    else:
        cols, found = np.asarray(lower, dtype=np.int64), []
        for x in upper:
            if projection[x] < 0:
                projection[g.table[cols, x]] = len(found)
                found.append(x)
        reps = tuple(found)
    projection.setflags(write=False)
    table = projection[g.table[np.ix_(reps, reps)]]
    if (table < 0).any():
        raise ValueError("element set is not closed under the group operation")
    spec = g.spec if len(upper) == g.order else f"<order {len(upper)} in {g.spec}>"
    if len(lower) > 1:
        spec = f"({spec})/<order {len(lower)}>"
    h = FiniteGroup(len(reps), table=table, spec=spec)
    if g.is_abelian:
        h.is_abelian = True
    return Section(h, projection, reps)


def _require_characteristic(n: SubgroupHandle) -> None:
    if not n.characteristic:
        raise ValueError("subgroup is not characteristic")


def _section_autset(s: Section, a: AutSet) -> AutSet:
    """The maps the members of A induce on the section ``s``: row i sends
    coset j to the coset of alpha_i(reps[j]).  A row that leaves U is
    refused."""
    rows = s.projection[a.tables[:, list(s.reps)]]
    if (rows < 0).any():
        raise ValueError("an automorphism does not stabilize the subgroup")
    return AutSet(s.group, rows, kind="custom")


def induced_autset(n: SubgroupHandle, a: AutSet) -> AutSet:
    """Automorphisms of G/N induced by members of A, for G = ``n.group``;
    kept on the handle per source set, with the scans kept on them."""
    _require_characteristic(n)
    return _derived(n, ("induced", a), lambda: _section_autset(n.as_quotient, a))


def restricted_autset(n: SubgroupHandle, a: AutSet) -> AutSet:
    """Restrictions of members of A to N, numbered as N/1 (`section`); kept
    on the handle per source set, with the scans kept on them."""
    _require_characteristic(n)
    return _derived(n, ("restricted", a), lambda: _section_autset(n.as_group, a))


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


def characteristic_series(g: FiniteGroup) -> CharSeries:
    """A maximal chain of characteristic subgroups with decomposed factors.

    The candidates come from `normal_subgroups`: every characteristic subgroup
    is normal, so the joins of the class closures reach all of them.  The
    chain is made deterministic by always taking the lexicographically
    smallest eligible next subgroup; only the factor multiset is meaningful.
    Each lower term is normal in G, hence in the upper term, and each factor
    is read from G's table (`section`), so no table of a term is built.

    Each factor F = U/L of consecutive terms L < U is characteristically
    simple.  Say L < M < U with M/L characteristic in U/L.  Every α in
    Aut(G) fixes U and L, so α induces an automorphism of U/L, which fixes
    M/L; so α fixes M, and M is characteristic in G, which contradicts the
    chain's maximality.  So F ≅ S^n for a simple group S (D. J. S. Robinson,
    *A Course in the Theory of Groups*, §3.3), and S is read off F with no
    isomorphism test: the least normal closure of a non-identity class of F
    (`_class_closures`) is one coordinate copy of S.  For nonabelian S the
    normal closure of x is the product of the copies where x has a
    non-identity coordinate, since the normal closure of a non-identity
    element of a simple group is the group; for abelian S = C_p it is <x>,
    of order p.  Then n is read from |F| = |S|^n."""
    char_subs = [s for s in normal_subgroups(g) if s.characteristic]
    chain = [char_subs[0]]
    while chain[-1].order < g.order:
        cur = chain[-1].element_set
        above = [s for s in char_subs if cur < s.element_set]
        minimal = [s for s in above if not any(t.element_set < s.element_set for t in above)]
        chain.append(min(minimal, key=lambda s: s.elements))
    factors = []
    for lower, upper in zip(chain, chain[1:]):
        f = section(g, upper.elements, lower.elements).group
        simple = section(f, _class_closures(f)[0], (0,)).group
        copies, rest = 0, f.order
        while rest > 1:
            rest //= simple.order
            copies += 1
        factors.append(FactorDecomposition(factor=f, simple=simple, copies=copies))
    return CharSeries(group=g, chain=chain, factors=factors)


def _class_closures(g: FiniteGroup) -> list[tuple[int, ...]]:
    """The normal closures of the non-identity conjugacy classes, without
    repeats, sorted by (order, elements).  Closing a class under products
    suffices because the generating set is conjugation-stable.  Each class's
    walk starts from the union of its elements' cyclic subgroups, rows of
    one `_power_mask`, all inside the closure, so an element of order k
    costs no k levels of the walk.  In an abelian group each class {x}
    closes to <x>, already a row of the mask, so no walk runs."""
    if g.is_abelian:
        closures = _cyclic_subgroups(g)
    else:
        powers = _power_mask(g)
        closures = {
            tuple(np.flatnonzero(_span_mask(g.table, cls, powers[list(cls)].any(axis=0))).tolist())
            for cls in g.conjugacy_classes
            if cls != (0,)
        }
    return sorted(closures, key=lambda c: (len(c), c))


def is_simple(g: FiniteGroup) -> bool:
    if g.order == 1:
        return False
    return all(c == tuple(range(g.order)) for c in _class_closures(g))


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
    """Largest solvable normal subgroup, as the join of solvable class
    closures; an abelian group is its own radical, and builds no closure.
    Every subgroup of a solvable group is solvable, so a closure that
    contains one already found non-solvable is skipped without its derived
    series.  The handle is kept on ``g``, so its sections are built once
    per group."""

    def build():
        if g.is_abelian:
            radical = SubgroupHandle(g, tuple(range(g.order)))
        else:
            seeds: set[int] = {0}
            unsolvable: list[set[int]] = []
            for closure in _class_closures(g):
                members = set(closure)
                if any(bad <= members for bad in unsolvable):
                    continue
                if is_solvable_subset(g, closure):
                    seeds.update(closure)
                else:
                    unsolvable.append(members)
            radical = SubgroupHandle(g, _closure(g.table, seeds))
        radical.normal = radical.characteristic = True
        return radical

    return _derived(g, ("radical",), build)
