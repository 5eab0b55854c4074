import functools
import hashlib
import io
import itertools
import json
import math
import re
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import wordfibers.groups as groups_mod
from wordfibers.cli import EXIT_BUDGET, EXIT_USAGE, run_command
from wordfibers.errors import CapExceeded
from wordfibers.groups import (
    _class_closures,
    _closure,
    _span_mask,
    AutSet,
    automorphism_group,
    characteristic_series,
    choose_generators,
    identity_autset,
    induced_autset,
    inner_automorphisms,
    is_automorphism,
    is_isomorphic,
    is_simple,
    make_group,
    normal_subgroups,
    power_group,
    quotient,
    read_cayley_table,
    restricted_autset,
    solvable_radical,
    subgroup_group,
    subgroup_handle,
    subgroups,
)
from wreath_oracle import draw_wreath_parts, wreath_rows


# independent oracle: enumerate every bijection fixing 0 and keep homomorphisms
def brute_force_automorphisms(g):
    n = g.order
    found = []
    for images in itertools.permutations(range(1, n)):
        perm = (0,) + images
        if all(
            perm[g.mul(a, b)] == g.mul(perm[a], perm[b])
            for a in range(n)
            for b in range(n)
        ):
            found.append(perm)
    return found


def klein_four():
    return make_group("prod:(cyc:2)x(cyc:2)")


def run_wfl(argv):
    """The exit code and the parsed JSON document of one `wfl` request."""
    out = io.StringIO()
    code = run_command(argv, stdout=out)
    return code, json.loads(out.getvalue())


def write_cayley_table(path, g):
    """The table file format, written by a plain loop: the order, then one
    row of indices per line."""
    rows = [str(g.order)] + [" ".join(str(g.mul(a, b)) for b in range(g.order))
                             for a in range(g.order)]
    path.write_text("\n".join(rows) + "\n")


class TestMakeGroup:
    def test_trivial(self):
        g = make_group("cyc:1")
        assert g.order == 1
        assert g.mul(0, 0) == 0

    def test_dihedral(self):
        g = make_group("dih:3")
        assert g.order == 6
        assert not g.is_abelian
        g.validate()

    def test_power_order(self):
        g = make_group("pow:(alt:5)^2")
        assert g.order == 3600

    def test_core_constructions_satisfy_axioms(self):
        for spec in ["cyc:4", "cyc:6", "dih:4", "dih:5", "q8", "sym:3", "alt:4",
                     "prod:(cyc:2)x(cyc:2)", "prod:(alt:5)x(cyc:2)", "pow:(cyc:3)^2"]:
            make_group(spec).validate()

    def test_order_cap(self):
        with pytest.raises(CapExceeded):
            make_group("cyc:5000")
        with pytest.raises(CapExceeded):
            make_group("sym:7")

    def test_power_orders_are_capped_before_any_product(self, monkeypatch):
        def no_products(*args, **kwargs):
            raise AssertionError("a direct product was built")

        monkeypatch.setattr(groups_mod, "direct_product", no_products)
        with pytest.raises(CapExceeded, match=r"^order 6561 exceeds cap 4096$"):
            power_group(make_group("cyc:3"), 8)
        with pytest.raises(CapExceeded, match=r"^order of pow:\(cyc:3\)\^10000 exceeds"):
            power_group(make_group("cyc:3"), 10000)
        g = power_group(make_group("cyc:1"), 10**9)
        assert (g.order, g.spec, g.table.tolist()) == (1, "pow:(cyc:1)^1000000000", [[0]])

    def test_order_cap_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(groups_mod, "DEFAULT_ORDER_CAP", 5000)
        assert make_group("cyc:5000").order == 5000
        with pytest.raises(CapExceeded, match="order 5001 exceeds cap 5000"):
            make_group("cyc:5001")

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            make_group("frob:20")

    def test_sym_alt_element_counts_and_identity(self):
        s4 = make_group("sym:4")
        a4 = make_group("alt:4")
        assert s4.order == 24 and a4.order == 12
        assert s4.mul(0, 5) == 5 and a4.inv(0) == 0

    @pytest.mark.parametrize("spec", ["cyc:1", "q8", "sym:4", "dih:5", "prod:(alt:5)x(cyc:2)"])
    def test_inverse_table(self, spec):
        g = make_group(spec)
        expected = [next(b for b in range(g.order) if g.mul(a, b) == 0) for a in range(g.order)]
        assert g.inv_table.dtype == np.int32
        assert g.inv_table.tolist() == expected

    def test_element_orders_and_center(self):
        d8 = make_group("dih:4")
        assert sorted(d8.element_orders.tolist()) == [1, 2, 2, 2, 2, 2, 4, 4]
        assert len(d8.center) == 2
        q8 = make_group("q8")
        assert sorted(q8.element_orders.tolist()) == [1, 2, 4, 4, 4, 4, 4, 4]

    def test_validate_exact_associativity_path(self):
        make_group("sym:5").validate()
        make_group("cyc:100").validate()


def _reference_perm_table(n, even_only):
    """Composition table by a plain loop: entry [a, b] is perm a after perm b."""

    def even(p):
        return sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0

    perms = [p for p in itertools.permutations(range(n)) if not even_only or even(p)]
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(a[x] for x in b)] for b in perms] for a in perms])


def _searchsorted_perm_table(n, even_only):
    """The composition table as built before the dense rank lookup: parity by
    walking cycles, each product's base-n code ranked by ``searchsorted``."""

    def parity(p):
        seen, odd = set(), 0
        for i in range(n):
            j, length = i, 0
            while j not in seen:
                seen.add(j)
                j, length = p[j], length + 1
            odd ^= max(length - 1, 0) & 1
        return odd

    perms = [p for p in itertools.permutations(range(n)) if not even_only or parity(p) == 0]
    arr = np.array(perms, dtype=np.int64)
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = arr @ weights
    blocks = [arr[lo : lo + 64][:, arr] @ weights for lo in range(0, len(arr), 64)]
    return np.searchsorted(codes, np.concatenate(blocks))


def _lehmer_perm_table(n, even_only):
    """The table by direct composition, a block of rows at a time: entry
    [a, b] is the rank of a[b], (a ∘ b)[x] = a[b[x]], read off its Lehmer
    code c_i = #{j > i: p[j] < p[i]}.  Σ_i c_i (n-1-i)! is p's lexicographic
    rank among all n! permutations, and Σ_i c_i counts its inversions.  The
    permutations at ranks 2k and 2k+1 differ by swapping the last two
    entries, so exactly one of them is even, and an even permutation's rank
    in A_n is its rank over 2."""

    def lehmer(p):
        return [(p[..., i + 1 :] < p[..., i, None]).sum(axis=-1) for i in range(n)]

    def rank(p):
        return sum(c * math.factorial(n - 1 - i) for i, c in enumerate(lehmer(p)))

    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(-1, n)
    if even_only:
        perms = perms[sum(lehmer(perms)) % 2 == 0]
    blocks = [rank(a[:, perms]) for a in np.array_split(perms, -(-len(perms) // 128))]
    table = np.concatenate(blocks)
    return table // 2 if even_only else table


class TestPermutationTables:
    @pytest.mark.parametrize(
        "spec", [f"sym:{n}" for n in range(1, 8)] + [f"alt:{n}" for n in range(1, 9)]
    )
    def test_every_table_under_the_cap_equals_direct_composition(self, spec):
        # sym:7 and alt:8 are the first refused
        n, even_only = int(spec[4:]), spec.startswith("alt:")
        if math.factorial(n) // (2 if even_only else 1) > groups_mod.DEFAULT_ORDER_CAP:
            with pytest.raises(CapExceeded):
                make_group(spec)
            return
        assert (make_group(spec).table == _lehmer_perm_table(n, even_only)).all()

    @pytest.mark.parametrize(
        "spec", [f"sym:{n}" for n in range(1, 6)] + [f"alt:{n}" for n in range(1, 7)]
    )
    def test_table_equals_plain_composition(self, spec):
        n, even_only = int(spec[4:]), spec.startswith("alt:")
        g = make_group(spec)
        assert g.table.dtype == np.int32
        assert g.table.tolist() == _reference_perm_table(n, even_only).tolist()
        assert g.order == len(g.table)

    @pytest.mark.parametrize(
        "spec", [f"sym:{n}" for n in range(1, 7)] + [f"alt:{n}" for n in range(1, 8)]
    )
    def test_table_equals_the_searchsorted_builder(self, spec):
        n, even_only = int(spec[4:]), spec.startswith("alt:")
        assert (make_group(spec).table == _searchsorted_perm_table(n, even_only)).all()

    def test_table_does_not_depend_on_the_block_size(self, monkeypatch):
        monkeypatch.setattr(groups_mod, "_COMPOSE_BLOCK_ELEMENTS", 5)
        for spec in ["sym:4", "alt:5"]:
            n, even_only = int(spec[4:]), spec.startswith("alt:")
            assert (make_group(spec).table == _searchsorted_perm_table(n, even_only)).all()

    def test_table_is_a_read_only_property(self):
        from wordfibers.groups import FiniteGroup

        assert isinstance(FiniteGroup.__dict__["table"], property)
        with pytest.raises(AttributeError):
            make_group("sym:3").table = np.zeros((6, 6), dtype=np.int32)

    def test_permutation_constructor_form_is_gone(self):
        from wordfibers.groups import FiniteGroup

        with pytest.raises(TypeError):
            FiniteGroup(2, perms=[(0, 1), (1, 0)])
        with pytest.raises(TypeError):
            FiniteGroup(2)


class TestCayleyTableFile:
    def test_roundtrip(self, tmp_path):
        g = make_group("dih:3")
        path = tmp_path / "d6.tbl"
        write_cayley_table(path, g)
        h = make_group(f"table:{path}")
        assert h.order == 6
        assert (h.table == g.table).all()

    # a missing row, a non-integer entry, an entry beyond int32, beyond
    # int64, a short row, rows of another length
    @pytest.mark.parametrize("text", [
        "2\n0 1\n", "2\n0 1\n1 x\n", "2\n0 1\n1 99999999999\n",
        "2\n0 1\n1 99999999999999999999999\n", "2\n0 1\n1\n", "2\n0 1 0\n1 0 1\n",
        "2\n0 1\n1 1.0\n",
    ])
    def test_malformed_rows(self, tmp_path, text):
        path = tmp_path / "bad.tbl"
        path.write_text(text)
        with pytest.raises(ValueError):
            read_cayley_table(path)

    @pytest.mark.filterwarnings("default")
    def test_an_entry_read_through_a_float_is_refused_as_numpy_warns(self, tmp_path, monkeypatch):
        # numpy before 2.x read "1.0" into an int dtype through a float and
        # warned (DeprecationWarning); outside the test suite's filter that
        # warning must still refuse the file
        path = tmp_path / "float.tbl"
        path.write_text("2\n0 1\n1 1.0\n")

        def loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float", DeprecationWarning)
            return np.array([[0, 1], [1, 1]], dtype=np.int32)

        monkeypatch.setattr(groups_mod.np, "loadtxt", loadtxt)
        with pytest.raises(ValueError, match="malformed table rows"):
            read_cayley_table(path)

    def test_a_comment_sign_is_refused(self, tmp_path):
        path = tmp_path / "comment.tbl"
        path.write_text("2\n0 1\n1 0 # swap\n")
        with pytest.raises(ValueError):
            read_cayley_table(path)

    def test_order_one(self, tmp_path):
        path = tmp_path / "one.tbl"
        path.write_text("1\n0\n")
        assert read_cayley_table(path).tolist() == [[0]]
        assert make_group(f"table:{path}").order == 1

    def test_a_table_at_the_order_cap_loads_quickly(self, tmp_path):
        g = make_group("dih:2048")
        names = [str(i) for i in range(g.order)]
        path = tmp_path / "dih2048.tbl"
        path.write_text(f"{g.order}\n" + "".join(
            " ".join(map(names.__getitem__, row)) + "\n" for row in g.table.tolist()
        ))
        start = time.perf_counter()
        h = make_group(f"table:{path}")
        # the per-entry int() parser took about 5 s; room for a loaded host
        assert time.perf_counter() - start < 4
        assert h.table.dtype == np.int32 and (h.table == g.table).all()

    def test_identity_not_first(self, tmp_path):
        path = tmp_path / "bad2.tbl"
        path.write_text("2\n1 0\n0 1\n")
        with pytest.raises(ValueError):
            read_cayley_table(path)

    def test_non_group_table_rejected(self, tmp_path):
        path = tmp_path / "assoc.tbl"
        path.write_text("3\n0 1 2\n1 0 0\n2 0 0\n")
        with pytest.raises(ValueError):
            make_group(f"table:{path}")

    def test_order_above_the_cap_is_refused_before_the_rows(self, tmp_path):
        path = tmp_path / "big.tbl"
        path.write_text("4097\n0 1\n1 0\n0 0\n")
        code, doc = run_wfl(["group", "make", "--spec", f"table:{path}"])
        assert code == EXIT_BUDGET
        assert doc["result"]["error"] == "order 4097 exceeds cap 4096"


class TestAutomorphismGroup:
    @pytest.mark.parametrize(
        "spec,expected",
        [("cyc:3", 2), ("sym:3", 6), ("prod:(cyc:2)x(cyc:2)", 6), ("cyc:4", 2),
         ("cyc:6", 2), ("dih:4", 8), ("q8", 24), ("alt:4", 24), ("dih:5", 20)],
    )
    def test_sizes_against_brute_force(self, spec, expected):
        g = make_group(spec)
        auts = automorphism_group(g)
        assert len(auts) == expected
        if g.order <= 8:
            oracle = brute_force_automorphisms(g)
            assert sorted(row_tuples(auts)) == sorted(oracle)

    def test_all_inner_for_sym3(self):
        g = make_group("sym:3")
        aut = automorphism_group(g)
        inn = inner_automorphisms(g)
        assert len(aut) == len(inn) == 6
        assert aut.tables.tolist() == inn.tables.tolist()

    def test_every_member_satisfies_hom_law(self):
        for spec in ["cyc:6", "dih:4", "q8", "alt:4"]:
            g = make_group(spec)
            for row in automorphism_group(g).tables:
                assert is_automorphism(g, row)

    def test_closure_small(self):
        for spec in ["cyc:4", "sym:3", "dih:4"]:
            aut = automorphism_group(make_group(spec))
            assert aut.is_closed
            assert AutSet(aut.group, aut.tables, kind="custom").is_closed

    def test_identity_first(self):
        aut = automorphism_group(make_group("dih:4"))
        assert (aut.tables[0] == np.arange(8)).all()
        assert aut.index(np.arange(8)).tolist() == [0]

    def test_hom_law_check_rejects_non_automorphisms(self):
        g = make_group("sym:3")
        assert not is_automorphism(g, np.array([1, 0, 2, 3, 4, 5]))  # moves the identity
        assert not is_automorphism(g, np.array([0, 1, 1, 3, 4, 5]))  # not a bijection
        assert not is_automorphism(g, np.array([0, 2, 1, 3, 4, 5]))  # breaks the law
        assert not is_automorphism(g, np.arange(5))


    def test_cap(self):
        with pytest.raises(CapExceeded):
            automorphism_group(make_group("pow:(alt:5)^2"))


def row_tuples(a):
    return [tuple(row) for row in a.tables.tolist()]


# reference for AutSet.is_closed: every pair of rows composed in a plain loop
def reference_is_closed(a):
    rows = set(row_tuples(a))
    return all(tuple(x[y].tolist()) in rows for x in a.tables for y in a.tables)


@functools.lru_cache(maxsize=None)
def closure_test_sets():
    """(group, rows) of 45 sets: Aut and Inn of six groups with three kinds
    of subset each, and Inn(S3) wr S2."""
    sets = []
    for spec in ["cyc:4", "cyc:5", "sym:3", "dih:4", "q8", "alt:4"]:
        g = make_group(spec)
        for built in (automorphism_group(g), inner_automorphisms(g)):
            rows = built.tables
            subsets = [rows, rows[:-1], rows[[0, -1]], rows[: len(rows) // 2]]
            sets += [(g, sub) for sub in subsets if len(sub)]
    g = make_group("sym:3")
    w = whole_wreath_set(g, 2, inner_automorphisms(g))
    sets.append((w.group, w.tables))
    return sets


class TestAutSetClosure:
    def test_matches_the_pairwise_loop(self):
        verdicts = []
        assert len(closure_test_sets()) == 45
        for g, rows in closure_test_sets():
            a = AutSet(g, rows, kind="custom")
            assert a.is_closed == reference_is_closed(a)
            verdicts.append(a.is_closed)
        assert any(verdicts) and not all(verdicts)

    def test_closure_does_not_depend_on_the_block_size(self, monkeypatch):
        monkeypatch.setattr(groups_mod, "_COMPOSE_BLOCK_ELEMENTS", 1)
        for g, rows in closure_test_sets():
            a = AutSet(g, rows, kind="custom")
            assert a.is_closed == reference_is_closed(a)

    def test_subgroup_kinds_are_closed(self):
        g = make_group("dih:4")
        for a in (automorphism_group(g), inner_automorphisms(g), identity_autset(g)):
            assert a.is_closed and reference_is_closed(a)


def reference_index(a, queries):
    """Position of each query row among A's rows by a Python dict, or -1."""
    position = {row: i for i, row in enumerate(row_tuples(a))}
    return [position.get(tuple(q), -1) for q in np.asarray(queries).tolist()]


class TestAutSetIndex:
    def test_matches_a_set_of_row_tuples(self):
        for g, rows in closure_test_sets():
            a = AutSet(g, rows, kind="custom")
            full = automorphism_group(g).tables  # members and non-members of a
            rng = np.random.default_rng(len(rows))
            junk = rng.integers(0, g.order, size=(5, g.order))
            queries = np.concatenate([full, junk, full[::-1]])
            got = a.index(queries)
            assert got.tolist() == reference_index(a, queries)
            assert (got[: len(full)] >= 0).sum() == len(a)

    def test_shuffled_wreath_sample(self):
        s = make_group("alt:5")
        base, power = automorphism_group(s), power_group(s, 2)
        rng = np.random.default_rng(11)
        drawn = wreath_rows(base, 2, *draw_wreath_parts(rng, len(base), 2, 200))
        members = np.concatenate([np.arange(3600)[None], drawn, drawn[:30]])
        a = AutSet(power, members[rng.permutation(len(members))], kind="custom")
        outsiders = wreath_rows(base, 2, *draw_wreath_parts(rng, len(base), 2, 100))
        queries = np.concatenate([outsiders, drawn, np.arange(3600)[None]])
        got = a.index(queries)
        assert got.tolist() == reference_index(a, queries)
        assert (got[100:] >= 0).all() and got[-1] == 0
        assert (got[:100] == -1).any()

    def test_one_row_and_an_empty_query(self):
        g = make_group("dih:4")
        aut = automorphism_group(g)
        for i, row in enumerate(aut.tables):
            assert aut.index(row).tolist() == [i]
        assert aut.index(np.empty((0, 8), dtype=np.int32)).tolist() == []

    def test_wrong_width_is_refused(self):
        aut = automorphism_group(make_group("dih:4"))
        for bad in (aut.tables.reshape(-1, 4), aut.tables[:, :4], aut.tables[None]):
            with pytest.raises(ValueError):
                aut.index(bad)
        with pytest.raises(ValueError):
            AutSet(aut.group, aut.tables.reshape(-1, 4), kind="custom")


class TestInnerAutomorphisms:
    def test_abelian_trivial(self):
        assert len(inner_automorphisms(make_group("cyc:6"))) == 1

    def test_sym3(self):
        assert len(inner_automorphisms(make_group("sym:3"))) == 6

    def test_dih4(self):
        g = make_group("dih:4")
        inn = inner_automorphisms(g)
        assert len(inn) == 4
        assert len(inn) * len(g.center) == g.order

    def test_inner_times_center_equals_order(self):
        for spec in ["cyc:4", "sym:3", "dih:4", "q8", "alt:4", "dih:5"]:
            g = make_group(spec)
            assert len(inner_automorphisms(g)) * len(g.center) == g.order

    def test_contains_inner_flag(self):
        g = make_group("sym:3")
        assert inner_automorphisms(g).contains_inner
        assert automorphism_group(g).contains_inner
        assert identity_autset(g).contains_inner is False
        assert identity_autset(make_group("cyc:4")).contains_inner


class TestSubgroups:
    def test_cyclic_counts(self):
        assert len(subgroups(make_group("cyc:4"))) == 3

    def test_klein_four_flags(self):
        subs = subgroups(klein_four())
        assert len(subs) == 5
        order2 = [s for s in subs if s.order == 2]
        assert len(order2) == 3
        assert all(s.normal for s in order2)
        assert all(not s.characteristic for s in order2)

    def test_trivial_group(self):
        assert len(subgroups(make_group("cyc:1"))) == 1

    def test_sym3_structure(self):
        subs = subgroups(make_group("sym:3"))
        assert len(subs) == 6
        a3 = [s for s in subs if s.order == 3]
        assert len(a3) == 1 and a3[0].normal and a3[0].characteristic
        order2 = [s for s in subs if s.order == 2]
        assert len(order2) == 3 and not any(s.normal for s in order2)

    def test_characteristic_subgroups_stable_under_all_automorphisms(self):
        g = make_group("dih:4")
        aut = automorphism_group(g)
        for s in subgroups(g):
            if s.characteristic:
                for a in aut.tables:
                    assert {int(a[x]) for x in s.elements} == set(s.elements)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            subgroups(make_group("cyc:300"))

    def test_subgroup_handle_validation(self):
        g = make_group("cyc:4")
        h = subgroup_handle(g, [0, 2])
        assert h.normal
        with pytest.raises(ValueError):
            subgroup_handle(g, [0, 1, 2])


def center_handle(g):
    return subgroup_handle(g, g.center)


class TestQuotient:
    def test_d6_mod_c3(self):
        g = make_group("dih:3")
        n = subgroup_handle(g, [0, 1, 2])
        q = quotient(n)
        assert q.quotient.order == 2
        assert q.projection[0] == 0

    def test_trivial_and_full(self):
        g = make_group("dih:4")
        assert quotient(subgroup_handle(g, [0])).quotient.order == 8
        assert quotient(subgroup_handle(g, range(8))).quotient.order == 1

    def test_projection_is_homomorphism(self):
        g = make_group("alt:4")
        n = subgroup_handle(g, _class_closures(g)[0])
        q = quotient(n)
        for a in range(g.order):
            for b in range(g.order):
                assert q.projection[g.mul(a, b)] == q.quotient.mul(
                    q.projection[a], q.projection[b]
                )

    def test_non_normal_rejected(self):
        g = make_group("sym:3")
        sub = next(s for s in subgroups(g) if s.order == 2)
        with pytest.raises(ValueError):
            quotient(sub)


class TestInducedRestricted:
    def test_identity_only(self):
        g = make_group("dih:4")
        n = center_handle(g)
        ind = induced_autset(n, identity_autset(g))
        assert len(ind) == 1

    def test_d8_center_inner_induces_identity_on_quotient(self):
        g = make_group("dih:4")
        ind = induced_autset(center_handle(g), inner_automorphisms(g))
        assert len(ind) == 1

    def test_s3_a3_induced_trivial(self):
        g = make_group("sym:3")
        n = subgroup_handle(g, next(s.elements for s in subgroups(g) if s.order == 3))
        ind = induced_autset(n, automorphism_group(g))
        assert len(ind) == 1 and ind.group.order == 2

    def test_s3_a3_restriction_gives_both_automorphisms(self):
        g = make_group("sym:3")
        n = subgroup_handle(g, next(s.elements for s in subgroups(g) if s.order == 3))
        res = restricted_autset(n, automorphism_group(g))
        assert len(res) == 2
        assert len(automorphism_group(res.group)) == 2

    def test_restrict_identity_only(self):
        g = make_group("dih:4")
        res = restricted_autset(center_handle(g), identity_autset(g))
        assert len(res) == 1 and res.group.order == 2

    def test_restrict_to_whole_group(self):
        g = make_group("dih:4")
        a = automorphism_group(g)
        res = restricted_autset(subgroup_handle(g, range(8)), a)
        assert len(res) == len(a)

    def test_induced_contains_inner_when_a_does(self):
        g = make_group("dih:4")
        n = center_handle(g)
        ind = induced_autset(n, automorphism_group(g))
        res = restricted_autset(n, automorphism_group(g))
        assert ind.contains_inner and res.contains_inner

    def test_non_characteristic_rejected(self):
        g = klein_four()
        n = subgroup_handle(g, [0, 1])
        with pytest.raises(ValueError):
            induced_autset(n, identity_autset(g))


class TestCharacteristicSeries:
    def test_d6(self):
        series = characteristic_series(make_group("dih:3"))
        assert [h.order for h in series.chain] == [1, 3, 6]
        decomposed = [(f.simple.order, f.copies) for f in series.factors]
        assert decomposed == [(3, 1), (2, 1)]

    def test_simple_group(self):
        series = characteristic_series(make_group("alt:5"))
        assert [h.order for h in series.chain] == [1, 60]
        assert [(f.simple.order, f.copies) for f in series.factors] == [(60, 1)]

    def test_klein_four_single_step(self):
        series = characteristic_series(klein_four())
        assert [h.order for h in series.chain] == [1, 4]
        assert [(f.simple.order, f.copies) for f in series.factors] == [(2, 2)]

    def test_chain_members_characteristic_and_factors_decompose(self):
        for spec in ["dih:4", "q8", "alt:4", "cyc:6", "sym:3"]:
            g = make_group(spec)
            aut = automorphism_group(g)
            series = characteristic_series(g)
            assert series.chain[0].order == 1
            assert series.chain[-1].order == g.order
            for h in series.chain:
                assert np.isin(aut.tables[:, list(h.elements)], h.elements).all()
            total = 1
            for f in series.factors:
                assert f.factor.order == f.simple.order**f.copies
                total *= f.factor.order
            assert total == g.order


# Every group of the shipped battery manifest, plus a few with richer lattices.
# They catch both wrong variants of the class-by-class walk: reducing the
# atoms by all of G instead of N_G(H) misses subgroups of alt:4, alt:5, sym:4,
# sym:5 and prod:(sym:4)x(cyc:3); adding a new join without its conjugates
# misses subgroups of ten specs.
def _battery_groups():
    from wordfibers.cli import default_battery_path

    entries = json.loads(default_battery_path().read_text())
    return sorted({e[k] for e in entries for k in ("group", "simple") if k in e})


LATTICE_SPECS = _battery_groups() + [
    "sym:4", "sym:5", "dih:8", "dih:12", "pow:(cyc:2)^4", "prod:(sym:4)x(cyc:3)"
]


@functools.lru_cache(maxsize=None)
def group_and_aut(spec):
    g = make_group(spec)
    return g, automorphism_group(g)


def reference_subgroups(g, aut):
    """The per-element discovery loop: join every found subgroup with every
    element, starting from the trivial and the cyclic subgroups.  Flags are
    checked by whole-array conjugation and by Aut's stacked tables."""
    found = {(0,): None}
    for x in range(1, g.order):
        found[_closure(g.table, [x])] = None
    worklist = list(found)
    while worklist:
        base = worklist.pop()
        for x in range(1, g.order):
            if x not in base:
                bigger = _closure(g.table, base + (x,))
                if bigger not in found:
                    found[bigger] = None
                    worklist.append(bigger)
    return [(e, *reference_flags(g, aut, e)) for e in sorted(found, key=lambda e: (len(e), e))]


def reference_flags(g, aut, elems):
    """(normal, characteristic) of the subgroup ``elems``, by conjugating it
    by every element of G and by mapping it through every row of Aut(G)."""
    t, inv = g.table, g.inv_table
    members = np.zeros(g.order, dtype=bool)
    members[list(elems)] = True
    arr = np.asarray(elems)
    conj = t[t[np.arange(g.order)[:, None], arr[None, :]], inv[:, None]]
    return bool(members[conj].all()), bool(members[aut.tables[:, arr]].all())


def reference_series(g):
    """The chain of `characteristic_series` picked from all of `subgroups`.
    Each factor F's simple order is the least order of a non-trivial normal
    subgroup among all subgroups of F, and its copies the exponent n with
    |S|^n = |F|, found by comparing powers."""
    char_subs = [s for s in subgroups(g) if s.characteristic]
    chain = [char_subs[0]]
    while chain[-1].order < g.order:
        cur = chain[-1].element_set
        above = [s for s in char_subs if cur < s.element_set]
        minimal = [s for s in above if not any(cur < t.element_set < s.element_set for t in above)]
        chain.append(min(minimal, key=lambda s: s.elements))
    factors = []
    for lower, upper in zip(chain, chain[1:]):
        f = quotient_of(g, upper, lower)
        least = min(s.order for s in subgroups(f) if s.normal and s.order > 1)
        copies = next(n for n in range(1, f.order.bit_length() + 1) if least**n >= f.order)
        assert least**copies == f.order
        factors.append((f.order, least, copies))
    return [s.elements for s in chain], factors


def quotient_of(g, upper, lower):
    hgrp = subgroup_group(g, upper)
    pos = {x: i for i, x in enumerate(upper.elements)}
    return quotient(subgroup_handle(hgrp, [pos[x] for x in lower.elements])).quotient


def flags(handles):
    return [(s.elements, s.normal, s.characteristic) for s in handles]


def fresh_flags(g, elems):
    """The flags of a new handle, computed rather than assigned by a walk."""
    h = subgroup_handle(g, elems)
    return h.normal, h.characteristic


class TestLattice:
    @pytest.mark.parametrize("spec", LATTICE_SPECS)
    def test_subgroups_match_the_per_element_loop(self, spec):
        g, aut = group_and_aut(spec)
        expected = reference_subgroups(g, aut)
        assert flags(subgroups(g)) == expected
        assert [(e, *fresh_flags(g, e)) for e, _, _ in expected] == expected

    @pytest.mark.parametrize("spec", LATTICE_SPECS)
    def test_normal_subgroups_are_the_normal_members_of_the_lattice(self, spec):
        g, _ = group_and_aut(spec)
        expected = [s for s in subgroups(g) if s.normal]
        assert flags(normal_subgroups(g)) == flags(expected)

    @pytest.mark.parametrize("spec", LATTICE_SPECS)
    def test_series_matches_the_subgroups_reference(self, spec):
        g, _ = group_and_aut(spec)
        series = characteristic_series(g)
        chain = [h.elements for h in series.chain]
        factors = [(f.factor.order, f.simple.order, f.copies) for f in series.factors]
        assert (chain, factors) == reference_series(g)

    def test_walk_joins_one_atom_per_normalizer_orbit(self, monkeypatch):
        # joining every found subgroup with every atom took 1,700 closures
        g, _ = group_and_aut("alt:5")
        calls = []
        real = groups_mod._join
        monkeypatch.setattr(
            groups_mod, "_join", lambda *a, **k: calls.append(None) or real(*a, **k)
        )
        assert len(subgroups(g)) == 59
        assert len(calls) == 48

    def test_conjugation_blocks_of_any_size_give_the_same_flags(self, monkeypatch):
        # a block of 5 entries splits every conjugation into many blocks
        monkeypatch.setattr(groups_mod, "_COMPOSE_BLOCK_ELEMENTS", 5)
        g, aut = group_and_aut("sym:4")
        expected = reference_subgroups(g, aut)
        assert flags(subgroups(g)) == expected
        assert [subgroup_handle(g, e).normal for e, _, _ in expected] == [
            normal for _, normal, _ in expected
        ]

    def test_series_and_normal_lattice_above_the_subgroup_cap(self):
        g = make_group("prod:(alt:5)x(cyc:4)")
        assert g.order > 200
        with pytest.raises(CapExceeded):
            subgroups(g)
        assert [s.order for s in normal_subgroups(g)] == [1, 2, 4, 60, 120, 240]
        series = characteristic_series(g)
        assert [h.order for h in series.chain] == [1, 2, 4, 240]


class TestJoins:
    """`_join` against the breadth-first closure of H ∪ A (`_span_mask`)."""

    @pytest.mark.parametrize(
        "spec, lattice",
        [(s, subgroups) for s in LATTICE_SPECS]
        + [("dih:64", normal_subgroups), ("cyc:64", normal_subgroups)],
    )
    def test_every_pair_joins_to_the_closure(self, spec, lattice):
        g, _ = group_and_aut(spec)
        elems = [s.elements for s in lattice(g)]
        for i, h in enumerate(elems):
            for a in elems[i:]:
                closure = tuple(np.flatnonzero(_span_mask(g.table, h + a)).tolist())
                assert groups_mod._join(g.table, h, a) == closure, (h, a)
                assert groups_mod._join(g.table, a, h) == closure, (a, h)

    def test_skipping_the_permutability_test_gives_a_non_subgroup(self, monkeypatch):
        # the mutant takes every join to be HA; on sym:4 the walk meets pairs
        # with AH ⊄ HA, where HA is not a subgroup
        g = make_group("sym:4")

        def product(table, h, a):
            mask = groups_mod._product_mask(table, np.asarray(h), np.asarray(a))
            return tuple(np.flatnonzero(mask).tolist())

        monkeypatch.setattr(groups_mod, "_join", product)
        found = [s.elements for s in subgroups(g)]
        assert [e for e in found if _closure(g.table, e) != e]

    def test_the_lagrange_stop_answers_g(self, monkeypatch):
        # <(0 1), (0 1 2 3 4)> is sym:5: HA has 10 elements, and S grows to
        # 50 and then past 60, where only G fits, so G·G is never squared
        g = make_group("sym:5")
        perms = list(itertools.permutations(range(5)))
        h = _closure(g.table, [perms.index((1, 0, 2, 3, 4))])
        a = _closure(g.table, [perms.index((1, 2, 3, 4, 0))])
        sizes = []
        real = groups_mod._product_mask
        monkeypatch.setattr(
            groups_mod, "_product_mask", lambda t, x, y: sizes.append(len(x)) or real(t, x, y)
        )
        assert groups_mod._join(g.table, h, a) == tuple(range(120))
        assert sizes == [2, 10, 50]


def conjugation_labels(g, xs, elems):
    """min over x in xs of x e x^-1, per e in elems, element by element."""
    return [min(g.mul(g.mul(x, e), g.inv(x)) for x in xs) for e in elems]


class TestConjugationRows:
    """Normality, the characteristic flag and the lattice's orbit labels are
    read from the rows of Inn(G) and from Φ; these compare them with
    conjugation element by element and with every row of Aut(G)."""

    @pytest.mark.parametrize(
        "spec, lattice", [("dih:64", subgroups), ("sym:6", normal_subgroups),
                          ("alt:6", normal_subgroups)]
    )
    def test_flags_match_the_reference(self, spec, lattice):
        g, aut = group_and_aut(spec)
        for s in lattice(g):
            expected = reference_flags(g, aut, s.elements)
            assert (s.normal, s.characteristic) == expected, s.elements
            assert fresh_flags(g, s.elements) == expected, s.elements

    def test_klein_four_subgroups_of_dih4_are_normal_not_characteristic(self):
        g = make_group("dih:4")
        orders = g.element_orders
        klein = [s for s in subgroups(g) if s.order == 4 and orders[list(s.elements)].max() == 2]
        assert len(klein) == 2
        for s in klein:
            assert fresh_flags(g, s.elements) == (True, False)

    def test_characteristic_reads_phi_not_the_closure(self, monkeypatch):
        _, aut = group_and_aut("dih:64")
        g = make_group("dih:64")
        expected = [reference_flags(g, aut, s.elements) for s in normal_subgroups(g)]
        assert len(groups_mod._phi_rows(g)[0]) < len(aut)

        def refuse(*args):
            raise AssertionError("Aut(G) was built")

        monkeypatch.setattr(groups_mod, "automorphism_group", refuse)
        monkeypatch.setattr(groups_mod, "_compose_after", refuse)
        assert [fresh_flags(g, s.elements) for s in normal_subgroups(g)] == expected
        assert ("aut",) not in g._derived

    @pytest.mark.parametrize("spec", ["cyc:12", "dih:12", "sym:4", "alt:6", "q8"])
    def test_phi_with_inn_generates_aut(self, spec):
        g, aut = group_and_aut(spec)
        inner = inner_automorphisms(g).tables
        phi, _ = groups_mod._phi_rows(g)
        closure = AutSet(g, groups_mod._compose_after(inner, phi), kind="full")
        assert closure.tables.tobytes() == aut.tables.tobytes()

    @pytest.mark.parametrize("spec", ["cyc:12", "pow:(cyc:2)^3"])
    def test_trivial_inn_keeps_phi_once_as_the_table(self, spec):
        g = make_group(spec)
        _, search = groups_mod._phi_rows(g)
        aut = automorphism_group(g)
        phi, kept = groups_mod._phi_rows(g)
        assert phi is aut.tables and kept is search
        assert (search is None) == (spec == "cyc:12")

    @pytest.mark.parametrize("setting", [("HOM_WORK_CAP", 10), ("AUTSET_SIZE_CAP", 10)])
    @pytest.mark.parametrize("spec", ["dih:4", "sym:4", "cyc:16", "dih:5"])
    def test_characteristic_is_refused_wherever_phi_is(self, monkeypatch, spec, setting):
        # AUTSET_SIZE_CAP refuses the table of Aut(G), |Inn|·|Φ| rows, on
        # sym:4 and dih:5, but the flags read only Φ
        monkeypatch.setattr(groups_mod, *setting)
        g = make_group(spec)

        def refused(build):
            try:
                build(make_group(spec))
            except CapExceeded:
                return True
            return False

        phi_refused = refused(groups_mod._phi_rows)
        assert refused(automorphism_group) == (
            phi_refused or setting[0] == "AUTSET_SIZE_CAP" and spec in ("sym:4", "dih:5")
        )
        for elems in [(0,), tuple(range(g.order))]:
            h = subgroup_handle(g, elems)
            if phi_refused:
                with pytest.raises(CapExceeded):
                    h.characteristic
            else:
                assert h.characteristic

    def test_characteristic_is_refused_on_a_refused_aut(self):
        g = make_group("pow:(cyc:2)^8")
        with pytest.raises(CapExceeded):
            groups_mod._phi_rows(g)
        with pytest.raises(CapExceeded):
            subgroup_handle(g, [0]).characteristic

    @pytest.mark.parametrize("spec", ["dih:12", "prod:(sym:4)x(cyc:3)"])
    def test_normalizer_rows_give_the_normalizer_orbits(self, spec):
        g, _ = group_and_aut(spec)
        assert len(g.center) > 1
        inn = groups_mod._inner_rows(g)
        elems = list(range(g.order))
        for s in subgroups(g):
            conjugates, rows = groups_mod._conjugacy_class(g, s.elements)
            normalizer = [
                x for x in elems
                if {g.mul(g.mul(x, h), g.inv(x)) for h in s.elements} == s.element_set
            ]
            conj = {tuple(g.mul(g.mul(x, y), g.inv(x)) for y in elems) for x in normalizer}
            assert rows.tolist() == [i for i, row in enumerate(inn.tolist()) if tuple(row) in conj]
            assert len(conjugates) == g.order // len(normalizer)
            labels = groups_mod._orbit_minima(g, rows)
            assert labels.tolist() == conjugation_labels(g, normalizer, elems)

    @pytest.mark.parametrize("spec", ["dih:12", "prod:(sym:4)x(cyc:3)"])
    def test_centralizer_rows_give_the_centralizer_orbits(self, spec):
        g, _ = group_and_aut(spec)
        inn = groups_mod._inner_rows(g)
        elems = list(range(g.order))
        for r in elems:
            rows = np.flatnonzero(inn[:, r] == r)
            centralizer = [x for x in elems if g.mul(x, r) == g.mul(r, x)]
            expected = conjugation_labels(g, centralizer, elems)
            assert groups_mod._orbit_minima(g, rows).tolist() == expected
            some = np.array(elems[::3])
            assert groups_mod._orbit_minima(g, rows, some).tolist() == expected[::3]

    def test_series_builds_no_inn_of_a_subgroup(self, monkeypatch):
        seen = []
        real = groups_mod._inner_rows
        monkeypatch.setattr(groups_mod, "_inner_rows", lambda g: seen.append(g.spec) or real(g))
        for spec in ["sym:4", "prod:(sym:4)x(cyc:3)", "alt:5", "q8"]:
            characteristic_series(make_group(spec))
        assert seen and not [s for s in seen if s.startswith("<")]


class TestPositions:
    @pytest.mark.parametrize("spec", ["sym:4", "dih:6"])
    def test_positions_number_the_subgroup_group(self, spec):
        g = make_group(spec)
        for s in subgroups(g):
            pos = s.positions
            assert pos[list(s.elements)].tolist() == list(range(s.order))
            assert (np.delete(pos, list(s.elements)) == -1).all()
            sub = s.as_group
            for i, x in enumerate(s.elements):
                for j, y in enumerate(s.elements):
                    assert sub.mul(i, j) == pos[g.mul(x, y)]


def counting_span_levels(monkeypatch):
    """Wrap `_span_mask` so that its table counts the gathers made on it, one
    per level of the walk; returns the one-entry count."""
    levels = [0]

    class CountingTable(np.ndarray):
        def __getitem__(self, key):
            levels[0] += 1
            return np.asarray(self)[key]

    real = groups_mod._span_mask
    monkeypatch.setattr(
        groups_mod, "_span_mask", lambda table, *args: real(table.view(CountingTable), *args)
    )
    return levels


def set_closure(table, gens):
    """<gens> by a breadth-first walk over Python sets."""
    seen, frontier = {0}, [0]
    while frontier:
        fresh = {table[x][s] for x in frontier for s in gens} - seen
        seen |= fresh
        frontier = sorted(fresh)
    return seen


class TestSpanMask:
    @pytest.mark.parametrize(
        "spec", ["sym:4", "alt:5", "dih:12", "pow:(cyc:2)^4", "prod:(sym:4)x(cyc:3)"]
    )
    def test_matches_a_set_closure(self, spec):
        g = make_group(spec)
        table = g.table.tolist()
        rng = np.random.default_rng(g.order)
        for _ in range(30):
            gens = rng.integers(0, g.order, size=rng.integers(0, 4)).tolist()
            mask = _span_mask(g.table, gens)
            assert set(np.flatnonzero(mask).tolist()) == set_closure(table, gens), gens


class TestClassClosures:
    @pytest.mark.parametrize("spec", LATTICE_SPECS + ["dih:64", "cyc:64", "sym:6"])
    def test_match_the_closure_of_each_class(self, spec):
        g = make_group(spec)
        expected = {_closure(g.table, cls) for cls in g.conjugacy_classes if cls != (0,)}
        assert _class_closures(g) == sorted(expected, key=lambda c: (len(c), c))

    def test_a_start_mask_seeds_the_walk(self):
        g = make_group("sym:4")
        for x in range(1, g.order):
            cls = next(c for c in g.conjugacy_classes if x in c)
            start = np.zeros(g.order, dtype=bool)
            start[[0, x]] = True
            assert (_span_mask(g.table, cls, start) == _span_mask(g.table, cls)).all()

    def test_one_level_per_class_of_a_cyclic_group(self, monkeypatch):
        # each class {x} starts from <x>, which is already closed; walking
        # the powers took about |x| levels for each
        levels = counting_span_levels(monkeypatch)
        g = make_group("cyc:512")
        assert len(_class_closures(g)) == 9
        assert levels[0] == 511


def factor_data(spec):
    return [(f.factor.order, f.simple.order, f.copies)
            for f in characteristic_series(make_group(spec)).factors]


class TestSeriesFactors:
    """Each factor F of the series is characteristically simple, F ≅ S^n,
    and S is its least class closure as a group (`characteristic_series`)."""

    @pytest.mark.parametrize("spec, expected", [
        ("prod:(cyc:2)x(cyc:2)", [(4, 2, 2)]),
        ("alt:5", [(60, 60, 1)]),
        ("pow:(cyc:3)^2", [(9, 3, 2)]),
        ("pow:(cyc:2)^3", [(8, 2, 3)]),
        ("cyc:9", [(3, 3, 1), (3, 3, 1)]),
        ("alt:4", [(4, 2, 2), (3, 3, 1)]),
        ("pow:(alt:5)^1", [(60, 60, 1)]),
    ])
    def test_factors(self, spec, expected):
        assert factor_data(spec) == expected

    # the relabelled groups are characteristically simple: one factor, G/1
    @pytest.mark.parametrize(
        "spec", LATTICE_SPECS
        + [f"relabelled:{s}" for s in
           ["pow:(cyc:2)^3", "pow:(cyc:3)^2", "prod:(cyc:5)x(cyc:5)", "pow:(cyc:2)^4"]]
    )
    def test_every_factor_is_a_power_of_its_simple_group(self, spec):
        if spec.startswith("relabelled:"):
            g = relabelled(make_group(spec[len("relabelled:"):]), seed=5)
        else:
            g = make_group(spec)
        for f in characteristic_series(g).factors:
            assert is_simple(f.simple)
            power = power_group(f.simple, f.copies)
            ok, witness = is_isomorphic(f.factor, power)
            assert ok, spec
            assert_isomorphism(f.factor, power, witness)

    def test_a_nonabelian_power_reads_one_coordinate_copy(self):
        # A5 x A5, whose Φ search the work cap refuses, is given Φ as the
        # wreath rows of Φ(A5) wr S2; its class closures are A5 x 1, 1 x A5
        # and all of it, and only the least is the simple group
        s = make_group("alt:5")
        base = AutSet(s, groups_mod._phi_rows(s)[0], kind="custom")
        parts = [(b, p) for p in itertools.permutations(range(2))
                 for b in itertools.product(range(len(base)), repeat=2)]
        rows = wreath_rows(base, 2, [b for b, _ in parts], [p for _, p in parts])
        g = make_group("pow:(alt:5)^2")
        g._phi = lambda: rows
        (f,) = characteristic_series(g).factors
        assert (f.factor.order, f.simple.order, f.copies) == (3600, 60, 2)
        assert is_simple(f.simple)

    @pytest.mark.parametrize("spec", LATTICE_SPECS)
    def test_series_request_searches_for_phi_at_most_once(self, monkeypatch, spec):
        import wordfibers.cli as cli

        g = make_group(spec)  # a pow: spec is built by power_group
        monkeypatch.setattr(cli, "make_group", lambda s: g)
        calls = {}

        def counting(name):
            real = getattr(groups_mod, name)
            return lambda *a, **k: calls.setdefault(name, []).append(None) or real(*a, **k)

        for name in ("_compose_after", "is_isomorphic", "power_group", "_closure",
                     "plan_hom_search"):
            monkeypatch.setattr(groups_mod, name, counting(name))
        code, _ = run_wfl(["group", "series", "--spec", spec])
        assert code == 0
        assert set(calls) <= {"plan_hom_search"} and len(calls.get("plan_hom_search", [])) <= 1


# reference for direct products: coordinates in mixed radix, the first most
# significant, multiplied one factor at a time
def reference_product_table(factors):
    elements = list(itertools.product(*(range(f.order) for f in factors)))
    index = {e: i for i, e in enumerate(elements)}
    table = np.empty((len(elements), len(elements)), dtype=np.int64)
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            table[i, j] = index[tuple(f.mul(a, b) for f, a, b in zip(factors, x, y))]
    return table


class TestProductTables:
    @pytest.mark.parametrize(
        "spec, factors",
        [
            ("pow:(cyc:2)^3", ["cyc:2"] * 3),
            ("prod:(sym:3)x(cyc:4)", ["sym:3", "cyc:4"]),
            ("pow:(sym:3)^2", ["sym:3"] * 2),
        ],
    )
    def test_int32_and_equal_to_a_composition_loop(self, spec, factors):
        g = make_group(spec)
        assert g.table.dtype == np.int32
        assert (g.table == reference_product_table([make_group(f) for f in factors])).all()


# the int64 formulas that the int32 builders replaced
def reference_cyclic_table(n):
    a = np.arange(n, dtype=np.int64)
    return (a[:, None] + a[None, :]) % n


def reference_dihedral_table(o):
    idx = np.arange(2 * o)
    f, k = idx // o, idx % o
    sign = 1 - 2 * f[None, :]
    return (f[:, None] ^ f[None, :]) * o + (k[None, :] + sign * k[:, None]) % o


class TestCyclicDihedralTables:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 31])
    def test_equal_to_the_int64_formulas(self, n):
        cyc, dih = make_group(f"cyc:{n}"), make_group(f"dih:{n}")
        assert cyc.table.dtype == dih.table.dtype == np.int32
        assert (cyc.table == reference_cyclic_table(n)).all()
        assert (dih.table == reference_dihedral_table(n)).all()

    @pytest.mark.parametrize("spec", ["cyc:4096", "dih:2048"])
    def test_a_build_holds_about_one_table(self, spec):
        # the int64 formulas peak at 256 MB (cyc:4096) and 384 MB (dih:2048)
        # under tracemalloc, for a 64 MB table
        tracemalloc.start()
        try:
            g = make_group(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * g.table.nbytes


class TestPowerGroup:
    def test_first_power_leaves_its_input_unchanged(self):
        s = make_group("alt:5")
        g = power_group(s, 1)
        assert s.spec == "alt:5"
        assert g.spec == "pow:(alt:5)^1" and g is not s
        assert (g.table == s.table).all()


class TestSimplicity:
    def test_simple_groups(self):
        assert is_simple(make_group("alt:5"))
        assert is_simple(make_group("cyc:3"))
        assert not is_simple(make_group("alt:4"))
        assert not is_simple(make_group("cyc:4"))
        assert not is_simple(make_group("cyc:1"))


def reference_wreath_row(base, n, base_indices, sigma):
    """(a_1 x ... x a_n) o sigma on S^n, built one output coordinate at a time:
    output coordinate i reads input coordinate sigma^-1(i) through a_i."""
    s = base.group.order
    weights = [s ** (n - 1 - i) for i in range(n)]
    coords = (np.arange(s**n)[:, None] // np.array(weights)[None, :]) % s
    sigma_inv = [0] * n
    for i, v in enumerate(sigma):
        sigma_inv[v] = i
    out = np.zeros(s**n, dtype=np.int64)
    for i in range(n):
        out += base.tables[base_indices[i]].astype(np.int64)[coords[:, sigma_inv[i]]] * weights[i]
    return out.tolist()


def whole_wreath_set(s, n, base):
    """Every (a_1 x ... x a_n) o sigma on S^n with each a_i in base, as one
    custom set: the rows of `wreath_rows` over all parts."""
    parts = [(b, p) for p in itertools.permutations(range(n))
             for b in itertools.product(range(len(base)), repeat=n)]
    rows = wreath_rows(base, n, [b for b, _ in parts], [p for _, p in parts])
    return AutSet(power_group(s, n), rows, kind="custom")


class TestWreath:
    def test_n1_is_base(self):
        g = make_group("sym:3")
        base = inner_automorphisms(g)
        w = whole_wreath_set(g, 1, base)
        assert len(w) == len(base)
        assert sorted(row_tuples(w)) == sorted(row_tuples(base))

    def test_sym3_squared_inner_count(self):
        g = make_group("sym:3")
        w = whole_wreath_set(g, 2, inner_automorphisms(g))
        assert len(w) == 6 * 6 * 2 == 72

    def test_swap_exchanges_coordinates(self):
        g = make_group("sym:3")
        swap = wreath_rows(identity_autset(g), 2, [[0, 0]], [[1, 0]])[0]
        assert swap.tolist() == reference_wreath_row(identity_autset(g), 2, [0, 0], [1, 0])
        for a in range(6):
            for b in range(6):
                idx = a * 6 + b
                assert swap[idx] == b * 6 + a

    def test_wreath_elements_are_automorphisms(self):
        g = make_group("cyc:3")
        w = whole_wreath_set(g, 2, automorphism_group(g))
        for row in w.tables:
            assert is_automorphism(w.group, row)
        assert w.is_closed

    @pytest.mark.parametrize(
        "spec, n, build",
        [("sym:3", 1, automorphism_group), ("sym:3", 2, automorphism_group),
         ("sym:3", 3, automorphism_group), ("cyc:3", 2, automorphism_group),
         ("dih:4", 2, automorphism_group), ("sym:3", 2, inner_automorphisms)],
    )
    def test_rows_match_the_per_row_construction(self, spec, n, build):
        g = make_group(spec)
        base = build(g)
        parts = [(b, p) for p in itertools.permutations(range(n))
                 for b in itertools.product(range(len(base)), repeat=n)]
        rows = wreath_rows(base, n, [b for b, _ in parts], [p for _, p in parts])
        assert rows.dtype == np.int32
        assert rows.tolist() == [reference_wreath_row(base, n, b, p) for b, p in parts]
        assert row_tuples(whole_wreath_set(g, n, base)) == sorted(set(map(tuple, rows.tolist())))

    def test_sampled_rows_match_enumeration_and_are_seeded(self):
        g = make_group("sym:3")
        base = inner_automorphisms(g)
        w = whole_wreath_set(g, 2, base)
        assert len(w) == 72
        parts = draw_wreath_parts(np.random.default_rng(5), len(base), 2, 10)
        drawn = wreath_rows(base, 2, *parts)
        assert set(map(tuple, drawn.tolist())) <= set(row_tuples(w))
        again = draw_wreath_parts(np.random.default_rng(5), len(base), 2, 10)
        assert wreath_rows(base, 2, *again).tolist() == drawn.tolist()

    def test_sampled_rows_of_aut_a5_squared(self):
        s = make_group("alt:5")
        base = automorphism_group(s)
        parts = draw_wreath_parts(np.random.default_rng(3), len(base), 2, 40)
        rows = wreath_rows(base, 2, *parts)
        assert rows.tolist() == [reference_wreath_row(base, 2, b, p) for b, p in zip(*parts)]

    def test_sampled_element_on_large_power_satisfies_hom_law(self):
        s = make_group("alt:5")
        base = automorphism_group(s)
        drawn = wreath_rows(base, 2, *draw_wreath_parts(np.random.default_rng(1), len(base), 2, 1))
        assert is_automorphism(power_group(s, 2), drawn[0])  # full 3600^2-pair check, vectorized

    @pytest.mark.parametrize("spec, build", [("sym:3", inner_automorphisms),
                                             ("cyc:3", automorphism_group)])
    def test_closed_base_gives_a_closed_set(self, spec, build):
        # B wr S_n is a group when B is: sigma o (b_1 x ... x b_n) is
        # (b_sigma^-1(1) x ... x b_sigma^-1(n)) o sigma
        g = make_group(spec)
        w = whole_wreath_set(g, 2, build(g))
        assert w.is_closed and reference_is_closed(w)

    def test_unclosed_base_gives_an_unclosed_set(self):
        g = make_group("sym:3")
        base = AutSet(g, inner_automorphisms(g).tables[[0, 3]], kind="custom")
        assert not base.is_closed
        w = whole_wreath_set(g, 2, base)
        assert not w.is_closed and not reference_is_closed(w)


class TestSolvableRadical:
    def test_sym4_solvable(self):
        g = make_group("sym:4")
        assert solvable_radical(g).order == 24

    def test_a5_trivial(self):
        assert solvable_radical(make_group("alt:5")).order == 1

    def test_product_picks_solvable_factor(self):
        g = make_group("prod:(alt:5)x(cyc:2)")
        rad = solvable_radical(g)
        assert rad.elements == (0, 1)

    def test_radical_contains_every_solvable_normal_subgroup(self):
        from wordfibers.groups import is_solvable_subset

        for spec in ["sym:3", "dih:4", "alt:4", "q8", "cyc:6"]:
            g = make_group(spec)
            rad = solvable_radical(g)
            assert is_solvable_subset(g, rad.elements)
            assert rad.normal
            for s in subgroups(g):
                if s.normal and is_solvable_subset(g, s.elements):
                    assert s.element_set <= rad.element_set

    @pytest.mark.parametrize("spec", ["cyc:12", "prod:(cyc:2)x(cyc:4)"])
    def test_abelian_radical_matches_the_general_path(self, spec):
        g, general = make_group(spec), make_group(spec)
        general.is_abelian = False  # takes the class-closure join
        rad = solvable_radical(g)
        assert rad.elements == solvable_radical(general).elements == tuple(range(g.order))
        assert rad.normal and rad.characteristic

    def test_abelian_radical_builds_no_class_closure(self, monkeypatch):
        def refuse(g):
            raise AssertionError("class closures built for an abelian group")

        monkeypatch.setattr(groups_mod, "_class_closures", refuse)
        assert solvable_radical(make_group("cyc:4096")).order == 4096

    @pytest.mark.parametrize("spec", ["sym:6", "pow:(alt:5)^2"])
    def test_groups_of_order_above_360_are_answered(self, spec):
        rad = solvable_radical(make_group(spec))
        assert rad.order == 1 and rad.normal and rad.characteristic


class TestIsIsomorphic:
    def test_c4_vs_klein(self):
        ok, witness = is_isomorphic(make_group("cyc:4"), klein_four())
        assert not ok and witness is None

    def test_d6_vs_sym3(self):
        g, h = make_group("dih:3"), make_group("sym:3")
        ok, witness = is_isomorphic(g, h)
        assert ok
        for a in range(6):
            for b in range(6):
                assert witness[g.mul(a, b)] == h.mul(witness[a], witness[b])

    def test_self_isomorphism(self):
        g = make_group("q8")
        ok, witness = is_isomorphic(g, g)
        assert ok
        assert witness[0] == 0

    def test_same_order_different_groups(self):
        assert not is_isomorphic(make_group("dih:4"), make_group("q8"))[0]
        assert not is_isomorphic(make_group("cyc:6"), make_group("sym:3"))[0]

    def test_a5_squared_vs_relabelled(self):
        ok, _ = is_isomorphic(make_group("cyc:8"), make_group("prod:(cyc:4)x(cyc:2)"))
        assert not ok

    @pytest.mark.parametrize(
        "g_spec,h_spec",
        [("dih:3", "sym:3"), ("q8", "q8"), ("prod:(cyc:2)x(cyc:4)", "prod:(cyc:4)x(cyc:2)"),
         ("prod:(cyc:3)x(cyc:5)", "cyc:15"), ("pow:(cyc:2)^4", "pow:(cyc:2)^4"),
         ("alt:5", "alt:5"), ("sym:6", "sym:6")],
    )
    def test_witness_is_an_isomorphism(self, g_spec, h_spec):
        g, h = make_group(g_spec), relabelled(make_group(h_spec), seed=3)
        ok, witness = is_isomorphic(g, h)
        assert ok
        assert_isomorphism(g, h, witness)

    def test_empty_bucket_means_no_search(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a kernel block ran")

        search = groups_mod.plan_hom_search(make_group("cyc:4"), klein_four())
        assert search.candidates == 0
        monkeypatch.setattr(groups_mod, "_hom_rows", no_blocks)
        assert groups_mod._search_homs(search, find_all=True, max_results=10).shape == (0, 4)


def relabelled(g, seed):
    """A copy of g with its non-identity elements renumbered at random."""
    rng = np.random.default_rng(seed)
    new = np.concatenate([[0], 1 + rng.permutation(g.order - 1)])
    table = np.empty_like(g.table)
    table[new[:, None], new[None, :]] = new[g.table]
    return groups_mod.FiniteGroup(g.order, table=table, spec=f"relabelled {g.spec}")


def assert_isomorphism(g, h, phi):
    phi = np.asarray(phi)
    assert sorted(phi.tolist()) == list(range(h.order))
    assert (phi[g.table] == h.table[phi[:, None], phi[None, :]]).all()


class TestGenerators:
    def test_chosen_generators_generate(self):
        for spec in ["cyc:6", "sym:3", "dih:4", "q8", "alt:4", "pow:(cyc:2)^4", "sym:6"]:
            g = make_group(spec)
            gens = choose_generators(g).generators
            assert _closure(g.table, gens) == tuple(range(g.order))

    def test_trivial_group_needs_no_generators(self):
        assert choose_generators(make_group("cyc:1")).generators == []

    def test_choice_rule(self):
        # sym:6: an element of order 6 first, then the first element of the
        # smallest bucket (order 2, class size 15, 30 elements) that generates
        g = make_group("sym:6")
        first, second = choose_generators(g).generators
        assert g.element_orders[first] == 6
        assert g.element_orders[second] == 2 and g.class_size_of[second] == 15
        # (C2)^4 needs four generators, each doubling the subgroup
        assert choose_generators(make_group("pow:(cyc:2)^4")).generators == [1, 2, 4, 8]


# every group of the shipped battery and of the benchmark's large-groups pool,
# and a few whose choice takes several steps
GENERATOR_SPECS = sorted(set(_battery_groups()) | {
    "sym:5", "sym:6", "alt:6", "prod:(sym:4)x(cyc:3)", "pow:(cyc:2)^3", "pow:(cyc:2)^4",
    "dih:12", "prod:(cyc:2)x(q8)",
})


def span_mask_generators(g):
    """The generator choice of `choose_generators` before the Cayley walk:
    each candidate's subgroup is a `_span_mask`, the largest wins, and the
    first that gives G stops the scan."""
    n = g.order
    table, orders = g.table, g.element_orders
    _, where, counts = np.unique(
        groups_mod._bucket_keys(g), return_inverse=True, return_counts=True
    )
    sizes = counts[where.ravel()]
    idx = np.arange(n)
    scan = np.lexsort((idx, -orders, sizes))
    gens = []
    candidates = 1
    span = _span_mask(table, gens)
    while not span.all():
        least = int(sizes[~span].min())
        groups_mod._check_work(candidates * least, n, len(gens) + 1)
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
        groups_mod._check_work(candidates, n, len(gens))
    return gens


class TestGeneratorWalk:
    """`choose_generators` tests each candidate by the reach of a
    `CayleyWalk`, and the search reuses the chosen generators' walk."""

    @pytest.mark.parametrize("spec", GENERATOR_SPECS)
    def test_same_generators_as_the_span_mask_rule(self, spec):
        g = make_group(spec)
        assert choose_generators(g).generators == span_mask_generators(g)

    def test_same_generators_on_a_table_file(self, tmp_path):
        path = tmp_path / "g.txt"
        write_cayley_table(path, relabelled(make_group("prod:(sym:3)x(cyc:4)"), seed=2))
        g = make_group(f"table:{path}")
        assert choose_generators(g).generators == span_mask_generators(g)

    @pytest.mark.parametrize("spec", ["pow:(cyc:2)^5", "pow:(cyc:3)^4"])
    def test_same_refusals_as_the_span_mask_rule(self, spec):
        g = make_group(spec)
        with pytest.raises(CapExceeded) as walked:
            choose_generators(g)
        with pytest.raises(CapExceeded) as masked:
            span_mask_generators(g)
        assert str(walked.value) == str(masked.value)

    @pytest.mark.parametrize(
        "spec", ["cyc:1", "sym:4", "alt:5", "dih:12", "q8", "pow:(cyc:2)^4",
                 "prod:(sym:4)x(cyc:3)"]
    )
    def test_walk_invariants(self, spec):
        g = make_group(spec)
        table = g.table.tolist()
        rng = np.random.default_rng(g.order)
        for _ in range(20):
            gens = rng.integers(0, g.order, size=rng.integers(0, 4)).tolist()
            walk = groups_mod._cayley_walk(g.table, gens)
            reached = walk.reached
            # every element of <gens> once, the identity first at depth 0
            assert sorted(reached) == sorted(set_closure(table, gens))
            assert (reached[0], walk.depths[0]) == (0, 0)
            depth_of = dict(zip(reached, walk.depths))
            distance = {0: 0}
            for x in reached:  # breadth-first distances, by plain loops
                for s in gens:
                    distance.setdefault(table[x][s], distance[x] + 1)
            for y, p, j, d in zip(reached[1:], walk.parents[1:], walk.positions[1:],
                                  walk.depths[1:]):
                assert table[p][gens[j]] == y
                assert d == depth_of[p] + 1 == distance[y]
            assert walk.depths == sorted(walk.depths)

    @pytest.mark.parametrize("spec", ["cyc:1", "cyc:12", "sym:4", "alt:5", "q8",
                                      "pow:(cyc:2)^4", "prod:(sym:4)x(cyc:3)"])
    def test_tree_and_non_tree_edges_are_every_edge(self, spec):
        g = make_group(spec)
        walk = choose_generators(g)
        gens, k = walk.generators, len(walk.generators)
        levels, (xs, js, ys) = groups_mod._spanning_program(g.table, walk)
        tree = [(p, j) for _, ps, jj in levels for p, j in zip(ps.tolist(), jj.tolist())]
        other = list(zip(xs.tolist(), js.tolist()))
        assert len(tree) == g.order - 1
        assert sorted(tree + other) == [(x, j) for x in range(g.order) for j in range(k)]
        assert ys.tolist() == [g.mul(x, gens[j]) for x, j in other]
        # the levels are the walk's runs of one depth, in reach order
        elements = [x for elems, _, _ in levels for x in elems.tolist()]
        assert elements == walk.reached[1:]
        depth_of = dict(zip(walk.reached, walk.depths))
        assert [{depth_of[x] for x in elems.tolist()} for elems, _, _ in levels
                if len(elems)] == [{d} for d in range(1, max(walk.depths) + 1)]

    @pytest.mark.parametrize("spec", ["q8", "alt:5", "sym:6", "pow:(cyc:2)^4", "dih:12"])
    def test_aut_walks_the_final_generators_once(self, monkeypatch, spec):
        def no_span(*args):
            raise AssertionError("a span mask was built")

        walks = []
        real = groups_mod._cayley_walk
        monkeypatch.setattr(
            groups_mod, "_cayley_walk", lambda table, gens: walks.append(list(gens)) or
            real(table, gens)
        )
        monkeypatch.setattr(groups_mod, "_span_mask", no_span)
        # the search itself, as alt:5 carries its Φ and runs none
        search, aut = searched_aut(make_group(spec))
        assert walks.count(search.generators) == 1
        assert walks[-1] == search.generators
        assert aut_digest(aut) == AUT_DIGESTS[spec]

    def test_refused_scan_stops_at_the_cap(self, monkeypatch):
        # C64 x C64: 4,032 elements of order 64, one bucket; the second
        # generator's scan stops once a candidate's bucket passes the cap
        walks = []
        real = groups_mod._cayley_walk
        monkeypatch.setattr(
            groups_mod, "_cayley_walk", lambda table, gens: walks.append(list(gens)) or
            real(table, gens)
        )
        g = make_group("prod:(cyc:64)x(cyc:64)")
        with pytest.raises(CapExceeded, match="at least 1358954496 steps"):
            choose_generators(g)
        assert len(walks) == 4


# Size and sha256 of the stacked, sorted little-endian int32 tables of
# Aut(G), recorded with the depth-first backtracking search this kernel
# replaced.
AUT_DIGESTS = {
    "cyc:1": (1, "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119"),
    "cyc:2": (1, "01acecb507abfe1a354aa8064f4af5d3f1acd019e37db3c11c97523b71c76e9d"),
    "cyc:3": (2, "385d526042cf5b8459848959032f13e45dda0f49cdd1ed86e95c94ffb8edc6f9"),
    "cyc:4": (2, "8371262fdbc4ea7454046db20b1d83d1ebb2d22af8b6a5bec7967cfc6dc78ac8"),
    "cyc:5": (4, "c781cd7ca7ee661774696921b58736f7c1172793721c48fa83328f93a38f6fe6"),
    "cyc:6": (2, "4e85ba159f34fd097f4d3fe3803b6786d9ff3e612c5a9bb42027e1e3e49d2dac"),
    "cyc:7": (6, "8cb449f0cc4f927b52a8036d83c011ad7aaca1233c7d1a7349068c1d9134e6e5"),
    "cyc:8": (4, "d49cde7a6f3522c5fffb50c5122c2b90073d3c17a855187642fbdf1745be5b6f"),
    "cyc:9": (6, "f54dfe9dbd4cdc36e933cb83d7ab8a0eaeb061b4b7a38eccd298b689b42f93bd"),
    "cyc:10": (4, "3e3bea740ba6806882bb4da86f9b804dfbe7420b4b637207b36b65320fb184b1"),
    "cyc:12": (4, "d9abe9c405338535f4121d5422c02b072793865d169fd6cb8bcca145b4be8898"),
    "cyc:16": (8, "51aa7db508b1d2835161c6ce92d0ad3f1772c7b5949c8ff5f51fcf1db5402dd4"),
    "cyc:24": (8, "cf619c113df16fdae3e6061c83ad67ba52d5523a66a9891a9a36be2a1ee48aae"),
    "dih:3": (6, "278e6ecfcf71ae0a4f15f12790e8caadbdfe3efafb9db3ad9812dc1122fe213d"),
    "dih:4": (8, "22bee9fba2eb000c0bdae73f813d3329c0fe0ba60af11a8d2c7d4e804dc7f2e9"),
    "dih:5": (20, "06e607d6afeedc9ab39e9b5304471502f4492eb34698b89a21540516cd8411ad"),
    "dih:6": (12, "463ec40a2ee09467bdc8d253ea5b305833c5bcfa5334eb04e00cfe7fb991f6ed"),
    "dih:8": (32, "697c76246efdac287756d37426a138bca22e8049246d41f352bcf4e369141568"),
    "dih:10": (40, "a6ffd37b2db2a2cddc8159e507a461cb1c5b29061fdab3cad06252902fc0dd67"),
    "dih:12": (48, "849651ce63f7bed8f689ad14372edd29824dfa48672ad6fb91823d6896c4b5ae"),
    "sym:3": (6, "6ed326a93f82adaecad9d736b9fedfcc9ca842f43ad589cc74a934d849985615"),
    "sym:4": (24, "0ca576e509e4f26ba62a888c8d5686116887e35c256e5179dccd9e4e0a1bfa97"),
    "alt:4": (24, "5ae1edb16a7fedde073e6e1cba85278997336a6b315ca0bce33ac1687f323188"),
    "q8": (24, "88d9b6f3f1c17bf32510fbb75c77c1842c40d84d812f0f0ae332b4b9e1d97a00"),
    "prod:(cyc:2)x(cyc:2)": (6, "b8a76308a8fbd490c099290d1fe0c3a5fb9a9ede63a22d71f23b344d12107ba1"),
    "prod:(cyc:2)x(cyc:4)": (8, "52459eecfe7d8ef9ded863a7c18472650c5faafeb72f9498ca10a67aa06f011a"),
    "prod:(cyc:3)x(cyc:3)": (48, "ae0ea86a3d8788cf7b4754415555cf43fd6dddc7b3cccbe5541d39722f6e6f39"),
    "prod:(sym:3)x(cyc:2)": (12, "73d07252e0c5280397fc704c973a1662fb5c3f2c03c1782a09ad577d56e29ed4"),
    "prod:(cyc:2)x(q8)": (192, "d2b0ca623239fb64fbbd0e8e195285eaa01f24326176ef03ff98ecce5c1a5258"),
    "pow:(cyc:2)^3": (168, "3bc753f6620b94526b2ddb27a23015270a09c6b04058d29151fe9b88efc76118"),
    "pow:(cyc:2)^4": (20160, "f1aab8546792388d7242a702ebab3fa0c2974440da0ce5c4df623b2b7f0c9b71"),
    "pow:(cyc:3)^2": (48, "ae0ea86a3d8788cf7b4754415555cf43fd6dddc7b3cccbe5541d39722f6e6f39"),
    "alt:5": (120, "f9a9ccf2cc0e1c26ff541bd5fe5367daf9b3b5e277d964ea4d3886bf011fb686"),
    "sym:5": (120, "44da1079c785d63b9b5794cdbb3c04c706db0b9e3dd0edfa78158201390fef3a"),
    "alt:6": (1440, "5b67e9c5fc1f1fd8351143bd094338122279fb08e82ca54780224e35a7965f1f"),
    "prod:(sym:4)x(cyc:3)": (48, "00ea46e3924979df6edd02a652d2785e4fccc8eef433773ac0b94f2cfb0fc22a"),
    "pow:(cyc:3)^3": (11232, "34382a7f0e5f8c4c577e6e2ced52aa4f97e09d7f87f390ec2bbe5b29c8a0e616"),
    "prod:(alt:5)x(cyc:2)": (120, "c3e01abbe3d6dff5841751e9e8c939a3d3c846d95318f68853228d7e7a905c75"),
    "prod:(cyc:4)x(cyc:2)": (8, "7735f599d384005745503ad9757520edf5bfe6274507a680026096701d3c906b"),
    "cyc:11": (10, "c577d2d5e10018ddce4ecf16f6a6241ec602af2f07c8e7ec1e67bf9727da441f"),
    "sym:6": (1440, "0e7dc49be49d3c802e20673c84fe4fda12ae8ad42bc93919594e1220754e6839")
}


def aut_digest(aut):
    tables = np.ascontiguousarray(aut.tables, dtype="<i4")
    return len(aut), hashlib.sha256(tables.tobytes()).hexdigest()


def searched_aut(g):
    """The search and Aut(G) as `automorphism_group` builds them for a group
    that carries no Φ: Inn(G) times the rows `_search_homs` finds.  The
    oracle for the groups that do carry one."""
    search = groups_mod.plan_hom_search(g, g)
    phi = groups_mod._search_homs(search, find_all=True, max_results=10**6)
    inner = inner_automorphisms(g).tables
    return search, AutSet(g, groups_mod._compose_after(inner, phi), kind="full")


class TestBlockedKernel:
    @pytest.mark.parametrize("spec", sorted(AUT_DIGESTS))
    def test_aut_set_matches_the_backtracking_search(self, spec):
        assert aut_digest(automorphism_group(make_group(spec))) == AUT_DIGESTS[spec]

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_block_size_does_not_change_the_set(self, monkeypatch, block):
        # the block holds max(1, block // (|G| * k)) candidate rows
        monkeypatch.setattr(groups_mod, "_HOM_BLOCK_ELEMENTS", block)
        for spec in ["sym:3", "q8", "dih:5", "prod:(cyc:3)x(cyc:3)", "alt:5"]:
            assert aut_digest(automorphism_group(make_group(spec))) == AUT_DIGESTS[spec]

    @pytest.mark.parametrize(
        "spec",
        ["sym:3", "cyc:6", "dih:4", "q8", "prod:(cyc:2)x(cyc:2)", "prod:(cyc:2)x(cyc:4)",
         "prod:(cyc:4)x(cyc:4)", "alt:4", "dih:5"],
    )
    def test_rows_kept_from_all_image_tuples_are_the_automorphisms(self, spec):
        # every tuple of G^k, not only the buckets, so that no generator's
        # relations hold merely because its image has the right order
        g = make_group(spec)
        walk = choose_generators(g)
        levels, edges = groups_mod._spanning_program(g.table, walk)
        images = np.array(
            list(itertools.product(range(g.order), repeat=len(walk.generators))), np.int32
        )
        kept = groups_mod._hom_rows(g.table, levels, edges, images)
        expected = set(row_tuples(automorphism_group(g)))
        assert {tuple(row) for row in kept.tolist()} == expected
        assert all(is_automorphism(g, row) for row in kept)
        if g.order <= 8:
            assert expected == set(brute_force_automorphisms(g))

    def test_work_is_known_before_the_search(self):
        g = make_group("sym:6")
        search = groups_mod.plan_hom_search(g, g)
        assert (search.candidates, len(search.generators)) == (240 * 30, 2)

    @pytest.mark.parametrize(
        "spec", ["pow:(cyc:2)^5", "pow:(cyc:2)^8", "pow:(alt:5)^2", "pow:(cyc:3)^4"]
    )
    def test_refusal_comes_before_any_block(self, monkeypatch, spec):
        def no_blocks(*args):
            raise AssertionError("a kernel block ran")

        monkeypatch.setattr(groups_mod, "_hom_rows", no_blocks)
        g = make_group(spec)
        with pytest.raises(CapExceeded):
            automorphism_group(g)
        with pytest.raises(CapExceeded):
            is_isomorphic(g, g)

    def test_cap_is_the_work(self, monkeypatch):
        def work(g):
            search = groups_mod.plan_hom_search(g, g)
            return search.candidates * g.order * len(search.generators)

        # sym:5 carries its Φ, so its search is planned directly; alt:6 is
        # still searched by `automorphism_group`
        g, alt6 = make_group("sym:5"), make_group("alt:6")
        sym5_work, alt6_work = work(g), work(alt6)
        monkeypatch.setattr(groups_mod, "HOM_WORK_CAP", sym5_work)
        assert len(searched_aut(make_group("sym:5"))[1]) == 120
        monkeypatch.setattr(groups_mod, "HOM_WORK_CAP", alt6_work)
        assert len(automorphism_group(make_group("alt:6"))) == 1440
        # the cap is read at call time, and a fresh group plans its own search
        monkeypatch.setattr(groups_mod, "HOM_WORK_CAP", sym5_work - 1)
        with pytest.raises(CapExceeded):
            groups_mod.plan_hom_search(g, g)
        with pytest.raises(CapExceeded):
            is_isomorphic(g, make_group("sym:5"))
        monkeypatch.setattr(groups_mod, "HOM_WORK_CAP", alt6_work - 1)
        with pytest.raises(CapExceeded):
            automorphism_group(make_group("alt:6"))

    def test_result_cap(self, monkeypatch):
        monkeypatch.setattr(groups_mod, "AUTSET_SIZE_CAP", 20160)
        assert len(automorphism_group(make_group("pow:(cyc:2)^4"))) == 20160
        monkeypatch.setattr(groups_mod, "AUTSET_SIZE_CAP", 20159)
        with pytest.raises(CapExceeded):
            automorphism_group(make_group("pow:(cyc:2)^4"))


class TestInnerReduction:
    """Aut(G) as Inn(G)·Φ: the search tries the first two generator images up
    to conjugation, and the automorphisms found are expanded by Inn(G)."""

    def test_digests_do_not_depend_on_the_compose_block(self, monkeypatch):
        monkeypatch.setattr(groups_mod, "_COMPOSE_BLOCK_ELEMENTS", 5)
        for spec in sorted(AUT_DIGESTS):
            assert aut_digest(automorphism_group(make_group(spec))) == AUT_DIGESTS[spec], spec

    @pytest.mark.parametrize("spec", LATTICE_SPECS)
    def test_aut_is_inn_times_phi(self, spec):
        g = make_group(spec)
        search = groups_mod.plan_hom_search(g, g)
        phi = groups_mod._search_homs(search, find_all=True, max_results=10**6)
        assert all(is_automorphism(g, row) for row in phi)
        first = phi[:, search.generators[0]]
        assert (g.class_minima[first] == first).all()
        size, inner = len(automorphism_group(g)), len(inner_automorphisms(g))
        if len(search.generators) == 2:
            assert size == inner * len(phi)
        else:
            assert size <= inner * len(phi)

    @pytest.mark.parametrize(
        "spec", _battery_groups() + ["prod:(cyc:2)x(q8)", "dih:12", "sym:6", "cyc:64",
                                     "prod:(alt:5)x(cyc:2)"]
    )
    def test_one_row_per_center_coset_gives_every_inner_automorphism(self, spec):
        g = make_group(spec)
        t, inv = g.table, g.inv_table
        every_row = AutSet(g, t[t, inv[:, None]], kind="inner")  # row x is conj(x)
        assert inner_automorphisms(g).tables.tolist() == every_row.tables.tolist()

    @pytest.mark.parametrize("spec", ["alt:5", "dih:12", "prod:(sym:4)x(cyc:3)", "q8"])
    def test_inn_is_sorted_into_a_set_only_when_asked_for(self, spec):
        # Aut(G) and the lattice read the unsorted rows kept on the group
        g = make_group(spec)
        automorphism_group(g)
        subgroups(g)
        assert ("inn",) not in g._derived
        rows = groups_mod._inner_rows(g)
        assert not rows.flags.writeable
        assert inner_automorphisms(g).tables.tolist() == sorted(rows.tolist())

    def test_abelian_groups_have_one_inner_row_and_no_composites(self, monkeypatch):
        def no_composites(*args):
            raise AssertionError("a composite was built")

        monkeypatch.setattr(groups_mod, "_compose_after", no_composites)
        abelian = [s for s in sorted(AUT_DIGESTS) if make_group(s).is_abelian]
        assert len(abelian) > 20
        for spec in abelian:
            g = make_group(spec)
            assert inner_automorphisms(g).tables.tolist() == [list(range(g.order))]
            assert aut_digest(automorphism_group(g)) == AUT_DIGESTS[spec], spec
        assert len(inner_automorphisms(make_group("cyc:4096"))) == 1

    def test_some_lattice_groups_have_two_generators(self):
        two = [s for s in LATTICE_SPECS
               if len(choose_generators(make_group(s)).generators) == 2]
        assert {"sym:4", "alt:5", "dih:8", "prod:(sym:4)x(cyc:3)"} <= set(two)

    @pytest.mark.parametrize(
        "spec,tried", [("alt:5", 6), ("sym:5", 3), ("alt:6", 18), ("sym:6", 16)]
    )
    def test_rows_tried(self, monkeypatch, spec, tried):
        rows = []
        real = groups_mod._hom_rows
        monkeypatch.setattr(
            groups_mod, "_hom_rows", lambda *a: rows.append(len(a[-1])) or real(*a)
        )
        search, _ = searched_aut(make_group(spec))
        assert search.tried == sum(rows) == tried
        assert search.candidates > tried

    def test_size_cap_refuses_before_any_composite(self, monkeypatch):
        def no_composites(*args):
            raise AssertionError("a composite was built")

        monkeypatch.setattr(groups_mod, "AUTSET_SIZE_CAP", 1439)
        monkeypatch.setattr(groups_mod, "_compose_after", no_composites)
        with pytest.raises(CapExceeded, match="exceeds cap 1439"):
            automorphism_group(make_group("alt:6"))


CLOSED_FORM_SPECS = (
    [f"sym:{n}" for n in range(1, 6)] + [f"alt:{n}" for n in range(1, 6)]
    + [f"cyc:{n}" for n in range(1, 65)]
)


class TestClosedForms:
    """C_n, and S_n and A_n for n ≠ 6, carry Φ from their builders, and
    `automorphism_group` runs no search on them; the search is the oracle."""

    @pytest.mark.parametrize("spec", CLOSED_FORM_SPECS)
    def test_closed_form_tables_are_the_searched_ones(self, spec):
        g = make_group(spec)
        assert groups_mod._phi_rows(g)[1] is None
        aut = automorphism_group(g)
        assert aut.tables.tolist() == searched_aut(make_group(spec))[1].tables.tolist()

    @pytest.mark.parametrize(
        "spec,mutate",
        [
            ("alt:5", lambda rows, n: rows[:1]),  # τ dropped
            ("cyc:12", lambda rows, n: np.vstack([rows, 2 * np.arange(n) % n])),  # u = 2
        ],
    )
    def test_a_mutated_closed_form_fails_the_comparison(self, spec, mutate):
        g = make_group(spec)
        real = g._phi
        g._phi = lambda: mutate(real(), g.order)
        searched = searched_aut(make_group(spec))[1].tables.tolist()
        assert automorphism_group(g).tables.tolist() != searched

    @pytest.mark.parametrize("spec", ["sym:6", "alt:6", "dih:5", "q8", "prod:(cyc:2)x(cyc:3)",
                                      "pow:(cyc:5)^1", "pow:(alt:5)^1"])
    def test_other_constructions_are_searched(self, spec):
        g = make_group(spec)
        assert g._phi is None
        assert groups_mod._phi_rows(g)[1] is not None

    def test_subgroups_and_quotients_are_searched(self):
        g = make_group("sym:4")
        v4 = next(h for h in normal_subgroups(g) if h.order == 4)
        assert v4.as_group._phi is None and v4.as_quotient.quotient._phi is None

    def test_alt7_is_answered_without_the_search(self):
        g = make_group("alt:7")
        with pytest.raises(CapExceeded):
            groups_mod.plan_hom_search(g, g)
        aut = automorphism_group(g)
        assert len(aut) == 5040 and groups_mod._phi_rows(g)[1] is None
        rows = np.random.default_rng(7).choice(len(aut), size=20, replace=False)
        assert all(is_automorphism(g, aut.tables[i]) for i in rows)

    @pytest.mark.parametrize("spec", [s for s in sorted(AUT_DIGESTS) if make_group(s).is_abelian])
    def test_abelian_classes_equal_the_general_pass(self, spec):
        g, general = make_group(spec), make_group(spec)
        general.is_abelian = False  # forces the one pass over the classes
        short, full = g._classes, general._classes
        assert short[0] == full[0]
        assert short[1].tolist() == full[1].tolist() and short[2].tolist() == full[2].tolist()


def tuple_sorted(aut):
    return sorted(row_tuples(aut))


class TestCanonicalOrder:
    @pytest.mark.parametrize("spec", sorted(AUT_DIGESTS))
    def test_order_equals_the_tuple_sort(self, spec):
        aut = automorphism_group(make_group(spec))
        assert row_tuples(aut) == tuple_sorted(aut)

    def test_wreath_sets(self):
        for spec, base in (("sym:3", automorphism_group), ("cyc:3", automorphism_group),
                           ("sym:3", inner_automorphisms)):
            s = make_group(spec)
            w = whole_wreath_set(s, 2, base(s))
            assert row_tuples(w) == tuple_sorted(w)
        # a sample of Aut(A5) wr S2, given shuffled and with repeats
        s = make_group("alt:5")
        base = automorphism_group(s)
        parts = draw_wreath_parts(np.random.default_rng(7), len(base), 2, 300)
        drawn = wreath_rows(base, 2, *parts)
        members = np.concatenate([np.arange(3600)[None], drawn, drawn[:50]])
        sample = AutSet(power_group(s, 2), members, kind="custom")
        assert len(sample) == len(set(map(tuple, members.tolist())))
        assert row_tuples(sample) == tuple_sorted(sample)

    def test_stacked_tables_and_automorphisms_agree(self):
        g = make_group("dih:4")
        aut = automorphism_group(g)
        shuffled = aut.tables[np.random.default_rng(0).permutation(len(aut))]
        from_rows = AutSet(g, np.concatenate([shuffled, shuffled[:3]]), kind="custom")
        assert from_rows.tables.tolist() == aut.tables.tolist()

    def test_empty_set_is_refused(self):
        g = make_group("cyc:3")
        with pytest.raises(ValueError):
            AutSet(g, [], kind="custom")
        with pytest.raises(ValueError):
            AutSet(g, np.array([[0, 2, 1]]), kind="custom")  # no identity


class TestDerivedStructure:
    """Aut(G) and the normal lattice are built once per group object."""

    def test_aut_is_built_once_per_group(self, monkeypatch):
        g = make_group("dih:4")
        calls = []
        real = groups_mod._search_homs
        monkeypatch.setattr(
            groups_mod, "_search_homs", lambda *a, **k: calls.append(None) or real(*a, **k)
        )
        first = automorphism_group(g)
        assert automorphism_group(g) is first
        assert normal_subgroups(g)[0].characteristic and len(calls) == 1
        assert automorphism_group(make_group("dih:4")) is not first
        assert len(calls) == 2

    def test_klein_four_subgroups_of_d8_are_normal_not_characteristic(self):
        # the two Klein four-subgroups are normal; Aut(D8) swaps them
        g = make_group("dih:4")
        klein = [s for s in normal_subgroups(g)
                 if s.order == 4 and (g.element_orders[list(s.elements)] <= 2).all()]
        assert len(klein) == 2
        assert all(s.normal and not s.characteristic for s in klein)

    def test_lattice_calls_share_their_handles_in_new_lists(self):
        g = make_group("alt:4")
        first, second = normal_subgroups(g), normal_subgroups(g)
        assert first is not second
        assert all(a is b for a, b in zip(first, second))
        first.clear()
        assert len(normal_subgroups(g)) == len(second) == 3


def test_readme_lists_exactly_the_public_caps():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    row = next(line for line in readme.splitlines() if line.startswith("| `wordfibers.groups`"))
    public = {name for name in vars(groups_mod) if name.endswith("_CAP") and name[0] != "_"}
    assert set(re.findall(r"`([A-Z][A-Z_]*_CAP)`", row)) == public


def swapped_cyclic(n, p):
    """The `cyc:n` table with the entries at (p, p) and (p+h, p+h), h = n/2,
    swapped with those at (p, p+h) and (p+h, p): still a Latin square with
    identity and inverses, but not associative."""
    t = make_group(f"cyc:{n}").table.copy()
    h = n // 2
    t[[p, p + h, p, p + h], [p, p + h, p + h, p]] = t[[p, p + h, p, p + h], [p + h, p, p, p + h]]
    return t


class TestAssociativity:
    """`FiniteGroup.validate` checks associativity exactly by Light's test on
    at most ⌊log2 |G|⌋ generators."""

    @pytest.mark.parametrize("n, p", [(128, 1), (128, 2), (1024, 9), (1024, 10),
                                      (4096, 2), (4096, 5)])
    def test_swapped_cyclic_tables_are_refused(self, n, p):
        t = swapped_cyclic(n, p)
        assert (np.sort(t, axis=0) == np.arange(n)[:, None]).all()
        assert (np.sort(t, axis=1) == np.arange(n)).all()
        with pytest.raises(ValueError, match="not associative"):
            groups_mod.FiniteGroup(n, table=t).validate()

    def test_a_swapped_table_file_is_a_usage_error(self, tmp_path):
        path = tmp_path / "swapped.tbl"
        write_cayley_table(path, groups_mod.FiniteGroup(128, table=swapped_cyclic(128, 1)))
        code, doc = run_wfl(["group", "make", "--spec", f"table:{path}"])
        assert code == EXIT_USAGE
        assert doc["result"]["error"] == "multiplication is not associative"

    @staticmethod
    def second_generator_fault():
        # element 1 generates the central cyc:3 and passes; generator 3 fails
        bad = groups_mod.FiniteGroup(8, table=swapped_cyclic(8, 1))
        return groups_mod.direct_product(bad, make_group("cyc:3"))

    def test_the_second_generator_catches_a_fault(self):
        with pytest.raises(ValueError, match="not associative"):
            self.second_generator_fault().validate()

    def test_checking_only_the_first_generator_accepts_a_non_group(self, monkeypatch):
        # mutation: the reach after the first generator is taken to be G
        g = self.second_generator_fault()
        monkeypatch.setattr(groups_mod, "_span_mask",
                            lambda table, gens, start=None: np.ones(len(table), dtype=bool))
        g.validate()

    @pytest.mark.parametrize("spec", sorted(AUT_DIGESTS))
    def test_every_digest_group_loads_from_its_table_file(self, tmp_path, spec):
        g = make_group(spec)
        path = tmp_path / "g.tbl"
        write_cayley_table(path, g)
        h = make_group(f"table:{path}")
        assert (h.table == g.table).all()

    # pow:(cyc:2)^12 needs 12 = ⌊log2 4096⌋ generators, all the bound allows
    @pytest.mark.parametrize("spec", ["pow:(cyc:2)^12", "dih:2048"])
    def test_validation_at_the_order_cap_is_fast(self, spec):
        g = make_group(spec)
        start = time.perf_counter()
        g.validate()
        assert time.perf_counter() - start < 2.0

