"""Command-line surface: canonical JSON output, a result cache, and the
battery runner.

Every subcommand emits a single JSON document {schema_version, request,
result, status, stats} with sorted keys, integers as decimal strings and
rationals as "p/q", so exact-mode output is byte-identical across runs and
thread counts.  Exit codes: 0 success/pass, 1 check failed, 2 usage error,
3 budget or cap exceeded.  `--help` prints argparse's help text instead, and
exits 0.

Every subcommand is one row of `COMMANDS`: its parameters, which build its
options and its request echo, and its handler.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, is_dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .errors import BudgetExceeded, CapExceeded, EmptyWordError, WordSyntaxError
from .fibers import (
    DEFAULT_BUDGET,
    fiber_distribution,
    max_fiber,
    pi_w,
)
from .groups import (
    AutSet,
    FiniteGroup,
    SubgroupHandle,
    _inner_rows,
    _phi_rows,
    automorphism_group,
    characteristic_series,
    identity_autset,
    inner_automorphisms,
    make_group,
    normal_subgroups,
    solvable_radical,
    subgroup_handle,
    subgroups,
)
from .verify import (
    CheckReport,
    check_dihedral_counterexample,
    check_identity_maximal,
    check_rewrite,
    check_submultiplicative,
    check_variation_bound,
    check_variation_projection,
)
from .words import format_word, m_constant, parse_word, variation_count, variations

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def parse_fraction(text: str) -> Fraction:
    """Exact rational from 'p/q', an integer, or a decimal literal; a zero
    denominator is a ValueError, as any other bad literal is."""
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argument type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _digits(value) -> str:
    """The decimal digits of an integer.  ``str()`` refuses ints beyond
    Python's digit limit (4300 digits by default), and exact values reach
    10^4 digits; ``decimal.Decimal`` converts without that limit."""
    value = int(value)
    try:
        return str(value)
    except ValueError:
        return str(decimal.Decimal(value))


def canonical(obj):
    """Convert a result tree to JSON-ready form with canonical number formats."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return _digits(obj)
    if isinstance(obj, Fraction):
        return f"{_digits(obj.numerator)}/{_digits(obj.denominator)}"
    if isinstance(obj, np.ndarray):
        return [canonical(x) for x in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    # mpf and LogNumber values come only from the bounds handlers, which
    # import `bounds` (and mpmath) on first use
    bounds = sys.modules.get(f"{__package__}.bounds")
    if bounds is not None and isinstance(obj, bounds.mpmath.mpf):
        return bounds.mpmath.nstr(obj, 50)
    if bounds is not None and isinstance(obj, bounds.LogNumber):
        doc = {"ln": obj.ln_str(50)}
        if obj.exact is not None:
            doc["exact"] = _digits(obj.exact)
        if obj.is_factorial_of is not None:
            doc["is_factorial_of"] = _digits(obj.is_factorial_of)
        return doc
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: canonical(v) for k, v in vars(obj).items()}
    if obj is None or isinstance(obj, (str, float)):
        return obj
    return str(obj)


def dumps_canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def request_digest(request: dict) -> str:
    # imported on first use: only a request against a result cache needs it
    import hashlib
    return hashlib.sha256(dumps_canonical(request).encode()).hexdigest()


class ResultCache:
    """Append-only JSON-lines store keyed by request digest."""

    def __init__(self, directory: str | Path):
        self.path = Path(directory) / "cache.jsonl"
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def lookup(self, digest: str) -> Optional[dict]:
        if not self.path.exists():
            return None
        for line_no, line in enumerate(self.path.read_text().splitlines(), 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                print(
                    f"warning: skipping corrupt cache line {line_no}",
                    file=sys.stderr,
                )
                continue
            if record.get("digest") == digest:
                return record
        return None

    def store(self, digest: str, doc: dict) -> None:
        record = dict(doc)
        record["digest"] = digest
        record["created"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        with self.path.open("a") as handle:
            handle.write(dumps_canonical(record) + "\n")


class Context:
    """Per-request settings and groups; a handler may add work counters to
    ``stats``.

    `group` builds each spec once per request, so every check of a battery
    on the same spec shares one `FiniteGroup`, and with it the structure
    cached on the group: Aut(G), the normal lattice and its quotients.  A
    new request builds everything again."""

    def __init__(self, threads: int, budget: int):
        self.threads = threads
        self.budget = budget
        self.stats: dict = {}
        self._groups: dict[str, FiniteGroup] = {}

    def group(self, spec: str) -> FiniteGroup:
        """The request's group for ``spec``, built on first use."""
        g = self._groups.get(spec)
        if g is None:
            g = self._groups[spec] = make_group(spec)
        return g

    def close(self) -> None:
        """Drop the structure cached on the request's groups.  Aut(G) and the
        normal lattice refer back to their group, so a group and its cache
        form reference cycles, which would hold their tables past the request
        until the cyclic garbage collector runs."""
        for g in self._groups.values():
            g._derived.clear()


def _group_and_aut(ctx: Context, spec: str, which: str) -> tuple[FiniteGroup, AutSet]:
    g = ctx.group(spec)
    if which == "id":
        return g, identity_autset(g)
    if which == "inn":
        return g, inner_automorphisms(g)
    if which == "aut":
        return g, automorphism_group(g)
    raise ValueError(f"unknown automorphism set {which!r}; use id, inn or aut")


def resolve_subgroup(g: FiniteGroup, spec: str):
    """Subgroup selector: center | radical | order:<k> | indices:i,j,...

    The automorphisms that the characteristic flags read (`_phi_rows`) are
    found first, so their search's caps refuse before the selector is read.
    The center is characteristic, and only ``indices:`` input is checked to
    be a subgroup."""
    _phi_rows(g)
    if spec == "center":
        center = SubgroupHandle(g, g.center)
        center.normal = center.characteristic = True
        return center
    if spec == "radical":
        return solvable_radical(g)
    if spec.startswith("order:"):
        k = int(spec[6:])
        hits = [s for s in normal_subgroups(g) if s.order == k and s.characteristic]
        if len(hits) != 1:
            raise ValueError(
                f"expected exactly one characteristic subgroup of order {k}, "
                f"found {len(hits)}"
            )
        return hits[0]
    if spec.startswith("indices:"):
        elements = [int(x) for x in spec[8:].split(",") if x]
        return subgroup_handle(g, elements)
    raise ValueError(f"unknown subgroup selector {spec!r}")


class CheckFailed(Exception):
    """A handler's result whose check failed: the request reports it with
    status "fail" and exit code 1."""

    def __init__(self, result):
        super().__init__("check failed")
        self.result = result


# -- command handlers -----------------------------------------------------------


def cmd_word_parse(args, ctx):
    w = parse_word(args.word)
    return {
        "word": format_word(w),
        "length": w.length,
        "num_variables": w.num_variables,
        "letters": [[l.var, l.sign] for l in w.letters],
    }


def cmd_word_variations(args, ctx):
    w = parse_word(args.word, require_nonempty=True)
    count = variation_count(w)
    listed = []
    for v in variations(w):
        if len(listed) >= args.limit:
            break
        listed.append(
            {
                "letters": [[l.var, l.copy, l.sign] for l in v.letters],
                "flattened": format_word(v.flattened),
            }
        )
    return {"count": count, "variations": listed}


def cmd_word_mconst(args, ctx):
    return {"M": m_constant(args.d, args.l)}


def cmd_group_make(args, ctx):
    g = ctx.group(args.spec)
    return {
        "spec": g.spec,
        "order": g.order,
        "abelian": g.is_abelian,
        "center_size": len(g.center),
        "class_sizes": sorted(len(c) for c in g.conjugacy_classes),
    }


def cmd_group_auts(args, ctx):
    g = ctx.group(args.spec)
    aut = automorphism_group(g)
    # a group that carries its Φ runs no search: no rows tried, no generators
    _, search = _phi_rows(g)
    ctx.stats.update(
        aut_candidates=search.tried if search else 0,
        aut_generators=len(search.generators) if search else 0,
    )
    doc = {
        "order": g.order,
        "aut_size": len(aut),
        "inner_size": len(_inner_rows(g)),
    }
    if args.tables:
        doc["tables"] = aut.tables.tolist()
    return doc


def cmd_group_subgroups(args, ctx):
    g = ctx.group(args.spec)
    subs = subgroups(g)
    return {
        "count": len(subs),
        "subgroups": [
            {
                "elements": list(s.elements),
                "order": s.order,
                "normal": s.normal,
                "characteristic": s.characteristic,
            }
            for s in subs
        ],
    }


def cmd_group_series(args, ctx):
    g = ctx.group(args.spec)
    series = characteristic_series(g)
    return {
        "chain": [
            {"order": h.order, "elements": list(h.elements)} for h in series.chain
        ],
        "factors": [
            {
                "factor_order": f.factor.order,
                "simple_order": f.simple.order,
                "copies": f.copies,
                "abelian": f.simple.is_abelian,
            }
            for f in series.factors
        ],
    }


def cmd_group_radical(args, ctx):
    g = ctx.group(args.spec)
    rad = solvable_radical(g)
    return {"order": rad.order, "elements": list(rad.elements)}


def cmd_fiber_dist(args, ctx):
    g, autset = _group_and_aut(ctx, args.group, args.auts)
    w = parse_word(args.word, require_nonempty=True)
    if args.tuple:
        indices = [int(x) for x in args.tuple.split(",")]
    else:
        indices = [0] * w.length
    if len(indices) != w.length:
        raise ValueError(f"need {w.length} tuple indices, got {len(indices)}")
    if any(not 0 <= i < len(autset) for i in indices):
        raise ValueError(f"tuple indices must lie in 0..{len(autset) - 1}")
    dist = fiber_distribution(g, w, autset.tables[indices], budget=ctx.budget)
    return {
        "counts": [int(c) for c in dist.counts],
        "order": dist.order,
        "arity": dist.arity,
        "total": dist.total,
    }


def cmd_fiber_pi(args, ctx):
    g = ctx.group(args.group)
    w = parse_word(args.word, require_nonempty=True)
    value, proportion = pi_w(g, w, budget=ctx.budget)
    return {"max_fiber": value, "proportion": proportion}


def cmd_fiber_max(args, ctx):
    g, autset = _group_and_aut(ctx, args.group, args.auts)
    w = parse_word(args.word, require_nonempty=True)
    target = None if args.target == "any" else int(args.target)
    res = max_fiber(
        g,
        w,
        autset,
        target=target,
        mode=args.mode,
        budget=ctx.budget,
        seed=args.seed,
        threads=ctx.threads,
        samples=args.samples,
    )
    doc = {
        "value": res.value,
        "proportion": res.proportion,
        "witness_target": res.witness_target,
        "witness_tuple_indices": list(res.witness_tuple_indices),
        "status": res.status,
        "tuples_examined": res.tuples_examined,
        "evaluations": res.evaluations,
    }
    ctx.stats.update(
        tuples_scanned=res.tuples_scanned, evaluations_performed=res.evaluations_performed
    )
    if res.seed is not None:
        doc["seed"] = res.seed
    return doc


# -- parameters and the check registry ------------------------------------------


@dataclass(frozen=True)
class Param:
    """One command parameter: a `--name` option, and for a check a manifest
    key too.  The request echoes its value unless that is None."""

    name: str
    type: Callable = str  # bool: a flag, False when absent
    default: object = ...  # ...: required
    choices: Optional[tuple] = None
    help: Optional[str] = None
    flag: Optional[str] = None  # the option's spelling, if not --name with dashes

    def convert(self, value):
        if self.type is int and isinstance(value, (bool, float)):
            raise ValueError(f"{self.name!r} must be an integer, got {json.dumps(value)}")
        value = self.type(value)
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"{self.name} must be one of {', '.join(self.choices)}")
        return value

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        required = self.default is ...
        kind = (
            {"action": "store_true"}
            if self.type is bool
            else {"type": self.type, "choices": self.choices}
        )
        parser.add_argument(
            self.flag or "--" + self.name.replace("_", "-"),
            dest=self.name,
            required=required,
            default=None if required else self.default,
            help=self.help,
            **kind,
        )


@dataclass(frozen=True)
class Check:
    """A checker as `wfl verify <name>` and as a manifest entry `"check": name`."""

    name: str
    params: tuple[Param, ...]
    # (params, request context, budget); searches split over ctx.threads
    run: Callable[[dict, Context, int], CheckReport]


def _run_identity_max(p, ctx, budget):
    g, autset = _group_and_aut(ctx, p["group"], p["auts"])
    w = parse_word(p["word"], require_nonempty=True)
    return check_identity_maximal(g, w, autset, budget=budget, threads=ctx.threads)


def _run_submult(p, ctx, budget):
    g, autset = _group_and_aut(ctx, p["group"], p["auts"])
    n = resolve_subgroup(g, p["subgroup"])
    w = parse_word(p["word"], require_nonempty=True)
    return check_submultiplicative(g, n, w, autset, budget=budget, threads=ctx.threads)


def _run_rewrite(p, ctx, budget):
    g = ctx.group(p["group"])
    aut = automorphism_group(g)
    n = resolve_subgroup(g, p["subgroup"])
    w = parse_word(p["word"], require_nonempty=True)
    return check_rewrite(g, n, w, aut, trials=p["trials"], seed=p["seed"], budget=budget)


def _run_variation_bound(p, ctx, budget):
    s = ctx.group(p["simple"])
    w = parse_word(p["word"], require_nonempty=True)
    return check_variation_bound(
        s,
        p["n"],
        w,
        samples=p["samples"],
        seed=p["seed"],
        exponent_mode=p["exponent_mode"],
        epsilon_factor=parse_fraction(p["epsilon_factor"]),
        budget=budget,
        threads=ctx.threads,
    )


def _run_variation_projection(p, ctx, budget):
    g = ctx.group(p["group"])
    w = parse_word(p["word"], require_nonempty=True)
    return check_variation_projection(g, w, budget=budget, threads=ctx.threads)


_AUTS = Param("auts", default="aut", choices=("inn", "aut"))
_BUDGET = Param("budget", int)
CHECKS = {
    c.name: c
    for c in (
        Check("identity-max", (Param("group"), Param("word"), _AUTS), _run_identity_max),
        Check(
            "submult",
            (Param("group"), Param("subgroup"), Param("word"), _AUTS),
            _run_submult,
        ),
        Check(
            "dihedral",
            (Param("o", int),),
            lambda p, ctx, budget: check_dihedral_counterexample(p["o"], budget=budget),
        ),
        Check(
            "rewrite",
            (Param("group"), Param("subgroup"), Param("word"),
             Param("trials", int, 100), Param("seed", int, 0)),
            _run_rewrite,
        ),
        Check(
            "variation-bound",
            (Param("simple"), Param("n", int, 1), Param("word"),
             Param("samples", int, 1000), Param("seed", int, 0),
             Param("exponent_mode", default="ceil", choices=("ceil", "floor")),
             Param("epsilon_factor", default="1")),
            _run_variation_bound,
        ),
        Check("variation-projection", (Param("group"), Param("word")),
              _run_variation_projection),
    )
}


def cmd_verify_check(args, ctx):
    check = CHECKS[args.action]
    report = check.run({p.name: getattr(args, p.name) for p in check.params}, ctx, ctx.budget)
    if report.outcome == "fail":
        raise CheckFailed(report)
    return report


def _entry_params(index: int, entry, budget: int) -> tuple[Check, dict, int]:
    """Validate manifest entry `index` against the registry: its check, params
    (defaults filled in) and budget, which the `budget` key overrides."""
    if not isinstance(entry, dict):
        raise ValueError(f"manifest entry {index} is not an object")
    name = entry.get("check")
    check = CHECKS.get(name) if isinstance(name, str) else None
    if check is None:
        raise ValueError(f"manifest entry {index}: unknown check type {name!r}")
    declared = {p.name for p in check.params}
    for key in entry:
        if key not in declared and key not in ("check", "budget"):
            raise ValueError(
                f"manifest entry {index}: unknown key {key!r} for check {check.name!r}"
            )
    params = {}
    try:
        for p in check.params:
            if p.name in entry:
                params[p.name] = p.convert(entry[p.name])
            elif p.default is ...:
                raise ValueError(f"missing key {p.name!r}")
            else:
                params[p.name] = p.default
        budget = _BUDGET.convert(entry.get("budget", budget))
    except (TypeError, ValueError) as err:
        raise ValueError(f"manifest entry {index}: {err}") from err
    return check, params, budget


def run_battery_entry(entry: dict, ctx: Context, index: int = 0) -> CheckReport:
    """Run one manifest entry; ``ctx.threads`` splits its tuple searches."""
    check, params, budget = _entry_params(index, entry, ctx.budget)
    return check.run(params, ctx, budget)


def default_battery_path() -> Path:
    return Path(str(resources.files("wordfibers").joinpath("data/battery.json")))


def cmd_verify_battery(args, ctx):
    manifest_path = Path(args.manifest) if args.manifest else default_battery_path()
    try:
        entries = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ValueError(f"cannot read manifest {manifest_path}: {err}") from err
    if not isinstance(entries, list):
        raise ValueError("the manifest must be a JSON list of check entries")
    for index, entry in enumerate(entries):
        _entry_params(index, entry, ctx.budget)  # refuse a bad manifest before any work
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = [run_battery_entry(entry, ctx, index) for index, entry in enumerate(entries)]
    summary = {"total": len(reports), "passed": 0, "failed": 0, "inconclusive": 0}
    files = []
    for idx, report in enumerate(reports):
        name = f"check_{idx:03d}_{report.claim}.json"
        (out_dir / name).write_text(dumps_canonical(canonical(report)) + "\n")
        files.append(name)
        if report.outcome == "pass":
            summary["passed"] += 1
        elif report.outcome == "fail":
            summary["failed"] += 1
        else:
            summary["inconclusive"] += 1
    result = {
        "summary": summary,
        "reports": files,
        "outcomes": [r.outcome for r in reports],
    }
    if summary["failed"]:
        raise CheckFailed(result)
    return result


def cmd_bounds_exclude(args, ctx):
    from .bounds import excluded_factors_report
    w = parse_word(args.word, require_nonempty=True)
    report = excluded_factors_report(w, parse_fraction(args.rho))
    return {
        "word": report.word,
        "length": report.length,
        "arity": report.arity,
        "rho": report.rho,
        "M": report.m_value,
        "M_prime": report.m_prime_value,
        "alt": report.alt,
        "lie": report.lie,
        "alt_fiber_bound": {
            "degree_threshold": report.alt_fiber_bound[0],
            "exponent": report.alt_fiber_bound[1],
        },
        "lie_fiber_bound": {
            "rank_threshold": report.lie_fiber_bound[0],
            "exponent": report.lie_fiber_bound[1],
        },
        "narrative": report.narrative,
    }


def cmd_bounds_alt(args, ctx):
    from .bounds import alt_exclusion_threshold
    w = parse_word(args.word, require_nonempty=True)
    return alt_exclusion_threshold(w, parse_fraction(args.rho))


def cmd_bounds_lie(args, ctx):
    from .bounds import lie_rank_threshold
    w = parse_word(args.word, require_nonempty=True)
    return lie_rank_threshold(w, parse_fraction(args.rho))


def cmd_bounds_n0(args, ctx):
    from .bounds import n0_bound
    w = parse_word(args.word, require_nonempty=True)
    return {"n0": n0_bound(w, parse_fraction(args.rho), args.order)}


def cmd_bounds_radical_bound(args, ctx):
    from .bounds import radical_index_bound
    w = parse_word(args.word, require_nonempty=True)
    factors = []
    if args.factors:
        for part in args.factors.split(","):
            s_order, aut_order = part.split(":")
            factors.append((int(s_order), int(aut_order)))
    bound = radical_index_bound(
        factors,
        w,
        parse_fraction(args.rho),
        int(args.n_zero),
        parse_fraction(args.eta_zero),
    )
    return {"bound": bound, "factors": len(factors)}


# -- the command table ----------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """The subcommand `wfl <module> <action>`: its parameters and its handler.
    The handler, a `cmd_*` function of this module, returns the result; it
    is looked up by name when the request runs, so a handler replaced on
    this module after the parser is built (say, by a tracing wrapper) is
    the one called."""

    module: str
    action: str
    params: tuple[Param, ...]
    handler: Callable[[argparse.Namespace, Context], object]
    cached: bool = True  # False: the result cache is never read or written


COMMANDS = (
    Command("word", "parse", (Param("word"),), cmd_word_parse),
    Command("word", "variations", (Param("word"), Param("limit", _int_at_least(0), 64)),
            cmd_word_variations),
    Command("word", "mconst", (Param("l", int, flag="-l"), Param("d", int, flag="-d")),
            cmd_word_mconst),
    Command("group", "make", (Param("spec"),), cmd_group_make),
    Command("group", "auts", (Param("spec"), Param("tables", bool, False)), cmd_group_auts),
    Command("group", "subgroups", (Param("spec"),), cmd_group_subgroups),
    Command("group", "series", (Param("spec"),), cmd_group_series),
    Command("group", "radical", (Param("spec"),), cmd_group_radical),
    Command("fiber", "dist",
            (Param("group"), Param("word"),
             Param("auts", default="id", choices=("id", "inn", "aut")),
             Param("tuple", default=None, help="comma-separated tuple indices")),
            cmd_fiber_dist),
    Command("fiber", "pi", (Param("group"), Param("word")), cmd_fiber_pi),
    Command("fiber", "max",
            (Param("group"), Param("word"),
             Param("auts", default="aut", choices=("id", "inn", "aut")),
             Param("target", default="any"),
             Param("mode", default="exact", choices=("exact", "sample")),
             Param("samples", int, 1000), Param("seed", int, 0)),
            cmd_fiber_max),
    *(Command("verify", check.name, check.params, cmd_verify_check)
      for check in CHECKS.values()),
    Command("verify", "battery",
            (Param("manifest", default=None, help="defaults to the shipped manifest"),
             Param("out", default="battery_reports")),
            cmd_verify_battery, cached=False),
    Command("bounds", "exclude", (Param("word"), Param("rho")), cmd_bounds_exclude),
    Command("bounds", "alt", (Param("word"), Param("rho")), cmd_bounds_alt),
    Command("bounds", "lie", (Param("word"), Param("rho")), cmd_bounds_lie),
    Command("bounds", "n0", (Param("word"), Param("rho"), Param("order", int)), cmd_bounds_n0),
    Command("bounds", "radical-bound",
            (Param("word"), Param("rho"),
             Param("factors", default="", help="comma list of order:autorder"),
             Param("n_zero", int), Param("eta_zero")),
            cmd_bounds_radical_bound),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `wfl` argument parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="wfl",
        description="automorphic word map fibers on finite groups",
    )
    parser.add_argument(
        "--threads", type=_positive_int, default=None,
        help="worker threads, at most one per core",
    )
    parser.add_argument("--budget", type=int, default=None, help="evaluation budget")
    parser.add_argument("--cache-dir", default=None, help="result cache directory")
    parser.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache"
    )
    top = parser.add_subparsers(dest="module", required=True)
    actions = {}
    for command in COMMANDS:
        if command.module not in actions:
            actions[command.module] = top.add_parser(command.module).add_subparsers(
                dest="action", required=True
            )
        p = actions[command.module].add_parser(command.action)
        for param in command.params:
            param.add_to(p)
        p.set_defaults(command=command)
    return parser


def _setting(flag: Optional[int], env: str, default: int, parse: Callable[[str], int]) -> int:
    """The flag's value, else the environment variable's, else the default;
    a bad environment value is a usage error, as a bad flag is."""
    if flag is not None:
        return flag
    text = os.environ.get(env)
    if text is None:
        return default
    try:
        return parse(text)
    except (ValueError, argparse.ArgumentTypeError) as err:
        raise ValueError(f"{env}={text!r}: {err}") from None


def run_command(argv, stdout=None) -> int:
    stdout = stdout or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        threads = _setting(args.threads, "WFL_THREADS", 1, _positive_int)
        budget = _setting(args.budget, "WFL_BUDGET", DEFAULT_BUDGET, int)
    except (SystemExit, ValueError) as err:
        if isinstance(err, SystemExit) and err.code == 0:
            return EXIT_OK  # --help: argparse has printed the help text
        doc = {
            "schema_version": SCHEMA_VERSION,
            "request": {"argv": list(argv)},
            "result": {"error": str(err)} if isinstance(err, ValueError) else None,
            "status": "usage-error",
            "stats": {},
        }
        stdout.write(dumps_canonical(doc) + "\n")
        return EXIT_USAGE

    cache_dir = args.cache_dir if args.cache_dir is not None else os.environ.get(
        "WFL_CACHE_DIR"
    )
    command = args.command
    use_cache = cache_dir is not None and not args.no_cache and command.cached
    cache = ResultCache(cache_dir) if use_cache else None
    ctx = Context(threads=threads, budget=budget)

    params = {p.name: getattr(args, p.name) for p in command.params}
    request = {
        "command": f"{command.module} {command.action}",
        "params": canonical({k: v for k, v in params.items() if v is not None}),
        "version": __version__,
        "budget": str(budget),
    }
    if cache is not None:
        digest = request_digest(request)
        record = cache.lookup(digest)
        if record is not None:
            doc = {
                "schema_version": record["schema_version"],
                "request": record["request"],
                "result": record["result"],
                "status": record["status"],
                "stats": record["stats"],
            }
            stdout.write(dumps_canonical(doc) + "\n")
            return int(record["exit_code"])

    try:
        result = globals()[command.handler.__name__](args, ctx)  # see `Command`
        status, exit_code = "ok", EXIT_OK
    except CheckFailed as failed:
        result, status, exit_code = failed.result, "fail", EXIT_CHECK_FAILED
    except (BudgetExceeded, CapExceeded) as err:
        result, status, exit_code = {"error": str(err)}, "budget-exceeded", EXIT_BUDGET
    except (ValueError, WordSyntaxError, EmptyWordError, OSError) as err:
        result, status, exit_code = {"error": str(err)}, "usage-error", EXIT_USAGE
    finally:
        ctx.close()

    doc = {
        "schema_version": SCHEMA_VERSION,
        "request": request,
        "result": canonical(result),
        "status": status,
        "stats": canonical({**ctx.stats, "exit_code": exit_code}),
    }
    stdout.write(dumps_canonical(doc) + "\n")
    if cache is not None and status in ("ok", "fail"):
        cache.store(digest, {**doc, "exit_code": exit_code})
    return exit_code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
