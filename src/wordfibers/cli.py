"""Command-line surface: canonical JSON output, a result cache, and the
battery runner.

Every subcommand emits a single JSON document {schema_version, request,
result, status, stats} with sorted keys, integers as decimal strings and
rationals as "p/q", so exact-mode output is byte-identical across runs and
thread counts.  Exit codes: 0 success/pass, 1 check failed, 2 usage error,
3 budget or cap exceeded.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, is_dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

import mpmath
import numpy as np

from . import __version__
from .bounds import (
    LogNumber,
    alt_exclusion_threshold,
    excluded_factors_report,
    lie_rank_threshold,
    n0_bound,
    radical_index_bound,
)
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
    """Exact rational from 'p/q', an integer, or a decimal literal."""
    return Fraction(str(text).strip())


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
    if isinstance(obj, mpmath.mpf):
        return mpmath.nstr(obj, 50)
    if isinstance(obj, LogNumber):
        doc = {"ln": mpmath.nstr(obj.ln_value, 50)}
        if obj.exact is not None:
            doc["exact"] = _digits(obj.exact)
        if obj.is_factorial_of is not None:
            doc["is_factorial_of"] = _digits(obj.is_factorial_of)
        return doc
    if isinstance(obj, np.ndarray):
        return [canonical(x) for x in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: canonical(v) for k, v in vars(obj).items()}
    if obj is None or isinstance(obj, (str, float)):
        return obj
    return str(obj)


def dumps_canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def request_digest(request: dict) -> str:
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

    def __init__(self, threads: int, budget: int, cache: Optional[ResultCache]):
        self.threads = threads
        self.budget = budget
        self.cache = cache
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


def resolve_subgroup(g: FiniteGroup, spec: str, aut: AutSet):
    """Subgroup selector: center | radical | order:<k> | indices:i,j,..."""
    if spec == "center":
        return subgroup_handle(g, g.center, aut=aut)
    if spec == "radical":
        rad = solvable_radical(g)
        return subgroup_handle(g, rad.elements, aut=aut)
    if spec.startswith("order:"):
        k = int(spec[6:])
        hits = [s for s in normal_subgroups(g, aut) if s.order == k and s.characteristic]
        if len(hits) != 1:
            raise ValueError(
                f"expected exactly one characteristic subgroup of order {k}, "
                f"found {len(hits)}"
            )
        return hits[0]
    if spec.startswith("indices:"):
        elements = [int(x) for x in spec[8:].split(",") if x]
        return subgroup_handle(g, elements, aut=aut)
    raise ValueError(f"unknown subgroup selector {spec!r}")


def report_result(report: CheckReport) -> tuple[dict, str, int]:
    doc = {
        "claim": report.claim,
        "params": report.params,
        "outcome": report.outcome,
        "witness": report.witness,
        "counters": report.counters,
    }
    if report.outcome == "fail":
        return doc, "fail", EXIT_CHECK_FAILED
    return doc, "ok", EXIT_OK


# -- command handlers -----------------------------------------------------------


def cmd_word_parse(args, ctx):
    w = parse_word(args.word)
    return (
        {
            "word": format_word(w),
            "length": w.length,
            "num_variables": w.num_variables,
            "letters": [[l.var, l.sign] for l in w.letters],
        },
        "ok",
        EXIT_OK,
    )


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
    return {"count": count, "variations": listed}, "ok", EXIT_OK


def cmd_word_mconst(args, ctx):
    return {"M": m_constant(args.d, args.l)}, "ok", EXIT_OK


def cmd_group_make(args, ctx):
    g = ctx.group(args.spec)
    return (
        {
            "spec": g.spec,
            "order": g.order,
            "abelian": g.is_abelian,
            "center_size": len(g.center),
            "class_sizes": sorted(len(c) for c in g.conjugacy_classes),
        },
        "ok",
        EXIT_OK,
    )


def cmd_group_auts(args, ctx):
    g = ctx.group(args.spec)
    aut = automorphism_group(g)
    ctx.stats.update(
        aut_candidates=aut.search.candidates, aut_generators=len(aut.search.generators)
    )
    doc = {
        "order": g.order,
        "aut_size": len(aut),
        "inner_size": len(inner_automorphisms(g)),
    }
    if args.tables:
        doc["tables"] = aut.tables.tolist()
    return doc, "ok", EXIT_OK


def cmd_group_subgroups(args, ctx):
    g = ctx.group(args.spec)
    subs = subgroups(g)
    return (
        {
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
        },
        "ok",
        EXIT_OK,
    )


def cmd_group_series(args, ctx):
    g = ctx.group(args.spec)
    series = characteristic_series(g)
    return (
        {
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
        },
        "ok",
        EXIT_OK,
    )


def cmd_group_radical(args, ctx):
    g = ctx.group(args.spec)
    rad = solvable_radical(g)
    return {"order": rad.order, "elements": list(rad.elements)}, "ok", EXIT_OK


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
    return (
        {
            "counts": [int(c) for c in dist.counts],
            "order": dist.order,
            "arity": dist.arity,
            "total": dist.total,
        },
        "ok",
        EXIT_OK,
    )


def cmd_fiber_pi(args, ctx):
    g = ctx.group(args.group)
    w = parse_word(args.word, require_nonempty=True)
    value, proportion = pi_w(g, w, budget=ctx.budget)
    return {"max_fiber": value, "proportion": proportion}, "ok", EXIT_OK


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
    return doc, "ok", EXIT_OK


# -- check registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One check parameter: a `--name` option and a manifest key alike."""

    name: str
    type: type = str
    default: object = None  # None: required
    choices: Optional[tuple] = None

    def convert(self, value):
        if self.type is int and isinstance(value, (bool, float)):
            raise ValueError(f"{self.name!r} must be an integer, got {json.dumps(value)}")
        value = self.type(value)
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"{self.name} must be one of {', '.join(self.choices)}")
        return value


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
    aut_full = autset if autset.kind == "full" else automorphism_group(g)
    n = resolve_subgroup(g, p["subgroup"], aut_full)
    w = parse_word(p["word"], require_nonempty=True)
    return check_submultiplicative(g, n, w, autset, budget=budget, threads=ctx.threads)


def _run_rewrite(p, ctx, budget):
    g = ctx.group(p["group"])
    aut = automorphism_group(g)
    n = resolve_subgroup(g, p["subgroup"], aut)
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
    params = {p.name: getattr(args, p.name) for p in check.params}
    return report_result(check.run(params, ctx, ctx.budget))


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
            elif p.default is None:
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
        doc, _, _ = report_result(report)
        name = f"check_{idx:03d}_{report.claim}.json"
        (out_dir / name).write_text(dumps_canonical(canonical(doc)) + "\n")
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
        return result, "fail", EXIT_CHECK_FAILED
    return result, "ok", EXIT_OK


def cmd_bounds_exclude(args, ctx):
    w = parse_word(args.word, require_nonempty=True)
    report = excluded_factors_report(w, parse_fraction(args.rho))
    return (
        {
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
        },
        "ok",
        EXIT_OK,
    )


def cmd_bounds_alt(args, ctx):
    w = parse_word(args.word, require_nonempty=True)
    res = alt_exclusion_threshold(w, parse_fraction(args.rho))
    return (
        {
            "ceil_argument": res.ceil_argument,
            "term_factorial": res.term_factorial,
            "term_rho": res.term_rho,
            "threshold": res.threshold,
        },
        "ok",
        EXIT_OK,
    )


def cmd_bounds_lie(args, ctx):
    w = parse_word(args.word, require_nonempty=True)
    res = lie_rank_threshold(w, parse_fraction(args.rho))
    return (
        {
            "term_const": res.term_const,
            "term_rho": res.term_rho,
            "threshold": res.threshold,
        },
        "ok",
        EXIT_OK,
    )


def cmd_bounds_n0(args, ctx):
    w = parse_word(args.word, require_nonempty=True)
    return (
        {"n0": n0_bound(w, parse_fraction(args.rho), args.order)},
        "ok",
        EXIT_OK,
    )


def cmd_bounds_radical_bound(args, ctx):
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
    return {"bound": bound, "factors": len(factors)}, "ok", EXIT_OK


# -- argument parsing -------------------------------------------------------------


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

    word = top.add_parser("word").add_subparsers(dest="action", required=True)
    p = word.add_parser("parse")
    p.add_argument("--word", required=True)
    p.set_defaults(handler=cmd_word_parse)
    p = word.add_parser("variations")
    p.add_argument("--word", required=True)
    p.add_argument("--limit", type=_int_at_least(0), default=64)
    p.set_defaults(handler=cmd_word_variations)
    p = word.add_parser("mconst")
    p.add_argument("-l", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.set_defaults(handler=cmd_word_mconst)

    group = top.add_parser("group").add_subparsers(dest="action", required=True)
    p = group.add_parser("make")
    p.add_argument("--spec", required=True)
    p.set_defaults(handler=cmd_group_make)
    p = group.add_parser("auts")
    p.add_argument("--spec", required=True)
    p.add_argument("--tables", action="store_true")
    p.set_defaults(handler=cmd_group_auts)
    p = group.add_parser("subgroups")
    p.add_argument("--spec", required=True)
    p.set_defaults(handler=cmd_group_subgroups)
    p = group.add_parser("series")
    p.add_argument("--spec", required=True)
    p.set_defaults(handler=cmd_group_series)
    p = group.add_parser("radical")
    p.add_argument("--spec", required=True)
    p.set_defaults(handler=cmd_group_radical)

    fiber = top.add_parser("fiber").add_subparsers(dest="action", required=True)
    p = fiber.add_parser("dist")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--auts", default="id", choices=["id", "inn", "aut"])
    p.add_argument("--tuple", default=None, help="comma-separated tuple indices")
    p.set_defaults(handler=cmd_fiber_dist)
    p = fiber.add_parser("pi")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(handler=cmd_fiber_pi)
    p = fiber.add_parser("max")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--auts", default="aut", choices=["id", "inn", "aut"])
    p.add_argument("--target", default="any")
    p.add_argument("--mode", default="exact", choices=["exact", "sample"])
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_fiber_max)

    verify = top.add_parser("verify").add_subparsers(dest="action", required=True)
    for check in CHECKS.values():
        p = verify.add_parser(check.name)
        for param in check.params:
            p.add_argument(
                "--" + param.name.replace("_", "-"),
                type=param.type,
                required=param.default is None,
                default=param.default,
                choices=param.choices,
            )
        p.set_defaults(handler=cmd_verify_check)
    p = verify.add_parser("battery")
    p.add_argument("--manifest", default=None, help="defaults to the shipped manifest")
    p.add_argument("--out", default="battery_reports")
    p.set_defaults(handler=cmd_verify_battery, no_cache_always=True)

    bounds = top.add_parser("bounds").add_subparsers(dest="action", required=True)
    p = bounds.add_parser("exclude")
    p.add_argument("--word", required=True)
    p.add_argument("--rho", required=True)
    p.set_defaults(handler=cmd_bounds_exclude)
    p = bounds.add_parser("alt")
    p.add_argument("--word", required=True)
    p.add_argument("--rho", required=True)
    p.set_defaults(handler=cmd_bounds_alt)
    p = bounds.add_parser("lie")
    p.add_argument("--word", required=True)
    p.add_argument("--rho", required=True)
    p.set_defaults(handler=cmd_bounds_lie)
    p = bounds.add_parser("n0")
    p.add_argument("--word", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(handler=cmd_bounds_n0)
    p = bounds.add_parser("radical-bound")
    p.add_argument("--word", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--factors", default="", help="comma list of order:autorder")
    p.add_argument("--n-zero", type=int, required=True)
    p.add_argument("--eta-zero", required=True)
    p.set_defaults(handler=cmd_bounds_radical_bound)

    return parser


def _request_params(args: argparse.Namespace) -> dict:
    skip = {"handler", "module", "action", "threads", "budget", "cache_dir", "no_cache",
            "no_cache_always"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


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
    use_cache = (
        cache_dir is not None
        and not args.no_cache
        and not getattr(args, "no_cache_always", False)
    )
    cache = ResultCache(cache_dir) if use_cache else None
    ctx = Context(threads=threads, budget=budget, cache=cache)

    request = {
        "command": f"{args.module} {args.action}",
        "params": canonical(_request_params(args)),
        "version": __version__,
        "budget": str(budget),
    }
    digest = request_digest(request)
    if cache is not None:
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

    status = "ok"
    exit_code = EXIT_OK
    result = None
    try:
        # Looked up by name: the parser is built once, and a handler replaced on
        # this module since (say, by a tracing wrapper) is the one to call.
        handler = globals()[args.handler.__name__]
        result, status, exit_code = handler(args, ctx)
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
