"""Command-line surface: canonical JSON output, a result cache, and the
battery runner.

Every subcommand emits a single JSON document {schema_version, request,
result, status, stats} with sorted keys, integers as decimal strings and
rationals as "p/q", so output is byte-identical across runs and thread
counts.  Exit codes: 0 success/pass, 1 check failed, 2 usage error, 3 budget
or cap exceeded.  `--help` prints argparse's help text instead, and
exits 0.

Every subcommand is one row of `COMMANDS`: its parameters, which build its
options and its request echo, and its handler.  The checks' rows (`CHECKS`)
are also the battery's manifest entries.
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
    _derived,
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
from .words import (
    ReducedWord,
    _require_nonempty,
    format_word,
    m_constant,
    parse_word,
    variation_count,
    variations,
)

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


def _integer(text: str, what: str) -> int:
    """The integer ``text``; other text is a usage error that names ``what``,
    the option or selector it came from."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what}: {text!r} is not an integer") from None


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
_non_negative_int = _int_at_least(0)


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
    """Convert a result tree to JSON-ready form with canonical number formats.

    Strings, None, plain ints and plain dicts, most of a report's nodes, are
    told by their exact type first, before the isinstance chain and the
    `bounds` lookup; a subclass of any of them takes the chain."""
    kind = type(obj)
    if kind is str or obj is None:
        return obj
    if kind is dict:
        return {str(k): canonical(v) for k, v in obj.items()}
    if kind is int:
        return _digits(obj)
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return _digits(obj)
    if isinstance(obj, Fraction):
        return f"{_digits(obj.numerator)}/{_digits(obj.denominator)}"
    if isinstance(obj, np.ndarray):
        return canonical(obj.tolist())
    if isinstance(obj, (list, tuple)):
        # plain ints in one comprehension; a bool is not ``type(x) is int``,
        # and an int past str()'s digit limit raises, so both take the
        # per-element path
        if all(type(x) is int for x in obj):
            try:
                return [str(x) for x in obj]
            except ValueError:
                pass
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
        """Create the directory and open the store for appending; a directory
        that cannot be used is a ValueError, which the request reports as a
        usage error."""
        self.path = Path(directory) / "cache.jsonl"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.open("a").close()
        except OSError as err:
            raise ValueError(f"cache directory {str(directory)!r} cannot be used: {err}") from None

    def lookup(self, digest: str) -> Optional[tuple[dict, int]]:
        """The document and exit code stored for ``digest``.  A line that is
        no JSON object, or whose record lacks a field the hit re-emits, is
        skipped with a warning."""
        for line_no, line in enumerate(self.path.read_text().splitlines(), 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if record.get("digest") != digest:
                    continue
                fields = ("schema_version", "request", "result", "status", "stats")
                return {k: record[k] for k in fields}, int(record["exit_code"])
            # no JSON (ValueError), no object (AttributeError), or a hit
            # without every field it re-emits
            except (AttributeError, KeyError, TypeError, ValueError):
                print(
                    f"warning: skipping corrupt cache line {line_no}",
                    file=sys.stderr,
                )
        return None

    def store(self, digest: str, doc: dict) -> None:
        record = dict(doc)
        record["digest"] = digest
        record["created"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        with self.path.open("a") as handle:
            handle.write(dumps_canonical(record) + "\n")


class Context:
    """Per-request settings, groups and words; a handler may add work
    counters to ``stats``.  The request's budget is a request parameter,
    ``args.budget``, so a battery entry can carry its own.

    `group` builds each spec once per request, so every check of a battery
    on the same spec shares one `FiniteGroup`, and with it the structure
    cached on the group: Aut(G), the normal lattice and its quotients.
    `word` parses each word text once per request.  A new request builds
    everything again."""

    def __init__(self, threads: int):
        self.threads = threads
        self.stats: dict = {}
        self._groups: dict[str, FiniteGroup] = {}
        self._words: dict[str, ReducedWord] = {}

    def group(self, spec: str) -> FiniteGroup:
        """The request's group for ``spec``, built on first use."""
        g = self._groups.get(spec)
        if g is None:
            g = self._groups[spec] = make_group(spec)
        return g

    def word(self, text: str) -> ReducedWord:
        """The request's word for ``text``, parsed on first use; a word that
        reduces to the empty word is refused.  A word is immutable, so every
        reader may share it."""
        w = self._words.get(text)
        if w is None:
            w = self._words[text] = _require_nonempty(parse_word(text), text)
        return w

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
    be a subgroup.  The center and radical handles are kept on ``g``, so
    their sections are built once per group."""
    _phi_rows(g)
    if spec == "center":

        def center():
            handle = SubgroupHandle(g, g.center)
            handle.normal = handle.characteristic = True
            return handle

        return _derived(g, ("center",), center)
    if spec == "radical":
        return solvable_radical(g)
    if spec.startswith("order:"):
        k = _integer(spec[6:], f"subgroup selector {spec!r}")
        hits = [s for s in normal_subgroups(g) if s.order == k and s.characteristic]
        if len(hits) != 1:
            raise ValueError(
                f"expected exactly one characteristic subgroup of order {k}, "
                f"found {len(hits)}"
            )
        return hits[0]
    if spec.startswith("indices:"):
        elements = [_integer(x, f"subgroup selector {spec!r}") for x in spec[8:].split(",") if x]
        return subgroup_handle(g, elements)
    raise ValueError(f"unknown subgroup selector {spec!r}")


# -- command handlers -----------------------------------------------------------


def cmd_word_parse(args, ctx):
    w = parse_word(args.word)  # the one command that accepts the empty word
    return {
        "word": format_word(w),
        "length": w.length,
        "num_variables": w.num_variables,
        "letters": [[l.var, l.sign] for l in w.letters],
    }


def cmd_word_variations(args, ctx):
    w = ctx.word(args.word)
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
    class_sizes = sorted(len(c) for c in g.conjugacy_classes)
    return {
        "spec": g.spec,
        "order": g.order,
        "abelian": g.is_abelian,
        # the center is the union of the one-element classes
        "center_size": class_sizes.count(1),
        "class_sizes": class_sizes,
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
    w = ctx.word(args.word)
    if args.tuple is not None:
        indices = [_integer(x, "--tuple") for x in args.tuple.split(",")]
    else:
        indices = [0] * w.length
    if len(indices) != w.length:
        raise ValueError(f"need {w.length} tuple indices, got {len(indices)}")
    if any(not 0 <= i < len(autset) for i in indices):
        raise ValueError(f"tuple indices must lie in 0..{len(autset) - 1}")
    dist = fiber_distribution(g, w, autset.tables[indices], budget=args.budget)
    return {
        "counts": dist.counts.tolist(),
        "order": dist.order,
        "arity": dist.arity,
        "total": dist.total,
    }


def cmd_fiber_pi(args, ctx):
    g = ctx.group(args.group)
    w = ctx.word(args.word)
    value, proportion = pi_w(g, w, budget=args.budget)
    return {"max_fiber": value, "proportion": proportion}


def cmd_fiber_max(args, ctx):
    g, autset = _group_and_aut(ctx, args.group, args.auts)
    w = ctx.word(args.word)
    target = None if args.target == "any" else _integer(args.target, "--target")
    res = max_fiber(g, w, autset, target=target, budget=args.budget, threads=ctx.threads)
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
    return doc


# -- parameters, commands and the check registry --------------------------------


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
        """A manifest value as the option would read it; every type but str
        and bool is an integer type, which refuses JSON bools and floats."""
        if self.type not in (str, bool) and isinstance(value, (bool, float)):
            raise ValueError(f"{self.name!r} must be an integer, got {json.dumps(value)}")
        try:
            value = self.type(value)
        except argparse.ArgumentTypeError as err:
            raise ValueError(f"{self.name!r} {err}") from None
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
class Command:
    """The subcommand `wfl <module> <action>`: its parameters and its handler.
    The handler, a `cmd_*` function of this module, returns the result; a
    result whose ``failed`` is true makes the request report status "fail"
    and exit 1.  The handler is looked up by name when the request or a
    battery entry runs (`_handler`), so a handler replaced on this module
    after the parser is built (say, by a tracing wrapper) is the one called."""

    module: str
    action: str
    params: tuple[Param, ...]
    handler: Callable[[argparse.Namespace, Context], object]
    cached: bool = True  # False: the result cache is never read or written


def _handler(command: Command) -> Callable[[argparse.Namespace, Context], object]:
    return globals()[command.handler.__name__]


def cmd_verify_identity_max(args, ctx):
    g, autset = _group_and_aut(ctx, args.group, args.auts)
    w = ctx.word(args.word)
    return check_identity_maximal(g, w, autset, budget=args.budget, threads=ctx.threads)


def cmd_verify_submult(args, ctx):
    g, autset = _group_and_aut(ctx, args.group, args.auts)
    n = resolve_subgroup(g, args.subgroup)
    w = ctx.word(args.word)
    return check_submultiplicative(g, n, w, autset, budget=args.budget, threads=ctx.threads)


def cmd_verify_dihedral(args, ctx):
    return check_dihedral_counterexample(args.o, budget=args.budget)


def cmd_verify_rewrite(args, ctx):
    g = ctx.group(args.group)
    aut = automorphism_group(g)
    n = resolve_subgroup(g, args.subgroup)
    w = ctx.word(args.word)
    return check_rewrite(g, n, w, aut, trials=args.trials, seed=args.seed, budget=args.budget)


def cmd_verify_variation_bound(args, ctx):
    s = ctx.group(args.simple)
    w = ctx.word(args.word)
    return check_variation_bound(
        s,
        args.n,
        w,
        samples=args.samples,
        seed=args.seed,
        exponent_mode=args.exponent_mode,
        epsilon_factor=parse_fraction(args.epsilon_factor),
        budget=args.budget,
        threads=ctx.threads,
    )


def cmd_verify_variation_projection(args, ctx):
    g = ctx.group(args.group)
    w = ctx.word(args.word)
    return check_variation_projection(g, w, budget=args.budget, threads=ctx.threads)


_AUTS = Param("auts", default="aut", choices=("inn", "aut"))
_BUDGET = Param("budget", _non_negative_int)
# the checkers, as `wfl verify <action>` and as manifest entries `"check": action`
CHECKS = {
    c.action: c
    for c in (
        Command("verify", "identity-max", (Param("group"), Param("word"), _AUTS),
                cmd_verify_identity_max),
        Command("verify", "submult", (Param("group"), Param("subgroup"), Param("word"), _AUTS),
                cmd_verify_submult),
        Command("verify", "dihedral", (Param("o", int),), cmd_verify_dihedral),
        Command("verify", "rewrite",
                (Param("group"), Param("subgroup"), Param("word"),
                 Param("trials", int, 100), Param("seed", int, 0)),
                cmd_verify_rewrite),
        Command("verify", "variation-bound",
                (Param("simple"), Param("n", int, 1), Param("word"),
                 Param("samples", int, 1000), Param("seed", int, 0),
                 Param("exponent_mode", default="ceil", choices=("ceil", "floor")),
                 Param("epsilon_factor", default="1")),
                cmd_verify_variation_bound),
        Command("verify", "variation-projection", (Param("group"), Param("word")),
                cmd_verify_variation_projection),
    )
}


def _entry_params(index: int, entry, budget: int) -> tuple[Command, dict, int]:
    """Validate manifest entry `index` against the registry: its check, params
    (defaults filled in) and budget, which the `budget` key overrides."""
    if not isinstance(entry, dict):
        raise ValueError(f"manifest entry {index} is not an object")
    name = entry.get("check")
    command = CHECKS.get(name) if isinstance(name, str) else None
    if command is None:
        raise ValueError(f"manifest entry {index}: unknown check type {name!r}")
    declared = {p.name for p in command.params}
    for key in entry:
        if key not in declared and key not in ("check", "budget"):
            raise ValueError(
                f"manifest entry {index}: unknown key {key!r} for check {command.action!r}"
            )
    params = {}
    try:
        for p in command.params:
            if p.name in entry:
                params[p.name] = p.convert(entry[p.name])
            elif p.default is ...:
                raise ValueError(f"missing key {p.name!r}")
            else:
                params[p.name] = p.default
        budget = _BUDGET.convert(entry.get("budget", budget))
    except (TypeError, ValueError) as err:
        raise ValueError(f"manifest entry {index}: {err}") from err
    return command, params, budget


def run_battery_entry(command: Command, params: dict, budget: int, ctx: Context) -> CheckReport:
    """Run one validated manifest entry (`_entry_params`) through its check's
    handler, as `wfl verify <check>` would; ``ctx.threads`` splits its tuple
    searches."""
    return _handler(command)(argparse.Namespace(**params, budget=budget), ctx)


@dataclass(frozen=True)
class BatteryResult:
    """The result of `verify battery`: the outcome counts, and each entry's
    report file and outcome in manifest order."""

    summary: dict
    reports: list
    outcomes: list

    @property
    def failed(self) -> bool:
        return self.summary["failed"] > 0


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
    # every entry is validated, and a bad manifest refused, before any work
    checks = [_entry_params(index, entry, args.budget) for index, entry in enumerate(entries)]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = [run_battery_entry(*check, ctx) for check in checks]
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
    return BatteryResult(summary, files, [r.outcome for r in reports])


def cmd_bounds_exclude(args, ctx):
    from .bounds import excluded_factors_report
    w = ctx.word(args.word)
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
    w = ctx.word(args.word)
    return alt_exclusion_threshold(w, parse_fraction(args.rho))


def cmd_bounds_lie(args, ctx):
    from .bounds import lie_rank_threshold
    w = ctx.word(args.word)
    return lie_rank_threshold(w, parse_fraction(args.rho))


def cmd_bounds_n0(args, ctx):
    from .bounds import n0_bound
    w = ctx.word(args.word)
    return {"n0": n0_bound(w, parse_fraction(args.rho), args.order)}


def cmd_bounds_radical_bound(args, ctx):
    from .bounds import radical_index_bound
    w = ctx.word(args.word)
    factors = []
    for part in args.factors.split(",") if args.factors else []:
        try:
            s_order, aut_order = part.split(":")
            factors.append((int(s_order), int(aut_order)))
        except ValueError:
            raise ValueError(f"--factors entry {part!r} is not order:autorder") from None
    bound = radical_index_bound(
        factors,
        w,
        parse_fraction(args.rho),
        int(args.n_zero),
        parse_fraction(args.eta_zero),
    )
    return {"bound": bound, "factors": len(factors)}


# -- the command table ----------------------------------------------------------


COMMANDS = (
    Command("word", "parse", (Param("word"),), cmd_word_parse),
    Command("word", "variations", (Param("word"), Param("limit", _non_negative_int, 64)),
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
             Param("target", default="any")),
            cmd_fiber_max),
    *CHECKS.values(),
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
    parser.add_argument("--budget", type=_non_negative_int, default=None, help="evaluation budget")
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
        args.budget = _setting(args.budget, "WFL_BUDGET", DEFAULT_BUDGET, _non_negative_int)
        # an empty setting is an unset one, not the working directory
        cache_dir = args.cache_dir or os.environ.get("WFL_CACHE_DIR")
        command = args.command
        use_cache = bool(cache_dir) and not args.no_cache and command.cached
        cache = ResultCache(cache_dir) if use_cache else None
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

    ctx = Context(threads=threads)

    params = {p.name: getattr(args, p.name) for p in command.params}
    request = {
        "command": f"{command.module} {command.action}",
        "params": canonical({k: v for k, v in params.items() if v is not None}),
        "version": __version__,
        "budget": str(args.budget),
    }
    if cache is not None:
        digest = request_digest(request)
        hit = cache.lookup(digest)
        if hit is not None:
            stdout.write(dumps_canonical(hit[0]) + "\n")
            return hit[1]

    try:
        result = _handler(command)(args, ctx)
        failed = getattr(result, "failed", False)
        status, exit_code = ("fail", EXIT_CHECK_FAILED) if failed else ("ok", EXIT_OK)
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
