"""Metric names, the percentile rule and the per-layer metrics of one pass."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import LAYERS, Span, self_times

# (name, unit); BENCHMARK.json lists the same names and units.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
)

PER_LAYER = (
    ("fibers.search_s", "s"),
    ("fibers.tuples_covered", "count"),
    ("fibers.evaluations", "count"),
    ("fibers.evals_per_s", "1/s"),
    ("fibers.dist_s", "s"),
    ("fibers.dist_calls", "count"),
    ("fibers.dist_evals_per_s", "1/s"),
    ("fibers.rewrite_s", "s"),
    ("fibers.eval_automorphic_calls", "count"),
    ("fibers.self_s", "s"),
    ("groups.make_group_s", "s"),
    ("groups.table_build_s", "s"),
    ("groups.automorphism_group_s", "s"),
    ("groups.auts_enumerated", "count"),
    ("groups.subgroups_s", "s"),
    ("groups.subgroups_found", "count"),
    ("groups.characteristic_series_s", "s"),
    ("groups.radical_s", "s"),
    ("groups.self_s", "s"),
    ("verify.identity_max_s", "s"),
    ("verify.submult_s", "s"),
    ("verify.rewrite_s", "s"),
    ("verify.variation_bound_s", "s"),
    ("verify.variation_projection_s", "s"),
    ("verify.dihedral_s", "s"),
    ("verify.rewrite_equivalences", "count"),
    ("verify.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.cache_s", "s"),
    ("cli.cache_lookup_ms_p50", "ms"),
    ("cli.cache_store_ms_p50", "ms"),
    ("cli.cache_hit_ratio", "ratio"),
    ("cli.cache_hit_p50_ms", "ms"),
    ("cli.cache_miss_p50_ms", "ms"),
    ("cli.requests", "count"),
    ("bounds.self_s", "s"),
    ("bounds.calls", "count"),
    ("words.parse_s", "s"),
    ("words.parse_calls", "count"),
    ("words.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)

UNITS = dict(END_TO_END + PER_LAYER)

# Per-layer metrics taken from the untraced passes of a traced run.
UNTRACED = ("trace.overhead_s", "cli.cache_hit_p50_ms", "cli.cache_miss_p50_ms")

# Self time of these spans, summed, per metric.
_SELF = {
    "fibers.search_s": ("fibers.max_fiber", "fibers.max_fiber_per_target"),
    "fibers.dist_s": ("fibers.fiber_distribution", "fibers.pi_w"),
    "fibers.rewrite_s": ("fibers.rewrite_coset_equation",),
    "groups.make_group_s": ("groups.make_group",),
    "groups.table_build_s": ("groups.table_build",),
    "groups.automorphism_group_s": ("groups.automorphism_group",),
    "groups.subgroups_s": ("groups.subgroups",),
    "groups.characteristic_series_s": ("groups.characteristic_series",),
    "groups.radical_s": ("groups.solvable_radical",),
    "verify.identity_max_s": ("verify.check_identity_maximal",),
    "verify.submult_s": ("verify.check_submultiplicative",),
    "verify.rewrite_s": ("verify.check_rewrite",),
    "verify.variation_bound_s": ("verify.check_variation_bound",),
    "verify.variation_projection_s": ("verify.check_variation_projection",),
    "verify.dihedral_s": ("verify.check_dihedral_counterexample",),
    "cli.cache_s": ("cli.ResultCache.lookup", "cli.ResultCache.store"),
}
_CACHE_SPANS = _SELF["cli.cache_s"]


def min_samples(pct: int) -> int:
    """Samples needed for at least ten of them to lie beyond the pct-th percentile."""
    return math.ceil(10 * 100 / (100 - pct))


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile, interpolated between the two nearest samples."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return float(values[0])
    if pct == 50:
        return float(statistics.median(values))
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1])


def quantile_report(values: list[float], pct: int) -> dict:
    """A percentile with its sample count and whether the ten-beyond rule holds."""
    return {
        "value": percentile(values, pct),
        "samples": len(values),
        "rule_met": len(values) >= min_samples(pct),
    }


def pass_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the spans it recorded."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.name not in _CACHE_SPANS:
            layer_self[s.layer] += own[s.sid]

    def self_of(names) -> float:
        return sum(own[s.sid] for n in names for s in by_name[n])

    def attr_sum(names, key) -> int:
        return sum(s.attrs.get(key, 0) for n in names for s in by_name[n])

    out: dict[str, float] = {name: self_of(names) for name, names in _SELF.items()}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]

    search = _SELF["fibers.search_s"]
    out["fibers.tuples_covered"] = attr_sum(search, "tuples")
    out["fibers.evaluations"] = attr_sum(search, "evaluations")
    out["fibers.evals_per_s"] = _rate(out["fibers.evaluations"], out["fibers.search_s"])
    dist = ("fibers.fiber_distribution",)
    out["fibers.dist_calls"] = len(by_name[dist[0]])
    out["fibers.dist_evals_per_s"] = _rate(attr_sum(dist, "evaluations"), out["fibers.dist_s"])
    out["fibers.eval_automorphic_calls"] = len(by_name["fibers.eval_automorphic"])
    out["groups.auts_enumerated"] = attr_sum(("groups.automorphism_group",), "found")
    out["groups.subgroups_found"] = attr_sum(("groups.subgroups",), "found")
    out["verify.rewrite_equivalences"] = attr_sum(("verify.check_rewrite",), "equivalences")

    lookups = by_name["cli.ResultCache.lookup"]
    stores = by_name["cli.ResultCache.store"]
    out["cli.cache_lookup_ms_p50"] = _p50_ms(lookups)
    out["cli.cache_store_ms_p50"] = _p50_ms(stores)
    hits = sum(1 for s in lookups if s.attrs.get("hit"))
    out["cli.cache_hit_ratio"] = hits / len(lookups) if lookups else 0.0
    out["cli.requests"] = len(by_name["cli.run_command"])
    out["bounds.calls"] = sum(1 for s in spans if s.layer == "bounds")
    parses = by_name["words.parse_word"]
    out["words.parse_s"] = sum(s.duration for s in parses)
    out["words.parse_calls"] = len(parses)
    out["trace.spans"] = len(spans)
    return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _p50_ms(spans: list[Span]) -> float:
    return 1000 * percentile([s.duration for s in spans], 50) if spans else 0.0
