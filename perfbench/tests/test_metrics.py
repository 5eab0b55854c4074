import pytest

from metrics import PER_LAYER, UNTRACED, min_samples, pass_layer_metrics, percentile, quantile_report
from tracing import Span


@pytest.mark.parametrize("pct, needed", [(50, 20), (90, 100), (95, 200), (99, 1000)])
def test_min_samples_leaves_ten_beyond(pct, needed):
    assert min_samples(pct) == needed


@pytest.mark.parametrize("pct", [50, 95])
def test_rule_holds_exactly_at_the_minimum(pct):
    n = min_samples(pct)
    values = list(range(1, n + 1))
    report = quantile_report(values, pct)
    assert report["rule_met"] and report["samples"] == n
    assert sum(1 for v in values if v > report["value"]) >= 10
    assert not quantile_report(values[:-1], pct)["rule_met"]


def test_percentile_interpolates():
    values = list(range(1, 201))
    assert percentile(values, 50) == 100.5
    assert percentile(values, 95) == pytest.approx(190.05)
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def s(sid, name, layer, start, end, parent=None, **attrs):
    return Span(sid, name, layer, parent, 1, start, end, attrs)


def test_pass_layer_metrics_of_synthetic_spans():
    spans = [
        s(1, "cli.run_command", "cli", 0.0, 10.0),
        s(2, "cli.ResultCache.lookup", "cli", 0.5, 1.0, 1, hit=True),
        s(3, "verify.check_identity_maximal", "verify", 1.0, 9.0, 1),
        s(4, "fibers.max_fiber_per_target", "fibers", 2.0, 8.0, 3, tuples=10, evaluations=600),
        s(5, "groups.table_build", "groups", 2.5, 3.0, 4),
        s(6, "words.parse_word", "words", 1.0, 1.5, 3),
        s(7, "words.free_reduce", "words", 1.2, 1.4, 6),
    ]
    m = pass_layer_metrics(spans)
    assert set(m) == {name for name, _ in PER_LAYER} - set(UNTRACED)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["cli.cache_s"] == pytest.approx(0.5)
    assert m["cli.cache_hit_ratio"] == 1.0
    assert m["verify.identity_max_s"] == pytest.approx(1.5)
    assert m["fibers.search_s"] == pytest.approx(5.5)
    assert m["fibers.tuples_covered"] == 10
    assert m["fibers.evals_per_s"] == pytest.approx(600 / 5.5)
    assert m["groups.table_build_s"] == pytest.approx(0.5)
    assert m["words.parse_s"] == pytest.approx(0.5)
    assert m["words.self_s"] == pytest.approx(0.5)
    assert m["cli.requests"] == 1 and m["trace.spans"] == 7


def test_fastest_ops_takes_each_keys_fastest_issue():
    from child import Op, PassResult, fastest_ops

    first = PassResult(ops=[Op(3.0, None, "a", "x"), Op(5.0, None, "b", "y"),
                            Op(1.0, None, "a", "x")])
    second = PassResult(ops=[Op(2.0, None, "a", "x"), Op(4.0, None, "b", "y"),
                             Op(6.0, None, "a", "x")])
    ops = fastest_ops([first, second])
    # Every issue of key x does the same work, in any pass.
    assert [op.seconds for op in ops] == [1.0, 4.0, 1.0]
    assert [op.label for op in ops] == ["a", "b", "a"]
