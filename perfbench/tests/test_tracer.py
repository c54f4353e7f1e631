import triblock as tb

import tracer


def fake_clock(*ticks):
    return iter(ticks).__next__


def test_self_time_subtracts_child_spans():
    # op [0, 10] > a [1, 6] > b [2, 4]; op > c [7, 9]
    t = tracer.Tracer(clock=fake_clock(0, 1, 2, 4, 6, 7, 9, 10))
    with t.span("op"):
        with t.span("a"):
            with t.span("b"):
                pass
        with t.span("c"):
            pass
    stats = t.summarize()
    assert {k: v.self_s for k, v in stats.items()} == {
        "op": 3, "a": 3, "b": 2, "c": 2}
    assert sum(v.self_s for v in stats.values()) == 10
    assert t.parents == [-1, 0, 1, 0]


def test_nested_patterns_calls_fold_into_the_outer_span():
    t = tracer.Tracer(clock=fake_clock(*range(100)))
    inner = t.wrap("patterns.contains_subgraph", lambda: None)
    outer = t.wrap("patterns.is_free", lambda: inner() is None)
    other = t.wrap("blocks.classify", lambda: outer())
    with t.span("op"):
        other()
        inner()
    stats = t.summarize()
    assert {k: v.calls for k, v in stats.items()} == {
        "op": 1, "blocks.classify": 1, "patterns.is_free": 1,
        "patterns.contains_subgraph": 1}
    assert stats["patterns.is_free"].truthy == 1
    assert stats["patterns.contains_subgraph"].truthy == 0


def test_layer_values_are_per_op():
    t = tracer.Tracer(clock=fake_clock(*range(100)))
    planar = t.wrap("oracle.is_planar", lambda ok: ok)
    for ok in (True, True, False, True):
        with t.span("op"):
            planar(ok)
    values = tracer.layer_values(t.summarize(), ops=4)
    assert values["oracle.is_planar_calls"] == 1
    assert values["oracle.planar_ratio"] == 0.75
    assert values["oracle.is_planar_s"] == 1
    assert values["trace.unattributed_s"] == 2
    assert values["patterns.hit_ratio"] == 0


def test_patched_sees_calls_through_any_module_and_restores_them():
    original = tb.patterns.is_free
    t = tracer.Tracer()
    host = tb.parse_planegraph(
        "planegraph 1\n3 3\n0: 1 2\n1: 2 0\n2: 0 1\n")
    with t.patched():
        assert tb.oracle.is_free is not original
        tb.is_free(host, tb.THETA6_1)
        tb.oracle.is_free(host, tb.THETA6_1)
    assert tb.is_free is tb.oracle.is_free is tb.patterns.is_free is original
    stats = t.summarize()
    assert stats["patterns.is_free"].calls == 2
    assert "patterns.contains_subgraph" not in stats
