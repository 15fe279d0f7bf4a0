import pytest

import tracing


def _tree():
    # op 0: root [0, 10] with children a [1, 4] (grandchild g [2, 3]) and
    # b [3.5, 6], which overlaps a; op 1: a lone root [20, 25]
    spans = [
        tracing.Span("cli.main", 0.0, 10.0),
        tracing.Span("quasi_interp.decompose", 1.0, 4.0, parent=0),
        tracing.Span("quasi_interp.sample", 2.0, 3.0, parent=1),
        tracing.Span("kernels.grid", 3.5, 6.0, parent=0),
        tracing.Span("cli.main", 20.0, 25.0, op=1),
    ]
    return spans


def test_self_time_subtracts_the_union_of_children():
    assert tracing.self_times(_tree()) == pytest.approx([5.0, 2.0, 1.0, 2.5, 5.0])


def test_totals_by_name_sum_self_and_inclusive_times():
    by = tracing.totals_by_name(_tree())
    assert by["cli.main"] == pytest.approx({"total": 15.0, "self": 10.0})
    assert by["quasi_interp.decompose"] == pytest.approx({"total": 3.0, "self": 2.0})


def test_self_times_of_nested_spans_partition_the_root_spans():
    spans = [s for s in _tree() if s.name != "kernels.grid"]  # siblings never overlap in one thread
    assert sum(tracing.self_times(spans)) == pytest.approx(15.0)


def test_tracer_records_parents_and_operation_ids():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.op = 3
    with tracer.span("cli.main"):
        with tracer.span("analysis.lq_norm"):
            pass
    root, child = tracer.spans
    assert (root.parent, child.parent, child.op) == (None, 0, 3)
    assert (root.start, child.start, child.end, root.end) == (0.0, 1.0, 2.0, 3.0)


def test_layer_metrics_per_operation_and_coverage():
    spans = [
        tracing.Span("cli.main", 0.0, 10.0),
        tracing.Span("quasi_interp.decompose", 1.0, 7.0, parent=0, counts={"blocks": 5}),
        tracing.Span("quasi_interp.sample", 2.0, 4.0, parent=1, counts={"requested": 40}),
        tracing.Span("testfuncs.eval", 2.5, 3.5, parent=2, counts={"points": 64}),
    ]
    m = tracing.layer_metrics(spans, n_ops=2, evaluated=30, grid_size=30,
                              bytes_written=8, bytes_read=0, wall=10.0)
    assert m["quasi_interp.decompose_s"] == pytest.approx(3.0)
    assert m["quasi_interp.stencil_s"] == pytest.approx(2.0)
    assert m["quasi_interp.sample_s"] == pytest.approx(0.5)
    assert m["testfuncs.eval_s"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["quasi_interp.cache_hit_ratio"] == pytest.approx(0.25)
    assert m["quasi_interp.evals_per_grid_point"] == pytest.approx(1.0)
    assert m["quasi_interp.sweep_useful_ratio"] == pytest.approx(30 / 64)
    assert m["trace.coverage"] == pytest.approx(1.0)


def test_traced_restores_the_package():
    from sparseqi import cli, quasi_interp, smolyak

    before = (quasi_interp.decompose, smolyak.decompose, cli.decompose,
              quasi_interp.SampleCache.lattice_values)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert smolyak.decompose is cli.decompose is quasi_interp.decompose
        assert smolyak.decompose is not before[0]
    assert (quasi_interp.decompose, smolyak.decompose, cli.decompose,
            quasi_interp.SampleCache.lattice_values) == before
