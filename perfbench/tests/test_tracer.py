import pytest

import inputs
import worker
from tracer import Tracer


class Clock:
    """A clock that moves only when the code under trace does work."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def traced():
    clock = Clock()
    tracer = Tracer(always={"c.rows"}, clock=clock)

    def helper():  # same layer as inner: counted, no span
        clock.work(0.5)

    helper_w = tracer.wrap("b.helper", helper)

    def inner():
        clock.work(2.0)
        helper_w()

    def rows():
        for i in range(3):
            clock.work(1.0)  # producing each row
            yield i
        clock.work(0.25)  # the generator's tail after the last row

    inner_w = tracer.wrap("b.inner", inner)
    rows_w = tracer.wrap("c.rows", rows)

    def outer():
        clock.work(1.0)
        inner_w()
        for _ in rows_w():
            clock.work(5.0)  # the caller's own work between rows
        clock.work(1.0)

    tracer.request = 7
    tracer.wrap("a.outer", outer)()
    return tracer


def test_self_times_add_up_to_the_root(traced):
    by_name = {s.name: s for s in traced.spans}
    assert set(by_name) == {"a.outer", "b.inner", "c.rows"}
    outer, inner, rows = by_name["a.outer"], by_name["b.inner"], by_name["c.rows"]
    assert outer.busy == pytest.approx(1 + 2.5 + 3 * (1 + 5) + 0.25 + 1)
    assert inner.busy == pytest.approx(2.5)
    assert inner.self_time == pytest.approx(2.5)  # helper's time stays in layer b
    assert sum(s.self_time for s in traced.spans) == pytest.approx(outer.busy)
    assert outer.self_time == pytest.approx(1 + 3 * 5 + 1)


def test_generator_span_covers_only_its_own_iteration(traced):
    rows = next(s for s in traced.spans if s.name == "c.rows")
    assert rows.busy == pytest.approx(3 * 1 + 0.25)
    assert rows.rows == 3
    outer = next(s for s in traced.spans if s.name == "a.outer")
    assert rows.parent == outer.id
    assert rows.start == pytest.approx(3.5) and rows.end == pytest.approx(3.5 + 3 * 6 + 0.25)


def test_counts_and_request_ids(traced):
    assert traced.calls == {"a.outer": 1, "b.inner": 1, "b.helper": 1, "c.rows": 1}
    assert {s.request for s in traced.spans} == {7}


def test_exception_closes_the_span():
    clock = Clock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.work(1.0)
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("a.boom", boom)()
    (span,) = tracer.spans
    assert span.busy == pytest.approx(1.0) and not tracer._stack


def traced_requests(gap):
    """Two requests through a ``cli.run`` root span, each timed around the
    call as the benchmark times it; the second spends ``gap`` seconds
    outside every span."""
    clock = Clock()
    tracer = Tracer(clock=clock)

    def load():
        clock.work(0.002)

    load_w = tracer.wrap("dataio.load", load)

    def run():
        clock.work(0.001)
        load_w()

    run_w = tracer.wrap("cli.run", run)
    records = []
    for i in range(2):
        tracer.request = i
        start = clock()
        run_w()
        if i == 1:
            clock.work(gap)
        records.append(worker.Record(inputs.Request(f"q{i}", "closed", {}), start, clock() - start, 0, ""))
    return tracer.spans, records


def test_accounting_passes_when_layers_cover_the_request():
    assert worker.accounting_problems(*traced_requests(0.0)) == []


def test_accounting_fails_on_time_outside_every_span():
    problems = worker.accounting_problems(*traced_requests(0.010))
    assert len(problems) == 1 and problems[0].startswith("request 1:")


def test_accounting_fails_without_a_root_span():
    spans, records = traced_requests(0.0)
    assert worker.accounting_problems(spans, records + records[:1]) == ["request 2 has no cli.run root span"]
