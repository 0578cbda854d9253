"""Unit tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import common  # noqa: E402
import serve  # noqa: E402
import spans  # noqa: E402


# -- the seeded arrival schedule ----------------------------------------------
def test_schedule_is_a_function_of_the_seed():
    a = serve.arrival_schedule(7, 20.0, 500, 120)
    assert a == serve.arrival_schedule(7, 20.0, 500, 120)
    assert a != serve.arrival_schedule(8, 20.0, 500, 120)


def test_schedule_shape_and_rate():
    n, rate = 20000, 20.0
    schedule = serve.arrival_schedule(3, rate, n, 120)
    offsets = [t for t, _ in schedule]
    assert len(schedule) == n
    assert all(b > a for a, b in zip(offsets, offsets[1:]))
    assert {i for _, i in schedule} == set(range(120))
    # Poisson arrivals: mean gap 1/rate, and the gap's standard
    # deviation equals its mean.
    gaps = [b - a for a, b in zip([0.0] + offsets, offsets)]
    mean = sum(gaps) / n
    sd = (sum((g - mean) ** 2 for g in gaps) / n) ** 0.5
    assert mean == pytest.approx(1.0 / rate, rel=0.03)
    assert sd == pytest.approx(mean, rel=0.05)


# -- the ten-samples-beyond rule ----------------------------------------------
@pytest.mark.parametrize(
    "n, q", [(19, None), (20, 50), (100, 90), (300, 96), (999, 98), (1000, 99), (5000, 99)]
)
def test_tail_percentile(n, q):
    assert common.tail_percentile(n) == q


@pytest.mark.parametrize("n", [20, 21, 57, 100, 301, 999, 1000, 1001, 2500])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    values = random.Random(n).sample(range(10 * n), n)
    q = common.tail_percentile(n)
    cut = common.percentile(values, q)
    assert sum(v > cut for v in values) >= 10
    if q < 99:  # one percentile higher would leave fewer than ten
        higher = common.percentile(values, q + 1)
        assert sum(v > higher for v in values) < 10


def test_quartile_spread():
    assert common.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


# -- span self-time arithmetic ------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Work:
    def __init__(self, clock):
        self.clock = clock

    def inner(self, cost):
        self.clock.now += cost

    def outer(self):
        self.clock.now += 1.0
        self.inner(2.0)
        self.clock.now += 0.5
        self.inner(3.0)
        self.clock.now += 0.25

    def recursive(self, depth):
        self.clock.now += 1.0
        if depth:
            self.recursive(depth - 1)


@pytest.fixture
def traced():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    originals = {k: Work.__dict__[k] for k in ("inner", "outer", "recursive")}
    tracer.wrap_method(Work, "inner", "inner")
    tracer.wrap_method(Work, "outer", "outer")
    tracer.wrap_method(Work, "recursive", "recursive")
    yield tracer, Work(clock)
    tracer.uninstall()
    assert all(Work.__dict__[k] is v for k, v in originals.items())


def test_self_time_subtracts_direct_children(traced):
    tracer, work = traced
    work.outer()
    snap = tracer.snapshot()["spans"]
    assert snap["outer"] == {"calls": 1, "total_s": 6.75, "self_s": 1.75}
    assert snap["inner"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}


def test_same_name_nesting_folds_into_the_outer_span(traced):
    tracer, work = traced
    work.recursive(3)
    assert tracer.snapshot()["spans"]["recursive"] == {
        "calls": 1, "total_s": 4.0, "self_s": 4.0,
    }


def test_disabled_tracer_records_nothing(traced):
    tracer, work = traced
    tracer.enabled = False
    work.outer()
    assert tracer.snapshot()["spans"] == {}


def test_rows_counter_and_async_span():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    class Service:
        def submit_many(self, requests):
            clock.now += 0.5

        async def submit(self, request):
            clock.now += 2.0

    tracer.wrap_method(Service, "submit_many", "svc", spans._len_of(1, "requests"))
    tracer.wrap_method(Service, "submit", "async")
    service = Service()
    service.submit_many([1, 2, 3])
    service.submit_many(requests=[4])
    asyncio.run(service.submit(None))
    snap = tracer.snapshot()
    assert snap["counters"]["svc.rows"] == 4
    assert snap["spans"]["svc"] == {"calls": 2, "total_s": 1.0, "self_s": 1.0}
    assert snap["spans"]["async"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}
