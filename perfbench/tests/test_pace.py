"""The pace sampler: its samples, its clock and its reference seconds."""

import signal
from time import perf_counter

import pytest

import pace
from pace import Pacer, clock


def _busy(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_samples_fall_inside_the_block_and_leave_the_clock():
    before = signal.getsignal(signal.SIGALRM)
    w0, c0, spent0 = perf_counter(), clock(), pace.sampling_s()
    with Pacer() as p:
        _busy(0.3)
    wall, clocked = perf_counter() - w0, clock() - c0
    assert len(p.samples) >= 0.3 / pace.INTERVAL_S / 2
    assert all(s > 0 for s in p.samples)
    # the clock stopped for exactly the sampling time
    assert wall - clocked == pytest.approx(pace.sampling_s() - spent0, abs=1e-4)
    assert sum(p.samples) <= wall - clocked < sum(p.samples) + 0.05
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_short_block_still_has_a_sample():
    with Pacer() as p:
        pass
    assert len(p.samples) == 1


def test_reference_seconds_scale_with_the_mean_loop_time():
    p = Pacer()
    p.samples = [0.5 / pace.LOOPS_PER_REF_S] * 3
    assert pace.ref_seconds(1.0, p.loop_s) == pytest.approx(2.0)
    p.samples = [1.0 / pace.LOOPS_PER_REF_S, 3.0 / pace.LOOPS_PER_REF_S]
    assert pace.ref_seconds(4.0, p.loop_s) == pytest.approx(2.0)
