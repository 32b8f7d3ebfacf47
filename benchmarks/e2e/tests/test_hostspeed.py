"""The host-speed sampler: off it is neutral, on it samples and stops."""

import signal
import time

from benchmarks.e2e.hostspeed import INTERVAL, MARGIN, HostSampler


def test_a_sampler_never_started_reports_speed_one_and_no_time():
    sampler = HostSampler()
    assert sampler.speed_over(0.0, 1.0) == 1.0
    assert sampler.median_speed() == 1.0
    assert sampler.busy == 0.0


def test_speed_is_the_mean_of_the_samples_in_and_next_to_the_section():
    sampler = HostSampler()
    sampler.at = [1.0, 2.0, 3.0, 4.0]
    sampler.speed = [1.0, 0.5, 0.7, 1.0]
    assert sampler.speed_over(1.9, 3.1) == 0.6
    assert sampler.speed_over(2.0 + MARGIN / 2, 2.0 + MARGIN) == 0.5
    # No sample near: the nearest one, also past either end.
    assert sampler.speed_over(2.4, 2.5) == 0.7
    assert sampler.speed_over(9.0, 9.5) == 1.0
    assert sampler.speed_over(0.0, 0.1) == 1.0


def test_it_samples_while_the_program_runs_and_stops():
    sampler = HostSampler()
    sampler.start()
    try:
        started = time.perf_counter()
        while time.perf_counter() - started < 12 * INTERVAL:
            sum(range(1000))
        ended = time.perf_counter()
    finally:
        sampler.stop()
    taken = len(sampler.at)
    assert taken >= 6
    assert all(speed > 0 for speed in sampler.speed)
    assert started < sampler.at[0] <= sampler.at[-1] < ended + INTERVAL
    # Its own time is kept, and is a small share of the wall.
    assert 0 < sampler.busy < 0.5 * (ended - started)
    assert sampler.speed_over(started, ended) > 0
    time.sleep(3 * INTERVAL)
    assert len(sampler.at) == taken
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_IGN
