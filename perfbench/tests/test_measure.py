"""Metric names, completion gaps, the error rate and the calibration loop."""

import gc
import json
import os
import re

from perfbench.layers import PER_LAYER
from perfbench.measure import (
    completion_gaps,
    error_rate,
    normalized_time,
    percentile_tail,
    request_tally,
)
from perfbench.repetition import calibration_s
from perfbench.run import END_TO_END
from perfbench.workloads import WORKLOADS

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)


def test_metric_names_are_well_formed():
    for name in list(END_TO_END) + list(PER_LAYER):
        assert METRIC_NAME.fullmatch(name), name


def test_benchmark_json_matches_the_harness():
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_outage_on_a_hand_built_completion_series():
    # one-tick steps; completions seen at t=2, 3 and 9, then nothing to 12
    series = [(t, c) for t, c in zip(range(0, 13), (0, 0, 4, 6, 6, 6, 6, 6, 6, 9, 9, 9, 9))]
    # leading 2, then 1, then the 6-tick outage, then the 3-tick tail
    assert completion_gaps(series, start=0) == [2, 1, 6, 3]
    # completions before the start do not count: from t=4 the first is at 9
    assert completion_gaps(series, start=4) == [5, 3]
    # nothing after the start: one gap runs to the last sample
    assert completion_gaps([(0, 5), (5, 5), (10, 5)], start=0) == [10]


def test_failed_repetition_counts_every_request_as_failed():
    good = {"ok": True, "issued": 900, "busy_nacks": 9}
    bad = {"ok": False, "issued": 100, "busy_nacks": 0}
    assert request_tally([good, bad]) == (1000, 100, 9)
    assert error_rate([good, bad]) == (100 + 9) / 1000
    assert error_rate([good]) == 9 / 900
    # a repetition that died before issuing anything still reads as failed
    died = {"ok": False, "issued": 0, "busy_nacks": 0, "problems": ["exited 1"]}
    assert error_rate([died]) == 1.0


def test_percentile_tail_uses_nearest_rank():
    assert percentile_tail(99, 2100) == 21
    assert percentile_tail(99, 1000) == 10
    assert percentile_tail(50, 3) == 1


def test_calibration_restores_the_collector():
    assert gc.isenabled()
    assert calibration_s(1_000) > 0
    assert gc.isenabled()


def test_normalized_time_scales_each_stretch_by_its_chunks():
    timeline = [
        (0.0, 0.0, 1.0),  # mark at the start, chunk timed just before
        (4.0, 5.0, 1.0),  # 4 s of work at speed 1
        (11.0, 13.0, 2.0),  # 6 s at the mean of 1 and 2
        (21.0, 21.0, 2.0),  # mark at the end: 8 s at speed 2
    ]
    assert normalized_time(timeline) == (18.0, 4.0 + 4.0 + 4.0)
