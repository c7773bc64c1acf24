"""Pure helpers: completion gaps, calibrated time, request tallies, digests
and percentiles."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Iterable, List, Mapping, Sequence, Tuple

def completion_gaps(series: Sequence[Tuple[int, int]], start: int) -> List[int]:
    """Stretches of simulated time with no completed request, from ``start``.

    ``series`` holds ``(time, cumulative completions)`` samples in time
    order, as read after each fixed simulated step; a completion is dated
    at the sample that first shows it.  The result is the leading gap from
    ``start`` to the first completion, the gaps between completions, and
    the trailing gap to the last sample, in order.
    """
    marks = [start]
    previous = None
    for when, count in series:
        if when > start and previous is not None and count > previous:
            marks.append(when)
        previous = count
    if series and series[-1][0] > marks[-1]:
        marks.append(series[-1][0])
    return [later - earlier for earlier, later in zip(marks, marks[1:])]


def normalized_time(timeline: Sequence[Tuple[float, float, float]]) -> Tuple[float, float]:
    """Host time between calibration chunks, raw and normalized.

    ``timeline`` holds ``(host start, host end, calibration seconds)`` for
    each chunk in time order; the first and last are zero-length marks at
    the start and end of the timed work, carrying the chunks timed just
    outside it.  The work between two chunks is divided by the mean of
    their times, so each stretch is scaled by the host's speed at that
    moment.  Returns ``(raw seconds, normalized)``, both without the chunks.
    """
    raw = normalized = 0.0
    for (_, end, before), (start, _, after) in zip(timeline, timeline[1:]):
        raw += start - end
        normalized += (start - end) / ((before + after) / 2.0)
    return raw, normalized


def request_tally(repetitions: Iterable[Mapping]) -> Tuple[int, int, int]:
    """``(attempted, failed, refused)`` requests over repetitions.

    Every request a failed repetition issued counts as failed; one that
    failed before it issued anything counts as one failed request, so a
    run of failures never reads as error-free.  Refused requests are the
    busy-NACKs of correct repetitions: the client retries them.
    """
    attempted = failed = refused = 0
    for rep in repetitions:
        if rep["ok"]:
            attempted += rep["issued"]
            refused += rep["busy_nacks"]
        else:
            attempted += max(rep["issued"], 1)
            failed += max(rep["issued"], 1)
    return attempted, failed, refused


def error_rate(repetitions: Iterable[Mapping]) -> float:
    """Requests refused with a busy-NACK or lost to a failed repetition,
    over requests issued."""
    attempted, failed, refused = request_tally(repetitions)
    return (failed + refused) / attempted if attempted else 1.0


def result_digest(result, executed_logs: Mapping[str, Sequence]) -> str:
    """Hash of every modelled ``ExperimentResult`` field plus each replica's
    executed log; equal digests mean byte-identical modelled behaviour."""
    payload = {
        "result": dataclasses.asdict(result),
        "executed_logs": {rid: list(log) for rid, log in sorted(executed_logs.items())},
    }
    encoded = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]


def config_digest(config, extra: Mapping) -> str:
    """Hash of the deployment plus the workload's fault schedule."""
    text = repr(config) + json.dumps(dict(extra), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def percentile_tail(pct: float, samples: int) -> int:
    """Samples beyond the nearest-rank ``pct`` percentile of ``samples``."""
    return samples - max(1, math.ceil(pct / 100.0 * samples))
