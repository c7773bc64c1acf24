"""Stepping the kernel to read completions, and running calibration chunks
between steps, leave the run unchanged."""

from repro.core import ResilientDBSystem, SystemConfig
from repro.sim.clock import micros, millis

from perfbench.measure import result_digest
from perfbench.repetition import step_completions


def _run(step, calibrate_every=None):
    config = SystemConfig(
        num_replicas=4,
        num_clients=32,
        client_groups=2,
        batch_size=4,
        ycsb_records=200,
        warmup=millis(3),
        measure=millis(6),
        real_auth_tokens=False,
        apply_state=False,
        seed=5,
    )
    system = ResilientDBSystem(config)
    series, chunks = (
        step_completions(system, step, calibrate_every) if step else (None, None)
    )
    result = system.run()
    logs = {rid: r.executed_log for rid, r in system.replicas.items()}
    return result_digest(result, logs), series, chunks, result


def test_stepped_run_matches_unstepped_digest():
    plain, _, _, result = _run(None)
    stepped, series, _, _ = _run(micros(50))
    assert stepped == plain
    assert result.completed_requests > 0
    assert series[-1][0] == millis(9)
    assert all(a[0] < b[0] for a, b in zip(series, series[1:]))


def test_calibration_chunks_leave_the_run_unchanged():
    plain, _, _, _ = _run(None)
    calibrated, _, chunks, _ = _run(micros(50), calibrate_every=0.0)
    assert calibrated == plain
    assert chunks and all(start < end and seconds > 0 for start, end, seconds in chunks)
