"""Regression: a live PBFT primary voted out by f+1 backups.

Two backups suspect the primary mid-run.  The primary and the other
backup join the view change at f+1 votes, so the primary is in a view
change against itself while its batch threads keep forming batches.  A
proposal made then raises ``ViewChangeInProgress``; the host must hand
those requests back to their clients instead of letting the exception
kill the batch thread (and with it the whole simulation).
"""

from repro.core import ResilientDBSystem, SystemConfig
from repro.sim.clock import millis


def test_primary_voted_out_mid_run_reaches_the_next_view():
    config = SystemConfig(
        num_replicas=4,
        num_clients=200,
        client_groups=4,
        batch_size=10,
        ycsb_records=500,
        warmup=millis(10),
        measure=millis(30),
    )
    system = ResilientDBSystem(config)

    def suspect():
        for rid in ("r2", "r3"):
            replica = system.replicas[rid]
            actions = replica.engine.suspect_primary()
            system.sim.spawn(
                replica._dispatch(actions, f"{rid}.worker"),
                name=f"{rid}.suspect",
            )

    system.sim.schedule(millis(15), suspect)
    result = system.run()
    for replica in system.replicas.values():
        assert replica.engine.view == 1
    assert system.validate_safety() > 0
    assert result.completed_requests > 0
