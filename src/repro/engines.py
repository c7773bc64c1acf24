"""The protocol table: the one place a protocol name picks its engine.

Every engine implements :class:`repro.consensus.base.Engine`, so the
replica host, the clients and the system builder never name a concrete
engine class; they ask the engine built here.
"""

from __future__ import annotations

from repro.consensus.pbft import PbftReplica
from repro.consensus.poe import PoeReplica
from repro.consensus.zyzzyva import ZyzzyvaReplica
from repro.multi.coordinator import InstanceCoordinator

#: protocol name -> engine factory (config, replica id, replica ids, quorum)
ENGINES = {
    "pbft": lambda config, *ids: PbftReplica(*ids),
    "zyzzyva": lambda config, *ids: ZyzzyvaReplica(*ids),
    "poe": lambda config, *ids: PoeReplica(*ids),
    "rcc": lambda config, *ids: InstanceCoordinator(*ids, config.num_primaries),
}


def make_engine(config, replica_id, replica_ids, quorum):
    """Build the consensus engine ``config.protocol`` names."""
    return ENGINES[config.protocol](config, replica_id, replica_ids, quorum)
