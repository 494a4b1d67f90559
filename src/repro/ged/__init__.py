"""``repro.ged`` — the Global Event Detector (paper Section 6 future work).

"We plan on supporting heterogeneous distributed active capability ...
and use a global event detector (GED) for events and rules across
application/systems."

This extension implements that plan at laptop scale as one class,
:class:`ShardedGed`: site agents *import* their primitive events into a
global scope; the sites form a consistent-hash ring (:class:`HashRing`),
each site's shard hosts the global composite graphs assigned to it, and
the router stamps a global sequence so cross-site detection does not
depend on where a graph lives.  One registered site (or
``sharded=False``) is the single-node GED: every global composite and
rule lives in that site's one shard LED.  Ships with journaled per-site
recovery, skew-aware rebalancing, and an in-process ``syb_sendmsg``
datagram transport (:class:`InProcessTransport`).
"""

from .partitioning import DEFAULT_REPLICAS, HashRing, stable_hash
from .sharded import (
    GedFiring,
    GedRule,
    GedShard,
    JournalEntry,
    ShardedGed,
    SiteRecovery,
    qualified_name,
)
from .transport import InProcessTransport, TransportError

__all__ = [
    "DEFAULT_REPLICAS",
    "GedFiring",
    "GedRule",
    "GedShard",
    "HashRing",
    "InProcessTransport",
    "JournalEntry",
    "ShardedGed",
    "SiteRecovery",
    "TransportError",
    "qualified_name",
    "stable_hash",
]
