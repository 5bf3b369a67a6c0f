"""Horizontal scale-out: load-balanced tier pools + a replicated DB.

The paper stops at one machine per tier; this package grows each tier
sideways.  :func:`repro.topology.spec.topology` combines one of the six
paper configurations with a :class:`~repro.topology.spec.TopologySpec`
(web pool size, servlet pool size, DB read replicas, replication lag,
balancing policies) into a configuration such as
``Ws{2}-Servlet{4}-DB(1+2)``, and
:class:`~repro.cluster.site.ClusteredSite` simulates it.  The
``python -m repro scale`` CLI sweeps replica counts over the bookstore
mixes (``repro.experiments.ext_scaleout``).

A trivial topology (``web=1, gen=1, db_replicas=0``) *is* its paper
configuration; the six paper configurations themselves never touch this
package.
"""

from repro.cluster.balancer import LoadBalancer
from repro.cluster.replication import DbInstance, ReplicatedDb, SessionState

__all__ = [
    "DbInstance",
    "LoadBalancer",
    "ReplicatedDb",
    "SessionState",
]
