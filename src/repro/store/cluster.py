"""One-call deployment of the transactional partitioned store.

:class:`StoreCluster` assembles the full serving stack over an already
built (or freshly built) :class:`~repro.runtime.builder.System`: the
partition map, one :class:`TransactionalStore` replica per process, the
client sessions with their shared commit tracker, and the scheduled
transaction workload.  :meth:`attach` is the campaign runner's entry
point — ``ScenarioSpec.store`` scenarios flow through the exact same
construction as direct API users, so a campaign run, an adversary
exploration and a hand-built experiment of the same (spec, seed) are
bit-identical.

The cluster is also the measurement surface for the paper's
genuineness claim: :meth:`involvement` reports per-group protocol
traffic against per-group destination counts, so a committed campaign
artifact can show non-destination groups exchanging *zero* messages
under genuine routing while the broadcast reduction drags every group
into every transaction.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.reconfig.balancer import LoadBalancer
from repro.replication.cluster import (
    TappedEndpoint,
    assert_group_convergence,
)
from repro.replication.partition import PartitionMap
from repro.runtime.builder import System, build_system
from repro.store.client import CommitTracker, StoreClient
from repro.store.service import TransactionalStore
from repro.store.spec import StoreSpec
from repro.store.workload import (
    TxnPlan,
    build_partition_map,
    data_group_ids,
    txn_workload,
)


class InvolvementReport:
    """Per-group participation vs addressing, over one finished run."""

    def __init__(self, sent: Dict[int, int], received: Dict[int, int],
                 dest_txns: Dict[int, int], group_ids) -> None:
        self.sent = sent
        self.received = received
        self.dest_txns = dest_txns
        self.group_ids = tuple(group_ids)

    def non_destination_groups(self) -> List[int]:
        """Groups no transaction was addressed to."""
        return [g for g in self.group_ids if not self.dest_txns.get(g)]

    def non_destination_traffic(self) -> int:
        """Message copies sent or received by non-destination groups.

        Zero is the genuineness claim made quantitative: groups outside
        every destination set exchanged no protocol messages at all.
        """
        return sum(self.sent.get(g, 0) + self.received.get(g, 0)
                   for g in self.non_destination_groups())

    def involved_groups(self) -> List[int]:
        """Groups that sent or received at least one message."""
        return [g for g in self.group_ids
                if self.sent.get(g, 0) or self.received.get(g, 0)]


class StoreCluster:
    """A transactional partitioned-store deployment over one system."""

    def __init__(self, system: System, spec: StoreSpec,
                 partition_map: PartitionMap,
                 stores: Dict[int, TransactionalStore],
                 clients: Dict[int, StoreClient],
                 tracker: CommitTracker,
                 plans: List[TxnPlan]) -> None:
        self.system = system
        self.spec = spec
        #: The pristine epoch-0 map (never mutated); each elastic
        #: replica holds its own clone and mutates it at its delivery
        #: points.  Checkers replay the epoch timeline from this one.
        self.partition_map = partition_map
        self.stores = stores
        self.clients = clients
        self.tracker = tracker
        self.plans = plans
        self.data_gids = data_group_ids(spec, system.topology)
        self.balancer = None
        #: The finished run's one-copy replay, shared by the
        #: serializability and reconfig checkers (see
        #: :func:`repro.store.checker.finished_replay`).
        self.replay = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        group_sizes: List[int],
        store: Optional[StoreSpec] = None,
        protocol: str = "a1",
        seed: int = 0,
        **system_kwargs,
    ) -> "StoreCluster":
        """Build a store deployment over any protocol of the registry."""
        system = build_system(protocol=protocol, group_sizes=group_sizes,
                              seed=seed, **system_kwargs)
        return cls.attach(system, store or StoreSpec())

    @classmethod
    def attach(cls, system: System, spec: StoreSpec) -> "StoreCluster":
        """Mount the serving layer on a built system and schedule its
        workload; the cluster becomes ``system.store_cluster``."""
        endpoint = system.endpoints[min(system.endpoints)]
        if spec.routing == "genuine" and not hasattr(endpoint, "a_mcast"):
            raise ValueError(
                f"{system.protocol_name} is a broadcast protocol; store "
                f"scenarios over it need StoreSpec(routing='broadcast')"
            )
        topology = system.topology
        pmap = build_partition_map(spec, topology)
        migrating = spec.rebalance_interval > 0
        stores = {
            pid: TransactionalStore(
                system.network.process(pid),
                pmap.clone() if migrating else pmap,
                TappedEndpoint(system, pid), routing=spec.routing,
                service_time=spec.service_time,
                notice_delay=spec.notice_delay,
            )
            for pid in topology.processes
        }
        # Elastic deployments observe commits at execution (execution
        # can lag delivery behind service queues and migration stalls);
        # static ones keep the legacy delivery hook — the two coincide
        # exactly when service_time == 0 and nothing migrates.
        tracker = CommitTracker(
            system, source="execution" if spec.elastic else "delivery")
        if spec.elastic:
            for store in stores.values():
                store.on_execute_hooks.append(tracker.on_executed)
                store.on_reject_hooks.append(tracker.on_rejected)
                store.peer_crashed = (
                    lambda q, _n=system.network: _n.process(q).crashed)
        # Clients live in data groups only: a session in a spectator
        # group would make that group a caster, which genuineness
        # legitimately permits — and the idle-bystander measurement
        # is exactly about keeping spectators off the wire entirely.
        client_pids = [
            pid
            for gid in data_group_ids(spec, topology)
            for pid in topology.members(gid)[:spec.clients_per_group]
        ]
        clients = {pid: StoreClient(stores[pid], tracker,
                                    tag_routes=migrating,
                                    max_retries=spec.max_retries)
                   for pid in client_pids}
        plans = txn_workload(spec, topology, client_pids,
                             system.rng.stream("store-wl"))
        cluster = cls(system, spec, pmap, stores, clients, tracker, plans)
        if migrating:
            for store in stores.values():
                store.bounce_notify = cluster._on_bounce
            cluster.balancer = LoadBalancer(
                cluster, interval=spec.rebalance_interval,
                threshold=spec.rebalance_threshold,
                max_keys=spec.rebalance_keys,
                mode=spec.rebalance_mode,
            )
            cluster.balancer.schedule(spec.start, spec.horizon)
        # The plan comes in time order, so it waits on one lane (one
        # heap slot); a plan out of order goes on the heap under the
        # same (time, seq) key.
        lane = system.sim.lane(0.0, cluster._submit, "txn")
        for plan in plans:
            if lane.arm_at(plan.time, plan) is None:
                system.sim.call_at(plan.time,
                                   lambda plan=plan: cluster._submit(plan),
                                   label=f"txn:{plan.txn_id}")
        system.store_cluster = cluster
        return cluster

    def _submit(self, plan: TxnPlan) -> None:
        self.clients[plan.client].submit(plan.txn_id, plan.ops)

    def _on_bounce(self, client_pid: int, txn_id: str, gid: int,
                   keys: tuple, updates: Dict[str, int]) -> None:
        """Deliver a WrongEpoch notice to the issuing client session."""
        client = self.clients.get(client_pid)
        if client is None:
            return
        if self.system.network.process(client_pid).crashed:
            return  # the notice reaches a dead host; nobody retries
        client.on_wrong_epoch(txn_id, gid, keys, updates)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def store(self, pid: int) -> TransactionalStore:
        """The replica hosted by process ``pid``."""
        return self.stores[pid]

    def client(self, pid: int) -> StoreClient:
        """The client session homed at process ``pid``."""
        return self.clients[pid]

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def assert_convergence(self) -> None:
        """Every partition's correct replicas hold identical state.

        Failures pinpoint the diverging group, key and per-pid values
        (shared :func:`~repro.replication.cluster.
        assert_group_convergence`).
        """
        assert_group_convergence(
            self.system, lambda pid: self.stores[pid].owned_snapshot())

    def involvement(self) -> InvolvementReport:
        """Per-group sent/received copies and destination counts.

        Requires the system to have been built with ``trace=True`` (the
        campaign runner auto-enables it when the ``involvement`` metric
        family is requested, the same rule genuineness uses).
        """
        trace = self.system.network.trace
        if not trace.enabled:
            raise ValueError(
                "involvement accounting requires a system built with "
                "trace=True"
            )
        topology = self.system.topology
        sent: Dict[int, int] = {}
        received: Dict[int, int] = {}
        for event in trace.events:
            if event.event == "send":
                gid = topology.group_of(event.msg.src)
                sent[gid] = sent.get(gid, 0) + 1
            else:
                gid = topology.group_of(event.msg.dst)
                received[gid] = received.get(gid, 0) + 1
        dest_txns: Dict[int, int] = {}
        for msg in self.system.log.cast_map.values():
            for gid in msg.dest_groups:
                dest_txns[gid] = dest_txns.get(gid, 0) + 1
        return InvolvementReport(sent, received, dest_txns,
                                 topology.group_ids)
