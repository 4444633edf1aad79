"""The simulated multi-hop fabric: ECMP routing + store-and-forward.

:class:`FabricNetwork` turns a :class:`~repro.fabric.spec.TopologySpec`
into an executable network.  The sharded executor hands it each
barrier's globally sorted :class:`~repro.overlay.wirefmt.WireBatch` of
departed packets; the fabric assigns every packet a path (ECMP over the
flow key, flowlet-aware), replays the hop-by-hop store-and-forward
timing (per-(link, direction) FIFO serialization + per-hop propagation
latency, carried across barriers), and returns the batch with its true
``arrival_ns`` column rewritten.

The transit loop is the cluster's hottest non-engine path, so all
routing state is resolved to dense integers at construction or first
use:

- ``_routes`` maps an ``(src_host, dst_host)`` index pair straight to
  its equal-cost path tuple — resolved once per pair, so the per-packet
  cost is one small-tuple dict hit instead of re-hashing the whole
  (deeply nested) :class:`TopologySpec` through ``lru_cache`` on every
  packet;
- per-link latency and bandwidth live in flat lists indexed by link,
  and per-(link, direction) FIFO/counter state is keyed by the dense
  int ``2*link_index + direction`` (human-readable direction names are
  precomputed once in ``_dir_names`` for stats/debug, never formatted
  per packet);
- heap entries are 4-int tuples referencing batch rows — no live
  dataclasses on the heap, no ``dataclasses.replace`` per packet — and
  the initial entry list is already departure-sorted, so one O(n)
  ``heapify`` replaces n pushes.

Serialization time is ``int(wire_len / bytes_per_ns)``.  Replacing the
division with a precomputed ``1/bytes_per_ns`` reciprocal multiply was
measured and rejected: ``x * (1/b)`` rounds twice where ``x / b``
rounds once, so the two can differ in the last ulp and shift an arrival
by 1 ns — breaking the pinned digest contract.  A reciprocal is used
only where it is provably exact (``bytes_per_ns`` a power of two, so
``1/b`` is representable and the product is a single rounding); every
other link uses a per-link ``wire_len -> ns`` memo, which amortizes the
division to one per distinct frame size anyway.

Determinism: the input batch is the *globally sorted union* of all
shards' outboxes (executor contract), path enumeration orders neighbors
by name, the event heap breaks ties on (time, departure, input index),
and the ECMP hash is process-stable — so arrivals, per-link counters,
and flowlet statistics are identical at any shard count and for
in-process vs subprocess workers.  The stats feed the cluster digest.

Lookahead safety: every path traverses links whose summed latency is at
least :func:`min_path_latency_ns`, so ``arrival >= departure +
min_path_latency_ns`` — using that minimum as the executor's window
width preserves the conservative-lookahead guarantee that no delivered
packet is ever in a cell's past.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import Dict, List, Tuple

from repro.fabric.ecmp import FlowletTable
from repro.fabric.spec import TopologySpec
from repro.overlay.wirefmt import CLS_NAMES, KIND_NAMES, WireBatch

__all__ = ["FabricNetwork", "equal_cost_paths", "min_path_latency_ns"]

#: A path as hop directives: (link index into spec.links, direction)
#: with direction 0 = a->b, 1 = b->a.
Hop = Tuple[int, int]
Path = Tuple[Hop, ...]


def _adjacency(spec: TopologySpec) -> Dict[str, List[Tuple[str, int, int]]]:
    """name -> sorted [(neighbor, link_index, direction)]."""
    adj: Dict[str, List[Tuple[str, int, int]]] = {}
    for index, link in enumerate(spec.links):
        adj.setdefault(link.a, []).append((link.b, index, 0))
        adj.setdefault(link.b, []).append((link.a, index, 1))
    for neighbors in adj.values():
        neighbors.sort()
    return adj


@functools.lru_cache(maxsize=None)
def equal_cost_paths(spec: TopologySpec, src: str, dst: str
                     ) -> Tuple[Path, ...]:
    """All minimum-hop paths src -> dst, deterministically ordered.

    BFS computes hop distances from *src*; every shortest path is then
    enumerated over the BFS DAG with an explicit DFS stack (neighbors
    name-sorted, pushed in reverse so pop order equals the recursive
    enumeration's), yielding the canonical path list ECMP indexes into.
    The iterative walk means oversubscribed/large topologies can never
    hit Python's recursion limit, however deep the fabric.
    """
    adj = _adjacency(spec)
    if src not in adj or dst not in adj:
        raise ValueError(f"no fabric connectivity for {src!r} -> {dst!r}")
    dist = {src: 0}
    frontier = [src]
    while frontier and dst not in dist:
        nxt: List[str] = []
        for node in frontier:
            for neighbor, _index, _direction in adj[node]:
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    nxt.append(neighbor)
        frontier = nxt
    if dst not in dist:
        raise ValueError(f"no path {src!r} -> {dst!r} in topology "
                         f"{spec.kind!r}")

    paths: List[Path] = []
    dist_dst = dist[dst]
    stack: List[Tuple[str, Path]] = [(src, ())]
    while stack:
        node, hops = stack.pop()
        if node == dst:
            paths.append(hops)
            continue
        next_dist = dist[node] + 1
        for neighbor, index, direction in reversed(adj[node]):
            if dist.get(neighbor) == next_dist and next_dist <= dist_dst:
                stack.append((neighbor, hops + ((index, direction),)))
    return tuple(paths)


@functools.lru_cache(maxsize=None)
def min_path_latency_ns(spec: TopologySpec) -> int:
    """The smallest propagation latency between any two hosts, taken
    over the minimum-hop (ECMP-eligible) paths the fabric actually
    routes on.

    This is the executor's conservative lookahead horizon: serialization
    only adds delay, so every cross-host arrival is at least this far
    past its departure.

    Computed with one BFS + shortest-path-DAG relaxation per source
    host — O(hosts x (V + E)) — instead of enumerating every equal-cost
    path for every pair (which is combinatorial on fat-trees).  The
    value is identical: a node's minimum latency over shortest-hop
    paths is the minimum over its BFS predecessors of theirs plus the
    connecting link, and every layer is final before the next relaxes.
    """
    adj = _adjacency(spec)
    links = spec.links
    best = None
    host_names = {h.name for h in spec.hosts}
    for i, a in enumerate(spec.hosts):
        targets = {b.name for b in spec.hosts[i + 1:]}
        if not targets:
            continue
        if a.name not in adj:
            b = spec.hosts[i + 1]
            raise ValueError(
                f"no fabric connectivity for {a.name!r} -> {b.name!r}")
        dist = {a.name: 0}
        min_lat = {a.name: 0}
        frontier = [a.name]
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                node_dist = dist[node]
                node_lat = min_lat[node]
                for neighbor, index, _direction in adj[node]:
                    seen = dist.get(neighbor)
                    if seen is None:
                        dist[neighbor] = node_dist + 1
                        min_lat[neighbor] = node_lat + links[index].latency_ns
                        nxt.append(neighbor)
                    elif seen == node_dist + 1:
                        candidate = node_lat + links[index].latency_ns
                        if candidate < min_lat[neighbor]:
                            min_lat[neighbor] = candidate
            frontier = nxt
        for name in targets:
            if name not in dist:
                raise ValueError(f"no path {a.name!r} -> {name!r} in "
                                 f"topology {spec.kind!r}")
            if best is None or min_lat[name] < best:
                best = min_lat[name]
    if best is None:
        raise ValueError("topology has no host-to-host path")
    return best


class FabricNetwork:
    """Executable fabric state for one cluster run (one per executor)."""

    def __init__(self, spec: TopologySpec, *, seed: int = 0,
                 header_bytes: int = 0) -> None:
        self.spec = spec
        self.header_bytes = header_bytes
        salt = (spec.ecmp.hash_salt << 32) ^ (seed & 0xFFFF_FFFF)
        self.flowlets = FlowletTable(spec.ecmp.flowlet_gap_ns, salt)
        #: dense (link, direction) key = 2*link_index + direction ->
        #: busy-until ns, carried across barriers so FIFO serialization
        #: spans window boundaries.
        self._busy: Dict[int, int] = {}
        #: packets forwarded per (link, direction), same dense key.
        self._link_packets: Dict[int, int] = {}
        #: (src, dst, cls_code, kind_code) -> {path index -> packets};
        #: stringified only in :meth:`stats`, never per packet.
        self._flow_paths: Dict[Tuple[int, int, int, int],
                               Dict[int, int]] = {}
        self.transited = 0
        # --- per-link constants, resolved once -------------------------
        links = spec.links
        self._latency = [link.latency_ns for link in links]
        self._bytes_per_ns = [link.bytes_per_ns for link in links]
        #: Per-link 1/bytes_per_ns, or None when the reciprocal multiply
        #: is not provably exact (rate not a power of two) — those links
        #: fall back to the memoized division (see module docs).
        self._inv_bytes_per_ns = [
            1.0 / link.bytes_per_ns
            if math.frexp(link.bytes_per_ns)[0] == 0.5 else None
            for link in links]
        #: Per-link wire_len -> serialization-ns memo (exact: computed
        #: with the original division on first sight of each size).
        self._ser_memo: List[Dict[int, int]] = [{} for _ in links]
        #: "a->b" / "b->a" per dense direction key (stats/debug only).
        self._dir_names = [name for link in links
                           for name in (f"{link.a}->{link.b}",
                                        f"{link.b}->{link.a}")]
        self._host_names = [host.name for host in spec.hosts]
        #: (src_host, dst_host) -> equal-cost path tuple, resolved
        #: lazily (one spec-level lru_cache hit per *pair*, never per
        #: packet).
        self._routes: Dict[Tuple[int, int], Tuple[Path, ...]] = {}
        #: Sampled flow-record tap (:class:`repro.flows.FabricFlowTap`)
        #: or None.  Consulted in the path-assignment loop so records
        #: carry the actual ECMP/flowlet link labels; the fabric is
        #: executor-owned and walks the globally sorted union, so its
        #: samples are shard-count independent.
        self.flows = None

    # ------------------------------------------------------------------
    def _paths_for(self, src: int, dst: int) -> Tuple[Path, ...]:
        pair = (src, dst)
        paths = self._routes.get(pair)
        if paths is None:
            names = self._host_names
            paths = equal_cost_paths(self.spec, names[src], names[dst])
            self._routes[pair] = paths
        return paths

    def transit_batch(self, batch: WireBatch) -> WireBatch:
        """Route one barrier's departures, columnar end to end.

        The returned batch carries true arrivals and is sorted in
        :meth:`~repro.overlay.wirefmt.WireBatch.sort_wire` order.
        """
        n = len(batch)
        if n == 0:
            return batch
        # Flowlet/path assignment walks departures in global time order
        # so idle-gap detection is partition-independent.  The row
        # tuples sort on (departure, wire key, input index) — a stable
        # departure-major sort.
        rows = sorted(zip(batch.departure, batch.arrival, batch.src,
                          batch.dst, batch.cls, batch.kind, batch.seq,
                          range(n), batch.payload_len, batch.sent_at))
        flow_paths = self._flow_paths
        assign = self.flowlets.assign
        header_bytes = self.header_bytes
        flows = self.flows
        path_by_order: List[Path] = []
        wire_len_by_order: List[int] = []
        heap: List[Tuple[int, int, int, int]] = []
        for order, row in enumerate(rows):
            departure, _arr, src, dst, cls_code, kind_code = row[:6]
            paths = self._paths_for(src, dst)
            # The flowlet/ECMP hash sees the string flow key — codes
            # would change the sha256 input and re-route flows.
            flow = (src, dst, CLS_NAMES[cls_code], KIND_NAMES[kind_code])
            index = assign(flow, departure, len(paths))
            uses = flow_paths.get((src, dst, cls_code, kind_code))
            if uses is None:
                uses = flow_paths[(src, dst, cls_code, kind_code)] = {}
            uses[index] = uses.get(index, 0) + 1
            path_by_order.append(paths[index])
            wire_len_by_order.append(row[8] + header_bytes)
            if flows is not None:
                flows.on_transit(src, dst, cls_code, departure,
                                 wire_len_by_order[-1], paths[index])
            # (time, departed, input order, hop): ties never reach past
            # the unique order, so no packet fields are ever compared.
            heap.append((departure, departure, order, 0))
        # The entries are already (departure, departure, order)-sorted,
        # so this heapify is a single O(n) pass instead of n pushes.
        heapq.heapify(heap)

        busy = self._busy
        busy_get = busy.get
        link_packets = self._link_packets
        lp_get = link_packets.get
        latency = self._latency
        bytes_per_ns = self._bytes_per_ns
        inv_bytes_per_ns = self._inv_bytes_per_ns
        ser_memo = self._ser_memo
        heappush = heapq.heappush
        heappop = heapq.heappop
        completed: List[int] = []
        arrival_by_order: List[int] = [0] * n
        while heap:
            t, departed, order, hop = heappop(heap)
            path = path_by_order[order]
            link_index, direction = path[hop]
            key = 2 * link_index + direction
            start = busy_get(key, 0)
            if t > start:
                start = t
            wire_len = wire_len_by_order[order]
            inv = inv_bytes_per_ns[link_index]
            if inv is not None:
                ser = int(wire_len * inv)
            else:
                memo = ser_memo[link_index]
                ser = memo.get(wire_len)
                if ser is None:
                    ser = memo[wire_len] = int(wire_len
                                               / bytes_per_ns[link_index])
            finish = start + ser
            busy[key] = finish
            link_packets[key] = lp_get(key, 0) + 1
            t_next = finish + latency[link_index]
            hop += 1
            if hop == len(path):
                arrival_by_order[order] = t_next
                completed.append(order)
            else:
                heappush(heap, (t_next, departed, order, hop))
        self.transited += n

        # Rebuild the batch in completion order, then wire-sort: rows
        # with equal wire keys keep their completion order.
        out = WireBatch()
        out.src = [rows[o][2] for o in completed]
        out.dst = [rows[o][3] for o in completed]
        out.cls = [rows[o][4] for o in completed]
        out.kind = [rows[o][5] for o in completed]
        out.seq = [rows[o][6] for o in completed]
        out.departure = [rows[o][0] for o in completed]
        out.arrival = [arrival_by_order[o] for o in completed]
        out.payload_len = [rows[o][8] for o in completed]
        out.sent_at = [rows[o][9] for o in completed]
        out.sort_wire()
        return out

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Digest-grade summary of what the fabric did (deterministic).

        Flow keys are stringified here — once per run, not per packet —
        and sorted as strings.
        """
        named = {f"{src}->{dst}:{CLS_NAMES[cls_code]}:{KIND_NAMES[kind_code]}":
                 uses
                 for (src, dst, cls_code, kind_code), uses
                 in self._flow_paths.items()}
        multipath = {flow: uses for flow, uses in named.items()
                     if len(uses) > 1}
        # Per-(link, direction) counters are dense-int keyed in the hot
        # loop; fold them onto direction *names* here, so parallel links
        # sharing endpoints count as one direction.
        dir_names = self._dir_names
        link_by_name: Dict[str, int] = {}
        for key, count in self._link_packets.items():
            name = dir_names[key]
            link_by_name[name] = link_by_name.get(name, 0) + count
        return {
            "packets": self.transited,
            "flows": len(named),
            "flows_multipath": len(multipath),
            "paths_used_max": max(
                (len(uses) for uses in named.values()), default=0),
            "flowlet_rehashes": self.flowlets.rehashes,
            "flowlet_path_changes": self.flowlets.path_changes,
            "links_used": len(link_by_name),
            "link_packets_max": max(link_by_name.values(), default=0),
            "flow_paths": {flow: {str(i): count
                                  for i, count in sorted(uses.items())}
                           for flow, uses in sorted(named.items())},
        }
