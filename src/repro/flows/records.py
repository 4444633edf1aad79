"""Flow-record schema (version 1) and canonical ordering.

A :class:`FlowRecord` is the unit the whole pipeline moves around:
cache → sink → store → query.  Records serialize to plain dicts with a
stable field set (``FLOW_SCHEMA_VERSION`` gates incompatible change),
and the *record set* of a run is defined order-normalized: sinks and
digests always see records sorted by :func:`record_sort_key`, which is
what makes "same set at shards 1/2/4" a byte-comparable statement.

The identity key is the sampled 5-tuple widened with where it was seen
and what class it ran as::

    (scope, src, dst, src_port, dst_port, proto, cls)

``scope`` is the collector that folded it — a host name (``h3``),
``server`` for single-host cells, or ``fabric`` for the executor-owned
link collector — so per-host and fabric views of the same 5-tuple stay
separate records, the way a router's and an end-host's NetFlow caches
would.  ``sites`` carries per-emit-site ``[packets, bytes, drops]``
triples (kernel queue names, ``fault:`` drop sites, ``link:`` labels
in fabric mode), which is what the per-link utilization query reads.
"""

import hashlib
import json

#: Bump when the serialized record shape changes incompatibly.
FLOW_SCHEMA_VERSION = 1


class FlowRecord:
    """One exported flow: identity key + folded counters."""

    __slots__ = ("scope", "src", "dst", "src_port", "dst_port", "proto",
                 "cls", "first_ns", "last_ns", "packets", "bytes", "drops",
                 "latency_sum_ns", "latency_samples", "sites", "reason")

    def __init__(self, scope, src, dst, src_port, dst_port, proto, cls,
                 first_ns):
        self.scope = scope
        self.src = src
        self.dst = dst
        self.src_port = src_port
        self.dst_port = dst_port
        self.proto = proto
        self.cls = cls
        self.first_ns = first_ns
        self.last_ns = first_ns
        self.packets = 0
        self.bytes = 0
        self.drops = 0
        self.latency_sum_ns = 0
        self.latency_samples = 0
        self.sites = {}
        self.reason = ""

    @property
    def key(self):
        return (self.scope, self.src, self.dst, self.src_port,
                self.dst_port, self.proto, self.cls)

    def fold(self, now, nbytes, site, *, drops=0, latency_ns=None):
        """Fold one sampled packet observed at *site* into the record."""
        if now > self.last_ns:
            self.last_ns = now
        self.packets += 1
        self.bytes += nbytes
        self.drops += drops
        if latency_ns is not None:
            self.latency_sum_ns += latency_ns
            self.latency_samples += 1
        self.fold_site(site, nbytes, drops=drops)

    def fold_site(self, site, nbytes, *, drops=0):
        """Credit *site* only, without re-counting the packet.

        Used for the extra hops of a multi-link fabric path: the record
        counts the sampled packet once, but every link it crossed gets
        the bytes — which is what per-link utilization must sum.
        """
        triple = self.sites.get(site)
        if triple is None:
            self.sites[site] = [1, nbytes, drops]
        else:
            triple[0] += 1
            triple[1] += nbytes
            triple[2] += drops

    def to_dict(self) -> dict:
        return {
            "schema": FLOW_SCHEMA_VERSION,
            "scope": self.scope,
            "src": self.src,
            "dst": self.dst,
            "src_port": self.src_port,
            "dst_port": self.dst_port,
            "proto": self.proto,
            "cls": self.cls,
            "first_ns": self.first_ns,
            "last_ns": self.last_ns,
            "packets": self.packets,
            "bytes": self.bytes,
            "drops": self.drops,
            "latency_sum_ns": self.latency_sum_ns,
            "latency_samples": self.latency_samples,
            "sites": {site: list(triple)
                      for site, triple in sorted(self.sites.items())},
            "reason": self.reason,
        }


    def __repr__(self):
        return (f"FlowRecord({self.scope} {self.src}:{self.src_port}->"
                f"{self.dst}:{self.dst_port} cls={self.cls} "
                f"pkts={self.packets} bytes={self.bytes} "
                f"drops={self.drops} reason={self.reason or '?'})")


def record_sort_key(record: dict):
    """Canonical total order over record dicts.

    Identity key, then time, then reason: two records of the same flow
    split by an active timeout order by their windows, so the sorted
    list is unique for a given record *set* regardless of which
    collector or merge order produced it.
    """
    return (record["scope"], record["src"], record["dst"],
            record["src_port"], record["dst_port"], record["proto"],
            record["cls"], record["first_ns"], record["last_ns"],
            record["reason"])


def normalize_records(records) -> list:
    """Record dicts in canonical order (the comparison/export form)."""
    return sorted(records, key=record_sort_key)


def flow_record_digest(records) -> str:
    """sha256 over the order-normalized JSON record set.

    This is the value the determinism tests compare across shard
    counts and worker backends.
    """
    payload = json.dumps(normalize_records(records), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def merge_flow_blocks(blocks, *, sample_rate: int) -> dict:
    """Merge per-collector finalize blocks into one run-level block.

    Concatenates the record lists in canonical order, sums the sampler
    and cache counters (the per-site ``rate`` is config, not a count),
    and stamps the merged set with its own digest.  Used by both the
    cluster executor (per-host + fabric collectors) and the single-host
    cell (one collector), so every result carries the same shape and
    sinks/queries never care where a run came from.
    """
    records: list = []
    sampler_totals: dict = {}
    cache_totals: dict = {}
    for block in blocks:
        records.extend(block["records"])
        for key, value in block["sampler"].items():
            if key != "rate":
                sampler_totals[key] = sampler_totals.get(key, 0) + value
        for key, value in block["cache"].items():
            cache_totals[key] = cache_totals.get(key, 0) + value
    records.sort(key=record_sort_key)
    return {
        "schema": FLOW_SCHEMA_VERSION,
        "sample_rate": sample_rate,
        "scopes": sorted(block["scope"] for block in blocks),
        "record_count": len(records),
        "record_digest": flow_record_digest(records),
        "sampler": sampler_totals,
        "cache": cache_totals,
        "records": records,
    }
