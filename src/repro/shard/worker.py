"""Shard workers: one partition of cluster hosts, stepped in windows.

Two interchangeable implementations of the same asynchronous step
protocol (``post_step``/``wait_step``/``finalize``/``close``):

- :class:`ShardWorker` runs its cells in the calling process — zero
  overhead, used for ``shards=1``, for tests, and as the reference
  implementation the process-backed path must match bit-for-bit;
- :class:`PipeShardWorker` runs the same :class:`ShardWorker` inside a
  ``multiprocessing.Process``, exchanging windows over a duplex pipe.
  Cross-shard packets travel as one columnar
  :class:`~repro.overlay.wirefmt.WireBatch` frame per window, never as
  live simulation objects (and never one pickled tuple per packet).

The step payload at the protocol level is ``Optional[WireBatch]`` —
``None`` means "no cross-shard traffic this window".  In-process
workers hand batches through untouched; only the pipe boundary encodes
(:meth:`WireBatch.encode` / :meth:`WireBatch.decode`), so the pickled
window is a handful of flat ``array('q')`` buffers.  Empty windows ship
the shared ``EMPTY_FRAME`` constant and skip framing entirely.

The split-phase protocol is what buys parallelism: the executor posts
one window to *every* worker, then waits for all of them — shards
simulate their windows concurrently and synchronize only at barriers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.overlay.wirefmt import EMPTY_FRAME, WireBatch
from repro.shard.cluster import ClusterConfig
from repro.shard.hostcell import HostCell

__all__ = ["ShardWorker", "PipeShardWorker", "partition_hosts"]


def partition_hosts(n_hosts: int, shards: int,
                    topology: Optional[object] = None) -> List[List[int]]:
    """Contiguous, balanced host blocks (shard i gets block i).

    With a *topology* spec, block boundaries snap to rack (ToR uplink)
    boundaries when that keeps every block non-empty: hosts under one
    ToR talk over the cheapest paths, so co-locating a rack in one
    worker minimizes nothing *semantically* (results are partition-
    independent) but keeps the partition aligned with the fabric's
    natural locality.  Partitioning never changes results — only which
    process simulates which host.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shards = min(shards, n_hosts)
    if topology is not None:
        racks = _rack_groups(topology)
        if len(racks) >= shards:
            return _pack_groups(racks, shards, n_hosts)
    base, rem = divmod(n_hosts, shards)
    blocks: List[List[int]] = []
    start = 0
    for i in range(shards):
        size = base + (1 if i < rem else 0)
        blocks.append(list(range(start, start + size)))
        start += size
    return blocks


def _rack_groups(topology) -> List[List[int]]:
    """Host ids grouped by attach switch, in host-id order."""
    groups: List[List[int]] = []
    index: Dict[str, int] = {}
    for host in topology.hosts:
        key = host.attach or host.name
        if key not in index:
            index[key] = len(groups)
            groups.append([])
        groups[index[key]].append(host.id)
    return groups


def _pack_groups(groups: List[List[int]], shards: int,
                 n_hosts: int) -> List[List[int]]:
    """Distribute contiguous groups into *shards* balanced blocks."""
    blocks: List[List[int]] = [[] for _ in range(shards)]
    placed = 0
    index = 0
    for position, group in enumerate(groups):
        remaining_groups = len(groups) - position
        remaining_blocks = shards - index
        # Move on when this block met its proportional share — but never
        # leave more empty blocks than groups left to fill them.
        if (blocks[index] and remaining_blocks > 1
                and placed + len(group) > round((index + 1)
                                                * n_hosts / shards)
                and remaining_groups >= remaining_blocks):
            index += 1
        elif blocks[index] and remaining_groups < remaining_blocks:
            index += 1
        blocks[index].extend(group)
        placed += len(group)
    return blocks


class ShardWorker:
    """One partition of hosts, advanced window-by-window in-process."""

    def __init__(self, cluster: ClusterConfig, host_ids: Sequence[int]) -> None:
        self.host_ids = list(host_ids)
        self.cells: Dict[int, HostCell] = {
            i: HostCell(cluster, i) for i in self.host_ids}
        self._step_result: Optional[WireBatch] = None

    # -- split-phase protocol ------------------------------------------
    def post_step(self, horizon: int, inbox: Optional[WireBatch]) -> None:
        self._step_result = self._step(horizon, inbox)

    def wait_step(self) -> Optional[WireBatch]:
        out, self._step_result = self._step_result, None
        return out

    def finalize(self) -> Dict[int, dict]:
        return {i: cell.finalize() for i, cell in self.cells.items()}

    def close(self) -> None:  # symmetry with the pipe worker
        pass

    # -- mechanics ------------------------------------------------------
    def _step(self, horizon: int,
              inbox: Optional[WireBatch]) -> Optional[WireBatch]:
        """Deliver the inbox, advance every cell, drain the outboxes.

        The inbox arrives globally sorted (executor contract); rows are
        delivered per destination in that order, so each cell's event
        insertion order is independent of partitioning.  Delivery is
        columnar, straight from the batch rows.
        """
        cells = self.cells
        if inbox is not None and len(inbox):
            by_dst: Dict[int, List[int]] = {}
            for row, dst in enumerate(inbox.dst):
                rows = by_dst.get(dst)
                if rows is None:
                    by_dst[dst] = [row]
                else:
                    rows.append(row)
            for dst, rows in by_dst.items():
                cell = cells.get(dst)
                if cell is None:
                    raise RuntimeError(
                        f"shard holding {self.host_ids} got packets "
                        f"for host {dst}")
                cell.deliver_rows(inbox, rows)
        out: Optional[WireBatch] = None
        for i in self.host_ids:
            cell = cells[i]
            cell.run_to(horizon)
            drained = cell.drain_outbox()
            if len(drained):
                if out is None:
                    out = drained
                else:
                    out.extend(drained)
        return out


def _pipe_worker_main(conn, cluster: ClusterConfig,
                      host_ids: List[int]) -> None:
    """Child-process loop: build cells, serve step/finish requests."""
    try:
        worker = ShardWorker(cluster, host_ids)
        conn.send(("ready", None))
        while True:
            tag, payload = conn.recv()
            if tag == "step":
                horizon, frame = payload
                inbox = (WireBatch.decode(frame)
                         if frame[1] else None)
                worker.post_step(horizon, inbox)
                out = worker.wait_step()
                conn.send(("stepped",
                           out.encode() if out is not None else EMPTY_FRAME))
            elif tag == "finish":
                conn.send(("finished", worker.finalize()))
            elif tag == "exit":
                break
            else:
                raise RuntimeError(f"unknown worker message {tag!r}")
    except Exception as exc:  # surface the failure at the next recv
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


class PipeShardWorker:
    """A :class:`ShardWorker` in its own process, driven over a pipe.

    Windows cross the pipe as encoded v2 frames; the parent-facing API
    still speaks ``Optional[WireBatch]`` so the executor never sees the
    framing.  A child that dies (killed, OOM, un-pickleable crash)
    surfaces as a :class:`RuntimeError` naming the worker and its exit
    code at the next protocol step — never as a silent hang.
    """

    def __init__(self, cluster: ClusterConfig, host_ids: Sequence[int]) -> None:
        import multiprocessing as mp  # only process-backed runs pay for it

        self.host_ids = list(host_ids)
        ctx = mp.get_context("fork" if "fork" in
                             mp.get_all_start_methods() else "spawn")
        self._conn, child = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=_pipe_worker_main,
            args=(child, cluster, self.host_ids),
            name=f"shard-{self.host_ids[0]}",
            daemon=True)
        self._proc.start()
        child.close()
        self._expect("ready")

    def _expect(self, tag: str):
        try:
            got, payload = self._conn.recv()
        except (EOFError, ConnectionResetError, OSError):
            # The child died without sending an ("error", ...) message —
            # e.g. SIGKILL or a segfault.  Reap it so close() returns
            # immediately instead of waiting out join(timeout).
            self._proc.join(timeout=5)
            code = self._proc.exitcode
            raise RuntimeError(
                f"shard worker {self.host_ids} died without a reply "
                f"(exitcode {code})") from None
        if got == "error":
            raise RuntimeError(
                f"shard worker {self.host_ids} failed: {payload}")
        if got != tag:
            raise RuntimeError(
                f"shard worker {self.host_ids}: expected {tag!r}, "
                f"got {got!r}")
        return payload

    def post_step(self, horizon: int, inbox: Optional[WireBatch]) -> None:
        frame = inbox.encode() if inbox is not None else EMPTY_FRAME
        try:
            self._conn.send(("step", (horizon, frame)))
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # the matching wait_step()/_expect() reports the death

    def wait_step(self) -> Optional[WireBatch]:
        frame = self._expect("stepped")
        return WireBatch.decode(frame) if frame[1] else None

    def finalize(self) -> Dict[int, dict]:
        try:
            self._conn.send(("finish", None))
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # fall through to _expect, which reports the death
        return self._expect("finished")

    def close(self) -> None:
        if not self._proc.is_alive():
            # Already dead (crash path): reap without the long join.
            self._proc.join(timeout=1)
            self._conn.close()
            return
        try:
            self._conn.send(("exit", None))
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        self._proc.join(timeout=10)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5)
        self._conn.close()
