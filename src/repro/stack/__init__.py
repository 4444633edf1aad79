"""The in-kernel protocol stack above the device layer.

- :mod:`~repro.stack.netns` — network namespaces (one per container, one
  root per host), each with its own socket table;
- :mod:`~repro.stack.sockets` — UDP sockets and the socket table, with
  receive buffers, app wake-up, and drop accounting;
- :mod:`~repro.stack.tcp` — a simplified message-oriented TCP endpoint
  (segmentation, in-order reassembly; lossless point-to-point wire);
- :mod:`~repro.stack.receive` — ``ip_rcv``/``udp_rcv``/``tcp_rcv``:
  validation and demux to sockets (cost is charged by the calling stage);
- :mod:`~repro.stack.fdb` — the learning forwarding database used by the
  Linux bridge;
- :mod:`~repro.stack.egress` — packet builders and the host transmit
  path (TSO-style segmentation, VXLAN encap).
"""
