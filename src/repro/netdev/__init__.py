"""Network device models.

Devices mirror the paper's Fig. 1 architecture:

- :class:`~repro.netdev.nic.PhysicalNic` — the physical NIC (stage 1,
  ``eth``): DMA rx ring, interrupt raising, driver NAPI poll with GRO and
  PRISM priority classification at skb allocation;
- :class:`~repro.netdev.vxlan.VxlanDevice` — the VXLAN tunnel endpoint
  whose ``gro_cells`` NAPI is the paper's stage 2 (``br``);
- :class:`~repro.netdev.bridge.Bridge` — the Linux bridge with a learning
  FDB, traversed during stage 2 processing;
- :class:`~repro.netdev.veth.VethPair` — virtual Ethernet pairs whose
  container-side processing happens in the per-CPU backlog (stage 3,
  ``veth``);
- :class:`~repro.netdev.queues.PacketQueue` — bounded FIFO with drop
  accounting, used for rx rings, NAPI queues, and socket buffers.
"""
