"""Time units for the simulator.

The simulator clock is an integer number of nanoseconds.  Integer time keeps
event ordering exact and reproducible (no floating-point drift), which
matters for the deterministic poll-order traces the PRISM experiments rely
on (paper Fig. 6).

The constants are multipliers: ``5 * MS`` is five milliseconds in ns.
"""

from __future__ import annotations

#: One nanosecond (the base unit).
NS = 1
#: Nanoseconds per microsecond.
US = 1_000
#: Nanoseconds per millisecond.
MS = 1_000_000
#: Nanoseconds per second.
SEC = 1_000_000_000
