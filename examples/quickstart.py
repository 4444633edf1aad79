#!/usr/bin/env python3
"""Quickstart: measure how PRISM protects a latency-sensitive flow.

Runs the paper's headline scenario through the Scenario API: a 1 Kpps
high-priority ping-pong flow against a 300 Kpps low-priority background
flood on the two-machine container-overlay testbed, comparing the
vanilla kernel with both PRISM modes.  Then re-runs the vanilla case
with the observability layer attached and prints the Fig. 4 per-stage
latency breakdown of each receiving socket, so the foreground flow's
table stands apart from the background's (pass an output path to also
write a Perfetto trace).

Run:
    python examples/quickstart.py [trace-out.json]
"""

import sys
from typing import Optional

from repro.scenario import Scenario
from repro.sim.units import MS


def main(trace_out: Optional[str] = None, *, duration_ns: int = 250 * MS,
         warmup_ns: int = 50 * MS) -> None:
    """Run every cell over *warmup_ns* of warm-up and a *duration_ns*
    measured window."""
    base = (Scenario(network="overlay", seed=7)
            .foreground("pingpong", rate_pps=1_000)
            .background(rate_pps=300_000)
            .timing(duration_ns=duration_ns, warmup_ns=warmup_ns))

    print("High-priority flow latency under 300 Kpps background:\n")
    for mode in ("vanilla", "prism-batch", "prism-sync"):
        result = base.mode(mode).run()
        print(f"{mode:12s} {result.fg_latency}")
    print("\nPRISM-sync should cut both average and tail latency by ~50%"
          " (paper Fig. 9).")

    # Where does the vanilla latency come from?  Trace one run and
    # decompose it per pipeline stage (paper Fig. 4), one table per
    # receiving socket.
    traced = base.run_traced()
    print("\nPer-stage breakdown of the vanilla run (Fig. 4):\n")
    print(traced.render_breakdowns())
    if trace_out is not None:
        path = traced.write_chrome(trace_out)
        print(f"\nChrome trace written to {path} — load it at "
              "https://ui.perfetto.dev")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
