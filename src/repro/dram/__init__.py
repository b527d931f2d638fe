"""Cycle-level DDR3 memory-system model (the USIMM-like substrate).

The paper evaluates on USIMM, a trace-driven cycle-accurate simulator.  This
package provides the equivalent substrate: banks and ranks with full DDR3
timing state machines, channels with shared command/data buses, an FR-FCFS
scheduler with write-queue draining, configurable address interleaving, and
rank power-state tracking for the energy model.

The model is event-driven rather than cycle-ticked: every component exposes
"earliest time this command may issue" arithmetic, so scheduling a request
costs O(1) instead of O(cycles).  The ordering decisions (row hits first,
then oldest; reads before writes until the write queue hits its high
watermark) match USIMM's FR-FCFS configuration from the paper.
"""
