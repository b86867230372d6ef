"""Packet-level discrete-event network simulator (the paper's ns-2 substitute)."""
