"""Witness constructions and exhaustive verification for Ramsey numbers of
K_{2,n} versus cycles.

Modules:

- ``graphs``        — immutable bitmask graphs, constructors, graph6 I/O
- ``canon``         — canonical labeling and forms, automorphism generators
- ``invariants``    — cycles as vertex tuples, connectivity, K_{2,n} witnesses
- ``enumeration``   — isomorph-free exhaustive generation with filters
- ``constructions`` — lower-bound witness builders with self-verification
- ``verifier``      — exhaustive theorem harnesses and exact Ramsey values
- ``cli``           — the ``ramsey-k2n`` command
"""

from .graphs import Graph, decode_graph6, encode_graph6

__all__ = ["Graph", "decode_graph6", "encode_graph6"]
__version__ = "0.1.0"
