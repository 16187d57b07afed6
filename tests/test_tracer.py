"""The benchmark's per-layer tracer (``perfbench/tracer.py``) wraps named
functions of the package; a rename that hides one from it fails here."""

import importlib.util
from pathlib import Path

from ramsey_k2n import canon, enumeration

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Call sites the package no longer has, so the tracer reports zero calls:
# the canonical-deletion parent test, which acceptance by orbit only
# removed from the enumeration; the Graph built for each kept child,
# since generation builds no Graph per child, only one per graph it
# yields; the complement built as a Graph and the cycle search on it,
# which the verifier replaced by searches of the complement's rows; and
# the exact connectivity, which the verifier does not import: its
# harnesses ask only whether κ >= 2.
RETIRED = ["enumeration.canonical_form", "enumeration.add_vertex",
           "enumeration.induced_subgraph", "verifier.complement",
           "verifier.has_cycle_of_length", "verifier.connectivity"]


def test_tracer_finds_every_call_site():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.missing == RETIRED
    finally:
        tracer.uninstall()
    assert enumeration.canonical_labeling is canon.canonical_labeling
    for site in RETIRED:
        module, name = site.split(".")
        assert not hasattr(importlib.import_module(f"ramsey_k2n.{module}"), name)
