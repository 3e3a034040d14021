"""Exact computer-algebra toolkit that verifies, at desk scale, the power
series identities relating unitary-invariant valuation algebras to Tutte's
sequence: the three-way Tutte series cross-check, the template-method
integral identities, the holonomic derivative tower with its linear
dependencies, and the vanishing of the conjectured relations.

Entry points: the `verify` CLI (see `tutteval.cli`) and the per-topic
modules `tutte`, `template`, `holonomic`, `verifier`.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
