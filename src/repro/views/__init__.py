"""Materialized view maintenance via transaction modification.

Section 7 of the paper notes that "transaction modification can be used for
purposes other than integrity control as well, like materialized view
maintenance" (with the details in Grefen's thesis [8]).  This package
demonstrates the claim: a view definition is compiled into a *maintenance
program* — a non-triggering extended-algebra program appended to every
transaction that updates the view's base relations, exactly like an
integrity program but refreshing a stored relation instead of checking a
condition.  Its per-trigger pieces come from the delta derivation the
integrity checks use (:mod:`repro.algebra.delta`), and it is appended after
the rules' rounds, once the transaction's base relations are final.
"""

from repro.views.materialized import MaterializedView, ViewManager

__all__ = ["MaterializedView", "ViewManager"]
