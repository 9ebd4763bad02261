"""Registry of reference labels carried by report records.

The labels are opaque strings for report consumers cross-indexing runs
against external documentation; nothing in the engine interprets them.
"""

from __future__ import annotations

ANCHORS = {
    # braidings
    "braid-relation": "Eq. (1.1)",
    "hecke-condition": "Eq. (1.1)",
    "braiding-inverse": "Eq. (1.1)",
    "trace-form": "Eq. (3.3)",
    # hecke representation data
    "jm-commutativity": "§3",
    "skew-idempotent": "§3",
    "skew-recursion": "§3",
    "skew-rank-top": "Eq. (4.2)",
    "skew-vanish-above": "Eq. (4.2)",
    "projector-complete": "§3",
    "projector-orthogonal": "§3",
    "projector-jm-eigenvalue": "§3",
    "projector-classical-rank": "§3",
    # doubles
    "double-rule-left": "Eq. (2.5)",
    "double-rule-left_shifted": "Eq. (2.4)",
    "double-rule-adjoint": "Eq. (2.8)",
    "double-rule-adjoint_shifted": "Eq. (2.7)",
    "double-rule-derivative": "Eq. (2.9)",
    "double-rule-derivative_shifted": "Eq. (6.1)",
    "double-rule-vector": "Eq. (2.10)",
    "double-action-unit": "Eq. (2.2)",
    "double-action-derivative": "Eq. (6.2)",
    "double-representation": "Eq. (2.2)",
    "double-ideal-compatibility": "Eq. (2.1)",
    # spectrum and conjecture
    "spectrum-operator": "Proposition 3.2",
    "spectrum-closed-form": "Eq. (3.5)",
    "spectrum-action-route": "Eq. (3.4)",
    "conjecture-e2": "Conjecture 3.4",
    "conjecture-pk": "Conjecture 3.4",
    "character-mu-shift": "Eq. (3.12)",
    "character-e1-consistency": "Eq. (3.5)/(3.11)",
    "character-power-weights": "Eq. (3.10)",
    "cayley-hamilton": "Eq. (3.7)",
    # capelli
    "capelli-word-route": "Eq. (4.1)",
    "capelli-operator-route": "Eq. (4.1)",
    "capelli-determinant": "Eq. (4.3)",
    # adjoint and orbits
    "adjoint-commutation": "Proposition 5.1",
    "adjoint-annihilation": "Eq. (5.1)",
    "adjoint-proof-identity": "§5",
    "orbit-quotient": "§5",
    "orbit-descent": "§5",
    # u(2)_h calculus
    "u2h-commutativity": "§6",
    "u2h-multiplicative": "Eq. (6.6)",
    "u2h-bracket-representation": "Eq. (6.6)",
    "u2h-radius-square": "§6",
    "u2h-radius-actions": "§6",
    "u2h-classical-limit": "§6",
    "u2h-coproduct-route": "§6",
    "u2h-structural-counts": "Eq. (6.3)",
}


# Anchors of the conjecture probes.  A failing check under one of them is
# a finding about the conjecture, not a broken identity; no other anchor
# may share their labels.
CONJECTURAL = frozenset({"conjecture-e2", "conjecture-pk"})

_CONJECTURAL_LABELS = frozenset(ANCHORS[k] for k in CONJECTURAL)


def anchor(check_id: str) -> str:
    return ANCHORS[check_id]


def is_conjectural(label: str) -> bool:
    """Whether a check record's anchor label marks a conjecture probe."""
    return label in _CONJECTURAL_LABELS
