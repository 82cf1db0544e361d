#!/usr/bin/env python3
"""Polynomial fast paths, and the precondition that keeps them honest.

Checking the robust classes is exponential in general (the deciders
enumerate index sets or sign vertices), but special midpoints admit
polynomial shortcuts. For a box centered at the identity the whole story
is one Perron root: every threshold check reduces to rho(radius) vs 1.

The irreducibility hypothesis on the radius is not decoration. The last
example shows a reducible radius where the spectral shortcut would answer
"robustly column sufficient" while an explicit realization in the box is
not column sufficient; the checker detects the reducible radius, reports
the fast path inapplicable, and falls back to the exact systems.
"""

import numpy as np

import lcpbox as lb

rad = np.array([[0.2, 0.3], [0.1, 0.2]])
box = lb.from_midpoint_radius(np.eye(2), rad)
rho = lb.spectral_radius_nonneg(rad)
print(f"identity midpoint, rho(radius) = {rho:.6f}")
for token in ("copositive", "semimonotone", "principally-nondegenerate",
              "r0", "r", "column-sufficient"):
    verdict = lb.check_property(box, token)
    print(f"  strong {token:26s}: {str(verdict.holds):5s} via {verdict.method}")
print()

# Push the radius across the threshold: everything strict flips at rho = 1.
big = lb.from_midpoint_radius(np.eye(2), 2.6 * rad)
rho_big = lb.spectral_radius_nonneg(big.radius)
print(f"radius scaled up: rho = {rho_big:.6f}")
for token in ("semimonotone", "r0"):
    verdict = lb.check_property(big, token)
    print(f"  strong {token:26s}: {str(verdict.holds):5s} via {verdict.method}")
print()

# The cautionary reducible-radius box.
tricky = lb.from_midpoint_radius(np.eye(2), [[1.0, 1.0], [0.0, 1.0]])
print("reducible radius [[1,1],[0,1]] around the identity:")
print(f"  rho(radius) = {lb.spectral_radius_nonneg(tricky.radius):.1f}"
      " (the naive threshold 'rho <= 1' would say: robust)")
verdict = lb.check_property(tricky, "column-sufficient")
print(f"  strong column-sufficient: {verdict.holds} via {verdict.method}")
for note in verdict.notes:
    print(f"  note: {note}")
bad = verdict.certificate["realization"]
print("  offending realization (the lower bound):")
print(np.asarray(bad))
print("  column sufficient?", lb.is_column_sufficient(bad))
print()
print("Semimonotonicity, by contrast, needs no irreducibility and the")
print("threshold verdict stands:")
verdict = lb.check_property(tricky, "semimonotone")
print(f"  strong semimonotone: {verdict.holds} via {verdict.method}")
