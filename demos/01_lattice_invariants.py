"""Tour of the lattice layer: invariant triples, discriminant forms, genus data.

Run:  python3 demos/01_lattice_invariants.py
"""
from fractions import Fraction

from twoelem import (
    characteristic_element,
    discriminant_group,
    genus_g,
    genus_k,
    parse_lattice_expr,
    perp_transition,
    signature,
    two_elementary_invariants,
)

print("A 2-elementary lattice is pinned down (when indefinite) by the triple")
print("(r, l, delta): rank, 2-rank of the discriminant group, and parity.\n")

for expr in ["U", "U(2)", "A1", "A1+", "U+U+E8(2)", "U+U(2)+D4+D4",
             "U+U+E8(2)+A1"]:
    L = parse_lattice_expr(expr)
    t = two_elementary_invariants(L)
    sig = signature(L)
    print(f"  {expr:18s} -> (r,l,delta) = ({t.r},{t.l},{t.delta}), "
          f"signature {sig}")

print("\nThe characteristic element is the class pairing like the quadratic")
print("form; it is zero exactly when delta = 0:")
for expr in ["U(2)", "A1", "U+U+E8(2)+A1"]:
    char = characteristic_element(parse_lattice_expr(expr))
    print(f"  {expr:18s} -> {char}")

print("\nDiscriminant group of U(2) (four classes with their q-values):")
A = discriminant_group(parse_lattice_expr("U(2)"))
for i, two_q in enumerate(A.two_q):
    print(f"  class {A.coords(i)}: q = {Fraction(two_q, 2)}")

print("\nFor a Lorentzian triple, g = (22-r-l)/2 counts fixed-curve genus and")
print("k = (r-l)/2 rational curves; the three transition kinds add a root:")
t = two_elementary_invariants(parse_lattice_expr("U+A1"))
print(f"  start      {t}  g={genus_g(t)}  k={genus_k(t)}")
for kind in ("odd", "even_wu", "even_nonwu"):
    try:
        nt = perp_transition(t, kind)
        print(f"  {kind:10s} -> {nt}")
    except ValueError as exc:
        print(f"  {kind:10s} -> not admissible ({exc})")
