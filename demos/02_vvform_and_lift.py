"""The distinguished vector-valued form and its Borcherds-lift bookkeeping.

Run:  python3 demos/02_vvform_and_lift.py        (about half a minute)
"""
import mpmath

from twoelem import (
    borcherds_divisor,
    borcherds_weight,
    construct_F,
    delta_ledger,
    lift_oracle_numeric,
    parse_lattice_expr,
)
from twoelem.vvmf import eval_vvform

print("Each signature (2, r-2) 2-elementary lattice carries a canonical")
print("vector-valued modular form; the lift weight is half its constant")
print("term, and a closed formula gives the same number:\n")
for expr in ["U+U(2)+E8(2)", "U+U+E8(2)", "U+U+D4", "U+U+E8",
             "U+U+E8(2)+A1"]:
    closed, series = borcherds_weight(parse_lattice_expr(expr))
    print(f"  {expr:16s} weight {closed} (series route: {series})")

print("\nThe principal part encodes the lift divisor.  For the rank-13")
print("lattice the characteristic class enters with a negative sign:")
L13 = parse_lattice_expr("U+U+E8(2)+A1")
ledger = delta_ledger(L13, borcherds_divisor(construct_F(L13, order=2)))
print(f"  U+U+E8(2)+A1 ledger: {ledger}")

print("\nIndependent check: rebuild the form at one point as a sum over the")
print("six theta-group cosets (uses only the Weil matrices and slash")
print("factors, never the q-expansion identities):")
L = parse_lattice_expr("U+A1+")
tau = mpmath.mpc("-0.2", "1.4")
values, data = lift_oracle_numeric(L, tau, prec=128, target=1e-26)
direct = eval_vvform(construct_F(L, order=64), tau, 128)
worst = max(abs(value - direct[data.coords(i)]) for i, value in enumerate(values))
bound = 1e-30   # both sides at 128 bits; |F| is about 6.6e3 here
print(f"  U+A1+ at tau = {tau}: worst component difference "
      f"{'below' if worst < bound else 'ABOVE'} {bound}")
