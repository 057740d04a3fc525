"""Exact-arithmetic toolkit for even 2-elementary lattices.

The library computes, with exact rational / Z[zeta_8] arithmetic wherever the
mathematics is exact:

* lattice invariants (rank, 2-rank, parity delta, signature) and the
  discriminant forms of even 2-elementary lattices given by integer Gram
  matrices, on which a class is an integer index (`DiscGroup.coords` and
  `DiscGroup.rep` read its coordinates and representative);
* the metaplectic group Mp_2(Z) and the Weil representation attached to a
  2-elementary lattice;
* the distinguished vector-valued modular form attached to such a lattice,
  its Borcherds lift (weight, Heegner divisor, truncated infinite product);
* Siegel theta constants with characteristics, the product chi_g of the even
  ones, and order-of-vanishing fits along one-parameter degenerations;
* the graph of 2-elementary Lorentzian triples (r, l, delta) with its three
  edge kinds, plus the weight/divisor bookkeeping identities that tie the
  lattice side to the Siegel side.

Numerics are confined to the evaluation of complex values: mpmath for
multiprecision, and complex doubles for Siegel theta rows at up to 53 bits.
All series, matrices, Weil columns, lattice invariants and divisors are
exact; numpy serves only the `weil.is_unitary` oracle, and the names of
`siegel` resolve on first access.
"""

from .series import QSeries, qseries_eval
from .lattices import (
    Lattice,
    DiscGroup,
    LatticeTriple,
    standard_lattice,
    direct_sum,
    rescale,
    signature,
    sigma,
    discriminant_group,
    two_elementary_invariants,
    characteristic_element,
    genus_g,
    genus_k,
    perp_transition,
    parse_lattice_expr,
)
from .modforms import eta_power, theta_a1, f0, f1, g_i, eisenstein_e4
from .mp2 import Mp2Element, mp2_word, MP2_S, MP2_T, MP2_Z
from .weil import WeilColumn, weil_rep, weil_column
from .vvmf import (
    VVForm,
    construct_F,
    restrict,
    borcherds_weight,
    borcherds_divisor,
    delta_ledger,
    lift_oracle_numeric,
)
from .borcherds import TubePoint, product_eval, separating_walls
from .characteristics import ThetaChar, even_characteristics
from .k3graph import (
    Table1Row,
    K3Vertex,
    table1,
    build_graph,
    thm91_consistency,
    prop92_obstruction,
    rhs_invariant,
)

__version__ = "0.1.0"

_SIEGEL = {"SiegelPoint", "theta_constant", "chi_g", "chi_g8_petersson", "fay_family",
           "vanishing_order_fit"}


def __getattr__(name):
    if name in _SIEGEL:
        from . import siegel
        return getattr(siegel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
