"""Exhaustive verification toolkit for group-colored partition posets.

Builds the full poset of partial colored partitions and its filtered
subposets, checks lexicographic shellability of the two edge labelings,
counts decreasing chains against closed forms, runs the chain/tree
bijection, computes integer homology of order complexes, and verifies the
orbit-reduction closure operator.
"""

from .dowling import adjoin_top, build_dowling, build_subposet
from .elements import bracket_notation, top_element
from .groups import (
    cyclic_group,
    klein_four_group,
    load_action_file,
    trivial_action,
    trivial_group,
    validate_action,
    validate_group,
)
from .labeling import label_lambda, label_mu, verify_el
from .poset import RankedPoset, characteristic_polynomial, moebius, sphere_product
from .reduction import make_spec, reduce_and_verify
from .topology import certify_wedge, homology, order_complex
from .trees import count_blooming, enumerate_blooming, psi, psi_inv

__version__ = "0.1.0"

__all__ = [
    "RankedPoset",
    "adjoin_top",
    "bracket_notation",
    "build_dowling",
    "build_subposet",
    "certify_wedge",
    "characteristic_polynomial",
    "count_blooming",
    "cyclic_group",
    "enumerate_blooming",
    "homology",
    "klein_four_group",
    "label_lambda",
    "label_mu",
    "load_action_file",
    "make_spec",
    "moebius",
    "order_complex",
    "psi",
    "psi_inv",
    "reduce_and_verify",
    "sphere_product",
    "top_element",
    "trivial_action",
    "trivial_group",
    "validate_action",
    "validate_group",
    "verify_el",
]
