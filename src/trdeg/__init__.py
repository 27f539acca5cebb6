"""Exact bounded-degree algebraic dependence and dimension certificates."""

from .coquand_lombardi import (
    CLCertificate,
    NotFoundUpTo,
    cl_check,
    cl_search,
    cl_to_submonic,
    cl_verify,
    finite_ring_dim_lt,
)
from .dependence import (
    AlgebraConfig,
    Dependent,
    NoRelationUpTo,
    SubmonicCertificate,
    check_certificate,
    dependence_matrix,
    pid_pair_certificate,
    search_submonic_relation,
    verify_certificate,
)
from .errors import (
    InternalInconsistencyError,
    ParseError,
    ResourceCapExceeded,
    TrdegError,
    UnsupportedConfigError,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    membership_cofactors,
    normal_form,
    staircase_dimension,
)
from .harness import ExperimentReport, ExperimentSpec, known_dim, run_experiment
from .linalg import hnf, solve_in_span
from .monomials import Monomial, monomials_up_to_degree
from .orderings import (
    GrevLex,
    GrLex,
    Lex,
    MatrixOrder,
    MonomialOrdering,
    WeightedLex,
    is_submonic,
    is_weight_graded,
    ordering_from_text,
    separating_weights,
)
from .parsing import parse_elem, parse_ring_text, poly_to_text
from .polynomials import Polynomial, eval_poly, leading_term, trailing_term
from .rings import GF, PolyRing, QQ, QuotRing, Ring, ZZ, Zmod

__version__ = "0.1.0"

__all__ = [
    "AlgebraConfig",
    "CLCertificate",
    "Dependent",
    "ExperimentReport",
    "ExperimentSpec",
    "GF",
    "GrLex",
    "GrevLex",
    "GroebnerBasis",
    "InternalInconsistencyError",
    "Lex",
    "MatrixOrder",
    "Monomial",
    "MonomialOrdering",
    "NoRelationUpTo",
    "NotFoundUpTo",
    "ParseError",
    "PolyRing",
    "Polynomial",
    "QQ",
    "QuotRing",
    "ResourceCapExceeded",
    "Ring",
    "SubmonicCertificate",
    "TrdegError",
    "UnsupportedConfigError",
    "WeightedLex",
    "ZZ",
    "Zmod",
    "buchberger",
    "check_certificate",
    "cl_check",
    "cl_search",
    "cl_to_submonic",
    "cl_verify",
    "dependence_matrix",
    "eval_poly",
    "finite_ring_dim_lt",
    "hnf",
    "is_submonic",
    "is_weight_graded",
    "known_dim",
    "leading_term",
    "membership_cofactors",
    "monomials_up_to_degree",
    "normal_form",
    "ordering_from_text",
    "parse_elem",
    "parse_ring_text",
    "pid_pair_certificate",
    "poly_to_text",
    "run_experiment",
    "search_submonic_relation",
    "separating_weights",
    "solve_in_span",
    "staircase_dimension",
    "trailing_term",
    "verify_certificate",
]
