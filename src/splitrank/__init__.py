"""splitrank: exact composition/Albert algebra toolkit.

Constructs Cayley-Dickson composition algebras and Albert algebras over Q,
F_p (p >= 5) and Q(sqrt d), classifies the split rank of their automorphism
groups, computes anisotropic-kernel quadratic forms, and verifies excellence
over explicit quadratic extensions -- all in exact arithmetic.
"""

from .albert import (
    AlbertAlgebra,
    AlbertElement,
    Automorphism,
    albert_from_json,
    albert_element_from_json,
    base_change_albert,
    bilinear,
    conjugation_between,
    e0_subspace,
    is_idempotent,
    is_nilpotent,
    is_primitive_idempotent,
    jordan_mul,
    matrix_mul,
    nilpotent_witness,
    norm_Q,
    orthogonal_nilpotent_pair,
    phi,
    q0_form,
    quadratic_trace_form,
    so_gamma_sample,
    torus_element,
    trace,
)
from .composition import (
    CompElement,
    CompositionAlgebra,
    base_change_comp,
    cayley_dickson,
    comp_from_json,
    comp_isomorphic,
)
from .fields import (
    Field,
    FieldElement,
    field_from_json,
    legendre,
    prime_field,
    quad_ext,
    rationals,
)
from .groups import (
    ExcellenceReport,
    KernelDescriptor,
    RankReport,
    f4_excellence,
    f4_kernel,
    f4_rank,
    g2_excellence,
    g2_rank,
    normalize_gamma,
)
from .qforms import (
    IsotropyResult,
    QuadraticForm,
    WittDecomposition,
    diagonalize,
    equivalent,
    equivalent_with_witness,
    form_from_json,
    hasse_invariant,
    hilbert_symbol,
    is_isotropic,
    isotropic_vector_search,
    pfister,
    witt_decompose,
    witt_index_by_invariants,
)

__version__ = "0.1.0"
