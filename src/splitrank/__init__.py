"""splitrank: exact composition/Albert algebra toolkit.

Constructs Cayley-Dickson composition algebras and Albert algebras over Q,
F_p (p >= 5) and Q(sqrt d), classifies the split rank of their automorphism
groups, computes anisotropic-kernel quadratic forms, and verifies excellence
over explicit quadratic extensions -- all in exact arithmetic.

The top level holds what the commands use: the algebra, field and form
constructors with their JSON readers, the isotropy and Witt decisions, and
the rank, kernel and excellence reports.  jordan_mul, matrix_mul, phi and
so_gamma_sample stay here because bench/workloads.py reads them.  Every
other function, the oracles among them, is imported from its module.
"""

from .albert import AlbertAlgebra, albert_from_json, jordan_mul, matrix_mul, phi, so_gamma_sample
from .composition import CompositionAlgebra, cayley_dickson, comp_from_json
from .fields import Field, field_from_json, prime_field, quad_ext, rationals
from .groups import (
    ExcellenceReport,
    KernelDescriptor,
    RankReport,
    f4_excellence,
    f4_kernel,
    f4_rank,
    g2_excellence,
    g2_rank,
)
from .qforms import IsotropyResult, QuadraticForm, WittDecomposition, form_from_json, is_isotropic, witt_decompose

__version__ = "0.1.0"
