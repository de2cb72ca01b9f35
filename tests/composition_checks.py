"""The exact proof that the compiled octonion table multiplies to the norm,
shared by the tier-1 tests.

Production never compiles the doubling table to decide: the norm form N is
the closed Pfister form <1,-g1> (x) ... (x) <1,-gk> of the parameters.  The
table is what CompElement.__mul__ and the Albert oracles multiply with, and
this proof checks it against N for every x at once.
"""

from collections import defaultdict

from table_terms import per_term

from splitrank.composition import CompositionAlgebra, _doubling_template
from splitrank.errors import InternalCheckFailed


def check_norm_table(alg: CompositionAlgebra):
    """x -> x conj(x), read off the terms of alg's compiled table (its
    constants over the doubling template, table_terms.per_term) as a
    quadratic map (a term c x_i y_j of output k gives s_j c x_i x_j, s_0 = 1,
    s_j = -1 for j > 0), must be norm_form() in its scalar output and vanish
    in its pure outputs.  Coefficients are compared as packed integers, so
    the check holds for every x; a mismatch raises InternalCheckFailed."""
    kernel = alg.field.kernel
    norm, nden = kernel.pack(alg.norm_form().coeffs)
    rows, _, den = per_term(kernel, _doubling_template(len(alg.packed_params[0]))[2], alg.dim, alg._product)
    # sums[k, i, j, part], i <= j: x_i x_j in output k of x conj(x) minus N, over den nden
    sums = defaultdict(int, {(0, m, m, part): -den * v for m, n in enumerate(norm) for part, v in enumerate(kernel._const(n))})
    for i, row in enumerate(rows):
        for j, k, *c in row:
            scale = nden if j == 0 else -nden
            for part, v in enumerate(c):
                sums[(k, i, j, part) if i <= j else (k, j, i, part)] += scale * v
    if any(kernel._reduce(list(sums.values()))):
        raise InternalCheckFailed("norm form disagrees with x * conj(x)")
