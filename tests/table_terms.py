"""The compiled bilinear tables read term by term, shared by the tier-1 tests.

A compiled table is (the template's evaluator, the per-key constants, den):
the constants are a list of packed integers over Q and F_p, and their two
integer parts (ca, cb) over Q(sqrt d).  `per_term` expands one back into
the per-term form that the kernels once looped over, (rows, n_out, den)
with rows[i] a list of (j, k, constant...) for out_k += c x_i y_j, the
constant written by `kernel._const`; `loop_bilinear` is that loop, kept as
the oracle of the generated evaluators.
"""

from splitrank.albert import _conjugation_template, _jordan_template, _matrix_template
from splitrank.composition import _doubling_template
from splitrank.fields import _QuadKernel

# (template rows, n_out) behind each compiled table of an Albert algebra
TEMPLATES = {
    "octonions._product": lambda: (_doubling_template(3)[2], 8),
    "_product": lambda: (_jordan_template()[1], 27),
    "_trace": lambda: (_jordan_template()[3], 1),
    "_matrix_product": lambda: (_matrix_template()[1], 72),
    "_automorphism_table": lambda: _conjugation_template()[1::2],
}


def per_term(kernel, rows, n_out, table):
    """table expanded over the template rows: (rows of (j, k, constant...), n_out, den)."""
    _, consts, den = table
    values = [kernel._const(v) for v in (zip(*consts) if isinstance(kernel, _QuadKernel) else consts)]
    return [[jk + values[n] for jk, n in row] for row in rows], n_out, den


def corrupted(kernel, consts, n, corrupt):
    """consts with corrupt applied to constant n (over Q(sqrt d) to both of its parts)."""
    if isinstance(kernel, _QuadKernel):
        return tuple(part[:n] + [corrupt(part[n])] + part[n + 1:] for part in consts)
    return consts[:n] + [corrupt(consts[n])] + consts[n + 1:]


def bumped(kernel, consts, n, den):
    """consts with the value of constant n (over Q(sqrt d) its rational part) raised by 1."""
    if isinstance(kernel, _QuadKernel):
        ca, cb = consts
        return ca[:n] + [ca[n] + den] + ca[n + 1:], cb
    return consts[:n] + [consts[n] + den] + consts[n + 1:]


def loop_bilinear(kernel, table, xp, yp):
    """The per-term row loops of the packed kernels, on a per_term table."""
    rows, n_out, den = table
    (x, xd), (y, yd) = xp, yp
    if not isinstance(kernel, _QuadKernel):
        out = [0] * n_out
        for xi, row in zip(x, rows):
            if xi:
                for j, k, c in row:
                    out[k] += c * xi * y[j]
        return kernel._reduce(out), den * xd * yd
    d = kernel.field.d
    out_a, out_b = [0] * n_out, [0] * n_out
    for (xa, xb), row in zip(x, rows):
        if xa or xb:
            dxb = d * xb
            for j, k, ca, cb, dcb in row:
                ya, yb = y[j]
                pa = xa * ya + dxb * yb
                pb = xa * yb + xb * ya
                out_a[k] += ca * pa + dcb * pb
                out_b[k] += ca * pb + cb * pa
    return list(zip(out_a, out_b)), den * xd * yd
