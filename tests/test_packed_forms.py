"""The packed quadratic forms against their FieldElement rebuilds.

Production builds N, the Gamma ratios, the three slot forms <1> + r_i N,
the kernel form -N', Q0 = <1, -1> - N' and the forms lifted to Q(sqrt d)
as packed integer vectors (qforms.QuadraticForm.packed).  Here each is
rebuilt the old way, by FieldElement products, on a seeded pool over Q
(integer and fractional parameters and Gamma), F_p and Q(sqrt d) (an
irrational parameter included): the coefficients and the JSON bytes must
agree.  Equality and hashing read the packed vector, so forms equal as
values are equal and hash equal whatever their common denominator.
"""

import json
import random
from fractions import Fraction

import pytest

from splitrank import groups
from splitrank.albert import AlbertAlgebra
from splitrank.composition import cayley_dickson
from splitrank.fields import prime_field, quad_ext, rationals
from splitrank.qforms import QuadraticForm, form_from_json, pfister

Q, F10007, R2, RM7 = rationals(), prime_field(10007), quad_ext(2), quad_ext(-7)


def _scalar(field, rng, kind):
    if field.kind == "Fp":
        return field.element(rng.randrange(1, field.p))
    n = rng.choice((-1, 1)) * rng.randint(1, 12)
    if kind == "integer":
        return field.element(n)
    value = Fraction(n, rng.randint(2, 9))
    if kind == "irrational":
        return field.element((value, Fraction(rng.randint(1, 5), rng.randint(1, 3))))
    return field.element(value)


def pool():
    """(algebra, kinds) over each field: integer and fractional parameters
    and Gamma over Q, residues over F_p, and over Q(sqrt d) rational and
    irrational parameters."""
    rng = random.Random(41)
    cases = [(Q, "integer"), (Q, "fraction"), (F10007, "residue"), (RM7, "fraction"), (R2, "irrational"), (RM7, "irrational")]
    out = []
    for field, kind in cases:
        for _ in range(4):
            params = [_scalar(field, rng, kind if i == 0 else "fraction") for i in range(3)]
            gamma = [_scalar(field, rng, "integer" if kind == "integer" else "fraction") for _ in range(3)]
            out.append(AlbertAlgebra(cayley_dickson(field, params), gamma))
    graves = cayley_dickson(Q, [-1, -1, -1])  # rank 1: its kernel gives -N' and Q0
    out += [AlbertAlgebra(graves, [1, -1, 1]), AlbertAlgebra(graves, [2, -2, 1]), AlbertAlgebra(graves, [Fraction(1, 3), -3, 1])]
    return out


def reference_norm(params, field):
    """N by doubling, in FieldElement products."""
    coeffs = [field.one()]
    for s in params:
        coeffs = coeffs + [-(s * c) for c in coeffs]
    return coeffs


def reference_slot_forms(a):
    g1, g2, g3 = a.gamma
    norm = reference_norm(a.octonions.params, a.field)
    return [[a.field.one()] + [r * c for c in norm] for r in (g2 / g3, g3 / g1, g1 / g2)]


def old_json(field, coeffs, label=None) -> str:
    """The JSON of the FieldElement route: str() of each coefficient."""
    out = {"field": field.to_json(), "coeffs": [str(c) for c in coeffs], **({"label": label} if label else {})}
    return json.dumps(out, sort_keys=True)


def assert_same(form, field, coeffs):
    assert form.field == field and form.coeffs == tuple(coeffs)
    assert json.dumps(form.to_json(), sort_keys=True) == old_json(field, coeffs, form.label)


@pytest.mark.parametrize("a", pool(), ids=repr)
def test_packed_forms_match_the_fieldelement_rebuild(a):
    f, c = a.field, a.octonions
    norm = reference_norm(c.params, f)
    assert_same(c.norm_form(), f, norm)
    assert_same(pfister(f, c.params), f, norm)
    assert_same(c.pure_norm_form().neg(), f, [-x for x in norm[1:]])
    g1, g2, g3 = a.gamma
    assert a.ratios == (g2 / g3, g3 / g1, g1 / g2)
    for form, want in zip(a.slot_forms, reference_slot_forms(a)):
        assert_same(form, f, want)
    exts = [R2, RM7] if f == Q else [f]
    for ext in exts:  # the lifts excellence decides over
        for form, want in [(c.norm_form(), norm), *zip(a.slot_forms, reference_slot_forms(a))]:
            assert_same(groups._lifted(form, ext), ext, [ext.element(x.value) for x in want] if ext != f else want)


RANK_ONE = [a for a in pool() if a.field == Q and groups.f4_rank(a).rank == 1]


def test_the_pool_has_rank_one_kernels():
    assert len(RANK_ONE) >= 3


@pytest.mark.parametrize("a", RANK_ONE, ids=repr)
def test_kernel_forms_match_the_fieldelement_rebuild(a):
    """-N' and Q0 of every rank-1 algebra of the pool over Q, as the
    kernel and the excellence descent print them."""
    one = a.field.one()
    kernel_form = [-x for x in reference_norm(a.octonions.params, a.field)[1:]]
    k = groups.f4_kernel(a)
    assert_same(k.form, a.field, kernel_form)
    assert json.dumps(k.provenance["q0"], sort_keys=True) == old_json(a.field, [one, -one] + kernel_form, "Q0")
    for ext in (R2, RM7):
        rep = groups.f4_excellence(a, ext)
        if rep.descent_witness is not None:
            lifted = [ext.element(x.value) for x in kernel_form]
            assert_same(rep.kernel_ext.form, ext, lifted)
            assert json.dumps(rep.kernel_ext.provenance["q0"], sort_keys=True) == old_json(
                ext, [ext.one(), -ext.one()] + lifted, "Q0")
            assert json.dumps(rep.descent_witness["form"], sort_keys=True) == old_json(
                a.field, kernel_form, "descent witness -N'")


def test_equal_forms_hash_equal_whatever_the_denominator():
    # a slot form is held over the product of the denominators of r_i and
    # N, the same form parsed from its literals over their least common
    # one, and the form scaled by 6/6 over six times its own
    unreduced = 0
    for a in pool():
        kernel = a.field.kernel
        for form in a.slot_forms:
            parsed = form_from_json(form.to_json())
            others = [parsed]
            if a.field != F10007:  # a residue vector is always over 1
                others.append(QuadraticForm._of(a.field, ([kernel._times(v, 6) for v in form.packed[0]], 6 * form.packed[1])))
            for other in others:
                assert other == form and form == other and hash(other) == hash(form)
            unreduced += parsed.packed[1] != form.packed[1]
    assert unreduced >= 10


@pytest.mark.parametrize("field", [Q, F10007, R2], ids=str)
def test_one_changed_coefficient_breaks_equality(field):
    a = next(a for a in pool() if a.field == field)
    for form in a.slot_forms:
        coeffs = list(form.coeffs)
        for i in range(form.dim):
            changed = coeffs[:i] + [coeffs[i] + field.one()] + coeffs[i + 1:]
            if not changed[i].is_zero():
                other = QuadraticForm(field, changed)
                assert other != form and form != other
        assert form != QuadraticForm(field, coeffs[:-1])
