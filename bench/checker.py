"""Independent checks of splitrank's certificates in plain Fraction/int
arithmetic.

Nothing here imports splitrank except `witt_index_enumeration`, the
exhaustive F_p oracle from `splitrank.verify`, which is passed in by the
caller.  Scalars are held as Fraction (Q), int mod p (F_p) or a pair of
Fractions (a, b) meaning a + b*sqrt(d) (Q(sqrt d)).

Each `check_*` function returns True when the report carries a certificate
that passes, False when the report is a verdict without a certificate, and
raises WrongOutput when a certificate or verdict is wrong.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


class WrongOutput(Exception):
    """The program returned a verdict or certificate that is false."""


class Arith:
    """Exact scalars of one field, from its JSON descriptor."""

    def __init__(self, field: dict):
        self.kind = field["kind"]
        self.p = field.get("p")
        self.d = field.get("d")

    def parse(self, s):
        s = str(s).replace(" ", "")
        if self.kind == "Q":
            return Fraction(s)
        if self.kind == "Fp":
            return int(s) % self.p
        if not s.endswith("r"):
            return (Fraction(s), Fraction(0))
        body = s[:-1].rstrip("*")
        cut = max(body.rfind("+"), body.rfind("-"))
        head, tail = (body[:cut], body[cut:]) if cut > 0 else ("", body)
        b = {"": 1, "+": 1, "-": -1}.get(tail)
        return (Fraction(head or 0), Fraction(tail) if b is None else Fraction(b))

    def lift(self, x: Fraction):
        """A rational number as a scalar of this field."""
        if self.kind == "Q":
            return Fraction(x)
        if self.kind == "Fp":
            x = Fraction(x)
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return (Fraction(x), Fraction(0))

    def zero(self):
        return self.lift(0)

    def add(self, x, y):
        if self.kind == "Q":
            return x + y
        if self.kind == "Fp":
            return (x + y) % self.p
        return (x[0] + y[0], x[1] + y[1])

    def neg(self, x):
        if self.kind == "Q":
            return -x
        if self.kind == "Fp":
            return -x % self.p
        return (-x[0], -x[1])

    def mul(self, x, y):
        if self.kind == "Q":
            return x * y
        if self.kind == "Fp":
            return x * y % self.p
        return (x[0] * y[0] + self.d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def inv(self, x):
        if self.is_zero(x):
            raise WrongOutput("division by zero in a certificate")
        if self.kind == "Q":
            return 1 / x
        if self.kind == "Fp":
            return pow(x, -1, self.p)
        n = x[0] * x[0] - self.d * x[1] * x[1]
        return (x[0] / n, -x[1] / n)

    def is_zero(self, x) -> bool:
        return x == self.zero()

    def signs(self, x) -> list[int]:
        """Signs of x at the real places (empty when there are none)."""
        if self.kind == "Q":
            return [1 if x > 0 else -1]
        if self.kind == "Fp" or self.d < 0:
            return []
        return [_sign_sqrt(x[0], x[1], self.d), _sign_sqrt(x[0], -x[1], self.d)]


def _sign_sqrt(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of a + b*sqrt(d), d > 0 not a square, (a, b) != 0."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    return sa if a * a > d * b * b else sb


def _dot_form(ar: Arith, coeffs, u, v):
    acc = ar.zero()
    for c, x, y in zip(coeffs, u, v):
        acc = ar.add(acc, ar.mul(c, ar.mul(x, y)))
    return acc


def check_congruence(ar: Arith, coeffs, columns, expected):
    """T^T diag(coeffs) T == diag(expected), with T given by its columns."""
    n = len(coeffs)
    if len(columns) != n or len(expected) != n or any(len(c) != n for c in columns):
        raise WrongOutput("change of basis has the wrong shape")
    for i in range(n):
        for j in range(i, n):
            got = _dot_form(ar, coeffs, columns[i], columns[j])
            want = expected[i] if i == j else ar.zero()
            if got != want:
                raise WrongOutput(f"congruence fails at entry ({i},{j})")


def pfister_coeffs(ar: Arith, params):
    """<1,-g1> (x) ... (x) <1,-gk> in the coordinate order of the
    Cayley-Dickson basis."""
    coeffs = [ar.lift(1)]
    for g in params:
        coeffs = coeffs + [ar.neg(ar.mul(g, c)) for c in coeffs]
    return coeffs


# ---------------------------------------------------------------------------
# Witt decomposition
# ---------------------------------------------------------------------------

def check_witt(inp: dict, report: dict, fp_oracle=None, oracle_limit: int = 4096) -> bool:
    ar = Arith(inp["field"])
    coeffs = [ar.parse(c) for c in inp["coeffs"]]
    n = len(coeffs)
    index = report["index"]
    aniso = [ar.parse(c) for c in report["anisotropic"]]
    if not isinstance(index, int) or 2 * index + len(aniso) != n:
        raise WrongOutput("Witt index and anisotropic part do not add up")
    if any(ar.is_zero(c) for c in aniso):
        raise WrongOutput("anisotropic part has a zero coefficient")
    if ar.kind == "Fp":
        if len(aniso) > 2:
            raise WrongOutput("anisotropic part over F_p has dimension > 2")
        if len(aniso) == 2 and _is_residue(-aniso[0] * aniso[1], ar.p):
            raise WrongOutput("2-dim anisotropic part over F_p is isotropic")
        if fp_oracle is not None and ar.p ** n <= oracle_limit:
            if fp_oracle(coeffs, ar.p) != index:
                raise WrongOutput("Witt index disagrees with exhaustive enumeration")
    elif ar.kind == "Q":
        signs = {ar.signs(c)[0] for c in aniso}
        if len(signs) == 2 and len(aniso) >= 5:
            raise WrongOutput("indefinite anisotropic part of dimension >= 5 over Q")
        if len(aniso) == 2 and len(signs) == 2 and _is_rat_square(-aniso[0] * aniso[1]):
            raise WrongOutput("2-dim anisotropic part over Q is isotropic")
    if "witness" not in report:
        return False
    columns = [[ar.parse(x) for x in col] for col in report["witness"]]
    expected = [ar.lift(1), ar.lift(-1)] * index + aniso
    check_congruence(ar, coeffs, columns, expected)
    return True


def _is_residue(a: int, p: int) -> bool:
    a %= p
    return a == 0 or pow(a, (p - 1) // 2, p) == 1


def _is_rat_square(x: Fraction) -> bool:
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


# ---------------------------------------------------------------------------
# F4: rank, nilpotent certificates, kernel, excellence
# ---------------------------------------------------------------------------

def oracle_rank(ar: Arith, params, gamma) -> int:
    """F4 rank from real signs alone.

    The slot forms <1> + (g_j/g_k) N are 9-dim and N is an 8-dim Pfister
    form, so by Meyer's theorem and the real-place rule: over F_p and over
    Q(sqrt d) with d < 0 the rank is 4; otherwise the rank is 4 iff N is
    indefinite at some real place, else 0 iff all Gamma entries have the
    same sign at every real place, else 1.
    """
    if ar.kind == "Fp" or (ar.kind == "QSqrt" and ar.d < 0):
        return 4
    n = pfister_coeffs(ar, params)
    places = len(ar.signs(ar.lift(1)))
    for place in range(places):
        if len({ar.signs(c)[place] for c in n}) == 2:
            return 4
    for place in range(places):
        if len({ar.signs(g)[place] for g in gamma}) == 2:
            return 1
    return 0


_SLOT_SHAPES = {
    # slot: (diag pattern of t, gamma ratio indices (j, k) for g_j / g_k)
    1: ((0, 1, -1), (1, 2)),
    2: ((-1, 0, 1), (2, 0)),
    3: ((1, -1, 0), (0, 1)),
}


def check_nilpotent(ar: Arith, params, gamma, element: dict):
    """A single-slot element diag(.., t, .., -t, ..) + c has Jordan square
    (t^2 + (g_j/g_k) N(c)) (E_jj + E_kk); the certificate must make it 0."""
    xs = [ar.parse(v) for v in element["x"]]
    cs = [[ar.parse(v) for v in slot] for slot in element["c"]]
    if len(xs) != 3 or len(cs) != 3 or any(len(c) != 8 for c in cs):
        raise WrongOutput("nilpotent certificate has the wrong shape")
    slots = [i + 1 for i, c in enumerate(cs) if any(not ar.is_zero(v) for v in c)]
    if len(slots) != 1:
        raise WrongOutput("nilpotent certificate is not a single-slot element")
    slot = slots[0]
    pattern, (j, k) = _SLOT_SHAPES[slot]
    t = xs[pattern.index(1)]
    for x, sgn in zip(xs, pattern):
        if x != (t if sgn > 0 else ar.neg(t) if sgn < 0 else ar.zero()):
            raise WrongOutput("nilpotent certificate has the wrong diagonal")
    n = pfister_coeffs(ar, params)
    c = cs[slot - 1]
    norm = _dot_form(ar, n, c, c)
    ratio = ar.mul(gamma[j], ar.inv(gamma[k]))
    if not ar.is_zero(ar.add(ar.mul(t, t), ar.mul(ratio, norm))):
        raise WrongOutput("nilpotent certificate does not square to zero")


def _check_norm_witness(ar: Arith, params, iso: dict) -> bool:
    """False when the isotropy verdict comes without a witness vector."""
    if not iso.get("isotropic"):
        raise WrongOutput("split certificate claims an anisotropic norm")
    if "witness" not in iso:
        return False
    w = [ar.parse(v) for v in iso["witness"]]
    n = pfister_coeffs(ar, params)
    if all(ar.is_zero(v) for v in w) or not ar.is_zero(_dot_form(ar, n, w, w)):
        raise WrongOutput("norm isotropy witness is not a nonzero zero of N")
    return True


def _algebra(desc: dict):
    oct_ = desc["octonion"]
    ar = Arith(oct_["field"])
    params = [ar.parse(p) for p in oct_["params"]]
    gamma = [ar.parse(g) for g in desc["gamma"]]
    return ar, params, gamma


def _check_rank(ar: Arith, params, gamma, report: dict) -> bool:
    """False when a rank-4 verdict has no norm isotropy witness."""
    want = oracle_rank(ar, params, gamma)
    if report.get("group") != "F4" or report.get("rank") != want:
        raise WrongOutput(f"F4 rank {report.get('rank')} but the sign oracle gives {want}")
    cert = report["certificate"]
    if want == 4:
        if cert.get("kind") != "split_norm_witness":
            raise WrongOutput("rank 4 without a split certificate")
        return _check_norm_witness(ar, params, cert["norm_isotropy"])
    if want == 1:
        if cert.get("kind") != "nilpotent_element":
            raise WrongOutput("rank 1 without a nilpotent certificate")
        check_nilpotent(ar, params, gamma, cert["element"])
        return True
    slot_forms = cert.get("slot_forms", [])
    if cert.get("kind") != "three_form_anisotropy" or len(slot_forms) != 3 or any(
        s.get("isotropic") for s in slot_forms
    ):
        raise WrongOutput("rank 0 without three anisotropy proofs")
    return True


def check_classify(desc: dict, report: dict) -> bool:
    ar, params, gamma = _algebra(desc["f4"])
    return _check_rank(ar, params, gamma, report)


def _check_kernel(ar: Arith, params, gamma, kernel: dict) -> None:
    rank = oracle_rank(ar, params, gamma)
    kind = {4: "trivial", 0: "whole_group", 1: "spin_form"}[rank]
    if kernel.get("kind") != kind:
        raise WrongOutput(f"kernel kind {kernel.get('kind')} but rank {rank} needs {kind}")
    if rank != 1:
        return
    prov = kernel["provenance"]
    q0 = [ar.parse(c) for c in prov["q0"]["coeffs"]]
    # Q restricted to E0 of H(C; 1,-1,1) is <1> + (g1/g2) N = <1> - N.
    if q0 != [ar.lift(1)] + [ar.neg(c) for c in pfister_coeffs(ar, params)]:
        raise WrongOutput("Q0 disagrees with its closed form <1> - N")
    form = [ar.parse(c) for c in kernel["form"]["coeffs"]]
    if len(form) != 7:
        raise WrongOutput("rank-1 kernel form is not 7-dimensional")
    columns = [[ar.parse(x) for x in col] for col in prov["split_basis"]]
    check_congruence(ar, q0, columns, [ar.lift(1), ar.lift(-1)] + form)
    for place in range(len(ar.signs(ar.lift(1)))):
        if len({ar.signs(c)[place] for c in form}) != 1:
            raise WrongOutput("rank-1 kernel form is indefinite at a real place")


def check_kernel(desc: dict, report: dict) -> bool:
    ar, params, gamma = _algebra(desc["f4"])
    _check_kernel(ar, params, gamma, report)
    return True


def check_excellence(desc: dict, ext: dict, report: dict) -> bool:
    ar, params, gamma = _algebra(desc["f4"])
    base_ok = _check_rank(ar, params, gamma, report["rank_base"])
    if report.get("verdict") != "excellent_witnessed":
        return False
    ear = Arith(ext)
    eparams = [ear.lift(p) for p in params]
    egamma = [ear.lift(g) for g in gamma]
    ext_ok = _check_rank(ear, eparams, egamma, report["rank_ext"])
    kernel = report["kernel_ext"]
    _check_kernel(ear, eparams, egamma, kernel)
    if kernel["kind"] != "spin_form":
        return base_ok and ext_ok
    descent = report.get("descent_witness")
    if descent is None:
        raise WrongOutput("spin kernel without a descent witness")
    witness = [ar.parse(c) for c in descent["form"]["coeffs"]]
    if witness != [ar.neg(c) for c in pfister_coeffs(ar, params)[1:]]:
        raise WrongOutput("descent witness is not -N'")
    if [ear.lift(c) for c in witness] != [ear.parse(c) for c in kernel["form"]["coeffs"]]:
        raise WrongOutput("descent witness does not match the extension kernel")
    return base_ok and ext_ok
