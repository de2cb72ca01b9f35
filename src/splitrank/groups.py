"""Split-rank classification of Aut(C) (type G2) and Aut(A) (type F4),
anisotropic-kernel descriptors, and the excellence checker.

Rank verdicts are always certified: positive ranks by explicit witness
vectors or square-zero elements, rank 0 by anisotropy proofs.  A
RankReport holds these certificates as decisions (IsotropyResults and the
typed slot nilpotent) and writes their JSON once, in to_json: the kernel
and the descent read the slot, the zero and the norm witness from it, and
nothing parses a certificate back.  Kernels of
rank-1 F4 groups are reported as 7-dimensional anisotropic quadratic forms
obtained by splitting the explicit hyperbolic pair of Q0 through the
isotropic vector (1, 1_C), on the E0 basis that the slot of the rank
certificate gives for any Gamma.

Nothing here multiplies in the Albert algebra (Springer-Veldkamp, ch. 5):
z^2 = q(t, c0) (E_jj + E_kk) on the exact zero of q = <1> + r_i N, and
r_i N(c) = -1 gives Q0 = <1> - N.  `splitrank verify` and the tests
re-check z^2 = 0 and the E0/Q0 Gram in the Albert algebra.

Excellence builds nothing over the extension L, and L = k takes the same
route as every other L.  The k-report is computed once and lifted
(fields.lift_packed).  Decided over L, on lifted k coefficients: the isotropy of
N, of the three slot forms and of the kernel form -N'; a norm that only L
splits (d < 0) gets the Q(sqrt d) descent vector.  Every other certificate
over L is the k certificate read in L, its checks made over k.  The
descent witness is the k kernel's own -N'; the tier-1 tests compare it
with a rebuild over L, and the benchmark's checker with -N' of the params.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field, replace

from .albert import AlbertAlgebra, SlotNilpotent, conjugation_between, nilpotent_analysis
from .composition import CompositionAlgebra
from .errors import InternalCheckFailed, InvalidInput, NonNormalizableGamma
from .fields import Field, lift_packed
from .qforms import (
    METHOD_WITNESS,
    IsotropyResult,
    QuadraticForm,
    _with_units,
    is_isotropic,
)

G2 = "G2"
F4 = "F4"

CERT_SPLIT = "split_norm_witness"
CERT_NILPOTENT = "nilpotent_element"
CERT_THREE_FORM = "three_form_anisotropy"
CERT_NORM_ANISO = "norm_anisotropy"

KIND_TRIVIAL = "trivial"
KIND_WHOLE = "whole_group"
KIND_SPIN = "spin_form"

VERDICT_EXCELLENT = "excellent_witnessed"


@dataclass(frozen=True)
class RankReport:
    """A rank verdict held as its decisions: the isotropy of the norm N
    and, for F4 with N anisotropic, the rank-1 nilpotent or the three
    slot-form certificates (rank 0).  rank, method and certificate are
    read off them; the JSON is written only here."""

    group_type: str
    norm: IsotropyResult
    nilpotent: SlotNilpotent | None = None
    slot_forms: tuple[IsotropyResult, ...] | None = None

    @property
    def rank(self) -> int:
        if self.norm.isotropic:
            return 2 if self.group_type == G2 else 4
        return 1 if self.nilpotent is not None else 0

    @property
    def method(self) -> str:
        return self.norm.method if self.group_type == G2 or self.norm.isotropic else "three_form_criterion"

    @property
    def certificate(self) -> dict:
        if self.norm.isotropic:
            return {"kind": CERT_SPLIT, "norm_isotropy": self.norm.to_json()}
        if self.group_type == G2:
            return {"kind": CERT_NORM_ANISO, "norm_anisotropy": self.norm.to_json()}
        if self.nilpotent is not None:
            return {"kind": CERT_NILPOTENT, "element": self.nilpotent.element.to_json()}
        return {"kind": CERT_THREE_FORM, "slot_forms": [r.to_json() for r in self.slot_forms]}

    def to_json(self) -> dict:
        return {
            "group": self.group_type,
            "rank": self.rank,
            "certificate": self.certificate,
            "method": self.method,
        }


@dataclass
class KernelDescriptor:
    kind: str
    form: QuadraticForm | None = None
    provenance: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"kind": self.kind, "provenance": self.provenance}
        if self.form is not None:
            out["form"] = self.form.to_json()
        return out


@dataclass
class ExcellenceReport:
    group_type: str
    base_field: Field
    extension_field: Field
    rank_base: RankReport
    rank_ext: RankReport
    kernel_ext: KernelDescriptor
    descent_witness: dict | None
    verdict: str

    def to_json(self) -> dict:
        return {
            "group": self.group_type,
            "base_field": self.base_field.to_json(),
            "extension_field": self.extension_field.to_json(),
            "rank_base": self.rank_base.to_json(),
            "rank_ext": self.rank_ext.to_json(),
            "kernel_ext": self.kernel_ext.to_json(),
            "descent_witness": self.descent_witness,
            "verdict": self.verdict,
        }


# ---------------------------------------------------------------------------
# lifting base-field data to an extension
# ---------------------------------------------------------------------------

def _lifted(form: QuadraticForm, ext: Field) -> QuadraticForm:
    """form with its packed coefficients read in ext (see fields.lift_packed)."""
    return QuadraticForm._of(ext, lift_packed(form.field, ext, form.packed), label=form.label)


def _norm_over(norm: QuadraticForm, ext: Field, rank_base: RankReport) -> IsotropyResult:
    """The isotropy of N over ext (ext = k included), decided on its lifted
    coefficients.  When N is isotropic over k, the witness of the k report,
    if it has one, is lifted to ext; otherwise an isotropic verdict (d < 0)
    carries the Q(sqrt d) descent vector, a zero (s, x2, ...) of
    <d a1, a2, ...> built and checked over Q."""
    k_split = rank_base.norm
    res = is_isotropic(_lifted(norm, ext), want_witness=not k_split.isotropic)
    if not k_split.isotropic:
        return res
    if not res.isotropic:
        raise InternalCheckFailed("N is isotropic over the base field but not over the extension")
    if k_split.witness is None:  # an irrational parameter over Q(sqrt d): the verdict stands without one
        return res
    return replace(res, method=METHOD_WITNESS, witness=lift_packed(norm.field, ext, k_split.witness))


# ---------------------------------------------------------------------------
# G2
# ---------------------------------------------------------------------------

def g2_rank(c: CompositionAlgebra) -> RankReport:
    """Rank 2 iff the norm form is isotropic (split), else rank 0."""
    if c.dim != 8:
        raise InvalidInput("G2 classification needs an octonion algebra")
    return RankReport(G2, c.split_certificate())


def g2_excellence(c: CompositionAlgebra, ext: Field) -> ExcellenceReport:
    """Anisotropic-or-split dichotomy: the kernel over any extension is the
    whole group or trivial, both defined over the base field.

    Nothing is built over ext, and ext = k is no special case.  The rank
    over ext is the isotropy of the lifted norm form, decided over ext; a
    split C keeps its k witness, and a C that Q(sqrt d), d < 0, splits gets
    the descent vector."""
    rank_base = g2_rank(c)
    rank_ext = RankReport(G2, _norm_over(c.norm_form(), ext, rank_base))
    kind = KIND_TRIVIAL if rank_ext.rank == 2 else KIND_WHOLE
    kernel = KernelDescriptor(
        kind=kind,
        provenance={"reason": "rank dichotomy: G2 is anisotropic or split"},
    )
    return ExcellenceReport(
        group_type=G2,
        base_field=c.field,
        extension_field=ext,
        rank_base=rank_base,
        rank_ext=rank_ext,
        kernel_ext=kernel,
        descent_witness=None,
        verdict=VERDICT_EXCELLENT,
    )


# ---------------------------------------------------------------------------
# F4 rank
# ---------------------------------------------------------------------------

def f4_rank(a: AlbertAlgebra) -> RankReport:
    """Rank 4 iff C splits; else rank 1 iff some slot form is isotropic
    (explicit square-zero certificate on the first one); else rank 0 with
    three anisotropy proofs."""
    norm = a.octonions.split_certificate()
    if norm.isotropic:
        return RankReport(F4, norm)
    return RankReport(F4, norm, *nilpotent_analysis(a))


def _f4_rank_over(a: AlbertAlgebra, ext: Field, rank_base: RankReport) -> RankReport:
    """f4_rank over ext, from the k-report: N and the three slot forms are
    decided over ext on their lifted coefficients, and a rank-1 verdict
    carries the k nilpotent, whose coordinates read the same in ext."""
    norm = _norm_over(a.octonions.norm_form(), ext, rank_base)
    if norm.isotropic:
        return RankReport(F4, norm)
    certs = tuple(is_isotropic(_lifted(form, ext), want_witness=False) for form in a.slot_forms)
    if any(certs) != (rank_base.nilpotent is not None):
        raise InternalCheckFailed("the slot forms give another rank over the extension")
    return RankReport(F4, norm, rank_base.nilpotent, None if rank_base.nilpotent else certs)


# ---------------------------------------------------------------------------
# Gamma normalization: a test oracle for the rank-1 kernel, no production caller
# ---------------------------------------------------------------------------

def normalize_gamma(a: AlbertAlgebra):
    """Move Gamma to exactly (1,-1,1) by slot permutation, the free global
    rescaling of Gamma (the hermitian set depends only on the ratios), and
    per-slot square scalings.  Returns (normalized algebra, provenance);
    raises NonNormalizableGamma when the square classes do not match."""
    f = a.field
    one = f.one()
    if a.gamma == (one, -one, one):
        return a, {"moves": "already normalized"}
    for perm in itertools.permutations((0, 1, 2)):
        ga, gb, gc = (a.gamma[i] for i in perm)
        s2 = (-(gb / ga)).square_root()
        s3 = (gc / ga).square_root()
        if s2 is None or s3 is None:
            continue
        # X = P * M with m_{perm[0..2]} = (1, s2, s3) satisfies
        # X^T Gamma* X = (1/ga) Gamma, so theta -> X theta X^-1 is an
        # isomorphism H(C;Gamma) -> H(C;1,-1,1).
        m = [f.zero()] * 3
        m[perm[0]], m[perm[1]], m[perm[2]] = one, s2, s3
        x = [[m[j] if perm[i] == j else f.zero() for j in range(3)] for i in range(3)]
        target = AlbertAlgebra(a.octonions, [one, -one, one])
        rng = random.Random(20514)
        conjugation_between(a, target, x, samples=6, rng=rng)
        provenance = {
            "permutation": list(perm),
            "slot_scalings": [str(one), str(s2), str(s3)],
            "global_scale": str(ga.inv()),
            "conjugator": [[str(v) for v in row] for row in x],
        }
        return target, provenance
    raise NonNormalizableGamma(
        f"Gamma {tuple(str(g) for g in a.gamma)} does not match (1,-1,1) up to "
        "slot permutation and square scalings"
    )


# ---------------------------------------------------------------------------
# F4 kernel
# ---------------------------------------------------------------------------

def _whole_or_trivial(rank: int) -> KernelDescriptor:
    return KernelDescriptor(KIND_TRIVIAL if rank == 4 else KIND_WHOLE, provenance={"rank": rank})


def _spin_kernel(form: QuadraticForm, provenance: dict) -> KernelDescriptor:
    """The rank-1 descriptor of the kernel form -N' = Q0 - <1, -1>, split
    off Q0 on the identity basis; its anisotropy is decided over the field
    of form.  provenance holds the rank, slot, c and idempotent."""
    kernel = form.field.kernel
    aniso = is_isotropic(form, want_witness=False)
    if aniso.isotropic:
        raise InternalCheckFailed("rank-1 kernel form is isotropic")
    one, zero = kernel.packed_strings([kernel._ONE, kernel._ZERO], 1)
    return KernelDescriptor(
        KIND_SPIN,
        form=form,
        provenance={
            **provenance,
            "isotropic_vector": [one, one] + [zero] * 7,
            "q0": QuadraticForm._of(form.field, _with_units(kernel, [1, -1], form.packed), label="Q0").to_json(),
            "split_basis": [[one if r == col else zero for r in range(9)] for col in range(9)],
            "anisotropy": aniso.to_json(),
        },
    )


def _spin_kernel_form(a: AlbertAlgebra, report: RankReport) -> tuple[QuadraticForm, dict]:
    """The kernel form -N' over k and its provenance, from the slot i and
    the zero (t, c0) of a rank-1 report's nilpotent, c = c0/t (see
    f4_kernel), all on packed integers; _spin_kernel decides its anisotropy."""
    slot, ((t, *c0), _), _ = report.nilpotent
    kernel = a.field.kernel
    c = kernel.packed_over(c0, t)
    norm_c = kernel.packed_dot(a.octonions.norm_form().packed, kernel.packed_times(c, c))  # on the closed form
    if not kernel.packed_eq(kernel.packed_times(a._ratios[slot - 1], norm_c), kernel.pack([-1])):
        raise InternalCheckFailed("the rank certificate gives no slot element c with r_i N(c) = -1")
    provenance = {"rank": 1, "slot": slot, "c": kernel.packed_strings(*c), "idempotent": a.diag_unit(slot).to_json()}
    form = a.octonions.pure_norm_form().neg().packed  # Q0 = <1> - N = <1, -1> - N'
    return QuadraticForm._of(a.field, form, label="spin kernel"), provenance


def f4_kernel(a: AlbertAlgebra, rank_report: RankReport | None = None) -> KernelDescriptor:
    """Anisotropic-kernel descriptor: trivial (rank 4), the whole group
    (rank 0), or the 7-dim anisotropic complement of the explicit hyperbolic
    pair of Q0 through (1, 1_C) (rank 1).  The rank-1 certificate is
    z = t (E_jj - E_kk) + slot_i(c0); c = c0/t has r_i N(c) = -1, so on the
    E0 basis E_jj - E_kk, slot_i(c e_m) of u = E_ii, Q0 = <1> - N."""
    report = rank_report if rank_report is not None else f4_rank(a)
    if report.rank != 1:
        return _whole_or_trivial(report.rank)
    return _spin_kernel(*_spin_kernel_form(a, report))


# ---------------------------------------------------------------------------
# F4 excellence
# ---------------------------------------------------------------------------

def f4_excellence(a: AlbertAlgebra, ext: Field) -> ExcellenceReport:
    """Classify over the base and the extension; when the extension kernel is
    a spin form, its descent witness over k is the k kernel -N' itself
    (the negated pure norm of the coordinate algebra).

    Nothing is built over ext: the k-report (f4_rank, and the form -N' when
    the rank over ext is 1) is computed once and lifted.  Decided over ext
    only, on lifted k coefficients: the isotropy of N, of the three slot
    forms (when N stays anisotropic) and the anisotropy of -N'.
    A norm that only ext splits (d < 0) gets the Q(sqrt d) descent vector.
    Every other certificate over ext is the k certificate read in ext -- the
    nilpotent z, c, the idempotent, q0 and the split basis -- and what
    proves it (the zero of the slot form behind z, r_i N(c) = -1 on the
    closed Pfister form N of the params) is checked over k, so it holds
    over ext; verify and the tests re-check z^2 = 0, the E0/Q0 Gram and
    x conj(x) = N on the octonion table.  ext = k takes this same lift.
    The descent form is checked against an algebra rebuilt over ext by the
    tier-1 tests, and against -N' of the params by the benchmark's checker.
    A certificate that cannot be built over ext raises UnsupportedCase, as
    it does over k: the report has no unsupported verdict."""
    rank_base = f4_rank(a)
    rank_ext = _f4_rank_over(a, ext, rank_base)
    descent = None
    if rank_ext.rank == 1:
        form, provenance = _spin_kernel_form(a, rank_base)
        kernel_ext = _spin_kernel(_lifted(form, ext), provenance)
        descent = {
            "form": QuadraticForm._of(a.field, form.packed, label="descent witness -N'").to_json(),
            "matching": "identity change of basis; the Q0 hyperbolic split "
            "commutes with base change coefficientwise",
            "kernel_split_basis": kernel_ext.provenance["split_basis"],
        }
    else:
        kernel_ext = _whole_or_trivial(rank_ext.rank)
    return ExcellenceReport(
        group_type=F4,
        base_field=a.field,
        extension_field=ext,
        rank_base=rank_base,
        rank_ext=rank_ext,
        kernel_ext=kernel_ext,
        descent_witness=descent,
        verdict=VERDICT_EXCELLENT,
    )
