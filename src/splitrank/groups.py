"""Split-rank classification of Aut(C) (type G2) and Aut(A) (type F4),
anisotropic-kernel descriptors, and the excellence checker.

Rank verdicts are always certified: positive ranks by explicit witness
vectors or square-zero elements, rank 0 by anisotropy proofs.  Kernels of
rank-1 F4 groups are reported as 7-dimensional anisotropic quadratic forms
obtained by splitting the explicit hyperbolic pair of Q0 through the
isotropic vector (1, 1_C), on the E0 basis that the slot of the rank
certificate gives for any Gamma; the descent argument in the excellence
checker matches the base-changed form coefficient by coefficient.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field

from .albert import (
    AlbertAlgebra,
    _nilpotent_configs,
    albert_element_from_json,
    conjugation_between,
    nilpotent_analysis,
    q0_data,
)
from .composition import CompositionAlgebra, base_change_comp
from .errors import (
    InternalCheckFailed,
    InvalidInput,
    NonNormalizableGamma,
    UnsupportedCase,
)
from .fields import Field
from .qforms import (
    IsotropyResult,
    QuadraticForm,
    equivalent_with_witness,
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
VERDICT_UNSUPPORTED = "unsupported"


@dataclass
class RankReport:
    group_type: str
    rank: int
    certificate: dict
    method: str

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
    rank_base: RankReport | None
    rank_ext: RankReport | None
    kernel_ext: KernelDescriptor | None
    descent_witness: dict | None
    verdict: str
    unsupported_reason: str | None = None

    def to_json(self) -> dict:
        out = {
            "group": self.group_type,
            "base_field": self.base_field.to_json(),
            "extension_field": self.extension_field.to_json(),
            "rank_base": self.rank_base.to_json() if self.rank_base else None,
            "rank_ext": self.rank_ext.to_json() if self.rank_ext else None,
            "kernel_ext": self.kernel_ext.to_json() if self.kernel_ext else None,
            "descent_witness": self.descent_witness,
            "verdict": self.verdict,
        }
        if self.unsupported_reason:
            out["unsupported_reason"] = self.unsupported_reason
        return out


def _result_json(res: IsotropyResult) -> dict:
    out = {"isotropic": res.isotropic, "method": res.method, "detail": res.detail}
    if res.witness is not None:
        out["witness"] = [str(v) for v in res.witness]
    return out


# ---------------------------------------------------------------------------
# G2
# ---------------------------------------------------------------------------

def g2_rank(c: CompositionAlgebra) -> RankReport:
    """Rank 2 iff the norm form is isotropic (split), else rank 0."""
    if c.dim != 8:
        raise InvalidInput("G2 classification needs an octonion algebra")
    cert = c.split_certificate()
    if cert.isotropic:
        return RankReport(
            G2, 2,
            certificate={"kind": CERT_SPLIT, "norm_isotropy": _result_json(cert)},
            method=cert.method,
        )
    return RankReport(
        G2, 0,
        certificate={"kind": CERT_NORM_ANISO, "norm_anisotropy": _result_json(cert)},
        method=cert.method,
    )


def g2_excellence(c: CompositionAlgebra, ext: Field) -> ExcellenceReport:
    """Anisotropic-or-split dichotomy: the kernel over any extension is the
    whole group or trivial, both defined over the base field."""
    rank_base = g2_rank(c)
    c_ext = base_change_comp(c, ext)
    rank_ext = g2_rank(c_ext)
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
    (explicit square-zero certificate); else rank 0 with three anisotropy
    proofs."""
    split_cert = a.octonions.split_certificate()
    if split_cert.isotropic:
        return RankReport(
            F4, 4,
            certificate={"kind": CERT_SPLIT, "norm_isotropy": _result_json(split_cert)},
            method=split_cert.method,
        )
    witness, certs = nilpotent_analysis(a)
    if witness is not None:
        return RankReport(
            F4, 1,
            certificate={"kind": CERT_NILPOTENT, "element": witness.to_json()},
            method="three_form_criterion",
        )
    return RankReport(
        F4, 0,
        certificate={
            "kind": CERT_THREE_FORM,
            "slot_forms": [_result_json(r) for r in certs],
        },
        method="three_form_criterion",
    )


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

def f4_kernel(a: AlbertAlgebra, rank_report: RankReport | None = None) -> KernelDescriptor:
    """Anisotropic-kernel descriptor: trivial (rank 4), the whole group
    (rank 0), or the 7-dim anisotropic complement of the explicit hyperbolic
    pair of Q0 through (1, 1_C) (rank 1).  The rank-1 certificate is
    z = t (E_jj - E_kk) + slot_i(c0); c = c0/t has r_i N(c) = -1, so on the
    E0 basis E_jj - E_kk, slot_i(c e_m) of u = E_ii, Q0 = <1> - N."""
    report = rank_report if rank_report is not None else f4_rank(a)
    if report.rank == 4:
        return KernelDescriptor(KIND_TRIVIAL, provenance={"rank": 4})
    if report.rank == 0:
        return KernelDescriptor(KIND_WHOLE, provenance={"rank": 0})
    f = a.field
    z = albert_element_from_json(a, report.certificate["element"])
    config = next((cf for cf in _nilpotent_configs(a) if z.slot(cf["slot"])), None)
    t = z.xs[config["diag"].index(1)] if config else f.zero()
    c = None if t.is_zero() else z.slot(config["slot"]).scale(t.inv())
    if c is None or config["ratio"] * c.norm() != -f.one():
        raise InternalCheckFailed("the rank certificate gives no slot element c with r_i N(c) = -1")
    u = a.diag_unit(config["slot"])
    q0, _, _ = q0_data(a, u, c)
    # Q0 = <1, -1> + (-N'): the split basis is the identity, and its
    # congruence check also proves (1, 1_C) isotropic
    one, zero = f.one(), f.zero()
    kernel_form = QuadraticForm(f, q0.coeffs[2:], label="spin kernel")
    cols = [[one if r == col else zero for r in range(9)] for col in range(9)]
    if not equivalent_with_witness(q0, QuadraticForm(f, [1, -1] + list(kernel_form.coeffs)), cols):
        raise InternalCheckFailed("recorded Q0 split fails the congruence")
    aniso = is_isotropic(kernel_form, want_witness=False)
    if aniso.isotropic:
        raise InternalCheckFailed("rank-1 kernel form is isotropic")
    return KernelDescriptor(
        KIND_SPIN,
        form=kernel_form,
        provenance={
            "rank": 1,
            "slot": config["slot"],
            "c": c.to_json(),
            "idempotent": u.to_json(),
            "isotropic_vector": [str(x) for x in [one, one] + [zero] * 7],
            "q0": q0.to_json(),
            "split_basis": [[str(x) for x in col] for col in cols],
            "anisotropy": _result_json(aniso),
        },
    )


# ---------------------------------------------------------------------------
# F4 excellence
# ---------------------------------------------------------------------------

def f4_excellence(a: AlbertAlgebra, ext: Field) -> ExcellenceReport:
    """Classify over the base and the extension; when the extension kernel is
    a spin form, produce the base-field descent witness -N' (negated pure
    norm of the coordinate algebra over k) and match it coefficientwise."""
    from .albert import base_change_albert

    rank_base = f4_rank(a)
    a_ext = base_change_albert(a, ext)
    rank_ext = kernel_ext = descent = reason = None
    try:
        rank_ext = f4_rank(a_ext)
        kernel_ext = f4_kernel(a_ext, rank_report=rank_ext)
    except UnsupportedCase as exc:
        rank_ext, reason = None, str(exc)
    if kernel_ext is not None and kernel_ext.kind == KIND_SPIN:
        witness_k = QuadraticForm(
            a.field,
            a.octonions.pure_norm_form().neg().coeffs,
            label="descent witness -N'",
        )
        lifted = [ext.element(c.value) for c in witness_k.coeffs]
        if tuple(lifted) != kernel_ext.form.coeffs:
            raise InternalCheckFailed(
                "base change of the descent witness does not match the kernel"
            )
        descent = {
            "form": witness_k.to_json(),
            "matching": "identity change of basis; the Q0 hyperbolic split "
            "commutes with base change coefficientwise",
            "kernel_split_basis": kernel_ext.provenance["split_basis"],
        }
    return ExcellenceReport(
        group_type=F4,
        base_field=a.field,
        extension_field=ext,
        rank_base=rank_base,
        rank_ext=rank_ext,
        kernel_ext=kernel_ext,
        descent_witness=descent,
        verdict=VERDICT_EXCELLENT if reason is None else VERDICT_UNSUPPORTED,
        unsupported_reason=reason,
    )
