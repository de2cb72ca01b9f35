"""The Jordan re-checks of a rank-1 report, shared by the tier-1 tests.

classify, kernel and excellence multiply nothing in H(C; Gamma): the
rank-1 certificate z = t (E_jj - E_kk) + slot_i(c0) is proved square-zero
by the exact zero (t, c0) of the slot form <1> + r_i N, since
z^2 = (t^2 + r_i N(c0)) (E_jj + E_kk), and the kernel's q0 is the closed
form <1> - N on the E0 basis that a c with r_i N(c) = -1 gives.  These
checks run the identities themselves, with the oracles kept in albert.
"""

from splitrank.albert import AlbertAlgebra, albert_element_from_json, jordan_mul, q0_data
from splitrank.errors import InternalCheckFailed
from splitrank.fields import scalar_literals


def check_square_zero(a: AlbertAlgebra, rank_report: dict):
    """jordan_mul(z, z) = 0 for the rank-1 certificate z."""
    z = albert_element_from_json(a, rank_report["certificate"]["element"])
    if z.is_zero() or not jordan_mul(z, z).is_zero():
        raise InternalCheckFailed("the rank-1 certificate is not square-zero")


def check_q0(a: AlbertAlgebra, kernel: dict):
    """q0_data raises on a broken E0 condition or Gram; the Q0 it proves
    must be the report's."""
    prov = kernel["provenance"]
    u = albert_element_from_json(a, prov["idempotent"])
    c = a.octonions.element(scalar_literals(prov["c"], "c"))
    q0, _, _ = q0_data(a, u, c)
    if q0.to_json() != prov["q0"]:
        raise InternalCheckFailed("q0 of the report is not the Q0 of its E0 basis")
