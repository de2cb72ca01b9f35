"""Seeded inputs, operations and output checks of the three workloads.

A workload is a generator of blocks of fixed composition, drawn from one
`random.Random` seeded by (seed, workload).  A run of `--seconds S` takes
the first round(S / BLOCK_S) blocks (at least one), so the list of
operations depends only on the seed and S, never on timing, and every run
sees the exact mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import checker

# Dimensions of the diagonal forms in witt_panel, and the largest height of
# the seeded forms over Q per dimension.  At larger heights, one form in a
# few hundred costs today's search seconds (at height 10 about one in 200
# of dimension 7-9, at height 100 about one in 50 from dimension 5 up), and
# the run's busy time would follow a count of those rare events; the give-up
# range is covered by the constructed forms of GIVE_UP_DIMS instead.
WITT_DIMS = range(3, 10)
Q_HEIGHT = {3: 100, 4: 100, 5: 10, 6: 10, 7: 5, 8: 5, 9: 5}
Q_PER_DIM = 6
FP_PER_BLOCK = 14
GIVE_UP_DIMS = (7, 9)
# Extension fields of `excellence` in f4_certify, one d < 0 and one d > 0 per
# block.  d = -1, -2, -3, -5 are left out: over those fields today's witness
# search ends either at once or after ~2.5 s, depending on the octonions.
EXT_PAIRS = ((-7, 2), (-11, 5))


class Failure(Exception):
    """A non-certified operation: kind is unsupported or error."""

    def __init__(self, kind: str, detail: str):
        super().__init__(detail)
        self.kind = kind
        self.detail = detail


# ---------------------------------------------------------------------------
# input generation (plain ints and strings; no splitrank)
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return max(1, round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _signed(rng: random.Random, height: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, height)


def _q_form(rng, dim: int, hi: float) -> dict:
    height = log_uniform(rng, 1, hi)
    coeffs = [str(_signed(rng, height)) for _ in range(dim)]
    return {"field": {"kind": "Q"}, "coeffs": coeffs}


def _witt_op(form: dict, kind: str) -> dict:
    return {"cmd": "witt", "class": f"{kind}/dim{len(form['coeffs'])}", "input": form}


def _fp_form(rng, dim: int) -> dict:
    p = next_prime(log_uniform(rng, 5, 10_000))
    return {"field": {"kind": "Fp", "p": p}, "coeffs": [str(rng.randrange(1, p)) for _ in range(dim)]}


def give_up_form(rng, dim: int) -> dict:
    """s * (-v, P, ..., P) with P prime log-uniform in [100, ~1000] and v in
    1..9.  It is indefinite, so isotropic by Meyer's theorem from dimension
    5 up, but v x_0^2 = P (x_1^2 + ... ) forces P | x_0, so every isotropic
    integer vector has |x_0| >= P.  Today's search stops at height 32
    (dimensions 7-8) or 16 (dimension 9) and gives up on every such form,
    each time after the same work."""
    p = next_prime(log_uniform(rng, 100, 1000))
    s = rng.choice((-1, 1))
    return {"field": {"kind": "Q"}, "coeffs": [str(-s * rng.randint(1, 9))] + [str(s * p)] * (dim - 1)}


def semiprime_form(rng) -> dict:
    """A small form over Q with one coefficient carrying a 21-22 digit
    semiprime factor, which trial-division factoring cannot split."""
    dim = rng.choice(WITT_DIMS)
    form = _q_form(rng, dim, 10)
    p = next_prime(rng.randrange(10**10, 10**11))
    q = next_prime(rng.randrange(10**10, 10**11))
    form["coeffs"][rng.randrange(dim)] = str(_signed(rng, 3) * p * q)
    return form


def witt_blocks(rng):
    """Per block: Q_PER_DIM seeded forms over Q of each dimension 3..9 with
    height log-uniform in [1, Q_HEIGHT[dim]], FP_PER_BLOCK forms over F_p (p
    prime from 5 to ~10^4, log-uniform) of dimensions 3..9, and one give-up
    form of each of GIVE_UP_DIMS.  The first block also holds one semiprime
    form, on which today's code hangs (one timeout per run)."""
    first = True
    while True:
        block = [_witt_op(_q_form(rng, dim, Q_HEIGHT[dim]), "q") for dim in WITT_DIMS for _ in range(Q_PER_DIM)]
        block += [_witt_op(_fp_form(rng, WITT_DIMS[i % len(WITT_DIMS)]), "fp") for i in range(FP_PER_BLOCK)]
        block += [_witt_op(give_up_form(rng, dim), "give_up") for dim in GIVE_UP_DIMS]
        if first:
            block.append(_witt_op(semiprime_form(rng), "semiprime"))
            first = False
        rng.shuffle(block)
        yield block


def _albert(field: dict, params, gamma) -> dict:
    return {
        "f4": {
            "octonion": {"field": field, "params": [str(p) for p in params]},
            "gamma": [str(g) for g in gamma],
        }
    }


_Q = {"kind": "Q"}


def _squarefree(n: int) -> bool:
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


def _gamma(rng, kind: str):
    """Gamma of one sign/normalizability class (see F4_BLOCK)."""
    s = _signed(rng, 5)
    if kind == "rank1_normalizable":
        # s*(a^2, -b^2, c^2) in any slot order
        a, b, c = (rng.randint(1, 2) for _ in range(3))
        gamma = [s * a * a, -s * b * b, s * c * c]
        rng.shuffle(gamma)
        return gamma
    if kind == "rank1_nonnormalizable":
        # s*(m, -1, 1) with m > 0 not a square: no slot permutation and
        # square scaling reaches (1, -1, 1)
        m = rng.randint(2, 30)
        while math.isqrt(m) ** 2 == m:
            m += 1
        return [s * m, -s, s]
    if kind == "normalized":
        return [1, -1, 1]
    if kind == "same_sign":
        return [s * rng.randint(1, 50) for _ in range(3)]
    if kind == "one_minus_h_one":
        h = rng.randint(100, 10_000)
        while not _squarefree(h):
            h += 1
        return [1, -h, 1]
    raise ValueError(kind)


# (command, coordinate octonions, Gamma class) of the operations of one block;
# the two excellence operations take the two fields of one EXT_PAIRS entry.
# The cheap classes come twice, so the median falls inside them and not on
# the edge of the expensive ones; (1, -h, 1) comes twice, so the tail
# (11th-slowest operation of a four-block run) falls among the twelve
# operations of that class and the d < 0 excellence.
F4_BLOCK = (
    ("classify", "division", "rank1_normalizable"),
    ("classify", "division", "rank1_normalizable"),
    ("classify", "division", "rank1_nonnormalizable"),
    ("classify", "division", "rank1_nonnormalizable"),
    ("classify", "division", "same_sign"),
    ("classify", "division", "same_sign"),
    ("classify", "split", "rank1_normalizable"),
    ("classify", "split", "rank1_normalizable"),
    ("classify", "fp", "rank1_normalizable"),
    ("classify", "fp", "rank1_normalizable"),
    ("classify", "division", "one_minus_h_one"),
    ("classify", "division", "one_minus_h_one"),
    ("kernel", "division", "rank1_normalizable"),
    ("kernel", "division", "rank1_nonnormalizable"),
    ("kernel", "division", "rank1_nonnormalizable"),
    ("excellence", "division", "normalized"),
    ("excellence", "division", "normalized"),
)


def f4_blocks(rng):
    """classify / kernel / excellence, each on an Albert algebra whose
    coordinate octonions are new to the run (up to 100 draws).

    Octonion parameters stay at height <= 6 and the squares in Gamma at
    <= 4: above that, today's bounded witness search takes from 10 ms to
    seconds, or misses rank-1 nilpotents, at random (the defect the
    one_minus_h_one slice shows in every block), which would make the run's
    cost a coin flip per operation."""
    seen = set()
    n_block = 0
    while True:
        ops = []
        exts = list(EXT_PAIRS[n_block % len(EXT_PAIRS)])
        for cmd, octo, gkind in F4_BLOCK:
            for _ in range(100):
                if octo == "fp":
                    field = {"kind": "Fp", "p": next_prime(log_uniform(rng, 5, 10_000))}
                    params = [rng.randrange(1, field["p"]) for _ in range(3)]
                else:
                    field = _Q
                    params = [-rng.randint(1, 6) for _ in range(3)]
                    if octo == "split":
                        params[rng.randrange(3)] *= -1
                key = (json.dumps(field), tuple(params))
                if key not in seen:
                    break
            seen.add(key)
            op = {
                "cmd": cmd,
                "class": f"{octo}/{gkind}",
                "input": _albert(field, params, _gamma(rng, gkind)),
            }
            if cmd == "excellence":
                op["ext"] = {"kind": "QSqrt", "d": exts.pop()}
            ops.append(op)
        rng.shuffle(ops)
        n_block += 1
        yield ops


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------

def cli_argv(op: dict) -> list[str]:
    argv = [op["cmd"], "--json", json.dumps(op["input"])]
    if "ext" in op:
        argv += ["--ext", json.dumps(op["ext"])]
    return argv


def call_cli(cli_main, argv: list[str]):
    """Run one CLI command in process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    return rc, buf.getvalue()


def judge_cli(op: dict, rc, text: str, fp_oracle) -> None:
    """Raise Failure unless the report carries a certificate that passes;
    raise checker.WrongOutput if it is wrong."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        raise Failure("error", f"exit {rc} with unparseable output") from None
    if rc != 0:
        err = report.get("error", {}) if isinstance(report, dict) else {}
        kind = "unsupported" if rc == 3 else "error"
        raise Failure(kind, f"exit {rc}: {err.get('kind')}: {err.get('message')}")
    cmd, inp = op["cmd"], op["input"]
    if cmd == "witt":
        ok = checker.check_witt(inp, report, fp_oracle)
    elif cmd == "classify":
        ok = checker.check_classify(inp, report)
    elif cmd == "kernel":
        ok = checker.check_kernel(inp, report)
    else:
        ok = checker.check_excellence(inp, op["ext"], report)
    if not ok:
        raise Failure("unsupported", f"verdict without a certificate (method {report.get('method', report.get('verdict'))})")


# ---------------------------------------------------------------------------
# jordan_elements
# ---------------------------------------------------------------------------

# The fixed algebra pool: (field, octonion params, Gamma).
JORDAN_POOL = (
    ({"kind": "Q"}, ["-1", "-2", "-3"], ["1", "-1", "2"]),
    ({"kind": "Fp", "p": 10007}, ["2", "3", "5"], ["1", "2", "3"]),
    ({"kind": "QSqrt", "d": -7}, ["-1", "-1", "-2"], ["1", "-1", "1"]),
)
# Pool algebras on which every operation also builds and applies phi.  Over
# Q(sqrt -7) one phi costs ~1.4 s, five times the rest of an operation.
PHI_ALGEBRAS = (0, 1)


def _dense_values(rng, field: dict, n: int):
    if field["kind"] == "Fp":
        return [rng.randrange(field["p"]) for _ in range(n)]
    if field["kind"] == "Q":
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
    return [
        (Fraction(rng.randint(-9, 9), rng.randint(1, 3)), Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
        for _ in range(n)
    ]


def jordan_blocks(rng):
    """One operation: a dense pair in every pool algebra, and phi for a
    seeded so_gamma_sample matrix in the PHI_ALGEBRAS."""
    while True:
        pairs = []
        for idx, (field, _, _) in enumerate(JORDAN_POOL):
            pair = {"x": _dense_values(rng, field, 27), "y": _dense_values(rng, field, 27)}
            if idx in PHI_ALGEBRAS:
                pair["phi_seed"] = rng.randrange(2**32)
            pairs.append(pair)
        yield [{"cmd": "jordan", "pairs": pairs}]


def build_jordan_pool(sr):
    """The pool's algebras with their multiplication tables built."""
    pool = []
    warm = random.Random(0)
    for field, params, gamma in JORDAN_POOL:
        a = sr.albert_from_json({"octonion": {"field": field, "params": params}, "gamma": gamma})
        x = _element(a, _dense_values(warm, field, 27))
        sr.jordan_mul(x, x)
        pool.append(a)
    return pool


def _element(a, values):
    return a.element(values[:3], [values[3:11], values[11:19], values[19:27]])


def jordan_prepare(pool, op: dict):
    return [(a, _element(a, p["x"]), _element(a, p["y"]), p.get("phi_seed")) for a, p in zip(pool, op["pairs"])]


def jordan_run(sr, prepared) -> list[dict]:
    """The timed part: library calls only."""
    jm = sr.jordan_mul
    outs = []
    for a, x, y, phi_seed in prepared:
        x2 = jm(x, x)
        out = {
            "lhs": jm(jm(x2, y), x),
            "rhs": jm(x2, jm(y, x)),
            "xy": jm(x, y),
            "mxy": sr.matrix_mul(x, y),
            "myx": sr.matrix_mul(y, x),
        }
        if phi_seed is not None:
            m = sr.phi(a, sr.so_gamma_sample(a, random.Random(phi_seed)))
            out["phi_xy"] = m.apply(out["xy"])
            out["phi_x_phi_y"] = jm(m.apply(x), m.apply(y))
        outs.append(out)
    return outs


def _values(elem):
    return [c.value for c in elem.coords]


def jordan_check(outs: list[dict]) -> None:
    for (field, _, _), out in zip(JORDAN_POOL, outs):
        _jordan_check_one(field, out)


def _jordan_check_one(field: dict, out: dict) -> None:
    """Jordan identity, matrix-route cross-check and phi multiplicativity,
    in plain arithmetic on the coordinate values."""
    ar = checker.Arith(field)
    if _values(out["lhs"]) != _values(out["rhs"]):
        raise checker.WrongOutput("Jordan identity (x^2 y) x = x^2 (y x) fails")
    half = ar.inv(ar.lift(2))

    def sym(i, j):
        a, b = out["mxy"][i][j], out["myx"][i][j]
        return [ar.mul(half, ar.add(u.value, v.value)) for u, v in zip(a.coords, b.coords)]

    diag = [sym(i, i) for i in range(3)]
    if any(not ar.is_zero(v) for d in diag for v in d[1:]):
        raise checker.WrongOutput("symmetrized matrix product has a non-scalar diagonal")
    coords = [d[0] for d in diag] + sym(1, 2) + sym(2, 0) + sym(0, 1)
    if coords != _values(out["xy"]):
        raise checker.WrongOutput("jordan_mul disagrees with the matrix route")
    if "phi_xy" in out and _values(out["phi_xy"]) != _values(out["phi_x_phi_y"]):
        raise checker.WrongOutput("phi(xy) != phi(x) phi(y)")


# ---------------------------------------------------------------------------
# the operations of one run
# ---------------------------------------------------------------------------

# Workload -> (block generator, BLOCK_S): a run of --seconds S makes
# round(S / BLOCK_S) blocks.  BLOCK_S is a block's busy time on the machine
# of the README's baseline, rounded so that a 25-second run holds enough
# give-ups (witt_panel) and heavy operations (f4_certify) for the tail to
# fall inside one class of operations.
WORKLOADS = {
    "witt_panel": (witt_blocks, 4.0),
    "f4_certify": (f4_blocks, 6.5),
    "jordan_elements": (jordan_blocks, 0.85),
}


def operations(workload: str, seed: int, seconds: float) -> list[dict]:
    """The first round(seconds / BLOCK_S) blocks of the workload (at least
    one), each operation numbered in order."""
    blocks, block_s = WORKLOADS[workload]
    gen = blocks(random.Random(f"{seed}:{workload}"))
    ops = [op for _ in range(max(1, round(seconds / block_s))) for op in next(gen)]
    for i, op in enumerate(ops):
        op["index"] = i
    return ops
