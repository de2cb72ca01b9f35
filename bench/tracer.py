"""Spans around calls into each splitrank layer, and a separate counting
pass for scalar arithmetic.

The spans are recorded from the benchmark's side: `Tracer.install` swaps
each target function for a wrapper in every `splitrank.*` module that holds
the same function object (modules import names such as `is_isotropic`
directly), and `uninstall` puts the originals back.  Spans stay in memory
until `write_spans` is called at the end of the run.
"""

from __future__ import annotations

import sys
import time
from array import array

# Layer -> public functions (Class.method for methods) recorded as spans.
TARGETS = {
    "cli": ("main",),
    "groups": ("g2_rank", "f4_rank", "f4_kernel", "f4_excellence", "normalize_gamma"),
    "albert": (
        "jordan_mul",
        "matrix_mul",
        "q0_form",
        "conjugation_between",
        "phi",
        "nilpotent_witness",
        "base_change_albert",
    ),
    "composition": (
        "CompElement.__mul__",
        "CompositionAlgebra.split_certificate",
        "base_change_comp",
    ),
    "qforms": (
        "is_isotropic",
        "witt_decompose",
        "diagonalize",
        "equivalent",
        "equivalent_with_witness",
        "isotropic_vector_search",
    ),
    "linalg": ("mat_mul", "mat_vec", "nullspace", "inverse", "det"),
}


def _splitrank_modules():
    return [m for name, m in list(sys.modules.items()) if name == "splitrank" or name.startswith("splitrank.")]


class _Patches:
    def __init__(self):
        self._undo = []

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, value) -> None:
        for mod in _splitrank_modules():
            for attr, current in list(vars(mod).items()):
                if current is original:
                    self.replace(mod, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        # one entry per span
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self.op = -1
        self.table_builds = 0
        self.table_build_s = 0.0
        self._op_built = False
        self.isotropic_wanted = 0
        self.isotropic_witnessed = 0
        self._patches = _Patches()

    # ------------------------------------------------------------- install
    def install(self) -> None:
        for layer, names in TARGETS.items():
            mod = sys.modules.get(f"splitrank.{layer}")
            for dotted in names:
                owner, attr = mod, dotted
                if "." in dotted:
                    cls, attr = dotted.split(".")
                    owner = getattr(mod, cls, None)
                original = vars(owner).get(attr) if owner is not None else None
                if not callable(original):
                    self.absent.append(f"{layer}.{dotted}")
                    continue
                inner = self._hooked(layer, attr, original)
                wrapper = self._span(len(self.names), inner)
                self.names.append(f"{layer}.{dotted}")
                self.calls.append(0)
                self.self_s.append(0.0)
                if owner is mod:
                    self._patches.replace_everywhere(original, wrapper)
                else:
                    self._patches.replace(owner, attr, wrapper)

    def uninstall(self) -> None:
        self._patches.undo()

    def _span(self, nid: int, fn):
        stack, clock = self._stack, time.perf_counter
        names, ops, parents = self.span_name, self.span_op, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            ops.append(self.op)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                ends[idx] = end
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def _hooked(self, layer: str, attr: str, fn):
        """Counters read at the layer boundary: Jordan-table builds and
        the share of isotropy results that carry a witness."""
        if layer == "albert" and attr == "jordan_mul":
            cache = getattr(sys.modules["splitrank.albert"], "_JORDAN_TABLE_CACHE", None)
            if cache is None:
                return fn

            def jordan_mul(*args, **kwargs):
                before = len(cache)
                start = time.perf_counter()
                out = fn(*args, **kwargs)
                if len(cache) > before:
                    self.table_build_s += time.perf_counter() - start
                    self._op_built = True
                return out

            return jordan_mul
        if layer == "qforms" and attr == "is_isotropic":

            def is_isotropic(*args, **kwargs):
                out = fn(*args, **kwargs)
                want = kwargs.get("want_witness", args[1] if len(args) > 1 else True)
                if want and out.isotropic:
                    self.isotropic_wanted += 1
                    self.isotropic_witnessed += out.witness is not None
                return out

            return is_isotropic
        return fn

    # --------------------------------------------------------------- per op
    def begin_op(self, index: int) -> None:
        self.op = index
        self._op_built = False

    def end_op(self) -> None:
        self.table_builds += self._op_built
        del self._stack[:]

    # -------------------------------------------------------------- results
    def metrics(self, ops: int) -> dict:
        """Per-layer metrics, per attempted operation of the traced pass."""
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[nid] / ops, "count/op")
            out[f"{name}.self_s"] = (self.self_s[nid] / ops, "s/op")
        if "albert.jordan_mul" in self.names:
            out["albert.table_builds"] = (self.table_builds / ops, "count/op")
            out["albert.table_build_s"] = (self.table_build_s / ops, "s/op")
        if "qforms.is_isotropic" in self.names:
            ratio = self.isotropic_witnessed / self.isotropic_wanted if self.isotropic_wanted else 0.0
            out["qforms.witness_ratio"] = (ratio, "ratio")
        return out

    def write_spans(self, path) -> None:
        """Tab-separated spans: op, name, parent span, start, end."""
        with open(path, "w") as fh:
            fh.write("op\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.span_op[i]}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}"
                    f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )


class FieldOpCounter:
    """Counts scalar add, mul and inv per field kind.  Wrapping FieldElement
    arithmetic slows every operation, so it runs in a pass of its own."""

    METHODS = ("__add__", "__radd__", "__mul__", "__rmul__", "inv")

    def __init__(self):
        self.counts: dict[str, int] = {}
        self._patches = _Patches()

    def install(self) -> None:
        cls = sys.modules["splitrank.fields"].FieldElement
        counts = self.counts
        for attr in self.METHODS:
            fn = getattr(cls, attr)

            def counted(x, *args, _fn=fn):
                kind = x.field.kind
                counts[kind] = counts.get(kind, 0) + 1
                return _fn(x, *args)

            self._patches.replace(cls, attr, counted)

    def uninstall(self) -> None:
        self._patches.undo()

    def metrics(self, ops: int) -> dict:
        return {
            f"fields.ops.{kind}": (self.counts.get(kind, 0) / ops, "count/op")
            for kind in ("Q", "Fp", "QSqrt")
        }
