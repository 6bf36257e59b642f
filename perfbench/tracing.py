"""Timing wrappers over the package's public functions, for the traced run.

`Tracer.install()` replaces each function listed in `SPANS` with a wrapper
that records a span (name, start, end, parent span, input id).  The wrapper
is set under the function's name in every `packetgroup` module that
imported it, so `y_sharp` is traced whether `residue`, `cohomology` or
`cli` calls it; methods are replaced on their class.  `Mat.__matmul__` is
only counted: a span per product would cost more than the product.

A span's self time is its duration minus the durations of its direct
children.  Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "packetgroup"

# (module, attribute, span name).  Spans sharing a name are one layer
# operation: the three HNF entry points are all "linalg.hnf".
SPANS = (
    ("datum", "validate", "datum.validate"),
    ("sharp", "fixed_lattice", "sharp.fixed_lattice"),
    ("sharp", "y_sharp", "sharp.y_sharp"),
    ("sharp", "y_gamma_sharp", "sharp.y_gamma_sharp"),
    ("sharp", "radical_of_induced_form", "sharp.radical_of_induced_form"),
    ("residue", "packet_group", "residue.packet_group"),
    ("residue", "packet_group_level", "residue.packet_group_level"),
    ("residue", "iota_image", "residue.iota_image"),
    ("residue", "invariant_points", "residue.invariant_points"),
    ("linalg", "Sublattice.from_columns", "linalg.hnf"),
    ("linalg", "Sublattice.from_matrix", "linalg.hnf"),
    ("linalg", "column_hnf", "linalg.hnf"),
    ("linalg", "smith", "linalg.smith"),
    ("linalg", "solve_columns", "linalg.solve_columns"),
    ("linalg", "restrict_endomorphism", "linalg.restrict_endomorphism"),
    ("linalg", "quotient_invariants", "linalg.quotient_invariants"),
    ("cohomology", "counting_checks", "cohomology.counting_checks"),
    ("cohomology", "tame_h", "cohomology.tame_h"),
    ("cohomology", "residue_sharp_sequence", "cohomology.residue_sharp_sequence"),
    ("cohomology", "exactness_failures", "cohomology.exactness_failures"),
    ("cohomology", "image_of_connecting", "cohomology.image_of_connecting"),
    ("cohomology", "h0_h1", "cohomology.h0_h1"),
    ("symbols", "split_center_image", "symbols.split_center_image"),
    ("oracle", "brute_invariant_points", "oracle.brute_invariant_points"),
    ("oracle", "brute_iota_image", "oracle.brute_iota_image"),
    ("oracle", "brute_quotient", "oracle.brute_quotient"),
    ("oracle", "brute_radical", "oracle.brute_radical"),
    ("oracle", "subgroup_from_generators", "oracle.subgroup_from_generators"),
    ("cli", "main", "cli.main"),
)

LAYERS = ("datum", "sharp", "residue", "linalg", "cohomology", "symbols",
          "oracle", "cli")

ROOT_SPAN = "bench.input"


def _bits(values) -> int:
    return max((abs(x).bit_length() for x in values), default=0)


def _level_modulus(args) -> int:
    d, _, m = args[:3]
    return d.q ** m - 1


class Tracer:
    """Span recorder plus per-pass counters and maxima."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.keep_spans = True
        self._installed: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._input = None
        self.reset_pass()

    def reset_pass(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.outer_calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        if parent is None or parent[0] != name:
            self.outer_calls[name] += 1
        self._next_id += 1
        frame = [name, self._next_id, parent[1] if parent else 0, 0.0, 0.0]
        self._stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, span_id, parent_id, start, child = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][4] += duration
        if self.keep_spans:
            self.spans.append((span_id, parent_id, name, start, end, self._input))

    def run_input(self, input_id: int, fn, *args):
        """Run one benchmark input under a root span."""
        self._input = input_id
        frame = self._enter(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._exit(frame)
            self._input = None

    def _wrap(self, name: str, fn, before=None, after=None):
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            return
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, attr, name in SPANS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            before, after = _HOOKS.get(attr, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(name, raw.__func__, before, after))
                setattr(cls, meth, wrapped)
                self._installed.append((cls, meth, raw))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, original))
        linalg = importlib.import_module(f"{PACKAGE}.linalg")
        matmul = linalg.Mat.__dict__["__matmul__"]

        def counted_matmul(a, b):
            self.counts["linalg.matmul.calls"] += 1
            return matmul(a, b)

        linalg.Mat.__matmul__ = counted_matmul
        self._installed.append((linalg.Mat, "__matmul__", matmul))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()


# -- per-call hooks for counts and bit sizes -------------------------------


def _hnf_columns_before(tracer: Tracer, args):
    cls, ambient_rank, columns = args
    cols = [list(c) for c in columns]
    key = "linalg.hnf.in_bits.max"
    tracer.maxima[key] = max(tracer.maxima[key], _bits(x for c in cols for x in c))
    return cls, ambient_rank, cols


def _hnf_matrix_before(tracer: Tracer, args):
    m = args[-1]
    key = "linalg.hnf.in_bits.max"
    tracer.maxima[key] = max(tracer.maxima[key], _bits(m.entries))
    return args


def _smith_after(tracer: Tracer, args, dec) -> None:
    key = "linalg.smith.transform_bits.max"
    bits = max(_bits(dec.U.entries), _bits(dec.V.entries))
    tracer.maxima[key] = max(tracer.maxima[key], bits)


def _validate_after(tracer: Tracer, args, d) -> None:
    key = "datum.group_order.max"
    tracer.maxima[key] = max(tracer.maxima[key], d.group_order)


def _invariant_points_before(tracer: Tracer, args):
    key = "residue.modulus_bits.max"
    tracer.maxima[key] = max(tracer.maxima[key], _level_modulus(args).bit_length())
    return args


def _brute_points_after(tracer: Tracer, args, result) -> None:
    sub = args[1]
    tracer.counts["oracle.enumerated_elements"] += _level_modulus(args) ** sub.rank


# keyed by the attribute names in SPANS
_HOOKS = {
    "Sublattice.from_columns": (_hnf_columns_before, None),
    "Sublattice.from_matrix": (_hnf_matrix_before, None),
    "column_hnf": (_hnf_matrix_before, None),
    "smith": (None, _smith_after),
    "validate": (None, _validate_after),
    "invariant_points": (_invariant_points_before, None),
    "brute_invariant_points": (None, _brute_points_after),
}
