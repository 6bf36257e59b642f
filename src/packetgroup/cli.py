"""Command-line front end: config ingestion, dispatch, deterministic reports.

Subcommands: validate | sharp | packet-group | cohomology | hilbert |
commutator | oracle-check.  Reports are JSON objects with sorted keys
(or an equally deterministic text rendering), so identical inputs produce
byte-identical output.  Each handler returns the payload whose digest the
report carries and the report's sections; `main` adds the rest (command,
input_digest, seed, status).  A datum command's payload is its config,
loaded and validated once before its `_cmd_*` gets the datum.  Exit codes:
0 success, 2 validation or configuration error, 3 stabilization failure,
4 internal assertion or oracle mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from . import oracle
from .cohomology import ModuleError, TameModule, counting_checks, tame_h
from .datum import (DEFAULT_CLOSURE_CAP, ConfigError, DatumError, parse_matrix,
                    validate)
from .linalg import (FinAbGroup, LatticeError, Mat, Sublattice,
                     quotient_invariants)
from .residue import (ContainmentViolation, LevelError, NTorsionViolation,
                      NotStabilized, StabilizationPolicy, invariant_points,
                      iota_image, level_modulus, packet_group, packet_group_level)
from .sharp import fixed_lattice, radical_of_induced_form, y_gamma_sharp, y_sharp
from .symbols import SymbolError, TameField, commutator, hilbert

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_STABILIZED = 3
EXIT_INTERNAL = 4


def _digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def _lattice_rows(lat: Sublattice) -> list[list[int]]:
    return [list(col) for col in lat.basis.columns()]


def _group_factors(g: FinAbGroup) -> list[int]:
    return list(g.invariant_factors)


def _load_config(path: str) -> Any:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as ex:
        raise DatumError(f"config is not valid UTF-8: {ex}") from ex
    try:
        return json.loads(text)
    except ValueError as ex:  # also an integer past Python's digit limit
        raise DatumError(f"config is not valid JSON: {ex}") from ex


@contextmanager
def _any_int_digits() -> Iterator[None]:
    """Lift Python's int-to-str digit limit for the duration and restore it
    after, since `main` also runs inside other programs."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # Python before 3.10.7 has no limit
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(report: dict, fmt: str) -> None:
    """Print the report in full, however long its integers."""
    with _any_int_digits():
        sys.stdout.write(_render(report, fmt))


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = []

    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}{key}." if prefix else f"{key}.", value[key])
        else:
            lines.append(f"{prefix[:-1]} = {json.dumps(value, sort_keys=True)}")

    walk("", report)
    return "\n".join(lines) + "\n"


def _cmd_validate(args, d) -> dict:
    return {"results": {
        "rank": d.rank,
        "q": d.q,
        "n": d.n,
        "residue_char": d.residue_char,
        "ramification_index": d.e,
        "group_order": d.group_order,
        "group_exponent": d.gamma_exponent,
        "bilinear_form": d.bilinear.to_rows(),
    }}


def _cmd_sharp(args, d) -> dict:
    fixed = fixed_lattice(d)
    sharp_full = y_sharp(d)
    sharp_gamma = y_gamma_sharp(d)
    return {"results": {
        "fixed_lattice": _lattice_rows(fixed),
        "sharp": _lattice_rows(sharp_full),
        "gamma_sharp": _lattice_rows(sharp_gamma),
        "quotient_by_sharp": _group_factors(
            quotient_invariants(Sublattice.full(d.rank), sharp_full)),
        "gamma_sharp_over_sharp": _group_factors(
            quotient_invariants(sharp_gamma, sharp_full)),
    }}


def _cmd_packet_group(args, d) -> dict:
    policy = StabilizationPolicy(start_level=args.level,
                                 stable_repeats=args.stable_repeats,
                                 max_level=args.max_level)
    group, trace = packet_group(d, policy)
    return {
        "results": {"invariant_factors": _group_factors(group)},
        "diagnostics": {
            "levels_used": [m for m, _ in trace],
            "trace": [{"level": m, "invariant_factors": _group_factors(g)}
                      for m, g in trace],
            "policy": {"start_level": policy.start_level or d.gamma_exponent,
                       "stable_repeats": policy.stable_repeats,
                       "max_level": policy.max_level},
        },
    }


def _parse_module(config: Any) -> TameModule:
    if not isinstance(config, dict):
        raise ModuleError("module description must be a JSON object")
    for key in ("relations", "phi", "q"):
        if key not in config:
            raise ModuleError(f"missing required key {key!r}")
    rel_rows = config["relations"]
    if (not isinstance(rel_rows, list) or not rel_rows
            or not all(isinstance(r, list) for r in rel_rows)):
        raise ModuleError("relations must be a non-empty list of integer vectors")
    rank = len(rel_rows[0])
    relations = Sublattice.from_columns(
        rank, parse_matrix(rel_rows, "relations", rank).to_rows())
    phi = parse_matrix(config["phi"], "phi", rank, rank)
    sigma_rows = config.get("sigma")
    sigma = parse_matrix(sigma_rows, "sigma", rank, rank) if sigma_rows is not None \
        else Mat.identity(rank)
    e = config.get("e", 1)
    q = config["q"]
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (q, e)):
        raise ModuleError("q and e must be integers")
    return TameModule(relations, sigma, phi, e, q)


def _cmd_cohomology(args) -> tuple[Any, dict]:
    config = _load_config(args.config)
    module = _parse_module(config)
    coh = tame_h(module)
    unr_h0, unr_h1 = coh.h0_unr, coh.h1_unr
    results = {
        "group": _group_factors(module.group()),
        "sizes": {"h0": coh.sizes[0], "h1": coh.sizes[1], "h2": coh.sizes[2]},
        "pieces": {
            "h0_unramified": _group_factors(unr_h0),
            "h1_unramified": _group_factors(unr_h1),
            "h0_twisted": _group_factors(coh.h0_twist),
            "h1_twisted": _group_factors(coh.h1_twist),
        },
    }
    n = args.n if args.n is not None else module.exponent
    try:
        counting = counting_checks(module, n)
        results["counting"] = {
            "n": n,
            "sizes_module": list(counting.sizes_module),
            "sizes_dual": list(counting.sizes_dual),
            "euler_ok": counting.euler_ok,
            "duality_ok": counting.duality_ok,
            "unramified_factorization_ok": counting.unramified_factorization_ok,
            "ok": counting.ok,
        }
    except ModuleError as ex:
        results["counting"] = {"n": n, "skipped": str(ex)}
    return config, {"results": results}


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        v, u = (int(x) for x in parts)
    except ValueError:
        raise SymbolError(f"expected 'v,u', got {text!r}") from None
    return v, u


def _cmd_hilbert(args) -> tuple[Any, dict]:
    f = TameField(args.q, args.n)
    va, ua = _parse_pair(args.a)
    vb, ub = _parse_pair(args.b)
    value = hilbert(f, f.element(va, ua), f.element(vb, ub))
    payload = {"q": args.q, "n": args.n, "a": [va, ua], "b": [vb, ub]}
    return payload, {"results": {"value": value}}


def _cmd_commutator(args) -> tuple[Any, dict]:
    f = TameField(args.q, args.n)
    try:
        b_rows = json.loads(args.form)
        s_pairs = json.loads(args.s)
        t_pairs = json.loads(args.t)
    except ValueError as ex:  # also an integer past Python's digit limit
        raise SymbolError(f"matrix and element lists must be JSON: {ex}") from ex
    b = parse_matrix(b_rows, "form")
    s = [f.element(v, u) for v, u in parse_matrix(s_pairs, "s", 2).to_rows()]
    t = [f.element(v, u) for v, u in parse_matrix(t_pairs, "t", 2).to_rows()]
    value = commutator(f, b, s, t)
    payload = {"q": args.q, "n": args.n, "B": b_rows, "s": s_pairs, "t": t_pairs}
    return payload, {"results": {"value": value}}


def _cmd_oracle_check(args, d) -> dict:
    cap = args.cap if args.oracle_cap is None else args.oracle_cap
    if cap < 1:
        raise ConfigError(f"oracle_cap must be >= 1, got {cap}")
    m = args.level if args.level is not None else 1
    n_mod = level_modulus(d.q, m)
    checks: list[dict] = []

    def record(name: str, agree: bool, main_repr: Any, oracle_repr: Any) -> None:
        checks.append({"check": name, "agree": agree,
                       "main": main_repr, "oracle": oracle_repr})

    lattices = {"full": Sublattice.full(d.rank),
                "sharp": y_sharp(d), "gamma_sharp": y_gamma_sharp(d)}
    # the oracle goes first: its cap check refuses an over-cap level before
    # the main path runs
    brute_points = {name: oracle.brute_invariant_points(d, sub, m, cap=cap)
                    for name, sub in lattices.items()}
    brute_imgs = {}
    for name in sorted(lattices):
        sub, brute = lattices[name], brute_points[name]
        gens = invariant_points(d, sub, m).lattice.basis.columns()
        main_set = oracle.subgroup_from_generators(n_mod, sub.rank, gens, cap=cap)
        record(f"invariant_points[{name}]", main_set == brute,
               len(main_set), len(brute))
        img_gens = iota_image(d, sub, m).lattice.basis.columns()
        main_img = oracle.subgroup_from_generators(n_mod, d.rank, img_gens, cap=cap)
        brute_img = oracle.brute_iota_image(brute, sub, n_mod)
        brute_imgs[name] = brute_img
        record(f"iota_image[{name}]", main_img == brute_img,
               len(main_img), len(brute_img))

    level_group = packet_group_level(d, m)
    brute_group = oracle.brute_quotient(
        n_mod, brute_imgs["gamma_sharp"], brute_imgs["sharp"], cap=cap)
    record("packet_group_level", level_group == brute_group,
           _group_factors(level_group), _group_factors(brute_group))

    radical = radical_of_induced_form(d, lattices["sharp"], lattices["sharp"])
    brute_rad = oracle.brute_radical(d.bilinear.to_rows(), d.n, cap=cap)
    sharp_set = oracle.subgroup_from_generators(
        d.n, d.rank, lattices["sharp"].basis.columns(), cap=cap)
    record("radical", radical.is_trivial and sharp_set == brute_rad,
           _group_factors(radical), len(brute_rad))

    all_agree = all(c["agree"] for c in checks)
    sections = {"results": {"level": m, "checks": checks, "all_agree": all_agree}}
    if not all_agree:
        sections["status"] = "mismatch"
    return sections


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--seed", type=int, default=None,
                        help="echoed into reports for reproducible bookkeeping")
    parser = argparse.ArgumentParser(
        prog="packetgroup",
        description="Exact packet-group and lattice computations for torus covers")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_config_command(name, fn, **extra):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("config", help="path to a JSON config, or - for stdin")
        p.add_argument("--cap", type=int, default=DEFAULT_CLOSURE_CAP,
                       help="group-closure cap")
        for flag, kw in extra.items():
            p.add_argument(flag, **kw)

        def handler(args) -> tuple[Any, dict]:
            config = _load_config(args.config)
            return config, fn(args, validate(config, closure_cap=args.cap))

        p.set_defaults(handler=handler)
        return p

    add_config_command("validate", _cmd_validate)
    add_config_command("sharp", _cmd_sharp)
    add_config_command(
        "packet-group", _cmd_packet_group,
        **{"--level": dict(type=int, default=None,
                           help="start level (default: group exponent)"),
           "--max-level": dict(type=int, default=StabilizationPolicy.max_level,
                               dest="max_level"),
           "--stable-repeats": dict(type=int, default=StabilizationPolicy.stable_repeats,
                                    dest="stable_repeats")})
    coh = sub.add_parser("cohomology", parents=[common])
    coh.add_argument("config", help="module JSON: relations, sigma, phi, q, e")
    coh.add_argument("--n", type=int, default=None,
                     help="degree for the counting identities (default: exponent)")
    coh.set_defaults(handler=_cmd_cohomology)

    hil = sub.add_parser("hilbert", parents=[common])
    hil.add_argument("--q", type=int, required=True)
    hil.add_argument("--n", type=int, required=True)
    hil.add_argument("--a", required=True, help="element as 'v,u'")
    hil.add_argument("--b", required=True, help="element as 'v,u'")
    hil.set_defaults(handler=_cmd_hilbert)

    com = sub.add_parser("commutator", parents=[common])
    com.add_argument("--q", type=int, required=True)
    com.add_argument("--n", type=int, required=True)
    com.add_argument("--form", required=True, help="JSON matrix of the form")
    com.add_argument("--s", required=True, help="JSON list of [v,u] pairs")
    com.add_argument("--t", required=True, help="JSON list of [v,u] pairs")
    com.set_defaults(handler=_cmd_commutator)

    add_config_command(
        "oracle-check", _cmd_oracle_check,
        **{"--level": dict(type=int, default=None),
           "--oracle-cap": dict(type=int, default=None, dest="oracle_cap",
                                help="enumeration cap (default: the --cap value)")})
    return parser


_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)

    def error_report(kind: str, message: str) -> dict:
        return {"command": args.subcommand, "status": "error",
                "error": {"kind": kind, "message": message}}

    try:
        payload, sections = args.handler(args)
        report = {"command": args.subcommand, "input_digest": _digest(payload),
                  "seed": args.seed, "status": "ok", **sections}
    except NotStabilized as ex:
        report, code = error_report("NotStabilized", str(ex)), EXIT_NOT_STABILIZED
        report["trace"] = [{"level": m, "invariant_factors": _group_factors(g)}
                           for m, g in ex.trace]
    except (DatumError, ModuleError, SymbolError, LatticeError, LevelError,
            oracle.CapExceeded) as ex:
        report, code = error_report(type(ex).__name__, str(ex)), EXIT_CONFIG
    except (ContainmentViolation, NTorsionViolation, AssertionError, ValueError,
            oracle.NotASubgroup) as ex:
        report, code = error_report(type(ex).__name__, str(ex)), EXIT_INTERNAL
    except OSError as ex:
        report, code = error_report("IOError", str(ex)), EXIT_CONFIG
    else:
        code = EXIT_INTERNAL if report["status"] == "mismatch" else EXIT_OK
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
