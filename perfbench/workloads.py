"""Seeded inputs and checked solvers for the four benchmark workloads.

Every workload is a fixed list of inputs made from the seed.  One input is
a (kind, payload) pair; `SOLVERS[kind](payload)` runs it through the
package's public functions and returns a small JSON-able summary of the
outputs, or raises `CheckFailed` when a correctness check fails.  The
checks use facts that share no code with the main path where one exists
(closed-form group orders and exponents, the counting identities, the
oracle's own verdict); the summaries are compared against digests
recorded from a known-good commit for the default seed.

The solvers call the package through module attributes (`residue.
packet_group`, not a name bound at import), so the tracing wrappers
installed by `tracing.py` are seen by every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from math import factorial, gcd, lcm
from pathlib import Path

from packetgroup import (cli, cohomology, datum, linalg, randomgen, residue,
                         symbols)

WORKLOADS = ("random_mix", "rank_ladder", "group_ladder", "oracle_check")

# random_mix: counts per pass.  Data are stratified by rank so that the cost
# of a pass moves little from seed to seed.  The counts put the median input
# in the middle of the rank-2 data and the 95th percentile among the rank-4
# data, not on the edge between two cost modes.
MIX_DATA_PER_RANK = 60
MIX_RANKS = (1, 2, 3, 4)
MIX_MODULES = 45
MIX_PAIRINGS = 15

# rank_ladder: cyclic Frobenius on Z^r, q = 5, n = 4.  With the seed, the
# cost of one form varies 1.5x at r = 9, 3x at r = 10 and up to 1000x at
# r = 12 (one r = 12 form took 26 s), so a seeded ladder above r = 8 is not
# steady from run to run.  30 forms per rank put the median input in the
# middle of the r = 5 forms and the 95th percentile, with 10 inputs beyond
# it, among the r = 8 forms.
LADDER_RANKS = tuple(range(2, 9))
LADDER_FORMS = 30
LADDER_Q, LADDER_N = 5, 4

# group_ladder: the whole group is inertia; q = 23, n = 11 keeps
# gcd(n, |G|) = 1 for every group below.  S_7 (3-4 s) is left out: it was
# over half of each pass, so a run held too few passes for the fastest
# time of each input to be steady.
SIGNED_RANKS = (2, 3, 4, 5)
SYMMETRIC_RANKS = (3, 4, 5, 6)
GROUP_Q, GROUP_N = 23, 11

# oracle_check: a (config, level) pair is kept when N^r stays under this.
# At 10^5 single inputs take 0.3-0.5 s, too long to fit between the slow
# spells of a shared VM; at 10^4 the longest takes ~0.12 s.
ORACLE_SIZE_BOUND = 10 ** 4


class CheckFailed(AssertionError):
    """An output of the package failed a correctness check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _factors(g: linalg.FinAbGroup) -> list[int]:
    return list(g.invariant_factors)


# --------------------------------------------------------------------------
# input generation (set-up)


def _mix_inputs(seed: int) -> list[tuple[str, object]]:
    rng = random.Random(seed)
    data = [randomgen.random_config(rng, ranks=(r,))
            for r in MIX_RANKS for _ in range(MIX_DATA_PER_RANK)]
    rng.shuffle(data)
    modules = [randomgen.random_tame_module(rng) for _ in range(MIX_MODULES)]
    pairings = []
    for _ in range(MIX_PAIRINGS):
        q = rng.choice([3, 5, 7, 9, 13, 25])
        n = rng.choice([d for d in range(1, q) if (q - 1) % d == 0])
        r = rng.randint(1, 3)
        rows = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(r)]
        pairings.append((q, n, rows))
    streams = [[("datum", c) for c in data], [("module", m) for m in modules],
               [("pairing", p) for p in pairings]]
    out = []
    for i in range(max(len(s) for s in streams)):
        out.extend(s[i] for s in streams if i < len(s))
    return out


def _permutation_matrix(perm: list[int], signs: list[int] | None = None) -> linalg.Mat:
    """Matrix sending e_i to signs[i] * e_perm[i]."""
    r = len(perm)
    signs = signs or [1] * r
    rows = [[0] * r for _ in range(r)]
    for i, p in enumerate(perm):
        rows[p][i] = signs[i]
    return linalg.Mat.from_rows(rows, cols=r)


def _cycle(r: int) -> linalg.Mat:
    return _permutation_matrix([(i + 1) % r for i in range(r)])


def _ladder_inputs(seed: int) -> list[tuple[str, object]]:
    rng = random.Random(seed)
    out = []
    for r in LADDER_RANKS:
        cycle = _cycle(r)
        group = [linalg.Mat.identity(r)]
        while len(group) < r:
            group.append(group[-1] @ cycle)
        for _ in range(LADDER_FORMS):
            form = randomgen.invariant_q_upper(rng, tuple(group), r)
            out.append(("ladder", {"rank": r, "inertia_gens": [],
                                   "frobenius": cycle.to_rows(),
                                   "q": LADDER_Q, "n": LADDER_N,
                                   "Q_upper": form.to_rows()}))
    return out


def _group_inputs(seed: int) -> list[tuple[str, object]]:
    """B_r and S_r on Z^r, written in a seeded signed-permutation basis.

    Conjugating by a signed permutation keeps the identity form invariant
    and the group size unchanged, so the seed moves the presentation and
    not the cost.
    """
    rng = random.Random(seed)
    specs = [("B", r) for r in SIGNED_RANKS] + [("S", r) for r in SYMMETRIC_RANKS]
    out = []
    for family, r in specs:
        swap = _permutation_matrix([1, 0] + list(range(2, r)))
        gens = [swap, _cycle(r)]
        if family == "B":
            gens.append(_permutation_matrix(list(range(r)), [-1] + [1] * (r - 1)))
        perm = list(range(r))
        rng.shuffle(perm)
        p = _permutation_matrix(perm, [rng.choice((-1, 1)) for _ in range(r)])
        config = {"rank": r, "inertia_gens": [g.to_rows() for g in gens],
                  "frobenius": _cycle(r).to_rows(), "q": GROUP_Q, "n": GROUP_N,
                  "Q_upper": linalg.Mat.identity(r).to_rows()}
        out.append(("group", {"family": family, "rank": r,
                              "config": datum.conjugated_config(config, p)}))
    return out


def _oracle_inputs(seed: int, config_dir: Path) -> list[tuple[str, object]]:
    """Bundled configs in a seeded unimodular basis, at the oracle's levels."""
    rng = random.Random(seed)
    out = []
    for path in sorted(config_dir.glob("*.json")):
        base = json.loads(path.read_text())
        config = datum.conjugated_config(
            base, randomgen.random_unimodular(rng, base["rank"]))
        d = datum.validate(config)
        levels = sorted({1, 2, 3, 4, d.gamma_exponent, 2 * d.gamma_exponent})
        for m in levels:
            if (d.q ** m - 1) ** d.rank <= ORACLE_SIZE_BOUND:
                out.append(("oracle", {"name": path.stem, "level": m,
                                       "text": json.dumps(config)}))
    return out


def make_inputs(workload: str, seed: int, root: Path) -> list[tuple[str, object]]:
    if workload == "random_mix":
        return _mix_inputs(seed)
    if workload == "rank_ladder":
        return _ladder_inputs(seed)
    if workload == "group_ladder":
        return _group_inputs(seed)
    if workload == "oracle_check":
        return _oracle_inputs(seed, root / "configs")
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# solvers


def _packet_group_summary(d: datum.CoverDatum) -> dict:
    group, trace = residue.packet_group(d)
    for m, g in trace:
        _require(all(d.n % f == 0 for f in g.invariant_factors),
                 f"level {m} factors {g.invariant_factors} do not divide n = {d.n}")
    return {"factors": _factors(group),
            "trace": [[m, _factors(g)] for m, g in trace]}


def _solve_datum(config: dict) -> dict:
    d = datum.validate(config)
    out = _packet_group_summary(d)
    ses = cohomology.residue_sharp_sequence(d, d.gamma_exponent)
    problems = cohomology.exactness_failures(ses)
    _require(problems == (), f"sequence not exact: {problems}")
    image = cohomology.image_of_connecting(ses)
    h1 = cohomology.h0_h1(ses.left)[1]
    _require(image == h1, f"connecting image {image} differs from H1 {h1}")
    out["connecting"] = _factors(image)
    return out


def _counting_degree(m: cohomology.TameModule) -> int:
    n = m.exponent if m.exponent > 1 else 2
    while gcd(n, m.q) != 1 or gcd(n, m.e) != 1:
        n += max(m.exponent, 1)
    return n


def _solve_module(m: cohomology.TameModule) -> dict:
    rep = cohomology.counting_checks(m, _counting_degree(m))
    _require(rep.ok, f"counting identities fail: {rep}")
    return {"module": list(rep.sizes_module), "dual": list(rep.sizes_dual)}


def _solve_pairing(payload: tuple) -> dict:
    q, n, rows = payload
    rep = symbols.split_center_image(symbols.TameField(q, n), linalg.Mat.from_rows(rows))
    _require(rep.equal, "split-torus radical differs from the sharp image")
    return {"radical": rep.radical.basis.to_rows()}


def _solve_ladder(config: dict) -> dict:
    d = datum.validate(config)
    r = config["rank"]
    _require(d.group_order == r and d.gamma_exponent == r,
             f"cyclic group of order {d.group_order}, exponent {d.gamma_exponent}")
    return _packet_group_summary(d)


def _group_shape(family: str, r: int) -> tuple[int, int]:
    """|G| and exponent: S_r has exponent lcm(1..r); B_r doubles it, since a
    k-cycle with an odd number of sign changes has order 2k."""
    exp_s = lcm(*range(1, r + 1))
    if family == "S":
        return factorial(r), exp_s
    return 2 ** r * factorial(r), 2 * exp_s


def _solve_group(payload: dict) -> dict:
    d = datum.validate(payload["config"])
    order, exponent = _group_shape(payload["family"], payload["rank"])
    _require((d.group_order, d.gamma_exponent) == (order, exponent),
             f"{payload['family']}_{payload['rank']}: order {d.group_order}, "
             f"exponent {d.gamma_exponent}, expected {order}, {exponent}")
    out = _packet_group_summary(d)
    out["order"] = d.group_order
    return out


def _solve_oracle(payload: dict) -> dict:
    argv = ["oracle-check", "-", "--level", str(payload["level"])]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), _stdin(payload["text"]):
        code = cli.main(argv)
    text = stdout.getvalue()
    _require(code == 0, f"oracle-check exited with {code}")
    _require(json.loads(text)["results"]["all_agree"] is True,
             "oracle-check reports a disagreement")
    return {"stdout": text}


@contextlib.contextmanager
def _stdin(text: str):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


SOLVERS = {
    "datum": _solve_datum,
    "module": _solve_module,
    "pairing": _solve_pairing,
    "ladder": _solve_ladder,
    "group": _solve_group,
    "oracle": _solve_oracle,
}
