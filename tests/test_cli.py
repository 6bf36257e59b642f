import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packetgroup import oracle, residue, sharp
from packetgroup.cli import _any_int_digits, _load_config, main
from packetgroup.datum import Q_LIMIT, matrix_inverse_unimodular, validate
from packetgroup.linalg import Mat, Sublattice
from packetgroup.randomgen import random_unimodular
from packetgroup.residue import LEVEL_BITS_LIMIT

from conftest import CONFIG_DIR, RAMIFIED_CYCLE3, REPO_ROOT


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_report(capsys):
    code, out = run_cli(capsys, "validate", str(CONFIG_DIR / "swap_q3_n2.json"))
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["results"]["ramification_index"] == 1
    assert report["results"]["bilinear_form"] == [[0, 1], [1, 0]]


def test_validate_error_exit_code(capsys, tmp_path):
    bad = dict(json.loads((CONFIG_DIR / "ramified_r1_q7_n3.json").read_text()))
    bad["n"] = 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "error"
    assert report["error"]["kind"] == "RamificationGcdError"
    assert "ramification index" in report["error"]["message"]


def test_packet_group_split(capsys):
    code, out = run_cli(capsys, "packet-group", str(CONFIG_DIR / "split_r2_q5_n4.json"))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["invariant_factors"] == []


def test_packet_group_nontrivial(capsys):
    code, out = run_cli(capsys, "packet-group",
                        str(CONFIG_DIR / "minus_one_r2_q5_n4.json"))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["invariant_factors"] == [2, 2]
    assert report["diagnostics"]["levels_used"] == [2, 4, 8]


def test_packet_group_not_stabilized(capsys):
    code, out = run_cli(capsys, "packet-group", str(CONFIG_DIR / "swap_q3_n2.json"),
                        "--level", "1", "--max-level", "2")
    assert code == 3
    report = json.loads(out)
    assert report["error"]["kind"] == "NotStabilized"
    assert len(report["trace"]) == 2


def test_sharp_report(capsys):
    code, out = run_cli(capsys, "sharp", str(CONFIG_DIR / "swap_q3_n2.json"))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["sharp"] == [[2, 0], [0, 2]]
    assert report["results"]["gamma_sharp"] == [[1, 1], [0, 2]]
    assert report["results"]["gamma_sharp_over_sharp"] == [2]
    assert report["results"]["quotient_by_sharp"] == [2, 2]


def test_hilbert_cli(capsys):
    code, out = run_cli(capsys, "hilbert", "--q", "3", "--n", "2",
                        "--a", "1,0", "--b", "1,0")
    assert code == 0
    assert json.loads(out)["results"]["value"] == 1
    code, out = run_cli(capsys, "hilbert", "--q", "7", "--n", "4",
                        "--a", "0,0", "--b", "0,0")
    assert code == 2  # 4 does not divide 6
    for pair in ("x,1", "1", "1,2,3"):
        code, out = run_cli(capsys, "hilbert", "--q", "7", "--n", "3",
                            "--a", pair, "--b", "0,1")
        assert code == 2
        assert json.loads(out)["error"] == {"kind": "SymbolError",
                                            "message": f"expected 'v,u', got {pair!r}"}


def test_commutator_cli(capsys):
    code, out = run_cli(capsys, "commutator", "--q", "3", "--n", "2",
                        "--form", "[[0,1],[0,0]]",
                        "--s", "[[1,0],[0,0]]", "--t", "[[0,0],[1,0]]")
    assert code == 0
    assert json.loads(out)["results"]["value"] == 1
    # malformed arguments are reported, never a traceback or a float value
    for form, s_pairs in (("5", "[[1,0],[0,0]]"), ("[[0,1],[0,0]]", "[1]"),
                          ("[[0,1],[0,0]]", "[[1.5,0],[0,0]]"),
                          ("[[true,1],[0,0]]", "[[1,0],[0,0]]")):
        code, out = run_cli(capsys, "commutator", "--q", "3", "--n", "2",
                            "--form", form, "--s", s_pairs, "--t", "[[0,0],[1,0]]")
        assert code == 2, (form, s_pairs)
        assert json.loads(out)["status"] == "error"


def test_cohomology_cli(capsys, tmp_path):
    module = {"relations": [[3]], "sigma": [[1]], "phi": [[7]], "q": 7, "e": 2}
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module))
    code, out = run_cli(capsys, "cohomology", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["sizes"] == {"h0": 3, "h1": 9, "h2": 3}
    assert report["results"]["counting"]["ok"] is True
    # a degree below 1 skips the counting identities but keeps the report
    code, out = run_cli(capsys, "cohomology", str(path), "--n", "-3")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["sizes"] == {"h0": 3, "h1": 9, "h2": 3}
    assert report["results"]["counting"] == {"n": -3, "skipped": "n must be >= 1"}
    # the rank-0 module is the trivial group
    path.write_text(json.dumps({"relations": [[]], "phi": [], "q": 3}))
    code, out = run_cli(capsys, "cohomology", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["sizes"] == {"h0": 1, "h1": 1, "h2": 1}
    assert report["results"]["counting"]["ok"] is True


BAD_MODULES = [
    {"relations": [[4]], "phi": [[2]], "q": 3},
    # wrong shapes and non-integer values: no traceback, no truncation
    {"relations": [[3]], "phi": 5, "q": 7},
    {"relations": [[3]], "sigma": [3], "phi": [[1]], "q": 7},
    {"relations": [[1.5]], "phi": [[1]], "q": 7},
    {"relations": [[3]], "phi": [[1.7]], "q": 7},
    {"relations": [[3]], "phi": [[1]], "q": 7, "e": True},
    {"relations": [[3]], "phi": [[1]], "q": True},
    {"relations": [[3, 0], [0]], "phi": [[1, 0], [0, 1]], "q": 7},
    # q must be a prime power below the supported limit
    {"relations": [[5]], "phi": [[2]], "q": 6},
    {"relations": [[5]], "phi": [[2]], "q": 1},
    {"relations": [[5]], "phi": [[2]], "q": Q_LIMIT},
]


def test_cohomology_bad_module(capsys, tmp_path):
    path = tmp_path / "module.json"
    for module in BAD_MODULES:
        path.write_text(json.dumps(module))
        code, out = run_cli(capsys, "cohomology", str(path))
        assert code == 2, module
        assert json.loads(out)["status"] == "error"


_scalars = (st.integers(-30, 30) | st.floats(-30, 30) | st.booleans()
            | st.sampled_from(["x", "", None]))
_rows = st.lists(_scalars, max_size=4)
_values = (_scalars | _rows | st.lists(_rows, max_size=4)
           | st.lists(_scalars | _rows, max_size=4))


@st.composite
def module_json(draw):
    """Module presentations with k <= 3: well formed matrices or noise.

    The required keys are always present; a missing one is a plain
    ModuleError and would hide the values behind it.
    """
    k = draw(st.integers(0, 3))
    square = st.lists(st.lists(st.integers(-30, 30), min_size=k, max_size=k),
                      min_size=k, max_size=k)
    module = {}
    for key in ("relations", "phi", "sigma"):
        if key != "sigma" or draw(st.booleans()):
            module[key] = draw(square | _values)
    for key in ("q", "e"):
        if key != "e" or draw(st.booleans()):
            module[key] = draw(st.integers(-3, 30) | _values)
    return module


@given(module_json())
@settings(deadline=None, max_examples=150)
def test_cohomology_exit_codes(module):
    # every module input ends in success or a configuration error report
    stdout = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(module))), \
            contextlib.redirect_stdout(stdout):
        code = main(["cohomology", "-"])
    assert code in (0, 2)
    report = json.loads(stdout.getvalue())
    assert report["status"] == ("ok" if code == 0 else "error")


def test_oracle_check_cli(capsys):
    code, out = run_cli(capsys, "oracle-check", str(CONFIG_DIR / "swap_q3_n2.json"),
                        "--level", "2")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["all_agree"] is True


@pytest.mark.parametrize("level", [1, 2])
def test_oracle_check_ramified_cycle3(capsys, tmp_path, level):
    path = tmp_path / "cycle3.json"
    path.write_text(json.dumps(RAMIFIED_CYCLE3))
    code, out = run_cli(capsys, "oracle-check", str(path), "--level", str(level))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["all_agree"] is True
    level_check = next(c for c in results["checks"] if c["check"] == "packet_group_level")
    assert level_check["main"] == level_check["oracle"] == [2]


def test_oracle_check_over_cap_refuses_before_the_main_path(capsys, monkeypatch):
    """An over-cap level exits 2 having formed N and N^k once each.

    Counted: the main path's level functions are never entered, and
    `level_modulus` and the oracle's cap check run once each.  Timed: the
    budget is counted in squarings of N at this level (N^2 has 3.2 Mbit),
    timed here, so it scales with the machine: forming N and N^2 once
    costs about 1.5 of them, while running the main path's level first
    and forming N three times and N^2 twice costs about 3.5.  The best of
    three runs is held to it, so one slow moment of the host does not
    fail the test.
    """
    import packetgroup.cli as cli_mod

    level = 10 ** 6
    n_mod = 3 ** level - 1
    calls: dict[str, int] = {}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("invariant_points", "iota_image", "packet_group_level", "level_modulus"):
        counted(cli_mod, name)
    counted(oracle, "_fixed_points")

    def squaring() -> float:
        start = time.perf_counter()
        n_mod * n_mod
        return time.perf_counter() - start

    before = squaring()
    bits = (n_mod * n_mod).bit_length()
    elapsed = []
    for _ in range(3):
        calls.clear()
        start = time.perf_counter()
        code, out = run_cli(capsys, "oracle-check", str(CONFIG_DIR / "swap_q3_n2.json"),
                            "--level", str(level))
        elapsed.append(time.perf_counter() - start)
        assert code == 2
        assert json.loads(out) == {"command": "oracle-check", "status": "error", "error": {
            "kind": "CapExceeded",
            "message": f"N^k = an integer of {bits} bits exceeds the cap 1000000"}}
        assert calls == {"level_modulus": 1, "_fixed_points": 1}
    unit = max(before, squaring())
    assert min(elapsed) < 2.5 * unit, (elapsed, unit)


def test_oracle_mismatch_exit_code(capsys, monkeypatch):
    # wire check: a disagreeing oracle must surface as an internal failure
    import packetgroup.cli as cli_mod

    def broken(*args, **kwargs):
        return frozenset({(0, 0)})

    monkeypatch.setattr(cli_mod.oracle, "brute_invariant_points", broken)
    code, out = run_cli(capsys, "oracle-check", str(CONFIG_DIR / "swap_q3_n2.json"),
                        "--level", "2")
    assert code == 4
    report = json.loads(out)
    assert report["status"] == "mismatch"
    assert report["results"]["all_agree"] is False


@pytest.mark.parametrize("error, exit_code", [
    (AssertionError("smith decomposition failed to verify"), 4),
    (oracle.NotASubgroup("generators do not close"), 4),
    (oracle.CapExceeded("enumeration cap exceeded"), 2),
    (ValueError("not a documented input error"), 4),
], ids=["AssertionError", "NotASubgroup", "CapExceeded", "ValueError"])
def test_internal_error_exit_codes(capsys, monkeypatch, error, exit_code):
    # self-check and oracle failures are reported, never a bare traceback
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(oracle, "brute_invariant_points", failing)
    code, out = run_cli(capsys, "oracle-check", str(CONFIG_DIR / "swap_q3_n2.json"),
                        "--level", "2")
    assert code == exit_code
    report = json.loads(out)
    assert report["status"] == "error"
    assert report["error"] == {"kind": type(error).__name__, "message": str(error)}


def test_containment_violation_exit_code(capsys, monkeypatch):
    # swapping the two sharp lattices puts the larger image on the small side
    y_sharp, y_gamma_sharp = residue.y_sharp, residue.y_gamma_sharp
    monkeypatch.setattr(residue, "y_sharp", y_gamma_sharp)
    monkeypatch.setattr(residue, "y_gamma_sharp", y_sharp)
    message = "sharp image not contained in gamma-sharp image at level 2"
    name = CONFIG_DIR / "minus_one_r2_q5_n4.json"
    with pytest.raises(residue.ContainmentViolation, match=message):
        residue.packet_group(validate(json.loads(name.read_text())))
    code, out = run_cli(capsys, "packet-group", str(name))
    assert code == 4
    report = json.loads(out)
    assert report["error"] == {"kind": "ContainmentViolation", "message": message}


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
def test_oracle_check_reduces_each_lattice_once(capsys, monkeypatch, name):
    # the datum keeps its level-free data: however many checks read them,
    # a run takes one sharp preimage per target lattice and one SNF of the
    # twisted conditions per distinct lattice (full, sharp, gamma-sharp)
    path = CONFIG_DIR / f"{name}.json"
    d = validate(json.loads(path.read_text()))
    targets = {Sublattice.full(d.rank), sharp.fixed_lattice(d)}
    lattices = {Sublattice.full(d.rank), sharp.y_sharp(d), sharp.y_gamma_sharp(d)}
    preimages, reductions = [], []
    preimage, reduction = sharp.sharp, residue.smith

    def counted_preimage(b, n, target):
        preimages.append(target)
        return preimage(b, n, target)

    def counted_reduction(m):
        reductions.append(m)
        return reduction(m)

    monkeypatch.setattr(sharp, "sharp", counted_preimage)
    monkeypatch.setattr(residue, "smith", counted_reduction)
    for level in ("1", "2"):
        preimages.clear()
        reductions.clear()
        code, out = run_cli(capsys, "oracle-check", str(path), "--level", level)
        assert code == 0 and json.loads(out)["results"]["all_agree"] is True
        assert sorted(map(str, preimages)) == sorted(map(str, targets)), (name, level)
        assert len(reductions) == len(lattices) <= 3, (name, level)


def test_load_config_closes_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _load_config(str(path)) == {}
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_missing_file(capsys):
    code, out = run_cli(capsys, "validate", "/nonexistent/config.json")
    assert code == 2


def test_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "DatumError"


def test_config_not_utf8(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "DatumError"
    assert error["message"].startswith("config is not valid UTF-8")


@pytest.mark.parametrize("argv", [
    ("packet-group", "split_r2_q5_n4", "--cap", "0"),
    ("packet-group", "split_r2_q5_n4", "--cap", "-1"),
    ("validate", "swap_q3_n2", "--cap", "0"),
])
def test_closure_cap_below_1_exits_2(capsys, argv):
    command, name, *rest = argv
    code, out = run_cli(capsys, command, str(CONFIG_DIR / f"{name}.json"), *rest)
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "ConfigError", "message": f"closure_cap must be >= 1, got {rest[-1]}"}


@pytest.mark.parametrize("oracle_cap", ["0", "-1"])
def test_oracle_cap_below_1_exits_2(capsys, monkeypatch, oracle_cap):
    # refused up front, not reported as a CapExceeded by the first enumeration
    def enumerated(*args, **kwargs):
        raise AssertionError("the oracle enumerated under a cap below 1")

    monkeypatch.setattr(oracle, "brute_invariant_points", enumerated)
    code, out = run_cli(capsys, "oracle-check", str(CONFIG_DIR / "swap_q3_n2.json"),
                        "--oracle-cap", oracle_cap)
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "ConfigError", "message": f"oracle_cap must be >= 1, got {oracle_cap}"}


@pytest.mark.parametrize("argv", [
    ("validate", "CONFIG"),
    ("sharp", "CONFIG"),
    ("packet-group", "CONFIG"),
    ("oracle-check", "CONFIG", "--level", "1"),
    ("hilbert", "--q", "7", "--n", "3", "--a", "1,2", "--b=-1,4"),
    ("commutator", "--q", "5", "--n", "4", "--form", "[[1,2],[2,0]]",
     "--s", "[[1,0],[0,3]]", "--t", "[[0,1],[2,2]]"),
])
def test_reports_are_deterministic(capsys, argv):
    argv = [str(CONFIG_DIR / "swap_q3_n2.json") if a == "CONFIG" else a for a in argv]
    runs = []
    for _ in range(2):
        code, out = run_cli(capsys, *argv, "--seed", "7")
        assert code == 0
        runs.append(out.encode())
    assert runs[0] == runs[1]
    # text format is deterministic too
    code, text_out = run_cli(capsys, *argv, "--seed", "7", "--format", "text")
    assert code == 0
    code, text_out2 = run_cli(capsys, *argv, "--seed", "7", "--format", "text")
    assert text_out == text_out2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "packetgroup.cli", "hilbert", "--q", "7",
         "--n", "3", "--a", "1,0", "--b", "0,1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["value"] == 2


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
def test_outputs_do_not_depend_on_debug_checks(capsys, name):
    # `python -O` strips the assert-based self-checks (`smith` verifies its
    # decomposition and `preimage_lattice` its basis only under __debug__);
    # no answer may depend on them.
    src = str(REPO_ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for command in ("packet-group", "sharp"):
        argv = [command, str(CONFIG_DIR / f"{name}.json")]
        proc = subprocess.run([sys.executable, "-O", "-B", "-m", "packetgroup.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == run_cli(capsys, *argv)


def test_stdin_config(capsys, monkeypatch, tmp_path):
    cfg = (CONFIG_DIR / "split_r2_q5_n4.json").read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(cfg))
    code, out = run_cli(capsys, "packet-group", "-")
    assert code == 0
    assert json.loads(out)["results"]["invariant_factors"] == []


def test_level_errors_exit_2(capsys):
    swap = str(CONFIG_DIR / "swap_q3_n2.json")
    rot4 = str(CONFIG_DIR / "rot4_r2_q5_n4.json")
    # q = 3 has 2 bits, so q**m - 1 at m = 2**40 would take up to 2**41 bits
    huge = str(2 ** 40)
    too_big = (f"level {huge} makes q**m - 1 up to {2 ** 41} bits long, "
               f"past the limit of {LEVEL_BITS_LIMIT} bits")
    for argv, message in ((("packet-group", swap, "--level", "0"), "start_level must be >= 1"),
                          (("packet-group", swap, "--max-level", "0"), "max_level must be >= 1"),
                          (("oracle-check", swap, "--level", "0"), "level must be >= 1"),
                          (("packet-group", swap, "--level", huge, "--max-level", huge), too_big),
                          (("oracle-check", swap, "--level", huge), too_big),
                          (("packet-group", swap, "--level", "8192"),
                           "first level 8192 is above max_level = 4096"),
                          # no --level: the first level is the group exponent 4
                          (("packet-group", rot4, "--max-level", "2"),
                           "first level 4 is above max_level = 2")):
        start = time.perf_counter()
        code, out = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2, argv
        assert json.loads(out)["error"] == {"kind": "LevelError", "message": message}


def cohomology_ladder(r: int, basis: bool) -> dict:
    """Relations 3^120 * I over q = 2 with phi random_unimodular(Random(0));
    with `basis`, Phi then P drawn from Random(1), relations P * 3^120 * I
    and phi = P Phi P^-1."""
    rng = random.Random(int(basis))
    phi = random_unimodular(rng, r, ops=3 * r)
    p = random_unimodular(rng, r, ops=3 * r) if basis else Mat.identity(r)
    return {"relations": p.scale(3 ** 120).to_rows(),
            "phi": (p @ phi @ matrix_inverse_unimodular(p)).to_rows(), "q": 2}


# stdout sha256 recorded when the relation lattices took the exact Hermite
# form, which took over 100 s at r = 20 and at r = 12 in a basis P
@pytest.mark.parametrize("r, basis, sha256", [
    (8, False, "1da599a9bb69991d370b4e7fb5651c2b01045918cbb781b31b8232edc173bfcc"),
    (12, False, "41d9f6e080a16e53ff4759d42ff73e31b68cdc50f212e9be3135d976fe7c8dfd"),
    (8, True, "e660106897a08a415b49513e165039cd91c366bee7bc37a95fe05d4e31e08bc0"),
    (20, False, None),
    (16, True, None),
])
def test_cohomology_ladder_bounded_time(capsys, tmp_path, r, basis, sha256):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(cohomology_ladder(r, basis)))
    start = time.perf_counter()
    code, out = run_cli(capsys, "cohomology", str(path))
    assert time.perf_counter() - start < 5.0
    assert code == 0 and json.loads(out)["results"]["counting"]["ok"] is True
    assert sha256 is None or hashlib.sha256(out.encode()).hexdigest() == sha256


def test_large_q_bounded_time(capsys, monkeypatch):
    def run_validate(q):
        cfg = {"rank": 1, "inertia_gens": [], "frobenius": [[1]],
               "q": q, "n": 1, "Q_upper": [[1]]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(cfg)))
        start = time.perf_counter()
        code, out = run_cli(capsys, "validate", "-")
        assert time.perf_counter() - start < 1.0, q
        return code, json.loads(out)

    for q, p in ((2 ** 61 - 1, 2 ** 61 - 1), ((2 ** 31 - 1) ** 2, 2 ** 31 - 1)):
        code, report = run_validate(q)
        assert code == 0 and report["results"]["residue_char"] == p
    code, report = run_validate((2 ** 61 - 1) * 1009)
    assert code == 2 and report["error"]["kind"] == "NotPrimePower"
    for q in (Q_LIMIT, 2 ** 89 - 1):
        code, report = run_validate(q)
        assert code == 2 and report["error"]["kind"] == "ConfigError"
        assert "supported limit" in report["error"]["message"]


def test_integers_past_the_digit_limit_in_input_exit_2(capsys, tmp_path):
    # Python refuses to parse an integer of more than 4300 digits
    path = tmp_path / "big_q.json"
    path.write_text('{"rank": 1, "inertia_gens": [], "frobenius": [[1]], "q": '
                    + "7" * 5000 + ', "n": 2, "Q_upper": [[1]]}')
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 2 and json.loads(out)["error"]["kind"] == "DatumError"
    for flag in ("--form", "--s", "--t"):
        argv = {"--form": "[[1,2],[2,0]]", "--s": "[[1,0]]", "--t": "[[0,1]]"}
        argv[flag] = "[[" + "1" * 5000 + ", 0]]"
        code, out = run_cli(capsys, "commutator", "--q", "5", "--n", "4",
                            *(x for item in argv.items() for x in item))
        assert code == 2 and json.loads(out)["error"]["kind"] == "SymbolError", flag


def _parse_in_full(out):
    with _any_int_digits():
        return json.loads(out)


def test_cohomology_report_past_the_digit_limit(capsys, tmp_path):
    x = 2 ** 9000
    path = tmp_path / "module.json"
    path.write_text(json.dumps({"relations": [[x, 0], [0, x]],
                                "phi": [[1, 0], [0, 1]], "q": 3}))
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, "cohomology", str(path))
    assert sys.get_int_max_str_digits() == limit
    assert code == 0
    assert _parse_in_full(out)["results"]["sizes"]["h0"] == x * x


def test_validate_report_past_the_digit_limit(capsys, tmp_path):
    nines = 10 ** 4300 - 1
    path = tmp_path / "big_form.json"
    path.write_text('{"rank": 2, "inertia_gens": [], "frobenius": [[-1, 0], [0, -1]], '
                    '"q": 5, "n": 4, "Q_upper": [[' + "9" * 4300 + ', 0], [0, 1]]}')
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert _parse_in_full(out)["results"]["bilinear_form"] == [[2 * nines, 0], [0, 2]]
    code, out = run_cli(capsys, "validate", str(path), "--format", "text")
    assert code == 0
    assert "results.bilinear_form = [[1" + "9" * 4299 + "8, 0], [0, 2]]" in out
    assert sys.get_int_max_str_digits() == limit


def test_input_errors_past_the_digit_limit_exit_2(capsys, tmp_path):
    # an unprintable value is given by its bit length, a printable one as before
    big = 10 ** 4299
    path = tmp_path / "det.json"
    for x, det in ((big, f"an integer of {(big * big).bit_length()} bits"), (2, "4")):
        path.write_text(json.dumps({"rank": 2, "inertia_gens": [],
                                    "frobenius": [[x, 1], [0, x]],
                                    "q": 3, "n": 1, "Q_upper": [[0, 0], [0, 0]]}))
        code, out = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert json.loads(out)["error"] == {
            "kind": "DeterminantError",
            "message": f"frobenius has determinant {det}, expected +-1"}
    swap = str(CONFIG_DIR / "swap_q3_n2.json")
    big_n = f"an integer of {((3 ** 9000 - 1) ** 2).bit_length()} bits"
    for level, n_k in (("9000", big_n), ("2", "64")):
        code, out = run_cli(capsys, "oracle-check", swap, "--level", level, "--oracle-cap", "10")
        assert code == 2
        assert json.loads(out)["error"] == {
            "kind": "CapExceeded", "message": f"N^k = {n_k} exceeds the cap 10"}


README_MODULE = {"relations": [[3]], "sigma": [[1]], "phi": [[7]], "q": 7, "e": 2}
README_HILBERT = ("hilbert", "--q", "7", "--n", "3", "--a", "1,0", "--b", "0,1")
README_COMMUTATOR = ("commutator", "--q", "3", "--n", "2", "--form", "[[0,1],[0,0]]",
                     "--s", "[[1,0],[0,0]]", "--t", "[[0,0],[1,0]]")

# sha256 of stdout and the exit code, recorded before the handlers moved to
# one shared report envelope; a report may change only on purpose
GOLDEN_REPORTS = [
    (("validate", "SWAP", "--format", "json"), 0,
     "3ea4eacd3cb76c808c2e002378f4c76c5942b8c95410549de3b5b7b6c90431f1"),
    (("sharp", "SWAP", "--format", "json"), 0,
     "c880673a210b8e66339d67735cf287e298379a2024c3ec811b351105620e1147"),
    (("packet-group", "SWAP", "--format", "json"), 0,
     "dd4cf07a9476b6f24d03d9f94c709864177e0d6017314068e78acc1853dd947a"),
    (("oracle-check", "SWAP", "--level", "2", "--format", "json"), 0,
     "16fd307fead33970008aac9fba35ca4f012891b879dfb03263db7ddade168ea6"),
    (("validate", "SWAP", "--format", "text"), 0,
     "58a6a1f5ab8e3062b7b1458ab61606248ec2842faff6582ea23411d11226267e"),
    (("sharp", "SWAP", "--format", "text"), 0,
     "8953dfae773d4a1fc6faefab76f8f9f84e015bfca5a1470732b5addda187295a"),
    (("packet-group", "SWAP", "--format", "text"), 0,
     "ebc78331b0a4442b4da1826246266e4d6a4040b6fd0348bb0201d95a547f9a2c"),
    (("oracle-check", "SWAP", "--level", "2", "--format", "text"), 0,
     "beb6baecfe69cc93658cc7362eb6e86a33e91289751e3a5d9b64b170473567a4"),
    (("packet-group", "SWAP", "--level", "1", "--max-level", "2"), 3,
     "9e78dcb863cad006262ab538c075c8f5448c41398839b1caadeb5a77158c0f73"),
    (("validate", "SWAP", "--cap", "0"), 2,
     "30784b70ddf5508f9af6ec9d3bbefb55009ac6366c94dc9e910edaa52d42274e"),
    (("cohomology", "MODULE"), 0,
     "9229ac5fb985ab753d95bd6980f706f3c686b4f6e228f717880aa9d498498314"),
    (README_HILBERT, 0,
     "f07057d1791841350184eb80ea9a8b3543310c4fc4e6927850658955e74fd1de"),
    (README_COMMUTATOR, 0,
     "ac200abd1a509557c538a8d72314760630d24885041a29eaa7b2bb9295439a6b"),
    # every bundled config and RAMIFIED_CYCLE3 at levels 1 and 2, recorded
    # before the datum's level-free lattices and Smith data were kept on it
    (("oracle-check", "minus_one_r2_q5_n4", "--level", "1", "--format", "json"), 0,
     "2773676ac0b6fc2c606968686669808283dc54b0ae737c5b47d35913fef52d60"),
    (("oracle-check", "minus_one_r2_q5_n4", "--level", "2", "--format", "json"), 0,
     "257d50e9949778111d3eb49e8230d1bdb868b054844178895045a0b843ffac1d"),
    (("oracle-check", "ramified_r1_q7_n3", "--level", "1", "--format", "json"), 0,
     "3f6503ae308a0488247064acea45f88b14ad1787e20357a904bfb70e95a35b4f"),
    (("oracle-check", "ramified_r1_q7_n3", "--level", "2", "--format", "json"), 0,
     "0fa02e8d59455f36761a3de5bc3be0d8b86505805da034843c44eebdbcc22ba8"),
    (("oracle-check", "rot4_r2_q5_n4", "--level", "1", "--format", "json"), 0,
     "f9c8674ba55b44d00dead04315599fcb0ee5a7a38c2e09fe20c8cd8170986f24"),
    (("oracle-check", "rot4_r2_q5_n4", "--level", "2", "--format", "json"), 0,
     "dd57b557e23c8728a5c63149b8de3640877ede932b10d639061688c92acfa415"),
    (("oracle-check", "s3_ramified_q7_n2", "--level", "1", "--format", "json"), 0,
     "08504ccd2a0f559e34d5afaa09b8c943dca4f691abaae35de7a91439b3d6dbcf"),
    (("oracle-check", "s3_ramified_q7_n2", "--level", "2", "--format", "json"), 0,
     "2bfd0cd65fa0d253e3cdcae29c08b59b30b11817becab82164ae9c45e4175b81"),
    (("oracle-check", "split_r2_q5_n4", "--level", "1", "--format", "json"), 0,
     "42b1beff0a00bf94e5a185a5019ae8e5626c5fe7d84d6a5d7746e76b0426642d"),
    (("oracle-check", "split_r2_q5_n4", "--level", "2", "--format", "json"), 0,
     "76ad1d7eb79d57310c24c2ea1c9d8dc86cef0cb79d68c36118b7b458beaff47a"),
    (("oracle-check", "swap_q3_n2", "--level", "1", "--format", "json"), 0,
     "126f55359d9b9edcfed5b2f847162cb94dd50371e2e9cc797d65c4f3dede7c0c"),
    (("oracle-check", "CYCLE3", "--level", "1", "--format", "json"), 0,
     "be13749fe0c5c41b559e0efcfbe1f639a85ab36d29acd1c23abf2b6a424e980d"),
    (("oracle-check", "CYCLE3", "--level", "2", "--format", "json"), 0,
     "6352e33ff1d31ead2bbe3e3abb940f55f590905155f8c422ece94f397f8b1ab7"),
]


@pytest.mark.parametrize("argv, exit_code, sha256", GOLDEN_REPORTS,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN_REPORTS])
def test_golden_report_bytes(capsys, tmp_path, argv, exit_code, sha256):
    module = tmp_path / "module.json"
    module.write_text(json.dumps(README_MODULE))
    cycle3 = tmp_path / "cycle3.json"
    cycle3.write_text(json.dumps(RAMIFIED_CYCLE3))
    paths = {p.stem: str(p) for p in CONFIG_DIR.glob("*.json")}
    paths |= {"SWAP": paths["swap_q3_n2"], "MODULE": str(module), "CYCLE3": str(cycle3)}
    code, out = run_cli(capsys, *(paths.get(a, a) for a in argv))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, sha256)


def test_main_builds_no_parser(capsys, monkeypatch):
    # the parser is built once, at import; main only parses with it
    def refuse(*args, **kwargs):
        raise AssertionError("main built an ArgumentParser")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    code, out = run_cli(capsys, *README_HILBERT)
    assert code == 0 and json.loads(out)["results"]["value"] == 2
    with pytest.raises(SystemExit) as usage:
        main(["validate"])
    assert usage.value.code == 2
    capsys.readouterr()
    code, out = run_cli(capsys, *README_HILBERT)
    assert code == 0 and json.loads(out)["results"]["value"] == 2
