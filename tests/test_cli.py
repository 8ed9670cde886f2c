import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from cubicalc.cli import run


def test_derive_example(capsys):
    assert run(["derive", "--expr", "f(x)=x^2", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "(v0^2, 2*v0*v1 + t1*v1^2, t1)"


def test_derive_alpha_and_json(capsys):
    assert run(["derive", "--expr", "f(x)=x^2", "--N", "1,2", "--alpha", "2",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == [2]
    assert payload["inputs"] == ["v0", "v2", "t1", "t2", "t12"]


def test_eval_slope_examples(capsys):
    assert run(["eval", "--expr", "f(x)=x^2", "--order", "1", "--point", "1",
                "--v", "1", "--t", "1"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert run(["eval", "--expr", "f(x)=x^2", "--order", "1", "--point", "1",
                "--v", "1", "--t", "0"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_eval_closed_n2(capsys):
    assert run(["eval", "--expr", "f(x)=x^2", "--order", "2", "--point", "0",
                "--v", "2,3,0", "--t", "1,1"]) == 0
    assert capsys.readouterr().out.strip() == "12"  # 2 v1 v2


def test_eval_digits(capsys):
    assert run(["eval", "--expr", "f(x)=x^2", "--order", "1", "--point", "1/2",
                "--v", "1", "--t", "0", "--digits", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1.000"


def test_eval_closed_non_unit_exits_2(capsys):
    assert run(["eval", "--expr", "f(x)=x^2", "--order", "2", "--point", "0",
                "--v", "1,1,0", "--t", "0,1", "--mode", "closed"]) == 2


def test_parse_error_exit_2(capsys):
    assert run(["slope", "--expr", "f(x) = 1/x"]) == 2
    assert "non-polynomial" in capsys.readouterr().err


def test_table_vertex_bytes(capsys):
    assert run(["table", "--construction", "gfull", "--N", "1,2",
                "--what", "vertex"]) == 0
    out = capsys.readouterr().out
    assert "(v0,v2,t1,t2,t12)" in out
    assert "U^{2} x_{0^{2}} 0^{12}" in out


def test_table_edge_row(capsys):
    assert run(["table", "--construction", "scaleoid", "--N", "1,2",
                "--what", "edge", "--edge", "1>12"]) == 0
    out = capsys.readouterr().out
    assert "pi(t1,t2,t12) = (t1 + t2*t12, t2)" in out


def test_check_gsy_exit_codes(capsys):
    assert run(["check", "--construction", "gsy", "--n", "2", "--t", "1,1",
                "--seed", "7", "--samples", "20"]) == 0
    out = capsys.readouterr().out
    assert "all pass" in out


def test_check_json_roundtrip(capsys):
    assert run(["check", "--construction", "pg", "--n", "1", "--seed", "3",
                "--samples", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(r["status"] == "pass" for r in payload["reports"])
    for r in payload["reports"]:
        assert {"law", "location", "status", "samples", "seed"} <= set(r)


def test_check_goverline(capsys):
    assert run(["check", "--construction", "goverline", "--n", "1",
                "--samples", "10"]) == 0


def test_stdin_file(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("f(x) = x^3"))
    assert run(["slope", "--file", "-"]) == 0
    assert "3*x^2" in capsys.readouterr().out


def test_mod_ring_cli(capsys):
    assert run(["eval", "--expr", "f(x)=x^2", "--order", "1", "--point", "1",
                "--v", "1", "--t", "1", "--ring", "mod:5"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def _usage_error(capsys, argv) -> str:
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_check_rejects_no_samples(capsys):
    for samples in ("0", "-3"):
        err = _usage_error(capsys, ["check", "--construction", "gsy", "--n", "1",
                                    "--samples", samples])
        assert "--samples" in err


def test_checkers_reject_no_samples():
    from cubicalc.checks import (check_edge_category, check_face,
                                 check_morphism, check_presentation)
    from cubicalc.constructions import pair_groupoid

    p = pair_groupoid(2)
    edge = next(iter(p.edges))
    face = next(iter(p.faces))
    for call in (lambda: check_presentation(p, samples=0),
                 lambda: check_edge_category(p, edge, samples=0),
                 lambda: check_face(p, face, samples=-1),
                 lambda: check_morphism(p, p, {}, samples=0)):
        with pytest.raises(ValueError, match="samples"):
            call()


def test_derive_alpha_outside_directions(capsys):
    err = _usage_error(capsys, ["derive", "--expr", "f(x)=x^3", "--N", "1,2",
                                "--alpha", "5"])
    assert "--alpha" in err


def test_derive_and_check_reject_n_zero(capsys):
    assert "--n" in _usage_error(capsys, ["derive", "--expr", "f(x)=x^2",
                                          "--n", "0"])
    assert "--n" in _usage_error(capsys, ["check", "--construction", "gsy",
                                          "--n", "0"])


def test_table_rejects_repeated_directions(capsys):
    assert "--N" in _usage_error(capsys, ["table", "--construction", "gfull",
                                          "--N", "1,1"])
    assert "--N" in _usage_error(capsys, ["derive", "--expr", "f(x)=x^2",
                                          "--N", "2,2"])


def test_exponent_above_the_bound_is_a_parse_error(capsys, monkeypatch):
    from cubicalc.polymap import Poly

    def no_power(self, k):
        raise AssertionError("the power must not be built")

    monkeypatch.setattr(Poly, "__pow__", no_power)
    err = _usage_error(capsys, ["slope", "--expr", "f(x)=x^99999999999"])
    assert "exponent 99999999999 exceeds the maximum 64" in err
    assert "column 8" in err
    for exponent in ("65", "0065", "9" * 5000):
        err = _usage_error(capsys, ["slope", "--expr", f"f(x)=x^{exponent}"])
        assert "exceeds the maximum 64 at line 1, column 8" in err


def test_exponent_at_the_bound_parses():
    from cubicalc.parser import MAX_EXPONENT, parse

    f = parse(f"f(x) = x^{MAX_EXPONENT}")
    assert f.eval([2]) == [2 ** MAX_EXPONENT]
    assert parse("f(x) = x^0064 + x^00") == f.add(parse("f(x) = 1"))


def test_exponent_above_one_byte_prints_as_before(capsys):
    """A literal exponent stops at 64, but (x^64)^5 reaches x^320, which
    needs wider exponent fields: the requests print what they printed when
    every term had an exponent tuple (tests/cli_wide_exponent.json)."""
    expected = json.loads(
        (Path(__file__).parent / "cli_wide_exponent.json").read_text())
    for request in expected["requests"]:
        assert run(request["argv"]) == request["exit"]
        assert capsys.readouterr().out == request["stdout"]


def test_internal_error_exits_3(capsys, monkeypatch):
    import cubicalc.cli
    from cubicalc.polymap import ExactDivisionError

    def broken_slope(f):
        raise ExactDivisionError("monomial (1, 0) not divisible by variable 1")

    monkeypatch.setattr(cubicalc.cli, "slope", broken_slope)
    assert run(["slope", "--expr", "f(x) = x^2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: monomial (1, 0)")
    assert "Traceback" not in captured.err


def test_requests_in_one_process_share_the_parser(capsys):
    from cubicalc.cli import _parser

    argv = ["check", "--construction", "pg", "--n", "1", "--samples", "3"]
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run(["check", "--n", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: cubicalc check")
        assert captured.err.rstrip().endswith(
            "error: the following arguments are required: --construction")
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == "PG^1: 5 laws checked, all pass\n"
        assert captured.err == ""
    assert _parser() is _parser()


def test_check_rejects_dimension_above_bound(capsys):
    from cubicalc.hypercube import MAX_DIM

    err = _usage_error(capsys, ["check", "--construction", "pg",
                                "--n", str(MAX_DIM + 1)])
    assert f"dimension must be in 0..{MAX_DIM}, got {MAX_DIM + 1}" in err


def test_check_vdim_zero_on_every_construction(capsys):
    from cubicalc.cli import _CONSTRUCTIONS

    for kind in _CONSTRUCTIONS:
        assert run(["check", "--construction", kind, "--n", "2", "--vdim", "0",
                    "--samples", "3"]) == 0, kind
        assert capsys.readouterr().err == ""
    assert run(["check", "--construction", "gsy", "--n", "2", "--vdim", "0",
                "--s", "2,3", "--samples", "3"]) == 0
    assert capsys.readouterr().out.strip() == "Gsy^2_{1,1} with Phi_s: all pass"


def test_check_rejects_negative_vdim(capsys):
    for kind in ("pg", "gsy", "scaleoid"):
        err = _usage_error(capsys, ["check", "--construction", kind,
                                    "--vdim", "-1"])
        assert err == "error: --vdim must be at least 0, got -1"


def test_check_rejects_vdim_above_bound(capsys):
    from cubicalc.hypercube import MAX_DIM

    err = _usage_error(capsys, ["check", "--construction", "gsy",
                                "--vdim", str(MAX_DIM + 1)])
    assert err == f"error: --vdim must be between 0 and {MAX_DIM}, got {MAX_DIM + 1}"


_EVAL_5_3 = ["eval", "--expr", "f(x)=x^2", "--point", "1", "--v", "2",
             "--t", "1/3"]  # 16/3


def test_eval_digits_bounds(capsys):
    from cubicalc.cli import MAX_DIGITS

    for digits in ("-2", "-1", str(MAX_DIGITS + 1), "100000000"):
        err = _usage_error(capsys, _EVAL_5_3 + ["--digits", digits])
        assert err == f"error: --digits must be between 0 and {MAX_DIGITS}, got {digits}"
    assert run(_EVAL_5_3 + ["--digits", "0"]) == 0
    assert capsys.readouterr().out == "5\n"
    assert run(_EVAL_5_3 + ["--digits", str(MAX_DIGITS)]) == 0
    assert capsys.readouterr().out == "5." + "3" * MAX_DIGITS + "\n"


def test_eval_rejects_order_below_one(capsys):
    for order in ("0", "-1"):
        err = _usage_error(capsys, _EVAL_5_3 + ["--order", order])
        assert err == f"error: --order must be at least 1, got {order}"


def test_eval_rejects_order_above_bound(capsys):
    from cubicalc.hypercube import MAX_DIM

    err = _usage_error(capsys, _EVAL_5_3 + ["--order", str(MAX_DIM + 1)])
    assert err == f"error: --order must be between 1 and {MAX_DIM}, got {MAX_DIM + 1}"


def test_eval_counts_v_values_before_enumerating_subsets(capsys, monkeypatch):
    import cubicalc.cli
    from cubicalc.hypercube import MAX_DIM

    def no_subsets(*args, **kwargs):
        raise AssertionError("subsets enumerated before --v was counted")

    monkeypatch.setattr(cubicalc.cli, "subsets", no_subsets)
    err = _usage_error(capsys, ["eval", "--expr", "f(x)=x^2", "--point", "1",
                                "--order", str(MAX_DIM),
                                "--t", ",".join(["1"] * MAX_DIM)])
    assert err.startswith(f"error: --v needs {2 ** MAX_DIM - 1} values ")


def test_failing_scalar_action_check_prints_its_witness(capsys, monkeypatch):
    """Phi_{2s} is no morphism Gsy_{s.t} -> Gsy_t: the run exits 1 and
    prints the first failure with its witness, as a plain check does."""
    import cubicalc.cli
    from cubicalc.constructions import _scalar_action_maps, gsy_scalar_action

    def doubled(n, s, t, vdim, ring):
        src, dst, _ = gsy_scalar_action(n, s, t, vdim, ring)
        return src, dst, _scalar_action_maps(n, [2 * x for x in s], vdim, ring)

    monkeypatch.setattr(cubicalc.cli, "gsy_scalar_action", doubled)
    assert run(["check", "--construction", "gsy", "--n", "2", "--s", "1,3",
                "--samples", "3"]) == 1
    header, failure, *witness = capsys.readouterr().out.splitlines()
    assert header == "Gsy^2_{1,1} with Phi_s: FAILURES"
    assert failure.startswith("first failure: morphism-")
    assert json.loads("\n".join(witness))


_SRC = str(Path(__file__).resolve().parents[1] / "src")
_ADDRESS_LIMIT = 1500 * 10 ** 6  # bytes, set in the child only


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_LIMIT, _ADDRESS_LIMIT))


@pytest.mark.parametrize("scales", [["2"] * 8, ["0"] * 8,
                                    ["2", "0", "-1/3", "0"] * 2],
                         ids=["unit", "zero", "mixed"])
def test_eval_iterated_order_8_is_bounded(scales):
    """`eval --mode iterated --order 8` runs over A_t, with no symbolic
    slope: the child exits 0 within 1 s of CPU time (interpreter start-up
    included) under a 1.5 GB address-space limit.  CPU time, not wall
    time, so that a busy machine does not fail the test."""
    expr = "f(x,y) = (x^3*y + 2*x*y^2 - y^4, x^2 - 3/2*y^3)"
    v = ",".join(["1/2", "2", "-3/4", "3"][i % 4] for i in range(255 * 2))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        [sys.executable, "-m", "cubicalc.cli", "eval", "--expr", expr,
         "--order", "8", "--point", "1,-2", "--t", ",".join(scales),
         "--v", v, "--mode", "iterated"],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.split(",")) == 2
    assert cpu < 1.0, cpu
