"""CLI fuzz test: `check` and `eval` on small generated arguments keep the
exit-code contract (0, 1, 2 or 3) and never print a traceback.  Dimensions,
sample counts and digits stay small, and `eval` orders reach 6 in both modes
(iterated mode runs over A_t), so every request is quick."""
import contextlib
import io

from hypothesis import given, settings, strategies as st

from cubicalc.cli import _CONSTRUCTIONS, run

RINGS = st.sampled_from(["rational", "mod:2147483647"])
SCALARS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4"])
EXPRS = ["f(x)=x^2", "f(x)=x^3 - 2*x", "f(x,y)=(x*y, x^2 + 3/2*y)"]


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


def _assert_contract(argv):
    code, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


def _scalar_list(draw, count):
    return ",".join(draw(st.lists(SCALARS, min_size=count, max_size=count)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(_CONSTRUCTIONS),
       n=st.integers(-1, 2), vdim=st.integers(-1, 2),
       samples=st.integers(-1, 3), seed=st.integers(0, 5), ring=RINGS,
       fmt=st.sampled_from(["text", "json"]))
def test_fuzz_check(data, kind, n, vdim, samples, seed, ring, fmt):
    argv = ["check", "--construction", kind, "--n", str(n), "--vdim", str(vdim),
            "--samples", str(samples), "--seed", str(seed), "--ring", ring,
            "--format", fmt]
    if kind == "gsy" and data.draw(st.booleans()):
        argv += ["--t", _scalar_list(data.draw, data.draw(st.integers(1, 3)))]
    if kind == "gsy" and data.draw(st.booleans()):
        argv += ["--s", _scalar_list(data.draw, data.draw(st.integers(1, 3)))]
    _assert_contract(argv)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), expr=st.sampled_from(EXPRS), order=st.integers(-1, 6),
       digits=st.one_of(st.none(), st.integers(-3, 6)), ring=RINGS,
       mode=st.sampled_from(["closed", "iterated"]))
def test_fuzz_eval(data, expr, order, digits, ring, mode):
    arity = 2 if expr.startswith("f(x,y)") else 1
    v_count = max((2 ** max(order, 0) - 1) * arity, 0)
    v_count += data.draw(st.sampled_from([0, 0, 0, 1]))  # sometimes one too many
    argv = ["eval", "--expr", expr, "--order", str(order), "--mode", mode,
            "--ring", ring, "--point", _scalar_list(data.draw, arity),
            "--t", _scalar_list(data.draw, max(order, 1))]
    if v_count:
        argv += ["--v", _scalar_list(data.draw, v_count)]
    if digits is not None:
        argv += ["--digits", str(digits)]
    _assert_contract(argv)
