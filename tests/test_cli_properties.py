"""Property test for the command line: every typed option of every
command, as a flag and through --config, either exits 2 leaving only
error.json in --out, or reaches the command's first piece of work with
the value its flag gives.

The first piece of work (reading the CSV, running the Monte Carlo study)
is replaced by a stand-in that stops the run, so no drawn value, however
large, starts work: --n 1000000000 would allocate about 40 GB and
--jobs 1000000 start as many processes."""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import tridiff.cli as cli
from tridiff.dgp import MIN_SAMPLE_SIZE

SCHEMA = json.dumps({
    "group": "group", "group_a_value": "a",
    "eligibility": "eligibility", "eligible_value": "2",
    "id": "id", "y1": "y1", "y2": "y2", "covariates": ["x"],
})

# the options whose text is converted or restricted, by command: "int",
# "float", "switch", "methods" or the tuple of choices
MECHANISMS = ("only-a", "both")
POLICIES = ("drop_row", "error")
SE_KINDS = ("hc1", "classical", "cluster")
OPTIONS = {
    "estimate": {"seed": "int", "jobs": "int", "bootstrap_reps": "int",
                 "trim": "float", "mechanism": MECHANISMS,
                 "missing_policy": POLICIES, "se": SE_KINDS,
                 "methods": "methods", "normalize_weights": "switch",
                 "dump_scores": "switch", "dump_nuisances": "switch"},
    "simulate": {"seed": "int", "jobs": "int", "n": "int",
                 "replications": "int", "bins": "int", "mu_a": "float",
                 "mu_b": "float", "trim": "float",
                 "case": ("constant", "heterogeneous"),
                 "mechanism": MECHANISMS, "normalize_weights": "switch"},
    "replicate": {"seed": "int", "jobs": "int", "bootstrap_reps": "int",
                  "se": SE_KINDS},
    "validate": {"mechanism": MECHANISMS, "missing_policy": POLICIES},
}
METHODS = ("dr", "naive", "bias", "ols-did-a", "ols-did-b", "ols-tdid",
           "or-did-a", "or-did-b", "or-wdid-b", "or-diffs")

# each command's flags that reach its first piece of work (the input
# files are never opened)
BASE = {"estimate": {"input": "panel.csv", "schema": SCHEMA},
        "simulate": {"n": "100", "replications": "3"},
        "replicate": {"input": "wage.csv"},
        "validate": {"input": "panel.csv", "schema": SCHEMA}}


class Reached(Exception):
    """Raised where a command would start work, with its options."""


def stand_in(*args, **kwargs):
    raise Reached(dict(vars(sys._getframe(1).f_locals["ns"])))


@pytest.fixture(scope="module", autouse=True)
def no_work():
    with pytest.MonkeyPatch.context() as patch:
        for name in ("load_csv", "load_replication_csv", "run_monte_carlo"):
            patch.setattr(cli, name, stand_in)
        yield


REFUSED = "exit 2 with only error.json"


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def outcome(args, out, dest):
    """The value of option dest that a run reached its work with, or
    REFUSED when it exited 2 leaving only error.json; any other end
    fails the test."""
    try:
        code = cli.main([str(a) for a in args] + ["--out", str(out)])
    except Reached as reached:
        result = reached.args[0][dest]
    else:
        assert code == 2
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]
        result = REFUSED
    for path in out.glob("*.json"):
        json.loads(path.read_text(encoding="utf-8"),
                   parse_constant=reject_constant)
    return result


def expected(command, dest, text):
    """What --dest=text gives: the value, or REFUSED."""
    kind = OPTIONS[command][dest]
    try:
        value = {"int": int, "float": float}.get(kind, str)(text)
    except ValueError:
        return REFUSED
    if kind == "methods":
        methods = [m.strip() for m in text.split(",") if m.strip()]
        ok = bool(methods) and set(methods) <= set(METHODS)
        return ",".join(methods) if ok else REFUSED
    if isinstance(kind, tuple):
        return value if value in kind else REFUSED
    valid = {
        "seed": value >= 0, "jobs": value >= 1, "bins": value >= 1,
        "replications": value >= 1,
        "trim": 0.0 <= value < 1.0, "n": value >= MIN_SAMPLE_SIZE,
        "mu_a": math.isfinite(value), "mu_b": math.isfinite(value),
        "bootstrap_reps": (value >= 2 or value == 0
                           and command == "estimate"),
    }.get(dest, True)
    return value if valid else REFUSED


def text_of(value):
    return value if isinstance(value, str) else json.dumps(value)


@st.composite
def options(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    return command, draw(st.sampled_from(sorted(OPTIONS[command])))


VALUES = st.one_of(
    st.none(), st.booleans(),
    st.integers(-3, 3), st.integers(-10**30, 10**30),
    st.floats(), st.sampled_from([0.5, -0.0, 1e300, 1e-300, 2.0, 1.7]),
    st.text(max_size=8),
    st.sampled_from(["dr", "dr, or-diffs", ",", "hc1", "both", "error",
                     "constant", "nan", "-inf", "1e3", "+5", "5_000", "0x10",
                     " 7 ", "true", "false", "null", "[1]"]),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["a"]), st.integers(0, 3), max_size=1))


@settings(max_examples=400, deadline=None)
@given(options(), VALUES, st.booleans(), st.booleans())
@example(("estimate", "normalize_weights"), "false", True, True)
@example(("estimate", "methods"), ["dr"], True, True)
@example(("estimate", "jobs"), 1.7, True, True)
@example(("estimate", "bootstrap_reps"), 2.9, True, True)
@example(("estimate", "seed"), "abc", True, True)
@example(("estimate", "se"), "bogus", True, True)
@example(("estimate", "trim"), 0, True, True)
@example(("simulate", "mu_a"), -1e5, False, True)
@example(("simulate", "n"), 10**9, True, False)
@example(("replicate", "bootstrap_reps"), 0, True, True)
@example(("replicate", "jobs"), 10**6, True, True)
def test_an_option_is_refused_or_reaches_the_work_as_its_flag_gives_it(
        option, value, two_tokens, dashed_key):
    command, dest = option
    kind = OPTIONS[command][dest]
    flag = "--" + dest.replace("_", "-")
    base = [command]
    for name, text in BASE[command].items():
        if name != dest:
            base += ["--" + name.replace("_", "-"), text]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        default = outcome(base, tmp / "default", dest)
        assert default is not REFUSED

        # the flag: a switch given or not, any other option as text
        if value is None:
            args, want = [], default
        elif kind == "switch" and isinstance(value, bool):
            args, want = [flag] if value else [], value
        elif kind == "switch":
            args, want = [f"{flag}={text_of(value)}"], REFUSED
        else:
            text = text_of(value)
            args = ([flag, text] if two_tokens and not text.startswith("-")
                    else [f"{flag}={text}"])
            want = expected(command, dest, text)
        assert outcome(base + args, tmp / "flag", dest) == want

        # --config: a switch takes true or false, any other option a
        # string or a number read as that text, and null keeps the default
        config = tmp / "config.json"
        key = dest.replace("_", "-") if dashed_key else dest
        config.write_text(json.dumps({key: value}))
        if value is None:
            want = default
        elif kind == "switch":
            want = value if isinstance(value, bool) else REFUSED
        elif isinstance(value, (bool, list, dict)):
            want = REFUSED
        else:
            want = expected(command, dest, str(value))
        assert outcome(base + ["--config", config], tmp / "config",
                       dest) == want
