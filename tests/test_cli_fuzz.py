"""Fuzz gate: no input file or argument list gets a traceback out of main.

Valid state and canonical-form files are mutated at random (a value
replaced, a list entry or key dropped, a list entry repeated) and handed
with random argument lists to canonicalize, equiv and symmetry-map.
main must return one of the documented exit codes, 0 to 5, and an error
exit prints one line to standard error.  --help, which leaves through
SystemExit with code 0, is not drawn.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings, strategies as st

from sloccanon.cli import main

STATE = {"L": 3, "N": 2, "gammas": [
    [["1", "0"], ["0", "1"]], [["1", "1"], ["0", "1"]],
    [["2", "3"], ["0", "2"]]]}
DEFICIENT = {"L": 2, "N": 3, "gammas": [
    [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
    [["5", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]]]}
PLAIN = {"blocks": [{"lambda": "1", "size": 2, "coeffs": ["2", "3"]},
                    {"lambda": "3", "size": 1, "coeffs": ["5"]}]}
GRID = {"blocks": [{"lambda": "0", "sizes": [2, 1],
                    "grid": [[["1", "2"], ["7", "0"]],
                             [["0", "4"], ["5", "0"]]]},
                   {"lambda": "2", "size": 1, "coeffs": ["1"]}]}

JUNK = st.one_of(
    st.integers(-3, 3), st.sampled_from([2.5, -1.0, 1e9, 10 ** 12]),
    st.sampled_from(["0", "1/2", "-1", "0-1i", {"re": "1", "im": "2"},
                     {"x": "1"}, "x", "", "1/0", " 2", "2.5"]),
    st.booleans(), st.none(), st.just([]), st.just({}), st.just([["0"]]))


def _paths(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _paths(v, path + (i,))


@st.composite
def mutated(draw, bases):
    obj = copy.deepcopy(draw(bases))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        if not path:
            obj = copy.deepcopy(draw(JUNK))
            continue
        *head, last = path
        parent = obj
        for key in head:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "drop", "repeat"]))
        if action == "replace":
            parent[last] = copy.deepcopy(draw(JUNK))
        elif action == "drop":
            del parent[last]
        elif isinstance(parent, list):
            parent.insert(last, copy.deepcopy(parent[last]))
    return obj


# the files each command takes; a drawn list replaces them at times
FILES = {"canonicalize": ["state"], "equiv": ["canon1", "canon2"],
         "symmetry-map": ["canon1"]}
FLAGS = ["--json", "--hints", "--z1", "--z2", "--z3", "--d2", "--d3",
         "--z2=-1/2", "--d3=0", "--seed", "-o", "--bogus", "-1/2", "1/2",
         "0", "x", "3"]


# one grid row for two blocks: once an IndexError out of block_data
ONE_ROW = {"blocks": [{"lambda": "0", "sizes": [2, 1],
                       "grid": [[["1", "2"], ["0", "3"]]]}]}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["canonicalize", "equiv", "symmetry-map"]),
       mutated(st.sampled_from([STATE, DEFICIENT])),
       mutated(st.sampled_from([PLAIN, GRID])),
       mutated(st.sampled_from([PLAIN, GRID])),
       st.one_of(st.none(), st.lists(st.sampled_from(
           ["state", "canon1", "canon2", "missing", "broken"]), max_size=3)),
       st.lists(st.sampled_from(FLAGS), max_size=3),
       st.booleans())
@example("equiv", STATE, ONE_ROW, ONE_ROW, None, [], True)
@example("symmetry-map", STATE, ONE_ROW, PLAIN, None, ["--z1", "1"], True)
def test_cli_returns_a_documented_code(command, state, canon1, canon2,
                                       files, flags, files_first):
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a stray -o argument writes here
        try:
            for name, obj in (("state", state), ("canon1", canon1),
                              ("canon2", canon2)):
                with open(f"{name}.json", "w") as fh:
                    json.dump(obj, fh)
            with open("broken.json", "w") as fh:
                fh.write('{"blocks": [')
            paths = [os.path.join(tmp, f"{f}.json")
                     for f in files or FILES[command]]
            argv = [command] + (paths + flags if files_first
                                else flags + paths)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(old)
    assert code in range(6), (argv, code)
    if code >= 3:  # an error exit; 1 and 2 are verdicts as well
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
