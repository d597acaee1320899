"""The front door under mutated configs: every input ends in exit 0, 1 or 2.

Each example takes one bundled fixture and applies one mutation to it:
a key deleted or renamed, a value swapped for one of another type, for a
huge integer, NaN, an infinity or -0.0, a value nested deeply, or an
unknown key added at any depth.  ``slln run`` then runs in-process on the
mutated file, once for the hypotheses and once for the simulation at a
horizon of 2,000 on one worker.  Exit 3 is an internal error, and exit 2
must come with exactly one JSON line on stderr, whose message names a
value without echoing it at any length.  The examples are
derandomized, so the suite stays reproducible.
"""

import copy
import json
import math
from importlib import resources

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slln_lab import cli

FIXTURES = {name: json.loads(resources.files("slln_lab").joinpath("configs", name).read_text())
            for name in ("theorem.json", "pure-x.json", "violate-sparsity.json", "violate-x-mean.json")}
LEAVES = ("x", "", True, False, None, [], {}, 0, 7, 1.5, -3)
SPECIAL = (10 ** 30, 10 ** 400, -10 ** 30, math.nan, math.inf, -math.inf, -0.0)
KEYS = st.text(max_size=6)


def _paths(node, path=()):
    """The path (a tuple of keys and indices) of every node under ``node``, itself first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutated_configs(draw):
    config = copy.deepcopy(FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))])
    paths = list(_paths(config))
    keyed = [p for p in paths if p and isinstance(_at(config, p[:-1]), dict)]
    mutation = draw(st.sampled_from(("delete", "rename", "leaf", "special", "nest", "unknown")))
    if mutation in ("delete", "rename"):
        path = draw(st.sampled_from(keyed))
        value = _at(config, path[:-1]).pop(path[-1])
        if mutation == "rename":
            _at(config, path[:-1])[draw(KEYS)] = value
        return config
    if mutation == "unknown":
        node = _at(config, draw(st.sampled_from([p for p in paths if isinstance(_at(config, p), dict)])))
        node[draw(KEYS)] = draw(st.sampled_from(LEAVES))
        return config
    path = draw(st.sampled_from(paths))
    if mutation == "leaf":
        value = draw(st.sampled_from(LEAVES))
    elif mutation == "special":
        value = draw(st.sampled_from(SPECIAL))
    else:
        value = _at(config, path)
        for _ in range(draw(st.integers(2, 300))):
            value = [value] if draw(st.booleans()) else {"k": value}
    if not path:
        return value
    _at(config, path[:-1])[path[-1]] = value
    return config


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(config=mutated_configs())
def test_mutated_fixture_exits_0_1_or_2(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    for flags in (("--subcommand", "hypotheses"), ("--subcommand", "simulate", "--horizon", "2000")):
        code = cli.main(["run", str(cfg), *flags, "--threads", "1", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), err
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1
            error = json.loads(lines[0])
            assert set(error) == {"error", "message"}
            assert len(error["message"]) < 300  # a value is named, not echoed at any length
