import copy
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from capillary1d.config import DEFAULT_CONFIG, ConfigError, load_config, resolve_config

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
REFERENCE = next(p for p in CONFIGS if p.name == "reference.json")

LEAVES = [(key,) for key, value in DEFAULT_CONFIG.items() if not isinstance(value, dict)] + [
    (section, key) for section, value in DEFAULT_CONFIG.items() if isinstance(value, dict)
    for key in value]

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(min_value=-3, max_value=70), st.floats()), max_size=3),
    st.just({}),
)


# the only leaves that take JSON booleans, and the only ones that keep strings
# once resolved (entropy_anchor's "auto" becomes a number)
BOOLEAN_LEAVES = {("diagnostics", "holder_probe"), ("diagnostics", "track_entropy"),
                  ("diagnostics", "track_weak_residual")}
STRING_LEAVES = {("model", "pressure_mode"), ("model", "mobility_mode"),
                 ("integrator", "method"), ("initial_data", "kind")}


def _paths_of(node, kind, path=()):
    # paths of every value of type kind in a resolved config, list items under their list's path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths_of(value, kind, path + (key,))
    elif isinstance(node, list):
        for value in node:
            yield from _paths_of(value, kind, path)
    elif isinstance(node, kind):
        yield path


def _with_leaf(path: Path, leaf: tuple, value) -> dict:
    cfg = load_config(str(path))
    if len(leaf) == 1:
        cfg[leaf[0]] = value
    else:
        cfg.setdefault(leaf[0], {})[leaf[1]] = copy.deepcopy(value)
    return cfg


def test_leaves_cover_default_config():
    assert len(LEAVES) == 24
    assert ("initial_data", "parameters") in LEAVES and ("schema_version",) in LEAVES


# out-of-range sizes that once escaped as MemoryError or OverflowError
@example(REFERENCE, ("domain", "N"), 3.03e16)
@example(REFERENCE, ("domain", "oversample"), 1.14e16)
@example(REFERENCE, ("integrator", "snapshots"), 1.52e16)
@example(REFERENCE, ("domain", "l"), 1.98e-294)
@example(REFERENCE, ("domain", "oversample"), 1.25e287)
# booleans that once passed as 1.0 and 0.0, and diagnostics leaves that were never checked
@example(REFERENCE, ("schema_version",), True)
@example(REFERENCE, ("domain", "l"), True)
@example(REFERENCE, ("model", "n"), True)
@example(REFERENCE, ("model", "delta"), False)
@example(REFERENCE, ("model", "epsilon"), True)
@example(REFERENCE, ("model", "eta"), False)
@example(REFERENCE, ("model", "entropy_anchor"), True)
@example(REFERENCE, ("integrator", "rtol"), True)
@example(REFERENCE, ("integrator", "atol"), True)
@example(REFERENCE, ("integrator", "dt"), True)
@example(REFERENCE, ("integrator", "T"), True)
@example(REFERENCE, ("initial_data", "parameters"), {"base": True})
@example(REFERENCE, ("initial_data", "parameters"), {"amplitude": False})
@example(REFERENCE, ("diagnostics", "tol_zero"), True)
@example(REFERENCE, ("diagnostics", "tol_zero"), "x")
@example(REFERENCE, ("diagnostics", "tol_zero"), float("nan"))
@example(REFERENCE, ("diagnostics", "r_values"), "ab")
@example(REFERENCE, ("diagnostics", "r_values"), [float("nan")])
@example(REFERENCE, ("diagnostics", "r_values"), [True])
@example(REFERENCE, ("initial_data",), {"kind": "coeffs", "parameters": {"values": [1.0, True]}})
# numeric strings, which float() parses, once ran with their numbers and stayed strings
@example(REFERENCE, ("model", "delta"), "0.1")
@example(REFERENCE, ("integrator", "T"), " 2e-2 ")
@example(REFERENCE, ("domain", "N"), "8")
@example(REFERENCE, ("diagnostics", "r_values"), ["1.5"])
# a scalar where the coefficient list belongs once escaped as an IndexError
@example(REFERENCE, ("initial_data",), {"kind": "coeffs", "parameters": {"values": 3}})
@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(CONFIGS), st.sampled_from(LEAVES), VALUES)
def test_resolve_config_refuses_or_reaches_a_fixed_point(path, leaf, value):
    # every input is either a ConfigError or a config that re-resolves to
    # itself, with booleans and strings only where the schema takes them
    try:
        resolved = resolve_config(_with_leaf(path, leaf, value)).resolved
    except ConfigError:
        return
    assert resolve_config(resolved).resolved == resolved
    assert set(_paths_of(resolved, bool)) <= BOOLEAN_LEAVES
    assert set(_paths_of(resolved, str)) <= STRING_LEAVES
