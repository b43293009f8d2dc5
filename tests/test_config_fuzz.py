"""Property test of the config contract: any JSON object whose keys come
from a mode's schema either validates or raises ConfigError (exit 2),
never another exception."""

from hypothesis import given, settings
from hypothesis import strategies as st

from langscape.harness.config import SCHEMAS, ConfigError, validate_config

# JSON integers are unbounded: 10**400 is valid JSON but no float
_SCALARS = (st.none() | st.booleans()
            | st.integers(min_value=-10**400, max_value=10**400)
            | st.integers(min_value=-3, max_value=300) | st.floats()
            | st.sampled_from(["identity", "c02_census", "c99", ""]))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_validate_config_accepts_or_raises_config_error(data):
    mode = data.draw(st.sampled_from(sorted(SCHEMAS)))
    raw = data.draw(st.dictionaries(st.sampled_from(sorted(SCHEMAS[mode])),
                                    _JSON))
    try:
        cfg = validate_config(mode, raw)
    except ConfigError:
        return
    assert set(cfg.params) == set(SCHEMAS[mode])
