"""Property tests of the configuration boundary.

Every valid ExperimentConfig survives emit_config -> parse_config unchanged,
every out-of-range value of a field, given as text the way a config file or a
flag gives it, is rejected with ConfigError and nothing else, and so is every
value of the wrong type given to ExperimentConfig itself.
"""

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import emit_config  # noqa: E402
from coopcdma import cli  # noqa: E402
from coopcdma.errors import ConfigError  # noqa: E402
from coopcdma.harness import SCHEMES, VARIANTS, ExperimentConfig  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, database=None)

# SNRs whose noise variance 10^(-snr/10) is a finite positive float, and the
# finite ones beyond them, where it overflows or underflows
snr_db = st.floats(min_value=-3000.0, max_value=3000.0)
snr_db_unrepresentable = (st.floats(min_value=3100.0, allow_infinity=False)
                          | st.floats(max_value=-3100.0, allow_infinity=False))
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def valid_configs(draw):
    packet_len = draw(st.integers(2, 10**6))
    return ExperimentConfig(
        users=draw(st.integers(1, 64)), chips=draw(st.integers(1, 64)),
        paths=draw(st.integers(1, 8)), relays=draw(st.integers(0, 8)),
        packet_len=packet_len,
        training_len=draw(st.integers(1, packet_len - 1)),
        trials=draw(st.integers(1, 10**4)),
        snr_grid=tuple(draw(st.lists(snr_db, min_size=1, max_size=6))),
        scheme=draw(st.sampled_from(SCHEMES)),
        variant=draw(st.sampled_from(VARIANTS)),
        alpha=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
        lam=draw(non_negative), lam_t=draw(non_negative),
        seed=draw(st.integers(0, 2**63)),
        shadowing_std_db=draw(non_negative), isi=draw(st.booleans()),
        delta=draw(positive), mmse_iters=draw(st.integers(1, 10**4)),
        mmse_tol=draw(positive))


@SETTINGS
@given(valid_configs())
def test_emit_then_parse_is_identity(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("cfg") / "echo.cfg"
    path.write_text(emit_config(cfg))
    assert cli.parse_config(str(path)) == cfg


def as_text(values):
    return values.map(lambda v: ",".join(repr(float(x)) for x in v)
                      if isinstance(v, tuple) else repr(v))


non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])
# counts past the 32-bit index limit, 2**70 among them
too_many = st.integers(min_value=2**31) | st.just(2**70)
bad_count = st.integers(max_value=0) | too_many

OUT_OF_RANGE = {
    "users": bad_count, "chips": bad_count, "paths": bad_count,
    "mmse_iters": bad_count, "trials": bad_count, "training_len": bad_count,
    "relays": st.integers(max_value=-1) | too_many,
    "seed": st.integers(max_value=-1),
    # at most the default training_len, or too many
    "packet_len": st.integers(max_value=200) | too_many,
    "alpha": st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True)
    | non_finite,
    "lam": st.floats(max_value=0.0, exclude_max=True) | non_finite,
    "lam_t": st.floats(max_value=0.0, exclude_max=True) | non_finite,
    "delta": st.floats(max_value=0.0) | non_finite,
    "mmse_tol": st.floats(max_value=0.0) | non_finite,
    "shadowing_std_db": st.floats(max_value=0.0, exclude_max=True) | non_finite,
    "snr_grid": st.lists(snr_db, max_size=3).flatmap(
        lambda ok: st.tuples(*map(st.just, ok),
                             non_finite | snr_db_unrepresentable)),
}


@SETTINGS
@given(st.sampled_from(sorted(OUT_OF_RANGE)).flatmap(
    lambda key: st.tuples(st.just(key), as_text(OUT_OF_RANGE[key]))))
def test_out_of_range_values_raise_config_error(case):
    key, text = case
    with pytest.raises(ConfigError, match=key):
        cli.parse_config(overrides={key: text})


@SETTINGS
@given(st.sampled_from(sorted(cli.KNOWN_KEYS)), st.text(max_size=12))
def test_arbitrary_text_raises_only_config_error(key, text):
    try:
        cli.parse_config(overrides={key: text})
    except ConfigError:
        pass


# for each field type, values of another type: a float for an int, a str, a
# bool for a number, None, and a scalar or non-numeric grid
_WRONG_TYPES = {
    int: st.floats() | st.text() | st.booleans() | st.none(),
    float: st.text() | st.booleans() | st.none(),
    bool: st.integers() | st.floats() | st.text() | st.none(),
    str: st.integers() | st.floats() | st.booleans() | st.none(),
    tuple: st.floats() | st.integers() | st.booleans() | st.none()
    | st.text(min_size=1)
    | st.lists(st.text() | st.booleans() | st.none(), min_size=1),
}
FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


@pytest.mark.parametrize("key", sorted(FIELDS))
@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_wrong_types_raise_config_error_naming_the_field(key, data):
    value = data.draw(_WRONG_TYPES[type(FIELDS[key].default)])
    with pytest.raises(ConfigError, match=f"^{key}: expected "):
        ExperimentConfig(**{key: value})
