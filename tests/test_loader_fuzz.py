"""Loader totality: any JSON-shaped input either loads or is rejected with
one ManifoldFormatError, never with another exception."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from slopenorm import ManifoldFormatError, from_document, to_document

SLOPES = ["4/1", "-4/1", "1/0", "0/1", "16/1", "7/3"]
BAD_SLOPES = ["2/4", "0/0", "4 / 1", "1.5", ""]
RATIONALS = ["1", "0", "-3", "12", "7/2", "1/4"]
BAD_RATIONALS = ["1/0", "1.5", "x", ""]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
any_json = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def shaped(strategy, odd=any_json):
    """Usually the expected shape, sometimes something else."""
    return st.integers(0, 5).flatmap(lambda k: strategy if k else odd)


slope = shaped(st.sampled_from(SLOPES), st.sampled_from(BAD_SLOPES) | any_json)
rational = shaped(st.sampled_from(RATIONALS) | st.integers(-5, 20), st.sampled_from(BAD_RATIONALS) | any_json)
flag = shaped(st.booleans())
small_int = shaped(st.integers(-6, 6))

cusp = st.fixed_dictionaries(
    {}, optional={"g_mm": rational, "g_ml": rational, "g_ll": rational, "maximal": flag}
)
term = st.fixed_dictionaries({}, optional={"slope": slope, "weight": small_int})
surface = st.fixed_dictionaries(
    {},
    optional={
        "slope": slope,
        "euler": small_int,
        "boundary_components": small_int,
        "strict": flag,
        "ideal_point": flag,
    },
)
document = st.fixed_dictionaries(
    {
        "name": shaped(st.just("m")),
        "boundary_slopes": shaped(st.lists(slope, min_size=1, max_size=4)),
    },
    optional={
        "cusp": shaped(cusp),
        "culler_shalen": shaped(st.fixed_dictionaries({"terms": shaped(st.lists(term, max_size=4))})),
        "surfaces": shaped(st.lists(surface, max_size=3)),
        "meridian_norm_certificate": small_int,
    },
)


@settings(max_examples=300, deadline=None)
@given(shaped(document))
def test_from_document_raises_only_format_errors(doc):
    try:
        m = from_document(json.loads(json.dumps(doc)))
    except ManifoldFormatError as exc:
        assert exc.problems
        return
    assert from_document(to_document(m)) == m
