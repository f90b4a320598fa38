"""The numeric domain checks that every module calls."""

import math

import pytest

from eddykit import ParameterError
from eddykit.errors import integer, nonnegative, positive

BAD_FOR_ALL = [None, "abc", math.nan, math.inf, -math.inf, -1]


@pytest.mark.parametrize("value, expected", [
    *[(v, {"positive": None, "nonnegative": None, "integer": None}) for v in BAD_FOR_ALL],
    (0, {"positive": None, "nonnegative": 0.0, "integer": None}),
    (2.5, {"positive": 2.5, "nonnegative": 2.5, "integer": None}),
    (3.0, {"positive": 3.0, "nonnegative": 3.0, "integer": 3}),
])
def test_numeric_checks(value, expected):
    checks = {"positive": lambda v: positive("x", v),
              "nonnegative": lambda v: nonnegative("x", v),
              "integer": lambda v: integer("x", v, 1)}
    for check, want in expected.items():
        if want is None:
            with pytest.raises(ParameterError, match=f"^x must be .*, got {value!r}$"):
                checks[check](value)
        else:
            got = checks[check](value)
            assert got == want and type(got) is type(want)
