import math

import pytest


def _interval_ends(interval: str, kind: type) -> list[tuple[object, bool]]:
    """(value, accepted) at each finite end of an interval such as "[1, inf)":
    the kind's value just outside, rejected, and the end itself where closed,
    accepted."""
    low, high = (float(end) for end in interval[1:-1].split(", "))
    cases = []
    for end, closed, outward in ((low, interval[0] == "[", -1), (high, interval[-1] == "]", 1)):
        if math.isinf(end):
            continue
        if not closed:
            outside = kind(end)
        elif kind is int:
            outside = int(end) + outward
        else:
            outside = math.nextafter(end, outward * math.inf)
        cases.append((outside, False))
        if closed:
            cases.append((kind(end), True))
    return cases


@pytest.fixture
def interval_ends():
    return _interval_ends
