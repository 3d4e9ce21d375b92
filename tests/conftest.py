"""Shared fixtures: the two bundled designs and an independent moment oracle.

``direct_moments`` recomputes every combined design moment by plain
summation over the raw published rows, bypassing the package's data model
entirely.  Tests freeze expected values computed this way so that the
library is always checked against an independent evaluation path.

Every test session gets its own empty ``XDG_CACHE_HOME``, so the microdata
rows cache of the tests, and of the CLI processes they start, never writes
under the user's home.
"""

import math

import pytest

import stratmean as sm

# raw rows as published: (index, N, n, mean_x, mean_y, var_x, var_y, rho)
RAW_DS1 = (
    (1, 6, 3, 366.666, 135.0, 2706.666, 80.0, 0.9455626),
    (2, 12, 4, 310.883, 99.166, 1881.06, 226.515, 0.948196),
    (3, 7, 3, 317.143, 80.714, 2890.476, 120.238, 0.7523324),
)
DS1_KNOWN_MEAN_X = 326.0

# raw rows as published: (index, N, n, mean_x, var_x, var_y, cov_xy)
RAW_DS2 = (
    (1, 985, 6, 11253.0, 15.97, 74775.47, 1007.75),
    (2, 2196, 8, 25115.0, 132.66, 259113.7, 5709.16),
    (3, 1020, 11, 18870.0, 38.44, 65885.6, 1404.71),
)
DS2_RATIO = 49.03


def direct_moments(rows, known_mean_x=None, mean_y_scale=None):
    """Combined design moments by direct summation (the test-side oracle)."""
    N = sum(r[1] for r in rows)
    mean_y = mean_x = vy = vx = vxy = 0.0
    for row in rows:
        if len(row) == 8:
            idx, Nh, nh, mx, my, varx, vary, rho = row
            cov = rho * math.sqrt(varx) * math.sqrt(vary)
        else:
            idx, Nh, nh, mx, varx, vary, cov = row
            my = mean_y_scale * mx
        w = Nh / N
        g = 1.0 / nh - 1.0 / Nh
        mean_y += w * my
        mean_x += w * mx
        vy += w * w * g * vary
        vx += w * w * g * varx
        vxy += w * w * g * cov
    if known_mean_x is not None:
        mean_x = known_mean_x
    return {
        "mean_y": mean_y,
        "mean_x": mean_x,
        "ratio": mean_y / mean_x,
        "var_ybar": vy,
        "var_xbar": vx,
        "cov_xybar": vxy,
    }


@pytest.fixture(scope="session", autouse=True)
def _session_cache_home(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(scope="session")
def ds1():
    return sm.get_dataset("paper-1")


@pytest.fixture(scope="session")
def ds2():
    return sm.get_dataset("paper-2")


@pytest.fixture(scope="session")
def m1(ds1):
    return sm.aggregate_moments(ds1)


@pytest.fixture(scope="session")
def m2(ds2):
    return sm.aggregate_moments(ds2)


@pytest.fixture(scope="session")
def oracle1():
    return direct_moments(RAW_DS1, known_mean_x=DS1_KNOWN_MEAN_X)


@pytest.fixture(scope="session")
def oracle2():
    return direct_moments(RAW_DS2, mean_y_scale=DS2_RATIO)
