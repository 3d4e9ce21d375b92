"""Bundled example designs from the survey-sampling literature.

``paper-1`` is the cane-juice study of Singh and Mangat (1996): three
strata, y = juice quantity, x = weight of cane, with stratum correlations
given and the auxiliary population mean known to be 326.

``paper-2`` is the orchard pilot survey of Singh and Chaudhary (1986,
p. 162): three U.P. districts, x = area under orchards (hectares),
y = number of trees, with stratum covariances given directly.  The source
publishes the population ratio mean_y/mean_x = 49.03 instead of per-stratum
y-means, so the stratum y-means here are reconstructed as 49.03 * mean_x_h,
which reproduces that ratio exactly and leaves every design moment as
published.
"""

from __future__ import annotations

from .design import DesignSummary, StratumSummary
from .errors import UnknownDataset

#: Published population ratio for the orchard survey.
ORCHARD_RATIO = 49.03


def dataset_1() -> DesignSummary:
    rows = (
        # index, N, n, mean_y, mean_x, var_y, var_x, rho
        (1, 6, 3, 135.0, 366.666, 80.0, 2706.666, 0.9455626),
        (2, 12, 4, 99.166, 310.883, 226.515, 1881.06, 0.948196),
        (3, 7, 3, 80.714, 317.143, 120.238, 2890.476, 0.7523324),
    )
    strata = tuple(StratumSummary.from_correlation(*row) for row in rows)
    return DesignSummary(strata, known_mean_x=326.0, label="paper-1")


def dataset_2() -> DesignSummary:
    rows = (
        # index, N, n, mean_x, var_x, var_y, cov_xy
        (1, 985, 6, 11253.0, 15.97, 74775.47, 1007.75),
        (2, 2196, 8, 25115.0, 132.66, 259113.7, 5709.16),
        (3, 1020, 11, 18870.0, 38.44, 65885.6, 1404.71),
    )
    strata = tuple(
        StratumSummary(
            index=idx, N=N, n=n,
            mean_y=ORCHARD_RATIO * mean_x, mean_x=mean_x,
            var_y=var_y, var_x=var_x, cov_xy=cov_xy,
        )
        for idx, N, n, mean_x, var_x, var_y, cov_xy in rows
    )
    return DesignSummary(strata, label="paper-2")


EMBEDDED = {
    "paper-1": dataset_1,
    "paper-2": dataset_2,
}


def get_dataset(name: str) -> DesignSummary:
    """Look up an embedded dataset by id."""
    try:
        factory = EMBEDDED[name]
    except KeyError:
        known = ", ".join(sorted(EMBEDDED))
        raise UnknownDataset(f"unknown dataset {name!r}; embedded ids: {known}") from None
    return factory()
