"""Seeded inputs of the four workloads, and the published design rows.

The same seed always gives the same inputs.  Nothing here imports
``stratmean``: the program receives only what these functions generate.
Neither this module nor ``checks`` imports numpy at import time, so a
worker that imports them before timing set-up still counts numpy's import
as part of importing ``stratmean``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

#: paper-1 as published (Singh and Mangat 1996), cane-juice study:
#: (index, N, n, mean_y, mean_x, var_y, var_x, rho)
PAPER_1 = (
    (1, 6, 3, 135.0, 366.666, 80.0, 2706.666, 0.9455626),
    (2, 12, 4, 99.166, 310.883, 226.515, 1881.06, 0.948196),
    (3, 7, 3, 80.714, 317.143, 120.238, 2890.476, 0.7523324),
)

#: paper-2 as published (Singh and Chaudhary 1986, p. 162), orchard survey:
#: (index, N, n, mean_x, var_x, var_y, cov_xy); the source gives the ratio
#: mean_y / mean_x = 49.03 instead of stratum y-means.
PAPER_2 = (
    (1, 985, 6, 11253.0, 15.97, 74775.47, 1007.75),
    (2, 2196, 8, 25115.0, 132.66, 259113.7, 5709.16),
    (3, 1020, 11, 18870.0, 38.44, 65885.6, 1404.71),
)
ORCHARD_RATIO = 49.03

#: Extra stratum appended to paper-1 for the enumeration lattice:
#: 20 * 495 * 35 * C(8, 2) = 9,702,000 samples, just under the 10M limit.
LATTICE_EXTRA_N, LATTICE_EXTRA_n = 8, 2

#: Microdata frame of plan-frame: (label, N_h, n_h); 240,000 units.
PLAN_STRATA = ((1, 60_000, 60), (2, 90_000, 90), (3, 50_000, 50), (4, 40_000, 40))


def simulate_seeds(seed: int):
    """Endless stream of per-operation ``simulate --seed`` values."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def lattice_design(seed: int) -> dict:
    """paper-1 plus a seeded 8-unit stratum, and the population seed.

    Strata are dicts of ``StratumSummary.from_correlation`` keyword
    arguments.
    """
    rng = random.Random(seed)
    strata = [
        dict(index=i, N=N, n=n, mean_y=my, mean_x=mx, var_y=vy, var_x=vx, rho=rho)
        for i, N, n, my, mx, vy, vx, rho in PAPER_1
    ]
    strata.append(
        dict(
            index=4, N=LATTICE_EXTRA_N, n=LATTICE_EXTRA_n,
            mean_y=rng.uniform(80.0, 140.0),
            mean_x=rng.uniform(300.0, 360.0),
            var_y=rng.uniform(80.0, 250.0),
            var_x=rng.uniform(1500.0, 3000.0),
            rho=rng.uniform(0.6, 0.95),
        )
    )
    return {"strata": strata, "pop_seed": rng.randrange(2**31)}


def plan_frame_arrays(seed: int) -> list:
    """Unit-level (label, y, x) per stratum: gamma x, linear y, rho = 0.8."""
    import numpy as np

    rng = np.random.default_rng(abs(seed))  # random.Random also seeds from abs(seed)
    out = []
    for label, N, _ in PLAN_STRATA:
        scale = rng.uniform(5.0, 15.0) * label
        x = rng.gamma(6.0, scale, N)
        slope = rng.uniform(1.5, 3.0)
        noise_sd = 0.75 * slope * scale * 6.0**0.5
        y = rng.uniform(10.0, 60.0) + slope * x + rng.normal(0.0, noise_sd, N)
        out.append((label, y, x))
    return out


def write_plan_frame(seed: int, path: Path) -> None:
    """Write the microdata-csv frame and its ``.n.json`` sample-size sidecar."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("stratum,y,x\n")
        for label, y, x in plan_frame_arrays(seed):
            fh.write("".join(f"{label},{a!r},{b!r}\n" for a, b in zip(y.tolist(), x.tolist())))
    sizes = {str(label): n for label, _, n in PLAN_STRATA}
    Path(f"{path}.n.json").write_text(json.dumps(sizes), encoding="utf-8")
