"""Workload settings and seeded input generators.

Every input the program receives is drawn here from the workload seed, so
the same seed always yields the same queries and frames.  Each connection
and each purpose draws from its own string-seeded ``random.Random``, which
is reproducible across processes and Python versions.
"""

from __future__ import annotations

import itertools
import math
import random

# -- the scene, shared by the server, the references and the probes ----------
GRID = 65
TIMESTEPS = 4
SPECIES = 2
NCHUNKS = 27
NFILES = 8
SCENE_SEED = 7
SCENE_ISOVALUE = 0.35
IMAGE = 512
COPIES = 2
MERGE_COPIES = 2

#: Closed-loop clients: as many as cores on the 2-core reference host and
#: as many as the server's ``max_inflight``.  Interactive users wait for a
#: frame before asking for the next one.
CONNECTIONS = 2

#: Result-cache budget.  Smaller than revisit's working set
#: (24 frames of 0.75 MiB plus 6 triangle sets), so LRU eviction runs.
CACHE_MB = 12

#: Isovalues whose surfaces are non-empty at every timestep of the scene.
ISO_RANGE = (0.28, 0.48)

SERVE_CONFIG = "R-E-Ra-M"
SERVE_ALGORITHM = "active"

#: ``repro serve`` flags, identical for both serve workloads.
SERVE_FLAGS = [
    "--port", "0",
    "--grid", str(GRID),
    "--timesteps", str(TIMESTEPS),
    "--seed", str(SCENE_SEED),
    "--isovalue", str(SCENE_ISOVALUE),
    "--image", str(IMAGE),
    "--config", SERVE_CONFIG,
    "--algorithm", SERVE_ALGORITHM,
    "--copies", str(COPIES),
    "--merge-copies", str(MERGE_COPIES),
    "--max-inflight", str(CONNECTIONS),
    "--cache-mb", str(CACHE_MB),
]

#: The first query of every server launch: fixed, so set-up time does not
#: depend on the seed.
SETUP_QUERY = {
    "isovalue": SCENE_ISOVALUE,
    "timestep": 0,
    "view": {"azimuth": 30.0, "elevation": 25.0},
}

ANIMATE_CONFIG = "RE-Ra-M"
ANIMATE_ALGORITHM = "zbuffer"
#: Frames per ``run_cycles`` batch.
ANIMATE_BATCH = 8
#: Frames per up-and-down period of the animation camera's elevation.
ANIMATE_BOB_FRAMES = 48

# -- revisit -----------------------------------------------------------------
SURFACES = 6
VIEWS_PER_SURFACE = 4
ZIPF_S = 1.1


def _rng(seed: int, *purpose) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed, *purpose)))


def _view(rng: random.Random) -> dict:
    return {
        "azimuth": round(rng.uniform(0.0, 360.0), 6),
        "elevation": round(rng.uniform(-30.0, 60.0), 6),
    }


#: Golden-ratio step of the low-discrepancy sequence explore draws
#: isovalues from: any window of queries covers the range evenly, so the
#: mean cost of a run's queries hardly depends on the seed.
_GOLDEN = 0.6180339887498949


def explore_stream(seed: int):
    """Fresh (isovalue, timestep, orbit view) queries, forever."""
    rng = _rng(seed, "explore")
    lo, hi = ISO_RANGE
    phase = rng.random()
    for i in itertools.count():
        yield {
            "isovalue": round(lo + (hi - lo) * ((phase + i * _GOLDEN) % 1.0), 6),
            "timestep": rng.randrange(TIMESTEPS),
            "view": _view(rng),
        }


def revisit_catalogue(seed: int) -> "list[dict]":
    """``SURFACES`` (isovalue, timestep) pairs x ``VIEWS_PER_SURFACE`` views,
    in popularity order (index 0 is the most popular entry).

    The surfaces are fixed (evenly spaced isovalues, timesteps in turn)
    and popularity is dealt out in a snake over them, so every surface
    gets about the same share of the traffic: which surfaces stay in the
    triangle tier, and so the mix of misses and triangle-only hits, does
    not depend on the seed.  The seed draws the views and the order of
    the surfaces in the deal.
    """
    rng = _rng(seed, "catalogue")
    lo, hi = ISO_RANGE
    step = (hi - lo) / SURFACES
    surfaces = [
        (round(lo + step * (i + 0.5), 6), i % TIMESTEPS)
        for i in range(SURFACES)
    ]
    rng.shuffle(surfaces)
    entries = []
    for rnd in range(VIEWS_PER_SURFACE):
        for isovalue, timestep in surfaces[:: 1 if rnd % 2 == 0 else -1]:
            entries.append(
                {"isovalue": isovalue, "timestep": timestep, "view": _view(rng)}
            )
    return entries


def zipf_weights(n: int, s: float = ZIPF_S) -> "list[float]":
    weights = [rank ** -s for rank in range(1, n + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def zipf_schedule(rng: random.Random, weights):
    """Ranks in Zipf proportions, each repeated at an even interval.

    Smooth weighted round robin with seeded starting credits: every rank
    earns its weight per draw and the richest is drawn.  Each rank's count
    stays within about one of ``weight * draws`` and its revisits are
    evenly spaced, so the LRU tiers see the same reuse distances for every seed.
    """
    credit = [rng.random() for _ in weights]
    while True:
        for rank, w in enumerate(weights):
            credit[rank] += w
        best = max(range(len(weights)), key=credit.__getitem__)
        credit[best] -= 1.0
        yield best


def revisit_stream(seed: int):
    """Zipf(``ZIPF_S``) draws over :func:`revisit_catalogue`, forever."""
    catalogue = revisit_catalogue(seed)
    rng = _rng(seed, "revisit")
    for rank in zipf_schedule(rng, zipf_weights(len(catalogue))):
        yield dict(catalogue[rank])


def animate_batches(seed: int):
    """Batches of ``ANIMATE_BATCH`` frames: (timestep, azimuth, elevation,
    isovalue), stepping through timesteps while the camera orbits and
    bobs between -20 and 50 degrees of elevation every
    ``ANIMATE_BOB_FRAMES`` frames.  The seed draws the start azimuth, the
    azimuth step and the phase of the bob; a run covers several orbits and
    bobs, so its mean frame cost hardly depends on the seed.  The surface
    is the scene's."""
    rng = _rng(seed, "animate")
    azimuth = rng.uniform(0.0, 360.0)
    step = rng.uniform(7.0, 13.0)
    phase = rng.random()
    frame = 0
    while True:
        batch = []
        for _ in range(ANIMATE_BATCH):
            bob = math.sin(2.0 * math.pi * (phase + frame / ANIMATE_BOB_FRAMES))
            batch.append((
                frame % TIMESTEPS,
                round((azimuth + step * frame) % 360.0, 6),
                round(15.0 + 35.0 * bob, 6),
                SCENE_ISOVALUE,
            ))
            frame += 1
        yield batch
