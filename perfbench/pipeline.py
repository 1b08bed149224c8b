"""The scene and pipelines the workloads run, built through public APIs.

The serve workloads' references and in-process probes use exactly the
``IsosurfaceApp`` arguments ``repro serve`` derives from the flags in
:mod:`traffic`, so their frames must equal the server's bit for bit.
"""

from __future__ import annotations

import base64
import hashlib

import traffic as tr
from repro.data import HostDisks, ParSSimDataset, StorageMap
from repro.serve import ppm_bytes
from repro.viz import Camera, IsosurfaceApp
from repro.viz.profile import DatasetProfile


def build_scene():
    """(dataset, profile, storage) exactly as ``repro serve`` builds them."""
    dataset = ParSSimDataset(
        (tr.GRID, tr.GRID, tr.GRID), timesteps=tr.TIMESTEPS,
        species=tr.SPECIES, seed=tr.SCENE_SEED,
    )
    profile = DatasetProfile.measured(
        "default", dataset, nchunks=tr.NCHUNKS, nfiles=tr.NFILES,
        isovalue=tr.SCENE_ISOVALUE,
    )
    storage = StorageMap.balanced(profile.files, [HostDisks("host0")])
    return dataset, profile, storage


def build_app(scene, algorithm: str) -> IsosurfaceApp:
    dataset, profile, storage = scene
    return IsosurfaceApp(
        profile, storage, width=tr.IMAGE, height=tr.IMAGE,
        algorithm=algorithm, dataset=dataset, isovalue=tr.SCENE_ISOVALUE,
        merge_copies=tr.MERGE_COPIES,
    )


def engine_args(app: IsosurfaceApp, config: str) -> dict:
    """Keyword arguments every engine takes for ``config`` on ``app``."""
    return {
        "graph": app.graph(config),
        "placement": app.placement(config, copies_per_host=tr.COPIES),
        "policy": "DD",
        "policy_overrides": app.policy_overrides(config),
    }


def camera(azimuth: float, elevation: float) -> Camera:
    return Camera.orbit(
        (tr.GRID, tr.GRID, tr.GRID), azimuth_deg=azimuth,
        elevation_deg=elevation, width=tr.IMAGE, height=tr.IMAGE,
    )


def query_uow(query: dict) -> dict:
    """The unit of work ``QueryService.render`` builds for ``query``."""
    view = query["view"]
    return {
        "isovalue": float(query["isovalue"]),
        "timestep": int(query["timestep"]),
        "camera": camera(view["azimuth"], view["elevation"]),
    }


def frame_uow(frame) -> dict:
    timestep, azimuth, elevation, isovalue = frame
    return {
        "isovalue": isovalue,
        "timestep": timestep,
        "camera": camera(azimuth, elevation),
    }


def b64_digest(frame_b64: str) -> str:
    """Digest of a response's ``frame_b64``: all the client does per frame."""
    return hashlib.blake2b(frame_b64.encode("ascii"), digest_size=16).hexdigest()


def image_digest(image) -> str:
    """The digest a response carrying ``image`` would have."""
    return b64_digest(base64.b64encode(ppm_bytes(image)).decode("ascii"))


def raw_digest(image) -> str:
    return hashlib.blake2b(image.tobytes(), digest_size=16).hexdigest()


def query_key(query: dict) -> str:
    """Identity of a query's content (its catalogue entry on revisit)."""
    view = query["view"]
    return (
        f"{query['isovalue']!r}/{query['timestep']}/"
        f"{view['azimuth']!r}/{view['elevation']!r}"
    )
