"""Active pixel rendering: the sparse z-buffer scheme (paper Section 3.1.2).

The **Winning Pixel Array (WPA)** stores the foremost pixels seen so far —
screen position, depth, and colour per entry; WPA contents are shipped to
the Merge filter in fixed-size buffers.  In the paper a **Modified Scanline
Array (MSA)** indexes the WPA by screen position, so each new fragment can
find and depth-test against its pixel's current entry, triangle by
triangle.

As in the paper, the WPA is emitted *when full or when all triangles of the
current input buffer have been processed*, so rasterisation and merging
pipeline freely — no end-of-work synchronisation.  Because the WPA restarts
after each emission, a pixel can appear in several emitted buffers; the
Merge filter's depth test resolves those duplicates.

We build the WPA of a whole input buffer at once instead of one triangle at
a time.  The fragments, in triangle order, are stable-sorted by pixel; each
pixel's run then decides its entry:

- entries keep the order in which their pixels first appear;
- the depth is ``float32(min depth of the run)``;
- the colour is that of the *last* fragment whose depth beats the float32
  of the minimum of the fragments before it (the first always wins).

This is exactly what the per-triangle MSA loop keeps.  There a fragment
wins when its depth is below the stored float32 depth, and the stored depth
is always the float32 of the running minimum (rounding is monotone, so a
win that does not lower the minimum rewrites the same float32 value).
The running minimum per run is computed exactly on depth ranks, and no
per-screen index array is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.viz.raster import ZBuffer, rasterize_triangles

__all__ = ["WPABuffer", "ActivePixelRaster", "ActivePixelMerger", "WPA_ENTRY_BYTES"]

#: Wire size of one winning-pixel entry: int32 position + float32 depth +
#: RGBX colour.
WPA_ENTRY_BYTES = 12


@dataclass
class WPABuffer:
    """One emitted Winning Pixel Array buffer."""

    pixels: np.ndarray  # (n,) int64 flat screen positions (unique)
    depth: np.ndarray  # (n,) float32
    color: np.ndarray  # (n, 3) uint8

    @property
    def entries(self) -> int:
        """Number of winning-pixel entries."""
        return len(self.pixels)

    @property
    def nbytes(self) -> int:
        """Wire size of this buffer."""
        return self.entries * WPA_ENTRY_BYTES


class ActivePixelRaster:
    """Rasterise triangles into WPA buffers.

    Parameters
    ----------
    width / height:
        Screen size.
    capacity_entries:
        WPA capacity: emission size of a full buffer.
    """

    def __init__(self, width: int, height: int, capacity_entries: int = 5461):
        if width < 1 or height < 1:
            raise ConfigurationError("screen dimensions must be >= 1")
        if capacity_entries < 1:
            raise ConfigurationError("capacity_entries must be >= 1")
        self.width = width
        self.height = height
        self.capacity = capacity_entries
        self.fragments_tested = 0

    def process(self, triangles: np.ndarray, colors: np.ndarray) -> list[WPABuffer]:
        """Rasterise one input buffer's triangles; returns emitted WPA buffers.

        Emits every ``capacity_entries`` full buffer produced while
        processing, plus the final partial buffer — the WPA is always empty
        when this method returns.
        """
        triangles = np.asarray(triangles)
        if not triangles.size:
            return []
        if len(colors) != len(triangles):
            raise ConfigurationError("one colour per triangle required")
        pixels, depth, counts = rasterize_triangles(triangles, self.width, self.height)
        self.fragments_tested += pixels.size
        if not pixels.size:
            return []
        # Group each pixel's fragments, keeping triangle order within a group.
        order = np.argsort(pixels, kind="stable")
        sorted_pix, d = pixels[order], depth[order]
        n = d.size
        first = np.r_[True, sorted_pix[1:] != sorted_pix[:-1]]
        starts = np.flatnonzero(first)
        # Exact segmented prefix minimum: depth ranks, lifted by a per-group
        # offset that decreases along the array (at most n * n), so one
        # running minimum never carries across a group boundary.
        rank = np.empty(n, dtype=np.int64)
        by_depth = np.argsort(d, kind="stable")
        rank[by_depth] = np.arange(n)
        lift = (starts.size - np.cumsum(first)) * n
        prefix = d[by_depth[np.minimum.accumulate(rank + lift) - lift]]
        # A fragment wins against the float32 store of the earlier minimum;
        # the first fragment of each pixel always enters the WPA.
        wins = first.copy()
        wins[1:] |= d[1:] < prefix[:-1].astype(np.float32)
        last = np.maximum.reduceat(np.where(wins, np.arange(n), 0), starts)
        # Entries in order of each pixel's first appearance.
        entry = np.argsort(order[starts])
        pix = sorted_pix[starts][entry]
        dep = np.minimum.reduceat(d, starts).astype(np.float32)[entry]
        tri = np.repeat(np.arange(len(counts)), counts)
        color = np.asarray(colors)[tri[order[last]][entry]].astype(np.uint8, copy=False)
        return [
            WPABuffer(pix[i : i + self.capacity], dep[i : i + self.capacity],
                      color[i : i + self.capacity])
            for i in range(0, pix.size, self.capacity)
        ]


class ActivePixelMerger:
    """Merge-side depth compositing of WPA buffers into the final image."""

    def __init__(self, width: int, height: int):
        self._zbuf = ZBuffer(width, height)
        self.buffers_merged = 0
        self.entries_merged = 0

    def merge(self, buffer: WPABuffer) -> None:
        """Depth-test one WPA buffer's entries into the image."""
        self._zbuf.merge_entries(buffer.pixels, buffer.depth, buffer.color)
        self.buffers_merged += 1
        self.entries_merged += buffer.entries

    def image(self) -> np.ndarray:
        """The composited colour image, (height, width, 3) uint8."""
        return self._zbuf.image()

    def active_pixels(self) -> int:
        """Pixels covered by at least one merged entry."""
        return self._zbuf.active_pixels()
