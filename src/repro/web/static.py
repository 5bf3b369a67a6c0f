"""Static content: the web server's file system of images.

The paper stores item images (183 MB for the bookstore) and navigation
art in the web server's file system.  Sizes matter -- most client-side
network traffic is images -- so the store generates deterministic sizes
per path and the data generators register item images explicitly.
"""

from __future__ import annotations

import hashlib
from typing import Dict


class StaticContentStore:
    """Maps request paths to object sizes in bytes."""

    # Navigation art is small; item images are a few KB (thumbnails) to
    # tens of KB (detail images), per TPC-W's image size distribution.
    DEFAULT_NAV_BYTES = 1_800

    def __init__(self):
        self._objects: Dict[str, int] = {}

    def register(self, path: str, size_bytes: int) -> None:
        if size_bytes < 0:
            raise ValueError(f"negative object size for {path!r}")
        self._objects[path] = size_bytes

    def register_item_images(self, prefix: str, item_count: int,
                             thumb_bytes: int = 5_000,
                             detail_bytes: int = 25_000) -> None:
        """Register thumbnail + detail image pairs for a range of items."""
        for item_id in range(1, item_count + 1):
            self.register(f"{prefix}/thumb_{item_id}.gif", thumb_bytes)
            self.register(f"{prefix}/image_{item_id}.gif", detail_bytes)

    def size_of(self, path: str) -> int:
        """Size of an object; unknown /images/ paths get nav-art size."""
        size = self._objects.get(path)
        if size is None:
            if path.startswith("/images/"):
                # Deterministic small size for unregistered nav art.
                digest = hashlib.md5(path.encode()).digest()
                return self.DEFAULT_NAV_BYTES + digest[0] * 8
            raise KeyError(f"no static object at {path!r}")
        return size

    def __len__(self) -> int:
        return len(self._objects)
