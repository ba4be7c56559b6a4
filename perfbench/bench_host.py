"""Host memory-bandwidth probe for the traced run.

Copies one array into another with ``np.copyto`` and reports the best of
three copies as bytes moved (read plus write) per second.  Each array is
four times the last-level cache, read from sysfs, so the copy streams from
memory; both sizes are reported with the bandwidth.  Runs as its own short
process so its arrays never count toward a measured process's memory.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

FALLBACK_LLC_BYTES = 32 << 20


def llc_bytes() -> int:
    """Size of the highest-level cache of CPU 0 (fallback: 32 MiB)."""
    best_level, best_size = 0, FALLBACK_LLC_BYTES
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text[:-1] if text[-1:] in "KMG" else text
        if level > best_level and digits.isdigit():
            best_level, best_size = level, int(digits) * scale
    return best_size


def main() -> int:
    import numpy as np

    llc = llc_bytes()
    nbytes = 4 * llc
    src = np.ones(nbytes, dtype=np.uint8)
    dst = np.zeros(nbytes, dtype=np.uint8)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - start)
    print(json.dumps({
        "host.copy_bw_gbs": 2 * nbytes / best / 1e9,
        "host.copy_array_mb": nbytes / 2**20,
        "host.llc_mb": llc / 2**20,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
