"""The per-endpoint export formatter, kept as the byte reference for the writers.

``export_text`` formats every endpoint of every box with ``"%r"``, and
``export_voxel`` every cell index with ``"%d"``, 4096 rows per write.
``BoxSet.export_text`` formats each distinct lattice point of an axis
once instead; the tests require the same bytes from both.
"""

import numpy as np


def _write_rows(fh, rows, fmt):
    line = " ".join([fmt] * rows.shape[1]) + "\n"
    for start in range(0, len(rows), 4096):
        part = rows[start : start + 4096]
        fh.write((line * len(part)) % tuple(part.ravel().tolist()))


def export_text(boxes, fh):
    lo, hi = boxes.float_arrays()
    _write_rows(fh, np.stack([lo, hi], axis=2).reshape(len(boxes), -1), "%r")


def export_voxel(boxes, fh):
    bases = ",".join(str(b) for b, _ in boxes.grid)
    depths = ",".join(str(m) for _, m in boxes.grid)
    fh.write(f"voxel bases={bases} depths={depths}\n")
    _write_rows(fh, boxes.cells, "%d")
