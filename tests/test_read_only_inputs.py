"""No public function changes the caller's arrays: every one that takes an
array is given read-only arrays, and none raises or changes a bit of them."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import headings, window
from uavtrack import cli, pgm
from uavtrack.imaging import Frame, Patch, build_template_bank, extract_patch, rotate
from uavtrack.matcher import SchedulerState, WindowStats, detect, zmncc_fast, zmncc_oracle
from uavtrack.tracker import FrameRecord


def read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@st.composite
def cases(draw):
    """A read-only 8-bit or float64 raster, a patch ROI inside it, a warp
    angle and a detection position."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fh, fw = draw(st.integers(24, 48)), draw(st.integers(24, 48))
    if draw(st.booleans()):
        raster = rng.integers(0, 256, (fh, fw), dtype=np.uint8)
    else:
        raster = rng.uniform(0.0, 255.0, (fh, fw))
    th, tw = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    roi = (draw(st.integers(0, fw - tw)), draw(st.integers(0, fh - th)), tw, th)
    position = (draw(st.integers(0, fw - 1)), draw(st.integers(0, fh - 1)))
    return read_only(raster), roi, draw(headings()), position


@settings(max_examples=40, deadline=None)
@given(cases())
def test_public_functions_leave_read_only_inputs_unchanged(case):
    raster, roi, alpha, (px, py) = case
    fh, fw = raster.shape
    source = read_only(raster[roi[1]:roi[1] + roi[3], roi[0]:roi[0] + roi[2]]
                       .astype(np.float64))
    angles = read_only(np.array([alpha, alpha + 10.0]))
    inputs = [raster, source, angles]
    kept = [a.copy() for a in inputs]

    frame = Frame(raster)
    extract_patch(frame, roi)
    patch = Patch(source)
    bank = build_template_bank(patch)
    rotate(source, angles, patch.mean)
    rotate(raster, angles, 0.0)
    zmncc_oracle(raster, patch, roi[:2])
    win = window(0, 0, fw, fh)
    stats = WindowStats(frame, win, bank.templates[0].pixels.shape)
    zmncc_fast(frame, bank.templates[0], win, stats)
    zmncc_fast(frame, patch, win)
    detect(frame, bank, SchedulerState(), win, 0.9)
    with tempfile.TemporaryDirectory() as d:
        pgm.write_pgm(os.path.join(d, "frame.pgm"), raster)
    record = FrameRecord(
        frame_index=0, time=0.0, detected=True, x=px, y=py, score=1.0, template_index=0,
        templates_evaluated=1, miss=False, window_x0=0, window_y0=0, window_x1=fw,
        window_y1=fh, half_width=fw / 2, half_height=fh / 2)
    cli.annotate(raster, record)

    for a, b in zip(inputs, kept):
        assert not a.flags.writeable
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
