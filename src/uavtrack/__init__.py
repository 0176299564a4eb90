"""Rotation-invariant template tracking with Kalman-predicted search windows.

Modules: ``imaging`` (rasters, warping, template banks), ``matcher`` (ZMNCC
correlation and scheduling), ``estimator`` (constant-velocity filter and
search windows), ``gimbal`` (pan/tilt pointing simulation), ``simulator``
(synthetic scenes and the closed loop), ``pgm``/``config``/``cli`` (I/O,
configuration, command line).
"""

from .config import TrackerConfig
from .imaging import Frame, Patch, TemplateBank, build_template_bank, extract_patch, warp_rotate
from .matcher import CorrelationMap, Detection, SchedulerState, detect, schedule_order, zmncc_fast, zmncc_oracle
from .estimator import NoiseModel, SearchWindow, TrackState, build_noise, correct, init, predict, search_window
from .gimbal import CameraModel, GimbalState, centering_step, pixel_error_to_counts, step_gimbal
from .simulator import Scenario, TrackReport, run_closed_loop
from .tracker import Tracker

__all__ = [
    "TrackerConfig", "Frame", "Patch", "TemplateBank", "build_template_bank",
    "extract_patch", "warp_rotate", "CorrelationMap",
    "Detection", "SchedulerState", "detect", "schedule_order", "zmncc_fast",
    "zmncc_oracle", "NoiseModel", "SearchWindow", "TrackState", "build_noise",
    "correct", "init", "predict", "search_window", "CameraModel",
    "GimbalState", "centering_step", "pixel_error_to_counts", "step_gimbal",
    "Scenario", "TrackReport", "run_closed_loop", "Tracker",
]

__version__ = "0.1.0"
