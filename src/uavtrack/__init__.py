"""Rotation-invariant template tracking with Kalman-predicted search windows.

Modules, imported by name (``from uavtrack import tracker``): ``imaging``
(rasters, warping, template banks), ``matcher`` (ZMNCC correlation and
scheduling), ``estimator`` (constant-velocity filter and search windows),
``gimbal`` (pan/tilt pointing simulation), ``simulator`` (synthetic scenes
and the closed loop), ``pgm``/``config``/``cli`` (I/O, configuration,
command line).
"""

__version__ = "0.1.0"
