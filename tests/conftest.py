import numpy as np
import pytest

from uavtrack.estimator import SearchWindow
from uavtrack.simulator import SceneRenderer


def window(x0, y0, x1, y1) -> SearchWindow:
    """Bare pixel-rect window for driving the matcher directly."""
    return SearchWindow(center=((x0 + x1) / 2.0, (y0 + y1) / 2.0),
                        half_width=(x1 - x0) / 2.0, half_height=(y1 - y0) / 2.0,
                        clamped=False, x0=x0, y0=y0, x1=x1, y1=y1)


def render_open_loop(scenario):
    """Every frame and truth record of a scenario at zero viewport offset."""
    renderer = SceneRenderer(scenario)
    frames, truth = zip(*(renderer.render(k) for k in range(scenario.n_frames)))
    return list(frames), list(truth)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def _isolated_config_env(monkeypatch):
    monkeypatch.delenv("UAVTRACK_CONFIG", raising=False)
