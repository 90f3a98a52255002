import numpy as np
import pytest

from facealign import default_model3d, default_pattern, default_schema, heatmaps
from facealign.heatmaps import SynthConfig
from facealign.synthetic import CorpusConfig, SyntheticMapSource, generate_corpus


@pytest.fixture(scope="session")
def schema():
    return default_schema()


@pytest.fixture(scope="session")
def model3d():
    return default_model3d()


@pytest.fixture(scope="session")
def pattern():
    return default_pattern()


@pytest.fixture(scope="session")
def tiny_corpus(model3d, schema):
    return generate_corpus(model3d, schema, CorpusConfig(count=30, seed=3))


@pytest.fixture(scope="session")
def clean_maps():
    """Noise-free map source for tests that need exact peaks."""
    return SyntheticMapSource(SynthConfig(), seed=3)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def blob_draws(monkeypatch):
    """Every blob-centre draw (heatmaps.draw_blobs) made during the test."""
    draws, draw = [], heatmaps.draw_blobs

    def counted(*args, **kwargs):
        draws.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(heatmaps, "draw_blobs", counted)
    return draws
