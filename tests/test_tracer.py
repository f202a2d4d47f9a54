"""The benchmark tracer (perfbench/tracer.py) wraps priorad functions by
name from outside. Installing it must find every traced name, and
restoring it must put every original back."""

import importlib.util
from pathlib import Path

import numpy as np

from priorad import autodiff, scoring, training
from priorad.model import ModelConfig, PiModel
from priorad.scoring import ScoringConfig
from priorad.training import TrainConfig

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_attributes(tr):
    sites = [site for sites in tr.SPANS.values() for site in sites]
    sites.append((autodiff.Tape, "record"))
    return {(owner, attr): (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
            for owner, attr in sites}


def test_tracer_installs_counts_and_restores():
    tr = load_tracer()
    originals = traced_attributes(tr)
    cfg = ModelConfig(window_length=12, channels=2, model_dim=8,
                      num_layers=1, num_heads=2, feedforward_dim=16, seed=0)
    model = PiModel(cfg)
    opt = autodiff.OptimizerState(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    train, thresh, test = (rng.normal(size=(n, 2)) for n in (60, 40, 50))
    tracer = tr.Tracer()
    tracer.install()
    try:
        # called through the modules, where the tracer's wrappers sit
        training.minmax_step(rng.normal(size=(4, 12, 2)), model, opt,
                             TrainConfig(k=1.0), hurst_target=0.5)
        scoring.detect(model, train, thresh, test,
                       ScoringConfig(window_length=12, batch_size=16))
    finally:
        tracer.restore()
    restored = traced_attributes(tr)
    assert all(restored[key] is fn for key, fn in originals.items())
    assert tracer.count("training.step") == 1
    assert tracer.counters["passes"] == 2
    windows = sum(n - 12 + 1 for n in (60, 40, 50))
    assert tracer.counters["windows_forwarded"] == windows
    assert tracer.counters["windows_useful"] == windows
