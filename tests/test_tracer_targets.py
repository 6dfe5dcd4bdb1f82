"""The benchmark tracer's pinned names still exist.

``perfbench/tracing.py`` wraps each public function at the module where its
caller looks it up (its ``TARGETS`` table).  A renamed or moved function
would otherwise only show up when the benchmark runs.  These tests read
``perfbench/`` and change nothing there.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from mlcirt.likelihood import marginal_loglik, stack_dataset

from helpers import make_spec, random_dataset, random_params

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    name = "perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module      # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


TARGETS = load_tracing().TARGETS


@pytest.mark.parametrize("module_name, attr",
                         [(module, attr) for module, attr, _, _ in TARGETS])
def test_pinned_name_is_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_stacked_answer_mask_is_two_dimensional():
    """The span of ``conditional_loglik_matrix`` reads ``args[0].is_one.shape``
    as (rows, r); its first argument is the dataset's response patterns,
    which ``stack_dataset`` builds, so the span counts pattern rows."""
    spec = make_spec(n_items=3, n_classes=2, n_types=2)
    rng = np.random.default_rng(0)
    data = random_dataset(spec, rng, n_schools=3, school_size=(1, 4))
    stacked = stack_dataset(data)
    assert stacked is data
    n_patterns = data.patterns.n_patterns
    assert data.patterns.is_one.shape == (n_patterns, 3)

    tracer = load_tracing().Tracer()
    with tracer.patched():
        marginal_loglik(data, random_params(spec, rng), spec)
    (span,) = [sp for sp in tracer.spans
               if sp.name == "likelihood.conditional_loglik_matrix"]
    assert span.attrs == {"n": n_patterns, "r": 3, "k_v": 2}
