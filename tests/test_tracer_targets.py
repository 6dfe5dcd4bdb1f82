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

from mlcirt.likelihood import stack_dataset

from helpers import make_spec, random_dataset

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
    as (n, r); its first argument is the dataset, which ``stack_dataset``
    returns."""
    spec = make_spec(n_items=3, n_classes=2, n_types=2)
    data = random_dataset(spec, np.random.default_rng(0), n_schools=3,
                          school_size=(1, 4))
    stacked = stack_dataset(data)
    assert stacked is data
    assert stacked.is_one.shape == (data.n_students, 3)
