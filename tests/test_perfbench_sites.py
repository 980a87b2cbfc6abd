"""The benchmark's tracer wraps esst functions by name; every name it
wraps must still exist, with the arguments its counters read."""
from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np

import esst.areas
from esst import _rk4_numpy
from esst.experiments import sweep_detuning

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_call_site_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.delitem(sys.modules, "spans", raising=False)  # and drop it again after
    spans = importlib.import_module("spans")
    sites = spans._sites()
    assert sites
    for module, attr, _, _ in sites:
        assert hasattr(module, attr), f"{module.__name__}.{attr}"


def test_kernel_counter_reads_the_arguments_it_names():
    # The tracer's kernel counter reads rk4_run's positional arguments 2,
    # 3, 4, 5 and 10.
    params = list(inspect.signature(_rk4_numpy.rk4_run).parameters)
    assert [params[i] for i in (2, 3, 4, 5, 10)] == ["n_steps", "stride", "energies", "rows", "amp"]


def test_every_area_request_goes_through_the_module_global(
    monkeypatch, molecule, spec_b, pulses_b
):
    # The tracer counts areas by replacing esst.areas.complex_area, so the
    # lobe-sum cache must sit behind that name: each request still calls it.
    calls = []
    real = esst.areas.complex_area

    def counting(*args, **kwargs):
        calls.append(args[0].channel)
        return real(*args, **kwargs)

    monkeypatch.setattr(esst.areas, "complex_area", counting)
    esst.areas.stage_areas(molecule, pulses_b, spec_b)
    assert sorted(calls) == ["a", "b", "c"]
    calls.clear()
    sweep_detuning(
        molecule, spec_b, np.linspace(0.5, 1.5, 7) / spec_b.tau0,
        np.linspace(1.0, 1.8, 7), mode="scale_b", engine="analytic",
    )
    assert len(calls) == 147
