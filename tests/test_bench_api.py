"""The benchmark's correctness gates re-derive results through the public
API: every ``forge.<name>`` that bench/gates.py reads must exist, and the
call chains the gates run must keep their shapes, or every gated replica
fails.  The names are read with ``ast``, so no benchmark code is imported."""
import ast
from pathlib import Path

import numpy as np
import pytest

import ofdmforge as forge

GATES = Path(__file__).resolve().parents[1] / "bench" / "gates.py"


def gate_names() -> list[str]:
    """Every attribute read off the ``forge`` module in bench/gates.py."""
    return sorted({
        node.attr
        for node in ast.walk(ast.parse(GATES.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "forge"
    })


def test_gate_names_are_read():
    names = gate_names()
    assert {"synthesize", "pmepr", "autocorrelation", "PhaseCodeMatrix"} <= set(names)


@pytest.mark.parametrize("name", gate_names())
def test_gate_name_resolves(name):
    assert getattr(forge, name, None) is not None, name


@pytest.mark.parametrize("k", [1, 2])
def test_gate_call_chains(k):
    spec = forge.PulseSpec(6, k, 1e5, 4)
    rng = np.random.default_rng(3)
    mask = forge.SparsityMask.full(spec.n_subcarriers)
    codes = forge.random_phases(spec.n_subcarriers, k, rng)
    assert codes.phases.shape == (spec.n_subcarriers, k)

    # a genome re-scored from its phases, as the pmepr and sidelobe gates do
    weights = forge.uniform_weights(mask)
    x = forge.synthesize(spec, forge.PhaseCodeMatrix(codes.phases), weights, mask)
    acf = forge.autocorrelation(x)
    got = [forge.pmepr(x), forge.pslr(acf, spec), forge.islr(acf, spec)]
    want = forge.PhaseEvaluator(spec, weights).objectives(codes.phases[None])[0]
    assert np.allclose(got, want, rtol=0.0, atol=1e-9)

    # the illumination gate's gain of unit-energy weights
    target = forge.TargetModel.random_box(4, 10_000.0, 8.0, np.random.default_rng(4))
    norm = forge.normalize_reflectivity(forge.reflectivity_spectrum(target, spec, 9e9))
    w = rng.uniform(0.1, 1.0, spec.n_subcarriers)
    gain = forge.snr_gain_db(forge.WeightVector(w / np.linalg.norm(w)), norm)
    assert np.isfinite(gain)
