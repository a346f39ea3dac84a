"""The benchmark's tracer wraps package functions by module and name.

perfbench/tracing.py replaces each function in WRAPPED in its module
namespace, so a span is recorded only while the pipeline keeps calling that
function through the module global.  These tests run small lifts and a BP
pass under the tracer: every wrapped name still fires, and colour passing
records one span per refinement round.
"""

import importlib.util
from pathlib import Path

from liftfg import benchgen, inference, lifg, model
from conftest import chain_graph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_records_a_span():
    tracing = load_tracing()
    originals = [getattr(module, attr) for module, attr, _ in tracing.WRAPPED]
    params = benchgen.GenParams(d=4, seed=3)
    g, _ = benchgen.generate_instance(params)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        removed = benchgen.remove_potentials(g, params)
        assert removed.graph.has_unknown
        parsed = model.parse_model(model.serialize_model(removed.graph))
        result = lifg.run_lifg(parsed, theta=0.0)
        assert result.report.complete
        inference.loopy_bp(result.completed, 2)
    finally:
        tracer.uninstall()
    recorded = {span[tracing.NAME] for span in tracer.spans}
    assert {name for _, _, name in tracing.WRAPPED} - recorded == set()
    assert [getattr(module, attr) for module, attr, _ in tracing.WRAPPED] == originals


def test_one_cp_round_span_per_refinement_round():
    # an anchored chain of even length n refines for n/2 rounds, then one
    # round adds no colour
    n = 40
    g = chain_graph(n, hidden=(7,))
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = lifg.run_lifg(g, theta=0.0)
    finally:
        tracer.uninstall()
    assert result.report.complete
    assert len(result.partition.rv_groups) == n
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names.count("cp.run_cp") == 1
    assert names.count("cp.cp_round") == n // 2 + 1
