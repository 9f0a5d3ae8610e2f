"""The benchmark tracer's patch targets exist and are put back.

``perfbench/tracing.py`` wraps package attributes by name, among them
``sim.control``, ``sim.path_derivatives`` and ``sim.step_rk4``, which the
closed-loop step itself no longer calls. A refactor that drops one of them
breaks the traced benchmark; this test makes it fail here as well.
"""

import importlib.util
from pathlib import Path

from offsetsteer import cli, paths, sim

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_patched_attribute():
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    targets = {(owner, attr) for owner, attr, _ in patched}
    for attr in ("control", "path_derivatives", "earth_derivatives", "step_rk4",
                 "build_path", "run_scenario"):
        assert (sim, attr) in targets, attr
    assert (paths.Path, "curvature") in targets
    assert (cli, "main") in targets
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
