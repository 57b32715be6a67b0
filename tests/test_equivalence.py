"""Equivalent spellings of one problem give one report.

``circle`` is the one-axis torus of side 2 pi, so the two spellings build the
same model and every check reads the same numbers: the canonical reports
differ only in the manifest that names the spelling.
"""

import json

import pytest

from heatkato import cli
from heatkato.reporting import canonical_json


def _report(manifold, checks, params=None):
    manifest = cli.ExperimentManifest(manifold=manifold, checks=list(checks), params=params or {})
    return json.loads(canonical_json(cli.run_manifest(manifest)))


@pytest.mark.parametrize(
    "check, params",
    [("kernel-check", {}), ("feynman-kac", {"feynman-kac": {"n_paths": "2000", "t_values": "0.25,0.5"}})],
    ids=["kernel-check", "feynman-kac"],
)
def test_circle_is_the_torus_of_side_two_pi(check, params):
    circle = _report("circle", [check], params)
    torus = _report("torus:1:6.283185307179586", [check], params)
    assert circle["manifest"]["manifold"] == "circle"
    circle["manifest"]["manifold"] = torus["manifest"]["manifold"]
    assert circle == torus


@pytest.mark.parametrize("manifold", ["circle", "torus:2:6.2832"])
def test_periodic_kernel_is_exactly_symmetric(manifold):
    # each axis's distance min(|y - x|, L - |y - x|) does not depend on the
    # order of x and y
    (check,) = _report(manifold, ["kernel-check"])["checks"]
    assert check["values"]["symmetry_residual"] == 0.0
