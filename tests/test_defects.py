"""Every check can fail: one injected defect in the layer a check claims to
test turns its verdict to FAIL.

Each row names a check, a small manifest, the layer it patches and the
verdict the defect must give; the same run without the defect PASSes, so the
row shows the defect is what the check reads.
"""

import pytest

from heatkato import cli
from heatkato import potentials as P


def _scaled_fiber_mass(factor):
    fiber_mass = P.fiber_mass

    def scaled(*args):
        mass, err = fiber_mass(*args)
        return factor * mass, err

    return scaled


# (check, manifold, layer, patched attribute, replacement, verdict)
DEFECTS = [
    # project-check's left side is the pullback smoothing every check runs:
    # a fiber mass 5 % high breaks the projection bound
    ("project-check", "product(euclidean:1,circle)", P, "fiber_mass", _scaled_fiber_mass(1.05), "FAIL"),
]


@pytest.mark.parametrize("check, manifold, layer, name, defect, verdict", DEFECTS, ids=[d[0] for d in DEFECTS])
def test_a_defect_in_its_layer_fails_the_check(check, manifold, layer, name, defect, verdict, monkeypatch):
    def run():
        return cli.run_manifest(cli.ExperimentManifest(manifold=manifold, checks=[check])).checks[0].verdict

    assert run() == "PASS"
    monkeypatch.setattr(layer, name, defect)
    assert run() == verdict
