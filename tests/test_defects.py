"""Every check can fail: one injected defect in the layer a check claims to
test turns its verdict to FAIL.

Each row names a check, a small manifest, the layer it patches and the
verdict the defect must give; the same run without the defect PASSes, so the
row shows the defect is what the check reads.  A FAIL also prints a failing
margin: margin_min < -tolerance.
"""

import dataclasses

import pytest

from heatkato import cli
from heatkato import heat_kernel as HK
from heatkato import mvi as M
from heatkato import potentials as P


def _scaled_fiber_mass(factor):
    fiber_mass = P.fiber_mass

    def scaled(*args):
        mass, err = fiber_mass(*args)
        return factor * mass, err

    return scaled


def _unconverged(solve):
    return lambda *args, **kw: dataclasses.replace(solve(*args, **kw), converged=False)


def _mass_high(mass):
    def high(*args):
        value, tail = mass(*args)
        return value + 5e-6, tail

    return high


# (check, manifold, layer, patched attribute, replacement, verdict)
DEFECTS = [
    # project-check's left side is the pullback smoothing every check runs:
    # a fiber mass 5 % high breaks the projection bound
    ("project-check", "product(euclidean:1,circle)", P, "fiber_mass", _scaled_fiber_mass(1.05), "FAIL"),
    # every eigen-solve unconverged: once a FAIL under margin_min = -0.0289, tol = 0.105
    ("fk-verify", "euclidean:2", M, "dirichlet_ground_energy", _unconverged(M.dirichlet_ground_energy), "FAIL"),
    # the kernel mass read 5e-6 high: once a FAIL under margin_min = -4e-06, tol = 1e-4
    ("kernel-check", "circle", HK, "kernel_mass", _mass_high(HK.kernel_mass), "FAIL"),
]


@pytest.mark.parametrize("check, manifold, layer, name, defect, verdict", DEFECTS, ids=[d[0] for d in DEFECTS])
def test_a_defect_in_its_layer_fails_the_check(check, manifold, layer, name, defect, verdict, monkeypatch):
    def run():
        return cli.run_manifest(cli.ExperimentManifest(manifold=manifold, checks=[check])).checks[0]

    assert run().verdict == "PASS"
    monkeypatch.setattr(layer, name, defect)
    result = run()
    assert result.verdict == verdict
    assert (result.margin_min < -result.tolerance) == (verdict == "FAIL")
