"""Equivalent spellings of one problem give one report.

``circle`` is the one-axis torus of side 2 pi, so the two spellings build the
same model and every check reads the same numbers: the canonical reports
differ only in the manifest that names the spelling.  A flat torus written as
a product of tori in another factor order or nesting is the same model too.
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


# the three-axis torus of side 1 in three spellings; is-kato and holder-check
# read the same numbers in each.  kato-norm's N moves in its last bit when
# the one-axis factor comes first (the factor kernels multiply in nesting
# order), so its row compares only the spellings that nest alike.
TORUS_PRODUCTS = [
    "product(torus:1:1,torus:2:1)",
    "product(torus:2:1,torus:1:1)",
    "product(product(torus:1:1,torus:1:1),torus:1:1)",
]


@pytest.mark.parametrize(
    "check, params, spellings",
    [
        ("is-kato", {"is-kato": {"n_t": "3"}}, TORUS_PRODUCTS),
        ("holder-check", {"holder-check": {"n_s": "3"}}, TORUS_PRODUCTS),
        ("kato-norm", {"kato-norm": {"n_x": "1"}}, TORUS_PRODUCTS[1:]),
    ],
    ids=["is-kato", "holder-check", "kato-norm"],
)
def test_torus_products_in_any_factor_order_or_nesting_agree(check, params, spellings):
    reports = [_report(spec, [check], params) for spec in spellings]
    for spec, report in zip(spellings, reports):
        assert report["manifest"]["manifold"] == spec
        report["manifest"]["manifold"] = None
    assert all(report == reports[0] for report in reports[1:])


def test_is_kato_on_a_product_of_lines_exits_two(capsys):
    # euclidean:1 x euclidean:1 is non-compact with no radial kernel: no Kato model
    assert cli.main(["is-kato", "--manifold", "product(euclidean:1,euclidean:1)"]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
