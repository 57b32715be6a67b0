"""Equivalent spellings of one problem give one report.

``circle`` is the one-axis torus of side 2 pi, so the two spellings build the
same model and every check reads the same numbers: the canonical reports
differ only in the manifest that names the spelling.  A flat torus written as
a product of tori in another factor order or nesting is the same model too.
"""

import json

import pytest

from heatkato import cli
from heatkato import geometry as G
from heatkato import potentials as P
from heatkato.errors import ManifestError
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


def test_is_kato_reads_the_three_torus_alike_as_a_product_and_as_one_torus():
    # the product's grid is coarser (h = 0.1 against 1/48), so the margins
    # agree only to the grid; the product once FAILed at -0.3223
    prod, torus = (_check(m, "is-kato", None) for m in ("product(torus:2:1,torus:1:1)", "torus:3:1"))
    assert prod.verdict == torus.verdict == "PASS"
    assert prod.margin_min == pytest.approx(torus.margin_min, abs=1e-3)


def test_is_kato_on_a_product_of_lines_exits_two(capsys):
    # euclidean:1 x euclidean:1 is non-compact with no radial kernel: no Kato model
    assert cli.main(["is-kato", "--manifold", "product(euclidean:1,euclidean:1)"]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


# pullback:i:w on a product against w on the factor it names.  The projection
# onto a factor is a Riemannian submersion with totally geodesic fibers, so
# the product kernel factors and N(u o pi; t) = N(u; t), sup over x included:
# the product's report is the leaf's, to the fiber's kernel mass (1 within
# rounding).  The off-center row needs the lifted singular center among the
# product's x-samples.
SUBMERSIONS = [
    ("product(torus:2:6.283185307179586,circle)", 0, "torus:2:6.283185307179586", "radialpower:beta=1"),
    ("product(torus:2:6.283185307179586,circle)", 0, "torus:2:6.283185307179586", "radialpower:beta=1:center=1,2"),
    ("product(circle,circle)", 0, "circle", "radialpower:beta=0.5"),
    ("product(circle,circle)", 1, "circle", "radialpower:beta=0.5"),
    ("product(torus:2:1,torus:1:1)", 0, "torus:2:1", "radialpower:beta=1"),
    ("product(product(circle,circle),circle)", 1, "circle", "radialpower:beta=0.5"),
]


def _check(manifold, check, potential):
    manifest = cli.ExperimentManifest(manifold=manifold, checks=[check], potential=potential)
    return cli.run_manifest(manifest).checks[0]


@pytest.mark.parametrize(
    "product, index, leaf, w", SUBMERSIONS, ids=[f"{p}-{i}-{w}" for p, i, _, w in SUBMERSIONS]
)
def test_a_pullback_reads_its_factors_report(product, index, leaf, w):
    pulled = f"pullback:{index}:{w}"
    n_prod, n_leaf = (_check(m, "kato-norm", v).values["N"] for m, v in ((product, pulled), (leaf, w)))
    assert n_prod == pytest.approx(n_leaf, rel=1e-14, abs=0.0)
    k_prod, k_leaf = (_check(m, "is-kato", v) for m, v in ((product, pulled), (leaf, w)))
    assert k_prod.verdict == k_leaf.verdict == "PASS"
    assert k_prod.margin_min == pytest.approx(k_leaf.margin_min, rel=1e-14, abs=0.0)


def test_a_pullback_index_out_of_range_is_a_manifest_error():
    # the one factor-index rule keeps a malformed spec a ManifestError
    for spec in ("pullback:0,7:constant:1", "pullback:2:constant:1", "pullback:-1:constant:1"):
        with pytest.raises(ManifestError):
            P.parse_potential(spec, G.parse_manifold("product(circle,circle)"))
