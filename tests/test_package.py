"""The package's public surface is its modules' ``__all__`` lists, republished."""

import subprocess
import sys

import facemetrics
from facemetrics import anchors, geometry, io, matching, metrics

MODULES = (geometry, anchors, matching, metrics, io)


def test_package_all_is_the_module_lists_once_each():
    expected = ["__version__", *(name for module in MODULES for name in module.__all__)]
    assert facemetrics.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_each_export_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(facemetrics, name) is getattr(module, name), (module.__name__, name)


def test_region_iou_is_exported_by_matching():
    assert "region_iou" in matching.__all__


def test_import_leaves_the_unit_circle_unbuilt():
    # The 1024-entry (cos t, sin t) table is built on the first ellipse
    # polygon, so a run with no ellipses never pays for it.
    code = (
        "import facemetrics.cli, facemetrics.geometry as g; "
        "assert g._unit_circle.cache_info().currsize == 0; "
        "g.ellipse_to_polygon(g.Ellipse(0.0, 0.0, 2.0, 1.0, 0.0)); "
        "assert g._unit_circle.cache_info().currsize == 1"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
