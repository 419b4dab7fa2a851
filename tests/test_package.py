"""The package's public surface is its modules' ``__all__`` lists, republished."""

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
