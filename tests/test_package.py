"""No name the package exports hides one of its submodules."""

import importlib

import pytest

import graphck

SUBMODULES = ("abelian", "graphs", "ktheory", "lab", "scenarios", "synthesis", "cli")
LAB_NAMES = (
    "DefectReport", "LabError", "MatField", "condition_o_residuals",
    "lemma36_w", "partial_isometry_defect", "straighten", "straighten_family",
)


@pytest.mark.parametrize("name", SUBMODULES)
def test_package_attribute_is_the_submodule(name):
    # import first: the package itself imports none of lab, scenarios and cli
    module = importlib.import_module(f"graphck.{name}")
    assert getattr(graphck, name) is module


@pytest.mark.parametrize("name", LAB_NAMES)
def test_lab_name_is_the_lab_object(name):
    from graphck import lab

    assert getattr(graphck, name) is getattr(lab, name)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        graphck.no_such_name
    assert not hasattr(graphck, "_norm")
