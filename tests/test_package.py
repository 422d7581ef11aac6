"""No name the package exports hides one of its submodules."""

import importlib

import pytest

import graphck

SUBMODULES = ("abelian", "graphs", "ktheory", "lab", "scenarios", "synthesis", "cli")


@pytest.mark.parametrize("name", SUBMODULES)
def test_package_attribute_is_the_submodule(name):
    # import first: the package itself imports neither scenarios nor cli
    module = importlib.import_module(f"graphck.{name}")
    assert getattr(graphck, name) is module
