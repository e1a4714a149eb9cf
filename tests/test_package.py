"""The package namespace: every public name resolves lazily to the object its
submodule defines."""

import importlib

import pytest

import gtsou


def test_every_public_name_resolves_to_its_submodule():
    for name in gtsou.__all__:
        module = importlib.import_module(f"gtsou.{gtsou._SOURCE_OF[name]}")
        assert getattr(gtsou, name) is getattr(module, name)


def test_dir_lists_every_public_name():
    assert set(gtsou.__all__) <= set(dir(gtsou))
    assert gtsou.__version__ == "0.1.0"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gtsou import *", namespace)
    assert set(gtsou.__all__) <= set(namespace)
    assert namespace["fit"] is gtsou.estimation.fit


def test_functions_keep_their_names_over_same_named_submodules():
    # gtsou.cumulants and gtsou.frft are functions, as are the names their
    # submodules bind, even after the submodules have been imported
    for name in ("cumulants", "frft"):
        module = importlib.import_module(f"gtsou.{name}")
        assert getattr(gtsou, name) is getattr(module, name)
        assert callable(getattr(gtsou, name))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gtsou.no_such_name


def test_submodules_import_from_the_package():
    from gtsou import cli, estimation, ou

    assert cli.main is importlib.import_module("gtsou.cli").main
    assert estimation.fit is gtsou.fit
    assert ou.simulate_path is gtsou.simulate_path
