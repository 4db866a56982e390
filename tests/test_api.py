"""The package namespace and ``katzforge.__all__`` list the same public API."""

import inspect

import katzforge


def test_every_export_resolves():
    assert len(set(katzforge.__all__)) == len(katzforge.__all__)
    assert [name for name in katzforge.__all__ if not hasattr(katzforge, name)] == []


def test_every_public_function_and_class_is_exported():
    public = {
        name
        for name, value in vars(katzforge).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert sorted(public - set(katzforge.__all__)) == []
