"""Unit tests for the exception hierarchy and public package surface."""

import importlib

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_all_derive_from_base(self):
        for name in (
            "OntologyError", "HierarchyError", "StoreError", "ParseError",
            "FusionError", "PipelineError",
            "GenerationError", "RetryExhaustedError", "StageTimeoutError",
            "QuarantineOverflowError",
        ):
            exc_type = getattr(errors, name)
            assert issubclass(exc_type, errors.ReproError)

    def test_fault_tolerance_errors_documented_and_exported(self):
        for name in (
            "RetryExhaustedError", "StageTimeoutError",
            "QuarantineOverflowError",
        ):
            exc_type = getattr(errors, name)
            assert exc_type.__doc__, f"{name} needs a docstring"
            assert getattr(repro, name) is exc_type
            assert name in repro.__all__

    def test_base_catches_subclasses(self):
        with pytest.raises(errors.ReproError):
            raise errors.FusionError("boom")

    def test_distinct_branches(self):
        assert not issubclass(errors.FusionError, errors.StoreError)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_root_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    @pytest.mark.parametrize(
        "module",
        [
            "repro.rdf", "repro.htmldom", "repro.textproc", "repro.synth",
            "repro.extract", "repro.entity", "repro.fusion",
            "repro.mapreduce", "repro.core", "repro.evalx",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            assert getattr(mod, name) is not None

    def test_quickstart_api_shape(self):
        pipeline_cls = repro.KnowledgeBaseConstructionPipeline
        assert callable(pipeline_cls)
        assert hasattr(pipeline_cls, "run")
