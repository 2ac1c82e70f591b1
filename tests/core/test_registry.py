"""Tests for the tier/function/method classification registry."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

from repro.core.registry import (
    FUNCTION_TIER,
    Function,
    Method,
    SystemInfo,
    SystemRegistry,
    Tier,
    default_registry,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: the packages whose modules implement surveyed systems
SYSTEM_PACKAGES = (
    "discovery", "storage", "integration", "ingestion", "modeling",
    "organization", "enrichment", "cleaning", "evolution", "provenance",
    "exploration",
)


def make_info(name="TestSys", functions=(Function.DATA_CLEANING,)):
    return SystemInfo(name=name, functions=tuple(functions))


class TestSystemInfo:
    def test_tiers_derived_from_functions(self):
        info = make_info(functions=(
            Function.METADATA_EXTRACTION, Function.DATA_CLEANING,
        ))
        assert info.tiers == (Tier.INGESTION, Tier.MAINTENANCE)

    def test_every_function_has_a_tier(self):
        for function in Function:
            assert function in FUNCTION_TIER


class TestSystemRegistry:
    def test_register_and_get(self):
        registry = SystemRegistry()
        info = make_info()
        registry.register(info)
        assert registry.get("TestSys") is info
        assert "TestSys" in registry
        assert len(registry) == 1

    def test_idempotent_reregistration(self):
        registry = SystemRegistry()
        registry.register(make_info())
        registry.register(make_info())
        assert len(registry) == 1

    def test_conflicting_registration_rejected(self):
        registry = SystemRegistry()
        registry.register(make_info())
        with pytest.raises(ValueError, match="conflicting"):
            registry.register(make_info(functions=(Function.SCHEMA_EVOLUTION,)))

    def test_by_function(self):
        registry = SystemRegistry()
        registry.register(make_info("A", (Function.DATA_CLEANING,)))
        registry.register(make_info("B", (Function.SCHEMA_EVOLUTION,)))
        assert [s.name for s in registry.by_function(Function.DATA_CLEANING)] == ["A"]

    def test_by_tier(self):
        registry = SystemRegistry()
        registry.register(make_info("A", (Function.METADATA_EXTRACTION,)))
        registry.register(make_info("B", (Function.DATA_CLEANING,)))
        assert [s.name for s in registry.by_tier(Tier.INGESTION)] == ["A"]

    def test_classification_table_ordering(self):
        registry = SystemRegistry()
        registry.register(make_info("Z", (Function.HETEROGENEOUS_QUERYING,)))
        registry.register(make_info("A", (Function.METADATA_EXTRACTION,)))
        rows = registry.classification_table()
        assert rows[0] == ("Ingestion", "Metadata extraction", "A")
        assert rows[-1] == ("Exploration", "Heterogeneous data querying", "Z")


class TestDefaultRegistry:
    def test_fully_populated_after_systems_import(self):
        import repro.systems  # noqa: F401

        registry = default_registry()
        # every function of the survey's Table 1 must have >= 1 system
        for function in Function:
            if function is Function.STORAGE_BACKEND:
                continue
            assert registry.by_function(function), f"no system for {function}"

    def test_survey_headline_systems_present(self):
        import repro.systems  # noqa: F401

        registry = default_registry()
        for name in ("GEMMS", "DATAMARAN", "Skluma", "Aurum", "JOSIE", "D3L",
                     "Juneau", "PEXESO", "RNLIM", "DLN", "GOODS", "KAYAK",
                     "ALITE", "Constance", "CoreDB", "CLAMS", "D4", "DomainNet",
                     "HANDLE", "RONIN"):
            assert name in registry, f"{name} missing from registry"

    def test_table3_metadata_present_for_discovery_systems(self):
        import repro.systems  # noqa: F401

        registry = default_registry()
        for info in registry.by_function(Function.RELATED_DATASET_DISCOVERY):
            assert info.relatedness_criteria, f"{info.name} lacks Table 3 criteria"


class TestByMethod:
    def test_method_level_classification(self):
        import repro.systems  # noqa: F401
        from repro.core.registry import Method, default_registry

        registry = default_registry()
        dag_systems = {s.name for s in registry.by_method(Method.DAG)}
        assert {"KAYAK", "Nargesian et al. organization"} <= dag_systems
        vault = {s.name for s in registry.by_method(Method.DATA_VAULT)}
        assert len(vault) == 1
        federated = {s.name for s in registry.by_method(Method.FEDERATED)}
        assert "Ontario / Squerall (federation)" in federated


class TestRegistryCompleteness:
    """Table 1 is what ``import repro.systems`` registers: no system
    module is left out of it, and none of its imports registers nothing."""

    @pytest.fixture(scope="class")
    def registry(self):
        for package in SYSTEM_PACKAGES:
            path = importlib.import_module(f"repro.{package}").__path__
            for module in pkgutil.iter_modules(path):
                importlib.import_module(f"repro.{package}.{module.name}")
        return default_registry()

    @staticmethod
    def _systems_imports():
        source = (REPO_ROOT / "src" / "repro" / "systems.py").read_text()
        return {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Import) for alias in node.names
                if alias.name.startswith("repro.")}

    def test_registering_modules_are_the_systems_imports(self, registry):
        defining = {registry.system_class(info.name).__module__
                    for info in registry.all()}
        assert defining == self._systems_imports()

    def test_every_system_module_is_in_the_survey_map(self, registry):
        survey_map = (REPO_ROOT / "docs" / "SURVEY_MAP.md").read_text()
        stems = {registry.system_class(info.name).__module__.rsplit(".", 1)[1]
                 for info in registry.all()}
        assert {stem for stem in stems if stem not in survey_map} == set()

    def test_every_system_has_a_name_and_a_function(self, registry):
        for info in registry.all():
            assert info.name.strip()
            assert info.functions, f"{info.name} sits at no tier of Table 1"
