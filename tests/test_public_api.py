"""Public-API surface tests: exports resolve, errors form one hierarchy."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    SchedulerError,
    ShutdownError,
    SimulationError,
)

PACKAGES = [
    "repro",
    "repro.core",
    "repro.sim",
    "repro.broadcast",
    "repro.groups",
    "repro.obs",
    "repro.smr",
    "repro.apps",
    "repro.workload",
    "repro.bench",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), f"{package} lacks __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_paper_algorithms_constructible(self):
        from repro import (COS_ALGORITHMS, ReadWriteConflicts,
                           ThreadedRuntime, make_cos)
        runtime = ThreadedRuntime()
        for name in COS_ALGORITHMS:
            assert make_cos(name, runtime, ReadWriteConflicts()) is not None

    def test_unknown_algorithm_rejected(self):
        from repro import ReadWriteConflicts, ThreadedRuntime, make_cos
        with pytest.raises(ValueError, match="unknown COS algorithm"):
            make_cos("optimistic", ThreadedRuntime(), ReadWriteConflicts())


#: Resolves every lazy re-export in a fresh interpreter, where nothing is
#: imported yet, and builds every scheduler and service by name.
_LAZY_PROBE = """
import importlib
import sys
for package in sys.argv[1:]:
    module = importlib.import_module(package)
    for name in module.__all__:
        getattr(module, name)
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace), package
from repro.apps import SERVICES, build_service
from repro.core import (COS_ALGORITHMS, FOOTPRINT_ALGORITHMS,
                        KeyedConflicts, ThreadedRuntime, make_cos)
for name in COS_ALGORITHMS:
    # A pairwise-only relation where the scheduler allows one.
    relation = KeyedConflicts()
    if name not in FOOTPRINT_ALGORITHMS:
        relation.supports_footprint = False
    assert make_cos(name, ThreadedRuntime(), relation) is not None, name
for name in SERVICES:
    assert build_service(name).conflicts is not None, name
try:
    build_service("no-such-service")
except Exception as error:
    assert "unknown service" in str(error), error
else:
    raise AssertionError("an unknown service was built")
print("ok")
"""

LAZY_PACKAGES = ["repro", "repro.core", "repro.broadcast", "repro.groups",
                 "repro.obs", "repro.apps"]


class TestLazyExports:
    def test_every_export_resolves_from_a_fresh_interpreter(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run(
            [sys.executable, "-c", _LAZY_PROBE, *LAZY_PACKAGES],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True,
            timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_name_is_an_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name  # noqa: B018


class TestErrorHierarchy:
    @pytest.mark.parametrize("error_type", [
        ConfigurationError, ProtocolError, SimulationError,
        SchedulerError, ShutdownError,
    ])
    def test_all_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, ReproError)
        assert issubclass(error_type, Exception)

    def test_domain_errors_catchable_at_base(self):
        from repro.smr.checkpoint import CheckpointError
        from repro.core.history import HistoryViolation
        from repro.smr.client import ClientTimeout
        for error_type in (CheckpointError, HistoryViolation, ClientTimeout):
            assert issubclass(error_type, ReproError)


class TestDocstrings:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_packages_documented(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and module.__doc__.strip()

    def test_public_classes_documented(self):
        from repro import (COS, CoarseGrainedCOS, FineGrainedCOS,
                           LockFreeCOS, SequentialCOS)
        for cls in (COS, CoarseGrainedCOS, FineGrainedCOS, LockFreeCOS,
                    SequentialCOS):
            assert cls.__doc__ and cls.__doc__.strip()
