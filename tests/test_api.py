"""The package's public names are exactly what its modules declare in __all__."""

import types

import pytest

import coneyamabe
from coneyamabe import elliptic, geometry, mesh, solver

MODULES = (elliptic, geometry, mesh, solver)


def test_package_exports_the_union_of_module_all_lists():
    public = {
        name for name, value in vars(coneyamabe).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    declared = set().union(*(module.__all__ for module in MODULES))
    assert public == declared


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_exists(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(coneyamabe, name) is getattr(module, name)


def test_every_solver_failure_is_a_solver_error():
    failures = (
        elliptic.NonConvergenceError, elliptic.IndefiniteOperatorError,
        elliptic.NegativeEigenvectorError, solver.OrderingViolationError,
        solver.NoStabilizationError, solver.MonotonicityViolationError, solver.CapSearchError,
    )
    assert all(issubclass(cls, coneyamabe.SolverError) for cls in failures)
