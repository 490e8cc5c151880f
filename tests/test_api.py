"""The public surface of ``spdmeans``: the names it exports, and the program
functions the traced benchmark run wraps by name."""

import importlib
import inspect
from pathlib import Path

import spdmeans

SPDBENCH = Path(__file__).resolve().parent.parent / "spdbench"

PUBLIC_NAMES = [
    "ChainScan", "ComplexMatrix", "DEFAULT_R_GRID", "DimensionMismatch",
    "DomainError", "EigenPair", "HermitianMatrix", "InvalidMatrixFile",
    "LengthMismatch", "MaxIterReached", "NoConvergence", "NonPositiveEntry",
    "OrbitProblem", "OrbitSolution", "ParamOutOfRange", "SingularInput",
    "SpdMatrix", "SpdMeansError", "UnitaryMatrix", "build_target",
    "check_compound_mean_identities", "compound", "eig_hermitian",
    "evaluate_chain", "geometric_mean", "group_chain_report",
    "hyperbolic_spectrum", "kostant_leq", "kostant_report", "load_hermitian",
    "load_matrix", "load_spd", "loewner_leq", "log_majorization_margins",
    "log_majorization_report", "log_majorizes", "majorization_report",
    "majorizes", "mat_exp", "mat_log", "mat_pow", "objective", "phi", "polar",
    "psi", "random_hermitian", "random_invertible", "random_orthogonal",
    "random_real_symmetric_traceless", "random_spd", "random_unitary",
    "riemannian_grad", "run_suites_on_realization", "save_matrix",
    "scan_chain", "solve", "spectral_mean", "spectral_mean_unitary",
    "spectrum", "trotter_distances", "verify_membership",
]


def test_public_names():
    # A name added to or removed from the package is a change of this list.
    names = sorted(
        name for name, value in vars(spdmeans).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == PUBLIC_NAMES


def _traced_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(SPDBENCH))
    return importlib.import_module("layers").TARGETS


def test_every_traced_target_resolves(monkeypatch):
    # The traced benchmark run wraps each target at install, as
    # ``Class.method`` from the class dict or as a module attribute.
    targets = _traced_targets(monkeypatch)
    assert targets
    missing = []
    for target in targets:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        found = vars(owner).get(attr) if owner is not None else None
        if not callable(found):
            missing.append(f"{target.module}.{target.attr}")
    assert missing == []

