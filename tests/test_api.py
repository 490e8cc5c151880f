"""The public surface of ``spdmeans``: the names it exports, the parameter
names of its functions and constructors, and the program functions the
traced benchmark run wraps by name."""

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

# The parameter names of every public function and class constructor, so a
# parameter added or removed is a change of this table.
PUBLIC_PARAMETERS = {
    "ChainScan": ("x", "y", "r_grid", "mats", "spectra", "vectors", "traces"),
    "ComplexMatrix": ("mat",),
    "DimensionMismatch": ("*args",),
    "DomainError": ("*args",),
    "EigenPair": ("values", "vectors"),
    "HermitianMatrix": ("mat",),
    "InvalidMatrixFile": ("*args",),
    "LengthMismatch": ("*args",),
    "MaxIterReached": ("message", "solution"),
    "NoConvergence": ("*args",),
    "NonPositiveEntry": ("*args",),
    "OrbitProblem": ("x", "y", "kind", "z"),
    "OrbitSolution": (
        "u", "v", "residual", "iterations", "objective_trace", "restarts",
        "stop_reason", "gauss_newton_steps",
    ),
    "ParamOutOfRange": ("*args",),
    "SingularInput": ("*args",),
    "SpdMatrix": ("mat",),
    "SpdMeansError": ("*args",),
    "UnitaryMatrix": ("mat",),
    "build_target": ("x", "y", "kind"),
    "check_compound_mean_identities": ("a", "b", "t", "k"),
    "compound": ("m", "k"),
    "eig_hermitian": ("m",),
    "evaluate_chain": ("scan",),
    "geometric_mean": ("a", "b", "t"),
    "group_chain_report": ("scan", "plain_rep"),
    "hyperbolic_spectrum": ("g",),
    "kostant_leq": ("f", "g"),
    "kostant_report": ("f", "g"),
    "load_hermitian": ("path",),
    "load_matrix": ("path",),
    "load_spd": ("path",),
    "loewner_leq": ("a", "b"),
    "log_majorization_margins": ("x", "y"),
    "log_majorization_report": ("x", "y"),
    "log_majorizes": ("x", "y"),
    "majorization_report": ("x", "y"),
    "majorizes": ("x", "y"),
    "mat_exp": ("m",),
    "mat_log": ("m",),
    "mat_pow": ("m", "t"),
    "objective": ("u", "v", "prob"),
    "phi": ("x", "y", "r"),
    "polar": ("m", "side"),
    "psi": ("x", "y", "r"),
    "random_hermitian": ("n", "seed", "scale"),
    "random_invertible": ("n", "seed"),
    "random_orthogonal": ("n", "seed"),
    "random_real_symmetric_traceless": ("n", "seed", "scale"),
    "random_spd": ("n", "seed", "spread"),
    "random_unitary": ("n", "seed"),
    "riemannian_grad": ("u", "v", "prob"),
    "run_suites_on_realization": ("seed", "n_values", "trials"),
    "save_matrix": ("path", "mat"),
    "scan_chain": ("x", "y", "r_grid"),
    "solve": ("prob", "tol", "max_iter", "seed", "realization", "on_iterate"),
    "spectral_mean": ("a", "b", "t"),
    "spectral_mean_unitary": ("a", "b"),
    "spectrum": ("m",),
    "trotter_distances": ("scan",),
    "verify_membership": ("sol", "prob"),
}


def test_public_names():
    # A name added to or removed from the package is a change of this list.
    names = sorted(
        name for name, value in vars(spdmeans).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == PUBLIC_NAMES


def _parameters(value) -> tuple:
    """The parameter names of a function or a class constructor; an
    exception class that keeps ``Exception``'s constructor takes *args."""
    if inspect.isclass(value) and issubclass(value, Exception) and "__init__" not in vars(value):
        return ("*args",)
    return tuple(inspect.signature(value).parameters)


def test_public_parameters():
    # A parameter added to or removed from a public callable is a change of
    # PUBLIC_PARAMETERS.
    params = {
        name: _parameters(getattr(spdmeans, name)) for name in PUBLIC_NAMES
        if callable(getattr(spdmeans, name))
    }
    assert params == PUBLIC_PARAMETERS


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

