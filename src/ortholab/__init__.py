"""ortholab: an exact-arithmetic workbench for the lattice of subspaces,
Boolean predicates over states, and branching measurement experiments.

Everything is computed over the Gaussian rationals, so lattice identities,
Born probabilities and expectation values are exact decisions rather than
floating-point approximations.

``import ortholab`` loads no submodule: each public name is imported from
its home module on first use (PEP 562), so a caller pays only for what it
touches.
"""

import importlib

__version__ = "0.1.0"

# Each public name by its home module; a module's own name is the submodule.
_HOMES = {
    "linalg": "Matrix Rational Scalar ScalarParseError Vector inner nullspace outer"
    " parse_scalar rank rref vec",
    "lattice": "GAUSSIAN_RATIONAL RATIONAL_REAL Subspace check_orthomodular distributes"
    " find_nondistributive_witness join leq meet ortho random_subspace span substream",
    "propositions": "EqualsVector ExpectationIn InSubspace Interval evaluate expectation"
    " is_subspace_closed spin_bound_witness",
    "process": "Atom ClassicalPrepare ClassicalStep ConditionalUnitary Measure Observable"
    " Outcome OutcomeIs PointIs Prepare check_distributivity hatch_demo holds_surely"
    " prob_of run spin_demo spin_observable",
    "classical": "ClassicalState MultiplicativeObservable PhaseSpace classical_expectation"
    " density two_state_demo",
    "dsl": "BooleanSetAlgebra IdentityStatement SubspaceLattice check eval_term"
    " parse_statement parse_term",
    "spin": "",
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in [home, *names.split()]}

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__():
    return sorted(__all__ + [name for name in globals() if name.startswith("__")])
