"""hamline: layered verifier circuits compiled onto a chain of 8-state
sites, the configuration automaton underneath, and numerical
verification of the resulting local Hamiltonian's structure.  Import
the submodules you use; ``import hamline`` loads none of them."""

__version__ = "0.1.0"

__all__ = ["chain", "circuit", "hamiltonian", "spectra", "verify",
           "__version__"]
