"""Constraint reduction of momentum-linear deterministic systems.

Modules:
    expr        exact symbolic expressions, parser, sampled equality
    symplectic  phase spaces, Poisson brackets, charge splitting
    reduction   constraint elimination, Darboux charts, reduced dynamics
    pathint     classical/lattice propagators, partition functions, paths
    anomaly     generating functions and discretization anomaly checks
    sysfile     the .sys model-description file format and bundled models
    cli         command-line entry point
"""

__version__ = "0.1.0"
