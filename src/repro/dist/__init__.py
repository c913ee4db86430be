"""Simulated multi-GPU cluster substrate: 2-D decomposition (Table I),
in-process MPI, halo exchange, the three overlap optimizations, and
cluster/interconnect models of TSUBAME 1.2 / 2.0.

Each name is imported from its module on first use: a run that needs
only the lockstep driver (a single domain stepped as host tiles) does not
pay for the cluster and overlap models."""
import importlib

#: each exported name -> the module that defines it
_MODULES = {
    "Subdomain": "decomposition", "decompose": "decomposition",
    "table1_mesh": "decomposition", "TABLE1_CONFIGS": "decomposition",
    "make_subgrid": "decomposition",
    "ClusterSpec": "network", "LinkSpec": "network",
    "TSUBAME_1_2": "network", "TSUBAME_2_0": "network",
    "SimComm": "mpi_sim", "HaloExchanger": "halo",
    "MultiGpuAsuca": "multigpu",
    "OverlapConfig": "overlap", "OverlapModel": "overlap",
    "StepTimeline": "overlap", "VariableBreakdown": "overlap",
}

__all__ = list(_MODULES)


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULES[name]}", __name__),
                   name)
