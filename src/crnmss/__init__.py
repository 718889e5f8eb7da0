"""Exact decision toolkit for multistationarity of mass-action reaction
networks: deficiency theorems, injectivity criteria, embedded-atom search,
determinant optimization, and numeric steady-state witnesses.

The package holds only ``__version__``; every other name lives in its
module, e.g. ``from crnmss.decide import analyze``.  Importing the package
or its exact modules does not load numpy; ``crnmss.witness`` and
``crnmss.cli`` do."""

__version__ = "0.1.0"
