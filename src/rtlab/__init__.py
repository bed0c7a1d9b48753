"""rtlab: builders and exhaustive checkers for sphere-based extremal
graph and hypergraph constructions."""

__version__ = "0.1.0"
