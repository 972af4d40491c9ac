"""Separability certificates and separable-stability checks for free
products of closed-surface groups and free groups, with Whitehead-graph
analysis and a PSL(2,C) numeric substrate."""
