"""Separability certificates and separable-stability checks for free
products of closed-surface groups and free groups, with Whitehead-graph
analysis and a PSL(2,C) numeric substrate."""

from sepstab.groups import (
    CyclicNormalForm,
    GroupError,
    GroupSpec,
    LetterOutOfRange,
    MixedFactors,
    TrivialElement,
    UniquelyFreelyDecomposable,
    canonical_class,
    cyclic_reduce,
    dehn_reduce,
    enumerate_elements,
    free_reduce,
    normal_form,
)

__all__ = [
    "CyclicNormalForm",
    "GroupError",
    "GroupSpec",
    "LetterOutOfRange",
    "MixedFactors",
    "TrivialElement",
    "UniquelyFreelyDecomposable",
    "canonical_class",
    "cyclic_reduce",
    "dehn_reduce",
    "enumerate_elements",
    "free_reduce",
    "normal_form",
]
