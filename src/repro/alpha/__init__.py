"""alpha-radius word neighborhoods (Section 5): their definition as
per-place bounded BFS vocabularies aggregated bottom-up over the R-tree
(:mod:`~repro.alpha.neighborhood`), the bit-parallel pass that computes
them all at once (:mod:`~repro.alpha.build`), and the inverted file that
serves the Lemma 2-5 bounds at query time (:mod:`~repro.alpha.index`)."""

from repro.alpha.index import AlphaIndex, AlphaQueryView
from repro.alpha.neighborhood import (
    WordNeighborhood,
    looseness_alpha_bound,
    merge_neighborhoods,
    place_word_neighborhood,
)

__all__ = [
    "AlphaIndex",
    "AlphaQueryView",
    "WordNeighborhood",
    "place_word_neighborhood",
    "merge_neighborhoods",
    "looseness_alpha_bound",
]
