"""Text substrate: tokenizer and the inverted index over vertex documents."""

from repro.text.inverted import (
    InvertedIndex,
    build_query_map,
    order_rarest_first,
)
from repro.text.tokenizer import STOPWORDS, tokenize, tokenize_all, tokenize_unique

__all__ = [
    "tokenize",
    "tokenize_unique",
    "tokenize_all",
    "STOPWORDS",
    "InvertedIndex",
    "build_query_map",
    "order_rarest_first",
]
