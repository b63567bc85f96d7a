"""The `--words` option of `product`, `lmovable` and `horn-check`: a tuple of
Schubert classes named by reduced words."""
from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from ..cli import _add_common, _parse_index_list

if TYPE_CHECKING:
    from ..deform import DeformedRing
    from ..weyl import WeylElement


def _words_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--words", required=True,
                   help="semicolon-separated reduced words, 1-based, e.g. '1,2;2,1'")


def parse_words(text: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Semicolon-separated reduced words in 1-based simple indices.

    An empty segment or "e" denotes the identity, e.g. "1,2;e;2,3,2".
    """
    words = []
    for seg in text.split(";"):
        seg = seg.strip()
        if seg in ("", "e", "-"):
            words.append(())
            continue
        words.append(_parse_index_list(seg, rank, "word"))
    return tuple(words)


def _tuple_for(ring: DeformedRing, text: str) -> list[WeylElement]:
    """The classes named by semicolon-separated words: each reduced and in W^P."""
    from ..weyl import one_based

    parab = ring.parabolic
    out = []
    for word in parse_words(text, ring.rs.rank):
        w = parab.group.from_word(word)
        if w.length != len(word):
            raise ValueError(f"word {one_based(word, 'e')} is not reduced")
        if not parab.contains(w):
            rep = parab.minimal_rep(w)
            raise ValueError(
                f"word {one_based(word, 'e')} is not a minimal coset representative"
                f" (its coset is represented by {one_based(rep.word, 'e')})")
        out.append(w)
    return out
