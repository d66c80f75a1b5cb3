"""Built-in English stopword list.

The list targets the tokenizer in :mod:`deident.corpus`, which splits
contractions ("don't" becomes "don", "'", "t"), so common contraction
fragments are included as standalone entries.
"""

from __future__ import annotations

from pathlib import Path

from .corpus import _text_lines

DEFAULT_STOPWORDS: frozenset[str] = frozenset(
    """
    a about above after again against all am an and any are as at
    be because been before being below between both but by
    can cannot could did do does doing down during
    each few for from further
    had has have having he her here hers herself him himself his how
    i if in into is it its itself
    just
    me more most my myself
    no nor not now
    of off on once only or other our ours ourselves out over own
    same she should so some such
    than that the their theirs them themselves then there these they
    this those through to too
    under until up
    very
    was we were what when where which while who whom why will with would
    you your yours yourself yourselves
    aren couldn didn doesn don hadn hasn haven isn mustn shan shouldn
    wasn weren won wouldn
    d ll m re s t ve
    """.split()
)


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Load a stopword set from a file with one word per line.

    Blank lines and lines starting with '#' are skipped; words are
    lowercased so they match normalized tokens. A line that is not UTF-8
    raises CorpusError naming it.
    """
    words = (line.strip() for _, line in _text_lines(path))
    return frozenset(word.casefold() for word in words if word and not word.startswith("#"))
