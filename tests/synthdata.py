"""Synthetic aligned-corpus generator for tests.

Builds biography-style records with three tiers of identifying signal:

* direct identifiers leaked verbatim into the document (a unique surname,
  a shared given name, occupation, team), which lexical methods can find;
* quasi-identifiers that never appear in the profile (home city and
  nationality adjective for the profile's country noun, a games year tied
  to the birth year), which only a trained reidentifier can exploit;
* rare but innocent "flavor" words that carry high IDF and no identity.

Occupation/country/team come bundled from a small pool of archetypes, so
dozens of profiles stay lexically compatible once names are masked.

`make_distinct_rows` builds the opposite case, text whose words mostly do
not repeat, as in the paper's Wikipedia biographies: every word is a
pseudo-word of Zipf-like rank. `write_corpus(..., make_rows=...)` writes
either kind.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GIVEN_NAMES = """
    alda bren cora dain elio fara gild hale iris jory kade lena miro nola
    oren pia quil rafe sena tovi ugo vida wren xeni yael zane
""".split()

SYLLABLES = """
    bar den fel gor hal kin lor mar nor pel quin ros sten tor vel win yar
    zel bek cor dov fen
""".split()

OCCUPATIONS = """
    fencer cyclist sculptor poet painter footballer swimmer architect
    violinist chemist historian actor sprinter rower novelist botanist
    drummer economist skier judoka
""".split()

# country noun (profile) -> (nationality adjective, cities) seen in documents
COUNTRIES: dict[str, tuple[str, tuple[str, str]]] = {
    "belgium": ("belgian", ("arlon", "ghent")),
    "denmark": ("danish", ("odense", "aarhus")),
    "finland": ("finnish", ("espoo", "tampere")),
    "hungary": ("hungarian", ("pecs", "szeged")),
    "iceland": ("icelandic", ("akureyri", "selfoss")),
    "latvia": ("latvian", ("jelgava", "liepaja")),
    "moldova": ("moldovan", ("balti", "cahul")),
    "norway": ("norwegian", ("bergen", "tromso")),
    "portugal": ("portuguese", ("leiria", "setubal")),
    "romania": ("romanian", ("cluj", "brasov")),
    "slovakia": ("slovak", ("kosice", "nitra")),
    "sweden": ("swedish", ("malmo", "orebro")),
    "austria": ("austrian", ("graz", "linz")),
    "croatia": ("croatian", ("split", "rijeka")),
    "estonia": ("estonian", ("tartu", "parnu")),
}
COUNTRY_NAMES = sorted(COUNTRIES)

TEAMS = """
    albatross bison cormorant dragonfly egret falcon gannet heron ibis
    jackdaw kestrel lapwing merlin nightjar osprey
""".split()

MONTHS = """
    january february march april may june july august september october
    november december
""".split()

FLAVOR = """
    abrupt agile airy arcane ardent artful austere blithe bold brash brisk
    candid canny civil clever coarse cordial crafty daring deft docile
    dogged dour eager earnest elegant fabled fickle fierce flashy fluent
    forceful frank frugal gallant genial gentle giddy graceful gritty hardy
    hasty heady hearty humble jovial keen kindly limber lively lofty loyal
    lucid meek mellow merry mild modest nimble noble
""".split()

# Flavor words always travel as one of these fixed triples, so a triple
# narrows a document no further than the ~50 documents sharing it.
FLAVOR_TRIPLES = [tuple(FLAVOR[3 * t : 3 * t + 3]) for t in range(len(FLAVOR) // 3)]

N_ARCHETYPES = 25


def _surname(i: int) -> str:
    s = len(SYLLABLES)
    parts = [SYLLABLES[i % s], SYLLABLES[(i // s) % s]]
    if i >= s * s:
        parts.append(SYLLABLES[(i // (s * s)) % s])
    return "".join(parts).capitalize()


def _archetypes(rng: np.random.Generator) -> list[tuple[str, str, str]]:
    """(occupation, country, team) bundles shared by many profiles."""
    return [
        (
            OCCUPATIONS[rng.integers(len(OCCUPATIONS))],
            COUNTRY_NAMES[rng.integers(len(COUNTRY_NAMES))],
            TEAMS[rng.integers(len(TEAMS))],
        )
        for _ in range(N_ARCHETYPES)
    ]


def make_corpus_rows(n: int, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    bundles = _archetypes(rng)
    rows = []
    for i in range(n):
        given = GIVEN_NAMES[rng.integers(len(GIVEN_NAMES))].capitalize()
        surname = _surname(i)
        occupation, country, team = bundles[rng.integers(len(bundles))]
        adjective, cities = COUNTRIES[country]
        city = cities[rng.integers(2)].capitalize()
        month = MONTHS[rng.integers(len(MONTHS))]
        day = int(rng.integers(1, 29))
        year = int(1910 + 4 * rng.integers(0, 25))
        games_year = year + int(rng.choice([20, 24, 28]))
        f1, f2, f3 = FLAVOR_TRIPLES[rng.integers(len(FLAVOR_TRIPLES))]

        template = i % 3
        if template == 0:
            document = (
                f"{given} {surname} is a {adjective} {occupation} known for {f1} and "
                f"{f2} form. {surname} competed for the {team} club of {city} and made "
                f"a {f3} appearance at the {games_year} summer games."
            )
        elif template == 1:
            document = (
                f"{given} {surname} is a {adjective} {occupation} from {city} with a "
                f"{f1} and {f2} style. After joining the {team} club, {surname} earned "
                f"a {f3} reputation and won a national title in {games_year}."
            )
        else:
            document = (
                f"{given} {surname} is a former {adjective} {occupation}. Raised in "
                f"{city}, the {f1} and {f2} {surname} led the {team} club before a "
                f"{f3} farewell in the {games_year} season."
            )
        profile = [
            ["name", f"{given} {surname}"],
            ["birth_date", f"{day} {month} {year}"],
            ["occupation", occupation],
            ["country", country],
            ["team", team],
        ]
        rows.append({"id": f"p{i:04d}", "document": document, "profile": profile})
    return rows


# Pseudo-word ranks run over [1, LEXICON_SIZE) with P(rank r) close to 1/r:
# a few words are frequent, and most of a 10k corpus's words occur once.
LEXICON_SIZE = 10**9


def _pseudo_word(rank: int) -> str:
    """The rank's base-len(SYLLABLES) digits, one syllable each."""
    word = ""
    while rank:
        rank, digit = divmod(rank, len(SYLLABLES))
        word += SYLLABLES[digit]
    return word


def make_distinct_rows(n: int, seed: int = 0) -> list[dict]:
    """Records of Zipf-like pseudo-words: a rank is floor(LEXICON_SIZE ** u) for a uniform u.

    A profile holds a name and four fields of one or two words. Its document
    repeats the name, the occupation and the known_for words among 32 filler
    words drawn the same way.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        words = list(map(_pseudo_word, (LEXICON_SIZE ** rng.random(40)).astype(np.int64).tolist()))
        given, surname = words[0].capitalize(), words[1].capitalize()
        place, occupation, known_for, team, filler = words[2:4], words[4], words[5:7], words[7], words[8:]
        document = (
            f"{given} {surname} {' '.join(filler[:12])} {occupation} {' '.join(filler[12:22])} "
            f"{' '.join(known_for)}. {surname} {' '.join(filler[22:])}."
        )
        profile = [
            ["name", f"{given} {surname}"],
            ["birth_place", " ".join(place)],
            ["occupation", occupation],
            ["known_for", " ".join(known_for)],
            ["team", team],
        ]
        rows.append({"id": f"d{i:06d}", "document": document, "profile": profile})
    return rows


def write_corpus(path: str | Path, n: int, seed: int = 0, make_rows=make_corpus_rows) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for row in make_rows(n, seed=seed):
            fh.write(json.dumps(row) + "\n")
    return path
