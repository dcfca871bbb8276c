"""The one-pass certificate reader against the reader it replaced.

``tests/reference.py::parse_certificate`` takes one method call per line and
builds every move it reads. On every text below both readers must give the
same tree, or the same ``FormatError`` with the same message, line and field.
"""

import random
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cubemill.formats import parse_certificate, serialize_certificate
from cubemill.surgery import random_loop
from helpers import LARGER_COMPLEXES, deep_certificate_text, dual_of, fuzz_contractions, reading


def same_reading(text):
    got = reading(parse_certificate, text)
    assert got == reading(reference.parse_certificate, text), repr(text[:200])
    return got


@lru_cache(maxsize=None)
def family_texts():
    return tuple(
        serialize_certificate(cert)
        for name in LARGER_COMPLEXES
        for _p, cert in fuzz_contractions(name)[1]
    )


def test_every_fuzz_family_certificate_reads_the_same():
    for text in family_texts():
        assert isinstance(same_reading(text), list)


def test_a_deep_certificate_and_its_truncation_read_the_same():
    loop = random_loop(dual_of("grid2"), random.Random(3))
    text = deep_certificate_text(loop, "chain\nend\n", 5000)
    assert len(same_reading(text)) == 10001
    lines = text.splitlines()
    assert same_reading("\n".join(lines[: len(lines) - 2500]) + "\n")[1:] == (
        "unexpected end of certificate",
        None,
        None,
    )


def test_repeated_move_lines_read_to_equal_trees():
    text = (
        "split rotate 1 mirror 0 support 0\nbridge 7 19 7\nprojected 7\nleft\n"
        "chain\nrotate 1\nbacktrack 0\nrotate 1\nbacktrack 0\nslide 1 2 3\nend\n"
        "right\n"
        "chain\nslide 1 2 3\nrotate 1\nrotate  1  # spaced\nbacktrack 0\nrotate +1\nend\n"
        "end\n"
    )
    tree = parse_certificate(text)
    assert tree == reference.parse_certificate(text)
    assert tree.left.moves[0] == tree.right.moves[1] == tree.right.moves[4]


# every message the reader can give, by its first words
MESSAGES = (
    "unexpected end of certificate",
    "trailing content after certificate",
    "expected 'left'",
    "expected 'end'",
    "expected 'right'",
    "expected 'chain' or 'split', got",
    "chain takes no arguments",
    "end takes no arguments",
    "expected integers",
    "unknown move",
    "expected 'split rotate K mirror M support S'",
    "expected a bridge line",
    "expected a projected line",
)

TOKENS = (
    "split", "chain", "end", "left", "right", "rotate", "mirror", "support",
    "bridge", "projected", "backtrack", "slide", "0", "1", "-1", "+2", "07",
    "1_0", "\u0663", "x", "1.5", "#", "#end", "9" * 30,
)
BREAKS = ("\x0c", "\u2028", "\x0b", "\x1c", "\x1e", "\x85", "\u2029", "\r")
SPACES = (" ", "\t", "\x1f", "\xa0", "\u3000")


def mutate(text, rng):
    """``text`` with one to three edits: lines dropped, duplicated, swapped or
    cut short, tokens swapped, inserted or dropped, ``#`` comments, CRLF
    endings, and line breaks or odd spaces inside a line."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines)) if lines else 0
        op = rng.randrange(12)
        if not lines:
            lines.append(rng.choice(TOKENS))
        elif op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
        elif op == 3:
            del lines[rng.randrange(i, len(lines) + 1) :]
        elif op == 4:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 5:
            words = lines[i].split() or [""]
            a, b = rng.randrange(len(words)), rng.randrange(len(words))
            words[a], words[b] = words[b], words[a]
            lines[i] = " ".join(words)
        elif op == 6:
            words = lines[i].split()
            words.insert(rng.randrange(len(words) + 1), rng.choice(TOKENS))
            lines[i] = " ".join(words)
        elif op == 7:
            k = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:k] + rng.choice(("#", "  # note", "#x 1")) + lines[i][k:]
        elif op == 8:
            lines.insert(i, rng.choice(("", "   ", "# comment", "\t#")))
        elif op == 9:
            k = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:k] + rng.choice(BREAKS + SPACES) + lines[i][k:]
        elif op == 10:
            # a near copy of a line right after it, so that a move line and a
            # variant with a token or two dropped meet in one chain
            words = lines[i].split()
            for _ in range(rng.randint(1, 2)):
                if words:
                    del words[rng.randrange(len(words))]
            lines.insert(i + 1, " ".join(words))
        else:
            words = lines[i].split()
            if words:
                words[rng.randrange(len(words))] = rng.choice(TOKENS)
                lines[i] = " ".join(words)
    end = rng.choice(("\n", "\n", "\r\n", ""))
    return end.join(lines) + end


def test_seeded_mutations_read_the_same():
    rng = random.Random(20261019)
    texts = family_texts()
    loop = random_loop(dual_of("grid2"), random.Random(3))
    deep = deep_certificate_text(loop, "chain\nrotate 1\nbacktrack 0\nend\n", 4)
    seen = set()
    trees = 0
    for n in range(12000):
        text = mutate(deep if n % 10 == 0 else rng.choice(texts), rng)
        got = same_reading(text)
        if isinstance(got, list):
            trees += 1
        else:
            seen.update(m for m in MESSAGES if got[1].startswith(m))
    # the mutations reach every message and leave some texts readable
    assert seen == set(MESSAGES)
    assert trees > 500


@st.composite
def token_soup(draw):
    lines = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(TOKENS), max_size=8),
                st.sampled_from(SPACES[:2] + ("  ",)),
                st.sampled_from(("", "", " # c", "#")),
            ),
            max_size=14,
        )
    )
    ends = st.sampled_from(("\n", "\n", "\r\n") + BREAKS)
    return "".join(sep.join(words) + note + draw(ends) for words, sep, note in lines)


@settings(max_examples=400)
@given(token_soup())
def test_token_soup_reads_the_same(text):
    same_reading(text)

