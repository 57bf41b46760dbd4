"""Shared hypothesis strategies for diagram and matrix inputs."""

from hypothesis import strategies as st

from lbkit.diagrams import BraidWord, braid_closure, normalize_to_writhe
from lbkit.homology import IntMatrix

signs = st.sampled_from((1, -1))


@st.composite
def braid_words(draw, min_strands=1, max_strands=5, max_letters=6):
    n = draw(st.integers(min_strands, max_strands))
    if n == 1:
        return BraidWord(1, ())
    letters = draw(st.lists(
        st.tuples(st.integers(1, n - 1), signs), max_size=max_letters))
    return BraidWord(n, tuple(letters))


@st.composite
def annular_links(draw, min_strands=1, max_strands=4, max_letters=5):
    """A normalized annular link with arbitrary small framings."""
    word = draw(braid_words(min_strands, max_strands, max_letters))
    ncomp = len(word.cycles())
    framings = draw(st.lists(st.integers(-4, 4), min_size=ncomp, max_size=ncomp))
    return normalize_to_writhe(braid_closure(word, framings=framings))


@st.composite
def int_matrices(draw, max_dim=4, bound=5, shapes=None):
    """A rows x cols matrix with entries in [-bound, bound]; the shape is
    drawn from ``shapes`` when given, else each side from 1 to max_dim."""
    if shapes is None:
        rows = draw(st.integers(1, max_dim))
        cols = draw(st.integers(1, max_dim))
    else:
        rows, cols = draw(st.sampled_from(shapes))
    entry = st.integers(-bound, bound)
    entries = draw(st.lists(
        st.lists(entry, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return IntMatrix(rows, cols, tuple(tuple(r) for r in entries))
