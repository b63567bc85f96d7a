"""Bounded fuzz of the Python API: the error contract of every public entry
that takes Weyl elements.

Each example draws the ring of a rank <= 3 type and Levi, and elements from
three pools: the ring's minimal representatives, the rest of its group, and
another group (a second enumeration of the same type, whose elements share
indices and words with the ring's, or a group of another type).  Every
entry must raise ValueError exactly when an element it uses belongs to
another group or, for the ring's entries, is not a minimal representative
of its W^P; the message says which.  Otherwise an entry may raise only
DimensionError (a tuple whose codimensions do not add up to dim G/P) or
BudgetError, never KeyError, IndexError or AssertionError.  A tuple with no
factor has no point coefficient, so it is refused too.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from schubdeform import (
    BudgetError,
    DimensionError,
    WeylGroup,
    check_character,
    check_refined,
    coset_codim,
    inversion_product,
    root_system,
    schubert_basis,
    weyl_group,
)

from common import ALL_TYPES, ring_for

FOREIGN = "same Weyl group"
NOT_A_REP = "not a minimal coset representative"
NO_FACTOR = "need at least one factor"


@functools.cache
def _second_enumeration(family, rank) -> WeylGroup:
    """A group of the same type as weyl_group's, built apart from it."""
    return WeylGroup(root_system(family, rank))


@st.composite
def cases(draw):
    family, rank = draw(st.sampled_from(ALL_TYPES))
    ring = ring_for(family, rank, tuple(sorted(draw(st.sets(st.integers(0, rank - 1))))))
    other = draw(st.sampled_from(
        [_second_enumeration(family, rank)]
        + [weyl_group(root_system(*t)) for t in ALL_TYPES if t != (family, rank)]))
    element = st.one_of(st.sampled_from(ring.reps), st.sampled_from(ring.group.elements),
                        st.sampled_from(other.elements))
    u, v, w, x = (draw(element) for _ in range(4))
    ws = draw(st.lists(element, max_size=3))
    p = ring.parabolic
    if ws and draw(st.booleans()):  # often enough, codimensions that add up to dim G/P
        need = p.dim - sum(p.codim(y) for y in ws[:-1])
        fits = [r for r in ring.reps if p.codim(r) == need]
        if fits:
            ws[-1] = draw(st.sampled_from(fits))
    return ring, u, v, w, x, tuple(ws)


def _expect(name, call, refusals):
    """Run `call`: ValueError (not DimensionError) with one of the `refusals`
    in its message when there are any, else nothing or DimensionError or
    BudgetError."""
    try:
        call()
    except (DimensionError, BudgetError) as e:
        assert not refusals, (name, refusals, e)
    except ValueError as e:
        assert any(r in str(e) for r in refusals), (name, refusals, e)
    else:
        assert not refusals, (name, refusals)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(cases())
def test_every_element_taking_entry_refuses_what_it_cannot_use(case):
    ring, u, v, w, x, ws = case
    group, p = ring.group, ring.parabolic
    reps = set(ring.reps)  # elements hash by identity

    def foreign(*els):
        return {FOREIGN for y in els if y.group is not group}

    def outside(*els):
        return foreign(*els) | {NOT_A_REP for y in els if y.group is group and y not in reps}

    for y in (u, v, w, x, *ws):
        assert p.contains(y) == (y in reps)
    # a point G/P has tuples of every length with codimension sum 0, the empty one too
    empty = {NO_FACTOR} if not ws and p.dim == 0 else set()

    _expect("iota", lambda: p.iota(w), outside(w))
    _expect("chi", lambda: ring.chi(w), outside(w))
    _expect("basis_class", lambda: ring.basis_class(w), outside(w))
    _expect("classical_product", lambda: ring.classical_product(u, v), outside(u, v))
    _expect("product0", lambda: ring.product0(u, v), outside(u, v))
    _expect("deformed_product", lambda: ring.deformed_product(u, v), outside(u, v))
    _expect("exponents", lambda: ring.exponents(u, v, w), outside(u, v, w))
    _expect("fold", lambda: ring.fold(ws), outside(*ws))
    _expect("fold_step", lambda: ring.fold_step({x: 1}, w), outside(x, w))
    _expect("point_coefficient", lambda: ring.point_coefficient(ws),
            outside(*ws) or ({NO_FACTOR} if not ws else set()))
    _expect("character_gaps", lambda: ring.character_gaps(ws), outside(*ws))
    _expect("is_levi_movable", lambda: ring.is_levi_movable(ws), outside(*ws) or empty)
    _expect("check_character", lambda: check_character(ring, ws), outside(*ws) or empty)
    _expect("check_refined", lambda: check_refined(ring, ws), outside(*ws) or empty)

    _expect("coset_codim", lambda: coset_codim(p, w), foreign(w))
    _expect("inversion_product", lambda: inversion_product(group, u, v), foreign(u, v))
    basis = schubert_basis(group)
    if u.index < group.order and v.index < group.order:
        # the memo is keyed by indices: a foreign pair must not be answered from it
        basis.product(group.elements[u.index], group.elements[v.index])
    _expect("SchubertBasis.product", lambda: basis.product(u, v), foreign(u, v))
