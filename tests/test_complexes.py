"""Face-family construction, queries, and the facet file format."""
from __future__ import annotations

import hashlib
from itertools import combinations
from math import comb
from random import Random

import pytest

from anticollapse.complexes import (
    MAX_FACES,
    MAX_GROUND,
    SimplicialComplex,
    check_face_count,
    digest,
    format_facet_file,
    from_facets,
    join,
    link_and_del,
    make_face,
    parse_facet_text,
    relabeled,
    skeleton,
)
from anticollapse.duality import alexander_dual
from anticollapse.errors import InputError, SizeError

from conftest import (
    all_complexes_on,
    connected_components,
    dual_by_enumeration,
    pure_complexes,
    random_complex,
    relabeled_by_faces,
)

Y28_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 3, 8), (1, 6, 8),
    (1, 7, 8), (2, 3, 7), (3, 4, 6), (2, 4, 6), (2, 5, 8), (2, 6, 7),
    (2, 7, 8), (3, 4, 7), (3, 5, 7), (3, 5, 8), (4, 5, 8), (4, 6, 8),
    (4, 7, 8), (5, 6, 7), (1, 2, 6),
]


def test_make_face_sorts_and_validates():
    assert make_face([3, 1, 2]) == (1, 2, 3)
    with pytest.raises(InputError):
        make_face([1, 1, 2])
    with pytest.raises(InputError):
        make_face([0, 2])
    with pytest.raises(InputError):
        make_face([-1])


def test_from_facets_path_closure():
    X = from_facets([[1, 2], [2, 3]])
    assert X.faces == frozenset({(), (1,), (2,), (3,), (1, 2), (2, 3)})
    assert X.dim == 1
    assert X.ground_set == frozenset({1, 2, 3})


def test_from_facets_empty_input_gives_empty_complex():
    X = from_facets([])
    assert X.faces == frozenset({()})
    assert X.dim == -1


def test_from_facets_absorbs_redundant_faces():
    X = from_facets([[1, 2, 3], [1, 2]])
    assert X.facets() == ((1, 2, 3),)


def test_from_facets_idempotent_on_random_complexes():
    rng = Random(11)
    for _ in range(50):
        X = random_complex(rng)
        again = from_facets(X.facets(), ground=X.ground_set)
        assert again == X


def test_facets_match_the_definition():
    # a facet is a face contained in no other face
    rng = Random(17)
    complexes = [random_complex(rng) for _ in range(60)]
    complexes += list(all_complexes_on((1, 2, 3)))
    for X in complexes:
        brute = sorted(
            f for f in X.faces if not any(set(f) < set(g) for g in X.faces)
        )
        assert list(X.facets()) == brute


def test_face_counts_of_full_simplex():
    for n in range(1, 8):
        X = SimplicialComplex.simplex(n)
        for k in range(-1, n):
            assert X.n_faces(k) == comb(n, k + 1)


def test_y28_census():
    X = from_facets(Y28_FACETS)
    assert X.n_faces(0) == 8
    assert X.n_faces(1) == 28  # the closure carries the complete 1-skeleton
    assert X.n_faces(2) == 21


def test_link_and_del_of_full_triangle():
    X = SimplicialComplex.simplex(3)
    link, deleted = link_and_del(X, 1)
    edge = from_facets([[2, 3]])
    assert link == edge
    assert deleted == edge


def test_link_and_del_of_triangle_boundary():
    X = SimplicialComplex.simplex_boundary(3)
    link, deleted = link_and_del(X, 1)
    assert link == from_facets([[2], [3]], ground=[2, 3])
    assert deleted == from_facets([[2, 3]])


def test_link_of_y28_vertex_one():
    # eight facets contain vertex 1, so the link is a graph with 8 edges
    X = from_facets(Y28_FACETS)
    containing = [f for f in Y28_FACETS if 1 in f]
    assert len(containing) == 8
    link, _ = link_and_del(X, 1)
    assert link.n_faces(0) == 7
    assert link.n_faces(1) == 8


def test_link_requires_ground_vertex():
    X = from_facets([[1, 2]])
    with pytest.raises(InputError):
        link_and_del(X, 9)


def test_link_of_unused_ground_vertex():
    X = from_facets([[1, 2]], ground=[1, 2, 3])
    link, deleted = link_and_del(X, 3)
    assert not link.faces  # vertex 3 carries no faces at all
    assert deleted.faces == X.faces


def test_join_cone_over_edge():
    point = from_facets([[1]])
    edge = from_facets([[2, 3]])
    assert join(point, edge) == SimplicialComplex.simplex(3)


def test_join_identity_with_empty_complex():
    X = from_facets([[1, 2], [2, 3]])
    empty = SimplicialComplex.empty([9])
    joined = join(X, empty)
    assert joined.faces == X.faces
    assert joined.ground_set == X.ground_set | {9}


def test_join_two_point_pairs_is_four_cycle():
    pair1 = from_facets([[1], [2]])
    pair2 = from_facets([[3], [4]])
    square = join(pair1, pair2)
    assert set(square.facets()) == {(1, 3), (1, 4), (2, 3), (2, 4)}


def test_join_rejects_overlap():
    with pytest.raises(InputError):
        join(from_facets([[1]]), from_facets([[1, 2]]))


def test_skeleton_of_simplex_is_complete_graph():
    X = skeleton(SimplicialComplex.simplex(8), 1)
    assert X.n_faces(1) == 28
    assert X.dim == 1
    assert X.ground_set == frozenset(range(1, 9))


def test_downward_closure_exhaustive_small():
    rng = Random(5)
    for _ in range(30):
        X = random_complex(rng, max_vertices=5)
        for f in X.faces:
            for k in range(len(f)):
                for g in combinations(f, k):
                    assert g in X.faces


def test_connected_components():
    assert connected_components(from_facets([[1, 2], [3, 4]])) == 2
    assert connected_components(from_facets([[1, 2], [2, 3]])) == 1


def test_relabeled_injective():
    X = from_facets([[1, 2]])
    Y = relabeled(X, {1: 5})
    assert Y.facets() == ((2, 5),)
    with pytest.raises(InputError):
        relabeled(X, {1: 2})


def test_relabeled_matches_the_face_oracle():
    for X in pure_complexes():
        n = len(X.ground_set)
        injective = [{}, {1: n + 1}, {1: 1, n: 2 * n}, {v: n + 1 - v for v in X.ground_set},
                     {v: 7 * v + 100 for v in X.ground_set if v % 2}]
        for move in injective:
            assert relabeled(X, move) == relabeled_by_faces(X, move)
        for move in ({1: 2}, {v: 1 for v in X.ground_set}, {1: n + 1, 2: n + 1}):
            for relabel in (relabeled, relabeled_by_faces):
                with pytest.raises(InputError, match="not injective"):
                    relabel(X, move)


def test_digest_ignores_facet_order_and_detects_changes():
    X = from_facets([[1, 2], [2, 3]])
    Y = from_facets([[2, 3], [1, 2]])
    assert digest(X) == digest(Y)
    Z = from_facets([[1, 2], [2, 3], [1, 3]])
    assert digest(X) != digest(Z)


def test_facet_file_round_trip():
    rng = Random(17)
    for _ in range(25):
        X = random_complex(rng)
        text = format_facet_file(X, header_comments=["round trip"])
        back = parse_facet_text(text)
        assert back == SimplicialComplex(X.ground_set, X.faces)


def test_facet_file_ground_directive():
    X = parse_facet_text("ground 5\n1 2\n")
    assert X.ground_set == frozenset(range(1, 6))
    assert X.facets() == ((1, 2),)


def test_facet_file_ground_directive_is_bounded():
    # the largest ground is accepted; one more is refused before any
    # per-label work, so a huge n cannot exhaust memory
    assert len(parse_facet_text(f"ground {MAX_GROUND}\n1 2\n").ground_set) == MAX_GROUND
    for n in (MAX_GROUND + 1, 300_000, 10**12):
        with pytest.raises(InputError, match=f"1..{MAX_GROUND}"):
            parse_facet_text(f"ground {n}\n1 2\n")


def test_facet_file_digit_limit_applies_per_token():
    # int() refuses a number of more than 4300 digits (rejected below), not
    # a line whose numbers add up to more digits than that
    padded = "0" * 3000
    assert parse_facet_text(f"{padded}1 {padded}2\n").facets() == ((1, 2),)


def test_facet_file_void_and_empty():
    void = parse_facet_text("ground 3\nvoid\n")
    assert not void.faces
    empty = parse_facet_text("ground 3\n")
    assert empty.faces == frozenset({()})
    assert parse_facet_text(format_facet_file(void)) == void


def test_facet_file_rejects_bad_lines():
    with pytest.raises(InputError):
        parse_facet_text("1 1 2\n")
    with pytest.raises(InputError):
        parse_facet_text("ground 0\n")
    with pytest.raises(InputError):
        parse_facet_text("1 2\nground 3\n")


@pytest.mark.parametrize(
    "text",
    ["groundx 5\n1 2\n", "ground \u00b2\n1 2\n", "1_0 2\n", "+3 1\n", "\uff11 2\n",
     f"ground {'7' * 5000}\n1 2\n", f"1 {'7' * 5000}\n"],
    ids=["directive-suffix", "superscript-ground", "underscore", "sign", "fullwidth-digit",
         "5000-digit-ground", "5000-digit-vertex"],
)
def test_facet_file_rejects_non_ascii_numbers_and_directives(text):
    # the directive is exactly "ground" and every number is ASCII decimal
    # digits, though int() would take the superscript, underscore, sign and
    # fullwidth digit; int() itself refuses a number of over 4300 digits
    with pytest.raises(InputError):
        parse_facet_text(text)


@pytest.mark.parametrize(
    "text",
    [
        "ground 5\nground 3\n1 2\n",
        "ground 3\nground 3\n1 2\n",
        "ground 3\nvoid\nvoid\n",
        "void\nvoid\n",
    ],
)
def test_facet_file_rejects_repeated_directives(text):
    # a second ground or void line contradicts or repeats the first
    with pytest.raises(InputError):
        parse_facet_text(text)


def test_euler_characteristic():
    assert SimplicialComplex.simplex(4).euler_characteristic() == 0
    # reduced: a circle gives -1, a 2-sphere gives +1
    assert SimplicialComplex.simplex_boundary(3).euler_characteristic() == -1
    assert SimplicialComplex.simplex_boundary(4).euler_characteristic() == 1
    assert from_facets([[1], [2]]).euler_characteristic() == 1
    assert SimplicialComplex.empty([1, 2]).euler_characteristic() == -1
    assert SimplicialComplex.void([1, 2]).euler_characteristic() == 0


# -- accessors against their tuple definitions --------------------------

SPARSE_LABELS = (2, 5, 9, 40, 10**9, 10**9 + 7)


def tuple_closure(facets) -> set:
    return {g for f in facets for k in range(len(f) + 1) for g in combinations(f, k)}


def accessor_cases():
    """(ground, faces) pairs: every complex on {1, 2, 3}, seeded random
    draws, and the same draws moved onto a sparse ground set."""
    cases = [(X.ground_set, X.faces) for X in all_complexes_on((1, 2, 3))]
    rng = Random(41)
    for _ in range(40):
        X = random_complex(rng)
        cases.append((X.ground_set, X.faces))
        move = dict(zip(sorted(X.ground_set), SPARSE_LABELS))
        cases.append(
            (frozenset(move.values()), frozenset(tuple(move[v] for v in f) for f in X.faces))
        )
    return cases


def test_accessors_match_tuple_definitions():
    for ground, faces in accessor_cases():
        X = from_facets(
            [f for f in faces if not any(set(f) < set(g) for g in faces)], ground=ground
        ) if faces else SimplicialComplex.void(ground)
        assert X.ground_set == ground
        assert X.faces == faces
        assert len(X) == len(faces)
        for d in range(-2, len(ground) + 1):
            assert X.faces_of_dim(d) == {f for f in faces if len(f) == d + 1}
            assert X.n_faces(d) == len(X.faces_of_dim(d))
        facets = sorted(f for f in faces if not any(set(f) < set(g) for g in faces))
        assert list(X.facets()) == facets
        assert X.support == {v for f in faces for v in f}
        assert X.dim == (max(len(f) for f in faces) - 1 if faces else -2)
        for f in faces:
            assert f in X
        for f in combinations(sorted(ground), 2):
            assert (f in X) == (f in faces)
        lines = [f"ground {len(ground)}"] + [" ".join(map(str, f)) for f in facets]
        payload = "\n".join(lines + ([] if faces else ["void"]))
        assert digest(X) == hashlib.sha256(payload.encode("utf-8")).hexdigest()
        same = SimplicialComplex(ground, faces)
        assert X == same and hash(X) == hash(same)
        if facets:
            smaller = SimplicialComplex(ground, faces - {facets[-1]})
            assert X != smaller
        assert X != SimplicialComplex(ground | {10**9 + 9}, faces)


def test_link_join_relabel_and_dual_match_tuple_definitions():
    for ground, faces in accessor_cases():
        X = SimplicialComplex(ground, faces)
        for v in sorted(ground):
            rest = ground - {v}
            link = {tuple(u for u in f if u != v) for f in faces if v in f}
            deleted = {f for f in faces if v not in f}
            assert link_and_del(X, v) == (
                SimplicialComplex(rest, link), SimplicialComplex(rest, deleted)
            )
        other = from_facets([[10**9 + 11, 10**9 + 12], [3 * 10**9]])
        joined = {tuple(sorted(f + g)) for f in faces for g in other.faces}
        assert join(X, other) == SimplicialComplex(ground | other.ground_set, joined)
        move = {v: 7 * v + 1 for v in ground}
        moved = {tuple(sorted(move[u] for u in f)) for f in faces}
        assert relabeled(X, move) == SimplicialComplex(set(move.values()), moved)
        assert alexander_dual(X) == dual_by_enumeration(X)


def test_face_count_guard_is_exact_at_its_bound():
    check_face_count(MAX_FACES, "a complex")
    with pytest.raises(SizeError, match=f"a complex would have more than {MAX_FACES} faces"):
        check_face_count(MAX_FACES + 1, "a complex")
