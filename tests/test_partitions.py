"""Tests for partitions, tableaux, refinement arrows, and the group embedding."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from frame_rigidity.errors import (
    ChainMismatchError,
    IllegalPermutationError,
    SizeMismatchError,
)
from frame_rigidity.partitions import (
    IntPartition,
    RefinementArrow,
    Tableau,
    compose_refinements,
    dominance_leq,
    identity_refinement,
    is_legal_permutation,
    legal_permutations,
    lift_coarse_permutation,
    partitions_of,
    reverse_refines,
    set_partitions,
)

partitions_strategy = st.lists(st.integers(1, 10), min_size=1, max_size=8).map(
    lambda xs: IntPartition(tuple(sorted(xs, reverse=True)))
)


def count_partitions_dp(n: int) -> int:
    # independent oracle: classic coin-change count over part sizes
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def bell_numbers(upto: int) -> list[int]:
    # independent oracle: Bell triangle, B(k) = last entry of row k
    row = [1]
    bells = [1]
    for _ in range(upto - 1):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
        bells.append(row[-1])
    return bells


def stirling2(n: int, k: int) -> int:
    # independent oracle: S(n, k) = k S(n-1, k) + S(n-1, k-1)
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def growth_string(labels) -> tuple[int, ...]:
    # independent oracle: relabel by order of first occurrence
    first: dict = {}
    return tuple(first.setdefault(label, len(first)) for label in labels)


class TestIntPartition:
    def test_rejects_increasing_parts(self):
        with pytest.raises(ValueError):
            IntPartition((1, 2))

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            IntPartition((2, 0))

    @pytest.mark.parametrize("parts", [(1.7, 1), (2.0,), (True,), ("1",), (np.float64(1.0),)])
    def test_rejects_non_integral_parts(self, parts):
        with pytest.raises(ValueError, match="integer"):
            IntPartition(parts)

    def test_numpy_integer_parts_become_ints(self):
        mu = IntPartition((np.int64(2), np.uint8(1)))
        assert mu == IntPartition((2, 1)) and all(type(p) is int for p in mu.parts)

    def test_conjugate_row(self):
        assert IntPartition((4,)).conjugate() == IntPartition((1, 1, 1, 1))

    def test_conjugate_column(self):
        assert IntPartition((1, 1, 1)).conjugate() == IntPartition((3,))

    def test_conjugate_hook(self):
        # (3,1): rows of lengths 3 and 1; columns have heights 2,1,1
        assert IntPartition((3, 1)).conjugate() == IntPartition((2, 1, 1))

    @given(partitions_strategy)
    def test_conjugate_involution(self, mu):
        assert mu.conjugate().conjugate() == mu

    def test_conjugate_involution_exhaustive_small(self):
        for n in range(1, 13):
            for mu in partitions_of(n):
                assert mu.conjugate().conjugate() == mu

    def test_jmp_single_jump_at_end(self):
        assert IntPartition((1, 1, 1)).jmp_sequence() == (1,)

    def test_jmp_single_row(self):
        assert IntPartition((3,)).jmp_sequence() == (3,)

    def test_jmp_mixed(self):
        # differences of (3,3,2,1,1,0): (0,1,1,0,1) -> positives (1,1,1)
        assert IntPartition((3, 3, 2, 1, 1)).jmp_sequence() == (1, 1, 1)

    @given(partitions_strategy)
    def test_jmp_sums_to_largest_part(self, mu):
        assert sum(mu.jmp_sequence()) == mu.parts[0]

    def test_symmetry_factors_all_equal(self):
        assert IntPartition((1, 1, 1)).symmetry_factors() == (3,)

    def test_symmetry_factors_distinct(self):
        assert IntPartition((2, 1)).symmetry_factors() == (1, 1)

    def test_symmetry_factors_two_pairs(self):
        assert IntPartition((2, 2, 1, 1)).symmetry_factors() == (2, 2)

    @given(partitions_strategy)
    def test_symmetry_factors_are_multiplicities(self, mu):
        # independent route: multiplicity of each part value, by increasing value
        mults = []
        for p in sorted(set(mu.parts)):
            mults.append(sum(1 for q in mu.parts if q == p))
        assert list(mu.symmetry_factors()) == mults

    @given(partitions_strategy)
    def test_symmetry_factors_count_parts(self, mu):
        assert sum(mu.symmetry_factors()) == len(mu.parts)


class TestDominance:
    def test_reflexive(self):
        mu = IntPartition((3, 2, 2))
        assert dominance_leq(mu, mu)

    def test_extremes(self):
        assert dominance_leq(IntPartition((1, 1, 1)), IntPartition((3,)))
        assert not dominance_leq(IntPartition((3,)), IntPartition((1, 1, 1)))

    def test_prefix_sum_case(self):
        assert dominance_leq(IntPartition((2, 2)), IntPartition((3, 1)))
        assert not dominance_leq(IntPartition((3, 1)), IntPartition((2, 2)))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            dominance_leq(IntPartition((2,)), IntPartition((3,)))

    def test_antisymmetric_exhaustive(self):
        for n in range(1, 8):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    if dominance_leq(mu, nu) and dominance_leq(nu, mu):
                        assert mu == nu

    def test_conjugation_reverses_order_exhaustive(self):
        for n in range(1, 8):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    if dominance_leq(mu, nu):
                        assert dominance_leq(nu.conjugate(), mu.conjugate())


class TestEnumerators:
    def test_partition_counts_against_dp(self):
        for n in range(1, 13):
            listed = list(partitions_of(n))
            assert len(listed) == count_partitions_dp(n)
            assert len(set(listed)) == len(listed)
            assert all(mu.n == n for mu in listed)

    def test_partition_count_of_12(self):
        assert len(list(partitions_of(12))) == 77

    def test_set_partition_counts_against_bell(self):
        bells = bell_numbers(6)
        for n in range(1, 7):
            listed = list(set_partitions(n))
            assert len(listed) == bells[n - 1]
            assert len(set(listed)) == len(listed)

    def test_set_partition_count_values(self):
        assert [len(list(set_partitions(n))) for n in range(1, 7)] == [
            1, 2, 5, 15, 52, 203,
        ]

    def test_set_partitions_in_growth_string_order(self):
        # the suites cycle through this tuple by trial index, so its order is
        # part of every report: restricted growth strings, lexicographically
        for n in range(8):
            strings = [growth_string(pi.labels) for pi in set_partitions(n)]
            assert strings == sorted(set(strings))
        assert [[sorted(b) for b in pi.blocks] for pi in set_partitions(3)] == [
            [[1, 2, 3]],
            [[1, 2], [3]],
            [[1, 3], [2]],
            [[2, 3], [1]],
            [[1], [2], [3]],
        ]


class TestTableau:
    def test_canonical_ordering(self):
        t = Tableau(5, (frozenset({5}), frozenset({1, 4}), frozenset({2, 3})))
        assert [sorted(b) for b in t.blocks] == [[1, 4], [2, 3], [5]]
        assert t.shape == IntPartition((2, 2, 1))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Tableau(3, (frozenset({1, 2}), frozenset({2, 3})))

    def test_rejects_missing_symbol(self):
        with pytest.raises(ValueError):
            Tableau(3, (frozenset({1, 2}),))

    def test_shape_built_once(self):
        pi = Tableau(4, (frozenset({1, 2}), frozenset({3}), frozenset({4})))
        assert pi.shape is pi.shape
        assert pi == Tableau(4, ((4,), (3,), (1, 2))) and hash(pi) == hash((4, pi.blocks))

    def test_block_of(self):
        t = Tableau(4, (frozenset({1, 2}), frozenset({3, 4})))
        assert t.block_of(3) == 1
        for symbol in (0, 9, -1):
            with pytest.raises(KeyError):
                t.block_of(symbol)

    def test_labels_name_the_canonical_block_of_each_symbol(self):
        t = Tableau(5, (frozenset({5}), frozenset({1, 4}), frozenset({2, 3})))
        assert t.labels == (0, 1, 1, 0, 2)
        assert Tableau.from_labels((7, 3, 3, 7, -1)) == t
        assert Tableau.from_labels(np.array([2, 0, 0, 2, 1])) == t
        assert Tableau.from_labels(()) == Tableau(0, ())

    def test_labels_round_trip(self):
        for n in range(7):
            for pi in set_partitions(n):
                assert Tableau.from_labels(pi.labels) == pi
                assert all(s in pi.blocks[k] for s, k in enumerate(pi.labels, start=1))

    @pytest.mark.parametrize(
        "blocks", [((1.5,), (2,)), ((True,), (2,)), (("1",), (2,)), ((1.0,), (2.0,))]
    )
    def test_rejects_non_integral_symbols(self, blocks):
        with pytest.raises(ValueError, match="integer"):
            Tableau(2, blocks)

    @pytest.mark.parametrize("n", [2.0, True, "2"])
    def test_rejects_non_integral_size(self, n):
        with pytest.raises(ValueError, match="integer"):
            Tableau(n, ((1,), (2,)))

    @pytest.mark.parametrize("labels", [(0.0, 1.0), (0, 0.5), (True, False), ("a", "b")])
    def test_from_labels_rejects_non_integral_labels(self, labels):
        with pytest.raises(ValueError, match="integer"):
            Tableau.from_labels(labels)

    def test_numpy_integer_symbols_become_ints(self):
        t = Tableau(np.int64(2), ((np.int32(2),), (np.uint8(1),)))
        assert t == Tableau(2, ((1,), (2,)))
        assert type(t.n) is int and all(type(s) is int for b in t.blocks for s in b)
        assert t.to_json() == {"n": 2, "blocks": [[1], [2]]}

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError, match="empty block"):
            Tableau(3, ((1, 2, 3), ()))

    def test_rejects_symbol_outside_range(self):
        for blocks in (((1, 2, 4),), ((0, 1, 2),), ((1, 2, 3), (3,))):
            with pytest.raises(ValueError, match="exactly one block"):
                Tableau(3, blocks)

    def test_json_golden(self):
        t = Tableau(6, (frozenset({5}), frozenset({3, 4}), frozenset({1, 2}), frozenset({6})))
        assert t.to_json() == {"n": 6, "blocks": [[1, 2], [3, 4], [5], [6]]}
        assert Tableau.from_json(t.to_json()) == t


class TestCachedHash:
    """The hash computed once at construction is the dataclass hash, equal
    for an equal fresh instance, and leaves equality and order alone."""

    def test_int_partitions(self):
        shapes = list(partitions_of(7))
        for shape in shapes:
            fresh = IntPartition(list(shape.parts))
            assert fresh == shape and fresh is not shape
            assert hash(fresh) == hash(shape) == hash((shape.parts,))
        assert sorted(IntPartition(s.parts) for s in reversed(shapes)) == sorted(shapes)
        assert IntPartition((2, 1)) < IntPartition((3,))
        assert {IntPartition((2, 1)): "key"}[IntPartition((2, 1))] == "key"

    def test_tableaux(self):
        for pi in set_partitions(5):
            fresh = Tableau(5, tuple(set(b) for b in reversed(pi.blocks)))
            assert fresh == pi and fresh is not pi
            assert hash(fresh) == hash(pi) == hash((pi.n, pi.blocks))
        assert Tableau.singletons(3) != Tableau.one_block(3)
        assert len({Tableau.singletons(4), Tableau.singletons(4), Tableau.one_block(4)}) == 2


class TestRefinement:
    def test_identity_arrow(self):
        t = Tableau.one_block(3)
        arr = reverse_refines(t, t)
        assert arr is not None and arr.block_map == (0,)
        assert arr == identity_refinement(t)

    def test_singletons_refine_everything(self):
        for n in range(1, 6):
            fine = Tableau.singletons(n)
            for coarse in set_partitions(n):
                assert reverse_refines(fine, coarse) is not None

    def test_split_block_is_not_refinement(self):
        fine = Tableau(3, (frozenset({1, 2}), frozenset({3})))
        coarse = Tableau(3, (frozenset({1, 3}), frozenset({2})))
        assert reverse_refines(fine, coarse) is None

    def test_arrow_invariants_enforced(self):
        fine = Tableau.singletons(2)
        coarse = Tableau.one_block(2)
        with pytest.raises(ValueError):
            RefinementArrow(fine, coarse, (0,))  # wrong length

    def test_arrow_refuses_an_escaping_block(self):
        fine = Tableau(3, ((1, 2), (3,)))
        coarse = Tableau(3, ((1, 3), (2,)))
        for block_map in ((0, 1), (0, 0), (1, 0), (0, 2)):
            with pytest.raises(ValueError, match="escapes"):
                RefinementArrow(fine, coarse, block_map)
        # a negative index names no coarse block, not the last one
        with pytest.raises(ValueError, match="escapes"):
            RefinementArrow(Tableau.one_block(2), Tableau.one_block(2), (-1,))

    @pytest.mark.parametrize("block_map", [(0.0, 0), (True, 0), ("0", "0")])
    def test_arrow_refuses_a_non_integral_block_map(self, block_map):
        with pytest.raises(ValueError, match="integer"):
            RefinementArrow(Tableau.singletons(2), Tableau.one_block(2), block_map)

    def test_reverse_refines_against_block_containment(self):
        # independent oracle on frozensets: an arrow exists exactly when every
        # fine block lies inside a coarse block, and its block_map names it
        for n in range(6):
            tableaux = list(set_partitions(n))
            for fine in tableaux:
                for coarse in tableaux:
                    homes = [
                        [k for k, c in enumerate(coarse.blocks) if b <= c] for b in fine.blocks
                    ]
                    arrow = reverse_refines(fine, coarse)
                    if all(homes):
                        assert arrow.block_map == tuple(h[0] for h in homes)
                        assert (arrow.fine, arrow.coarse) == (fine, coarse)
                    else:
                        assert arrow is None

    def test_arrow_count_is_the_sum_of_bell_numbers(self):
        # the arrows out of a tableau of k blocks are the set partitions of
        # those blocks: sum over n <= 6 of S(n, k) Bell(k) arrows
        bells = bell_numbers(6)
        expected = sum(
            stirling2(n, k) * bells[k - 1] for n in range(1, 7) for k in range(1, n + 1)
        )
        count = sum(
            reverse_refines(fine, coarse) is not None
            for n in range(1, 7)
            for fine in set_partitions(n)
            for coarse in set_partitions(n)
        )
        assert count == expected == 2905

    def test_compose_with_identity(self):
        fine = Tableau.singletons(3)
        coarse = Tableau(3, (frozenset({1, 2}), frozenset({3})))
        arr = reverse_refines(fine, coarse)
        assert compose_refinements(identity_refinement(fine), arr) == arr
        assert compose_refinements(arr, identity_refinement(coarse)) == arr

    def test_compose_chain_matches_direct(self):
        fine = Tableau.singletons(3)
        mid = Tableau(3, (frozenset({1, 2}), frozenset({3})))
        top = Tableau.one_block(3)
        left = compose_refinements(reverse_refines(fine, mid), reverse_refines(mid, top))
        assert left == reverse_refines(fine, top)

    def test_compose_chain_mismatch(self):
        fine = Tableau.singletons(3)
        mid_a = Tableau(3, (frozenset({1, 2}), frozenset({3})))
        mid_b = Tableau(3, (frozenset({1, 3}), frozenset({2})))
        with pytest.raises(ChainMismatchError):
            compose_refinements(
                reverse_refines(fine, mid_a), reverse_refines(mid_b, Tableau.one_block(3))
            )

    def test_associativity_exhaustive_small(self):
        for n in (3, 4):
            tableaux = list(set_partitions(n))
            chains = 0
            for a in tableaux:
                for b in tableaux:
                    f = reverse_refines(a, b)
                    if f is None:
                        continue
                    for c in tableaux:
                        g = reverse_refines(b, c)
                        if g is None:
                            continue
                        for d in tableaux:
                            h = reverse_refines(c, d)
                            if h is None:
                                continue
                            lhs = compose_refinements(compose_refinements(f, g), h)
                            rhs = compose_refinements(f, compose_refinements(g, h))
                            assert lhs == rhs
                            chains += 1
            assert chains > 0

    def test_refinement_implies_dominance_exhaustive(self):
        for n in range(1, 7):
            tableaux = list(set_partitions(n))
            witnessed = 0
            for fine in tableaux:
                for coarse in tableaux:
                    if reverse_refines(fine, coarse) is not None:
                        assert dominance_leq(fine.shape, coarse.shape)
                        witnessed += 1
            assert witnessed >= len(tableaux)  # at least the identities


class TestPermutations:
    def test_legal_permutations_of_line_shape(self):
        assert len(list(legal_permutations(IntPartition((1, 1, 1))))) == 6

    def test_legal_permutations_respect_runs(self):
        perms = list(legal_permutations(IntPartition((2, 1, 1))))
        assert len(perms) == 2
        assert all(sigma[0] == 0 for sigma in perms)

    def test_illegal_cross_dimension_swap(self):
        assert not is_legal_permutation(IntPartition((2, 1)), (1, 0))

    @pytest.mark.parametrize("sigma", [(0.0, 1.0), (1.0, 0), (True, False), ("0", "1")])
    def test_non_integral_permutations_refused(self, sigma):
        with pytest.raises(IllegalPermutationError):
            is_legal_permutation(IntPartition((1, 1)), sigma)
        arrow = reverse_refines(Tableau.singletons(2), Tableau.singletons(2))
        with pytest.raises(IllegalPermutationError):
            lift_coarse_permutation(arrow, sigma)

    def test_numpy_integer_permutations_accepted(self):
        assert is_legal_permutation(IntPartition((1, 1)), np.array([1, 0]))
        arrow = reverse_refines(Tableau.singletons(2), Tableau.one_block(2))
        assert lift_coarse_permutation(arrow, (np.int64(0),)) == (0, 1)

    def test_group_size_matches_symmetry_factors(self):
        import math

        for mu in partitions_of(6):
            expected = 1
            for f in mu.symmetry_factors():
                expected *= math.factorial(f)
            assert len(list(legal_permutations(mu))) == expected

    def test_lift_along_singleton_refinement(self):
        fine = Tableau.singletons(4)
        coarse = Tableau(4, (frozenset({1, 2}), frozenset({3, 4})))
        arrow = reverse_refines(fine, coarse)
        lifted = lift_coarse_permutation(arrow, (1, 0))
        assert lifted == (2, 3, 0, 1)

    def test_lift_refuses_mismatched_fibers(self):
        fine = Tableau(4, (frozenset({1, 2}), frozenset({3}), frozenset({4})))
        coarse = Tableau(4, (frozenset({1, 2}), frozenset({3, 4})))
        arrow = reverse_refines(fine, coarse)
        # both coarse blocks have size 2 but their fibers differ in profile
        assert lift_coarse_permutation(arrow, (1, 0)) is None

    def test_lift_of_identity_is_identity(self):
        for n in (3, 4):
            fine = Tableau.singletons(n)
            for coarse in set_partitions(n):
                arrow = reverse_refines(fine, coarse)
                ident = tuple(range(len(coarse.blocks)))
                assert lift_coarse_permutation(arrow, ident) == tuple(range(n))

    def test_lifted_permutation_is_legal_for_fine_shape(self):
        fine = Tableau.singletons(4)
        for coarse in set_partitions(4):
            arrow = reverse_refines(fine, coarse)
            for sigma in legal_permutations(coarse.shape):
                lifted = lift_coarse_permutation(arrow, sigma)
                if lifted is not None:
                    assert is_legal_permutation(fine.shape, lifted)
