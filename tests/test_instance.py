import hashlib
import itertools
import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katzforge import (
    AllocationProfile,
    GameInstance,
    ParseError,
    UnderlyingTopology,
    generate_random_instance,
    instance_digest,
    is_feasible,
    parse_allocation,
    parse_instance,
    random_profile,
    serialize_allocation,
    serialize_instance,
    topology_from_edges,
)
from oracles import is_feasible_dense


_EMPTY_ROW = "empty out-neighborhood in underlying topology (nonempty-neighborhood rule)"


class TestValidation:
    def test_minimal_valid_instance(self, i1):
        assert GameInstance(i1.topology, i1.budgets) == i1

    def test_budget_count_must_match_agents(self):
        with pytest.raises(ValueError) as exc:
            GameInstance(topology_from_edges(2, [(0, 1), (1, 0)]), (0.5,))
        assert str(exc.value) == "got 1 budgets for n=2 agents"

    def test_empty_out_neighborhood_is_reported(self):
        with pytest.raises(ValueError) as exc:
            GameInstance(topology_from_edges(2, [(0, 1)]), (0.5, 0.25))
        assert str(exc.value) == f"invalid instance: agent 2: {_EMPTY_ROW}"

    def test_budget_at_one_is_reported(self):
        with pytest.raises(ValueError) as exc:
            GameInstance(topology_from_edges(1, [(0, 0)]), (1.0,))
        assert str(exc.value) == "invalid instance: agent 1: budget 1.0 outside (0, 1) (budget-bound rule)"

    def test_multiple_violations_all_named(self):
        # missing out-edges for agents 2 and 3, then the bad budget of agent 2
        with pytest.raises(ValueError) as exc:
            GameInstance(topology_from_edges(3, [(0, 1)]), (0.5, 1.5, 0.25))
        assert str(exc.value) == (
            f"invalid instance: agent 2: {_EMPTY_ROW}; agent 3: {_EMPTY_ROW}; "
            "agent 2: budget 1.5 outside (0, 1) (budget-bound rule)"
        )

    def test_construction_matches_independent_rule_check(self):
        pool = (-0.5, 0.0, 0.3, 0.999, 1.0, 1.5, math.nan, math.inf, -math.inf)
        outcomes = {True: 0, False: 0}
        for seed in range(400):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 9))
            keep = rng.random((n, n)) < rng.uniform(0.0, 0.7)
            edges = {(i, j) for i, j in zip(*np.nonzero(keep))}
            values = pool if rng.random() < 0.5 else (0.3, 0.999)
            budgets = tuple(values[k] for k in rng.integers(len(values), size=n))
            expected = [f"agent {i + 1}: {_EMPTY_ROW}" for i in range(n) if not any(e[0] == i for e in edges)]
            expected += [
                f"agent {i + 1}: budget {b!r} outside (0, 1) (budget-bound rule)"
                for i, b in enumerate(budgets)
                if not (math.isfinite(b) and b > 0 and b < 1)
            ]
            valid = not expected
            outcomes[valid] += 1
            if valid:
                g = GameInstance(topology_from_edges(n, edges), budgets)
                assert g.budgets == budgets
            else:
                with pytest.raises(ValueError) as exc:
                    GameInstance(topology_from_edges(n, edges), budgets)
                assert str(exc.value) == "invalid instance: " + "; ".join(expected)
        assert min(outcomes.values()) >= 50


def _random_digraph(rng: np.random.Generator) -> tuple[int, set[tuple[int, int]]]:
    """Random edge set on up to 15 agents; rows may be empty."""
    n = int(rng.integers(1, 16))
    keep = rng.random((n, n)) < rng.uniform(0.0, 0.6)
    if rng.random() < 0.4:
        keep |= keep.T
    return n, {(i, j) for i, j in zip(*np.nonzero(keep))}


class TestTopology:
    @pytest.mark.parametrize(
        "edges",
        [
            [(0.7, 1), (1, 1)],
            [(0, 1), (1, 1.9)],
            [(True, False)],
            [(0, np.float64(1.0))],
            [(np.bool_(True), 0)],
        ],
    )
    def test_non_integer_endpoints_rejected(self, edges):
        with pytest.raises(ValueError, match="non-integer endpoint") as exc:
            topology_from_edges(2, edges)
        bad = next(e for e in edges if not all(type(v) is int for v in e))
        assert repr(bad) in str(exc.value)

    def test_no_agents_rejected(self):
        with pytest.raises(ValueError) as exc:
            UnderlyingTopology(0, frozenset())
        assert str(exc.value) == "agent count must be positive, got 0"

    def test_numpy_integer_endpoints_accepted(self):
        top = topology_from_edges(3, [(np.int64(0), np.int32(2)), (np.uint8(1), 1)])
        assert top.adj == frozenset({(0, 2), (1, 1)})
        assert all(type(v) is int for e in top.adj for v in e)

    @pytest.mark.parametrize(
        "edge, shown",
        [
            ((0, 10**30), "(0, 1000000000000000000000000000000)"),
            ((-1, 0), "(-1, 0)"),
            ((np.int64(-1), np.int64(0)), "(-1, 0)"),
            ((np.uint64(2**64 - 1), 0), "(18446744073709551615, 0)"),
            ((1, 2), "(1, 2)"),
        ],
    )
    def test_out_of_range_endpoint_message(self, edge, shown):
        with pytest.raises(ValueError) as exc:
            topology_from_edges(2, [(0, 1), edge])
        assert str(exc.value) == f"edge {shown} out of range for n=2"

    @pytest.mark.parametrize("edges, bad", [([(0, 1, 2)], (0, 1, 2)), ([(1, 1), (0,)], (0,)),
                                            ([(0, 1, 1), (0,)], None)])
    def test_non_pair_edge_rejected_by_name(self, edges, bad):
        # a 3-tuple and a 1-tuple hold four endpoints between them: still not two pairs
        with pytest.raises(ValueError, match="is not a pair") as exc:
            topology_from_edges(2, edges)
        if bad is not None:
            assert str(exc.value) == f"edge {bad!r} is not a pair"

    def test_neighbor_index_runs_ascend_and_match_out_degrees(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n, adj = _random_digraph(rng)
            top = topology_from_edges(n, adj)
            cols, offsets = top.neighbor_index
            assert offsets.shape == (n + 1,) and offsets[0] == 0 and offsets[-1] == len(adj)
            degrees = [sum(1 for i, _ in adj if i == k) for k in range(n)]
            assert np.diff(offsets).tolist() == degrees
            for i in range(n):
                run = cols[offsets[i] : offsets[i + 1]]
                assert np.all(np.diff(run) > 0)
                assert top.out_neighbors(i) == tuple(sorted(j for k, j in adj if k == i))

    def test_is_symmetric_matches_edge_set_oracle(self):
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(300):
            n, adj = _random_digraph(rng)
            if adj and rng.random() < 0.3:
                adj.discard(sorted(adj)[int(rng.integers(len(adj)))])
            want = {(j, i) for i, j in adj} == adj
            assert topology_from_edges(n, adj).is_symmetric() == want
            seen.add(want)
        assert seen == {True, False}


class TestFeasibility:
    def test_budget_exactly_met(self, i1):
        assert is_feasible(i1, AllocationProfile(np.array([[0.5]])))

    def test_budget_exceeded(self, i1):
        assert not is_feasible(i1, AllocationProfile(np.array([[0.6]])))

    def test_support_violation(self, i2):
        w = AllocationProfile(np.array([[0.1, 0.2], [0.1, 0.0]]))
        assert not is_feasible(i2, w)

    def test_dimension_mismatch_is_hard_error(self, i2):
        with pytest.raises(ValueError, match="n=2"):
            is_feasible(i2, AllocationProfile(np.zeros((3, 3))))

    def test_zero_profile_is_feasible(self, i2):
        assert is_feasible(i2, AllocationProfile.zeros(2))

    def test_negative_weights_rejected_at_construction(self):
        with pytest.raises(ValueError, match="nonnegative"):
            AllocationProfile(np.array([[-0.1]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            AllocationProfile(np.zeros((2, 3)))

    def test_matches_dense_mask_oracle_on_perturbed_profiles(self):
        rng = np.random.default_rng(2)
        verdicts = []
        for seed in range(150):
            g = generate_random_instance(
                int(rng.integers(1, 25)), float(rng.uniform(0.0, 0.7)), bool(seed % 2),
                (0.1, 0.9), seed,
            )
            w = np.array(random_profile(g, seed).weights)
            i, j = (int(v) for v in rng.integers(g.n, size=2))
            w[i, j] += float(rng.choice([1e-12, 1e-3]))  # off the support or over budget, or neither
            profile = AllocationProfile(w)
            verdicts.append(is_feasible(g, profile))
            assert verdicts[-1] == is_feasible_dense(g, profile)
        assert set(verdicts) == {True, False}


class TestDocuments:
    def test_schema_example(self):
        g = parse_instance('{"n": 1, "edges": [[1, 1]], "budgets": [0.5]}')
        assert g.n == 1
        assert g.topology.adj == frozenset({(0, 0)})
        assert g.budgets == (0.5,)

    def test_round_trip(self, i2):
        assert parse_instance(serialize_instance(i2)) == i2

    def test_budgets_length_mismatch(self):
        with pytest.raises(ParseError, match="budgets"):
            parse_instance('{"n": 2, "edges": [[1, 2], [2, 1]], "budgets": [0.5]}')

    def test_unknown_field_rejected(self):
        with pytest.raises(ParseError, match="unknown"):
            parse_instance('{"n": 1, "edges": [[1, 1]], "budgets": [0.5], "extra": 1}')

    def test_decimal_string_budgets(self):
        g = parse_instance('{"n": 1, "edges": [[1, 1]], "budgets": ["0.83"]}')
        assert g.budgets == (0.83,)

    def test_out_of_range_edge(self):
        with pytest.raises(ParseError, match=r"edges\[0\]"):
            parse_instance('{"n": 1, "edges": [[1, 2]], "budgets": [0.5]}')

    @pytest.mark.parametrize(
        "edges, message",
        [
            ("{}", "edges: must be a list of [i, j] pairs"),
            ("[[1, 2], 5]", "edges[1]: must be a pair of integers"),
            ("[[1, 2], [2, 1, 1]]", "edges[1]: must be a pair of integers"),
            ("[[2]]", "edges[0]: must be a pair of integers"),
            ("[[1, 2], [true, 1]]", "edges[1]: must be a pair of integers"),
            ("[[1.0, 2]]", "edges[0]: must be a pair of integers"),
            ('[[1, "2"]]', "edges[0]: must be a pair of integers"),
            ("[[1, 2], [2, 0]]", "edges[1]: agent index out of range 1..2"),
            ("[[1, 3]]", "edges[0]: agent index out of range 1..2"),
            (f"[[1, 2], [{10**30}, 1]]", "edges[1]: agent index out of range 1..2"),
            ("[[1, 2], [2, 1], [2, 2], [1, 2]]", "edges[3]: duplicate edge [1, 2]"),
        ],
    )
    def test_edge_error_messages(self, edges, message):
        with pytest.raises(ParseError) as exc:
            parse_instance(f'{{"n": 2, "edges": {edges}, "budgets": [0.5, 0.5]}}')
        assert str(exc.value) == message
        assert exc.value.field == message.split(":")[0]

    @pytest.mark.parametrize(
        "parse, doc, message",
        [
            (parse_instance, "[]", "instance document must be a JSON object"),
            (parse_instance, '{"n": 1, "budgets": [0.5]}', "edges: missing required field"),
            (parse_instance, '{"n": 1, "edges": [[1, 1]], "budgets": [true]}',
             "budgets[0]: must be a number or decimal string"),
            (parse_instance, '{"n": 1, "edges": [[1, 1]], "budgets": [null]}',
             "budgets[0]: must be a number or decimal string"),
            (parse_instance, '{"n": 1, "edges": [[1, 1]], "budgets": ["abc"]}', "budgets[0]: not a decimal number"),
            (parse_instance, '{"n": 1, "edges": [[1, 1]], "budgets": [0.5], "name": 5}', "name: must be a string"),
            (partial(parse_allocation, n=2), "[]", "allocation document must be a JSON object"),
            (partial(parse_allocation, n=2), "{}", "weights: missing required field"),
        ],
        ids=["not-object", "no-edges", "budget-true", "budget-null", "budget-not-decimal", "name-not-string",
             "allocation-not-object", "no-weights"],
    )
    def test_document_error_messages(self, parse, doc, message):
        with pytest.raises(ParseError) as exc:
            parse(doc)
        assert str(exc.value) == message
        assert exc.value.field == (message.split(":")[0] if ":" in message else None)

    def test_duplicate_edge(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_instance('{"n": 1, "edges": [[1, 1], [1, 1]], "budgets": [0.5]}')

    def test_rule_violations_rejected_at_parse(self):
        with pytest.raises(ParseError, match="nonempty-neighborhood"):
            parse_instance('{"n": 2, "edges": [[1, 2]], "budgets": [0.5, 0.25]}')
        with pytest.raises(ParseError, match="budget-bound"):
            parse_instance('{"n": 1, "edges": [[1, 1]], "budgets": [1.0]}')

    def test_malformed_json_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            parse_instance("{not json}")

    def test_fields_in_any_order(self):
        g = parse_instance('{"budgets": [0.5], "n": 1, "edges": [[1, 1]], "name": "x"}')
        assert g.name == "x"

    def test_allocation_round_trip(self, i2):
        w = AllocationProfile(np.array([[0.0, 0.5], [0.25, 0.0]]))
        again = parse_allocation(serialize_allocation(w), 2)
        np.testing.assert_array_equal(again.weights, w.weights)

    def test_allocation_wrong_shape(self):
        with pytest.raises(ParseError, match="weights"):
            parse_allocation('{"weights": [[0.0]]}', 2)

    @pytest.mark.parametrize("value", ["true", "false", '"0.25"', "null", "[0.25]", "{}"])
    def test_allocation_weights_must_be_json_numbers(self, value):
        with pytest.raises(ParseError) as exc:
            parse_allocation(f'{{"weights": [[0, 0.5], [{value}, 0]]}}', 2)
        assert str(exc.value) == "weights[1]: must be a list of n=2 numbers"

    def test_allocation_integer_weights_accepted(self):
        w = parse_allocation('{"weights": [[0, 1], [0.5, 0]]}', 2)
        np.testing.assert_array_equal(w.weights, [[0.0, 1.0], [0.5, 0.0]])

    # a JSON integer beyond float range reads as the float literal of its value
    HUGE = "1" + "0" * 400

    @pytest.mark.parametrize(
        "integer, literal",
        [(HUGE, "1e400"), ("-" + HUGE, "-1e400"), ("1" + "0" * 5000, "1e5000")],
        ids=["positive", "negative", "beyond-int-digit-limit"],
    )
    def test_huge_integer_budget_reads_as_float_literal(self, integer, literal):
        messages = []
        for value in (integer, literal):
            with pytest.raises(ParseError) as exc:
                parse_instance(f'{{"n": 2, "edges": [[1, 2], [2, 1]], "budgets": [0.5, {value}]}}')
            messages.append((str(exc.value), exc.value.field))
        assert messages[0] == messages[1] == ("budgets[1]: must be positive and finite", "budgets[1]")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{{"n": {}, "edges": [[1, 1]], "budgets": [0.5]}}', "n: must be a positive integer"),
            ('{{"n": 1, "edges": [[1, {}]], "budgets": [0.5]}}', "edges[0]: must be a pair of integers"),
        ],
        ids=["n", "edge"],
    )
    def test_integer_beyond_digit_limit_is_not_an_index(self, doc, message):
        for value in ("1" + "0" * 5000, "1e5000"):
            with pytest.raises(ParseError) as exc:
                parse_instance(doc.format(value))
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "integer, literal",
        [(HUGE, "1e400"), ("-" + HUGE, "-1e400"), ("1" + "0" * 5000, "1e5000")],
        ids=["positive", "negative", "beyond-int-digit-limit"],
    )
    def test_huge_integer_weight_reads_as_float_literal(self, integer, literal):
        messages = []
        for value in (integer, literal):
            with pytest.raises(ParseError) as exc:
                parse_allocation(f'{{"weights": [[0, 0.5], [{value}, 0]]}}', 2)
            messages.append((str(exc.value), exc.value.field))
        assert messages[0] == messages[1] == ("weights: weights must be finite", "weights")

    def test_allocation_large_integer_within_float_range(self):
        w = parse_allocation(f'{{"weights": [[0, {10**300}], [0, 0]]}}', 2)
        assert w.weights[0, 1] == float(10**300)

    def test_allocation_unknown_field(self):
        with pytest.raises(ParseError, match="unknown"):
            parse_allocation('{"weights": [[0.0]], "junk": 1}', 1)

    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        density=st.floats(0.0, 1.0),
        self_loops=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, n, seed, density, self_loops):
        g = generate_random_instance(n, density, self_loops, (0.1, 0.9), seed)
        assert parse_instance(serialize_instance(g)) == g


class TestGenerator:
    def test_density_one_gives_complete_without_self_loops(self):
        g = generate_random_instance(5, 1.0, False, (0.1, 0.9), seed=7)
        expected = {(i, j) for i in range(5) for j in range(5) if i != j}
        assert g.topology.adj == frozenset(expected)

    def test_density_zero_with_self_loops(self):
        g = generate_random_instance(3, 0.0, True, (0.1, 0.9), seed=1)
        assert g.topology.adj == frozenset({(0, 0), (1, 1), (2, 2)})

    def test_same_seed_identical_and_byte_identical(self):
        a = generate_random_instance(8, 0.4, False, (0.2, 0.8), seed=42)
        b = generate_random_instance(8, 0.4, False, (0.2, 0.8), seed=42)
        assert a == b
        assert serialize_instance(a) == serialize_instance(b)
        assert instance_digest(a) == instance_digest(b)

    def test_different_seed_differs(self):
        a = generate_random_instance(8, 0.4, False, (0.2, 0.8), seed=1)
        b = generate_random_instance(8, 0.4, False, (0.2, 0.8), seed=2)
        assert a != b

    def test_empty_row_repair_on_sparse_draws(self):
        for seed in range(30):
            g = generate_random_instance(6, 0.05, False, (0.1, 0.9), seed=seed)
            assert all(g.topology.out_neighbors(i) for i in range(g.n))
            assert all(0 < b < 1 for b in g.budgets)

    def test_generated_instances_always_valid(self):
        for seed in range(20):
            g = generate_random_instance(4, 0.5, True, (0.3, 0.7), seed=seed)
            assert all(g.topology.out_neighbors(i) for i in range(g.n))
            assert all(0 < b < 1 for b in g.budgets)

    @pytest.mark.parametrize(
        "n, density, message",
        [(0, 0.5, "n must be positive, got 0"), (3, 1.5, "edge_density must be in [0, 1], got 1.5")],
        ids=["n", "density"],
    )
    def test_bad_size_or_density(self, n, density, message):
        with pytest.raises(ValueError) as exc:
            generate_random_instance(n, density, True, (0.3, 0.7), seed=0)
        assert str(exc.value) == message

    def test_bad_budget_range(self):
        with pytest.raises(ValueError, match="budget_range"):
            generate_random_instance(3, 0.5, True, (0.0, 0.9), seed=0)

    def test_pinned_output_digest(self):
        # one Philox stream per seed: pair draws in row-major order, then one
        # draw per empty row in ascending agent order, then the budgets
        digest = hashlib.sha256()
        for n, density, self_loops, seed in itertools.product(
            (1, 2, 7, 60, 200), (0.0, 0.05, 0.5, 1.0), (False, True), (3, 11)
        ):
            g = generate_random_instance(n, density, self_loops, (0.1, 0.9), seed)
            digest.update(serialize_instance(g).encode())
        assert digest.hexdigest() == (
            "0a95feec408f9bffdb22c34cb351b3fffd2f2ae3134baf11b7209c4eb5846ad9"
        )


class TestRandomProfile:
    def test_feasible_and_deterministic(self):
        g = generate_random_instance(10, 0.5, True, (0.1, 0.9), seed=3)
        w1 = random_profile(g, seed=11)
        w2 = random_profile(g, seed=11)
        assert is_feasible(g, w1)
        np.testing.assert_array_equal(w1.weights, w2.weights)


class TestSerializationDeterminism:
    def test_canonical_key_order(self, i3):
        doc = json.loads(serialize_instance(i3))
        assert list(doc) == ["n", "edges", "budgets"]
        assert doc["edges"] == sorted(doc["edges"])
