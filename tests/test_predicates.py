import ast
import os
import random

import pytest

import isobound
from isobound import (
    Graph,
    is_dominating,
    is_irredundant,
    is_k_isolating,
    is_maximal_irredundant,
    private_neighbors,
)
from isobound.graph import bits, mask_of
from isobound.predicates import irredundant_extension, private_neighborhoods

import oracles


def p4():
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


def c6():
    return Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


class TestDomination:
    def test_path_examples(self):
        g = p4()
        assert is_dominating(g, [1, 2])
        assert is_dominating(g, [0, 2])
        assert not is_dominating(g, [0, 1])
        assert not is_dominating(g, [])

    def test_empty_graph(self):
        assert is_dominating(Graph(0), [])

    def test_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            is_dominating(p4(), [9])


class TestPrivateNeighbors:
    def test_path_examples(self):
        g = p4()
        assert private_neighbors(g, [1, 2], 1) == (0,)
        assert private_neighbors(g, [1, 2], 2) == (3,)
        assert private_neighbors(g, [0, 1], 1) == (2,)
        # 0 is swallowed by N[1]
        assert private_neighbors(g, [0, 1], 0) == ()

    def test_isolated_member_owns_itself(self):
        g = c6()
        assert 0 in private_neighbors(g, [0, 3], 0)

    def test_requires_membership(self):
        with pytest.raises(ValueError):
            private_neighbors(p4(), [1, 2], 0)

    def test_matches_oracle_random(self):
        rng = random.Random(97)
        for _ in range(80):
            n = rng.randint(1, 9)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = Graph(n, edges)
            s = rng.sample(range(n), rng.randint(1, n))
            for x in s:
                assert set(private_neighbors(g, s, x)) == oracles.privates(g, s, x)


class TestIrredundance:
    def test_empty_set_is_irredundant(self):
        assert is_irredundant(p4(), [])

    def test_empty_set_maximal_only_on_empty_graph(self):
        assert is_maximal_irredundant(Graph(0), [])
        assert not is_maximal_irredundant(Graph(1), [])
        assert not is_maximal_irredundant(p4(), [])

    def test_path_cases(self):
        g = p4()
        assert is_irredundant(g, [1, 2])
        assert is_maximal_irredundant(g, [1, 2])
        assert not is_irredundant(g, [0, 1])  # 0 loses its privates to 1
        assert is_irredundant(g, [0])
        assert not is_maximal_irredundant(g, [0])  # extends by 2
        assert is_maximal_irredundant(g, [0, 2])
        assert not is_irredundant(g, [0, 1, 2])

    def test_cycle_cases(self):
        g = c6()
        assert not is_maximal_irredundant(g, [0])
        assert is_maximal_irredundant(g, [0, 3])

    def test_hereditary_on_corpus(self, corpus_by_order):
        rng = random.Random(5)
        for line, g in corpus_by_order[6][:40]:
            for s in oracles.maximal_irredundant_sets(g)[:6]:
                sub = [x for x in s if rng.random() < 0.6]
                assert is_irredundant(g, sub)

    def test_minimal_dominating_is_maximal_irredundant(self, corpus_by_order):
        for n in (4, 5, 6, 7):
            sample = corpus_by_order[n] if n < 7 else corpus_by_order[n][:120]
            for line, g in sample:
                for d in oracles.minimal_dominating_sets(g):
                    assert is_maximal_irredundant(g, d), (line, d)

    def test_matches_oracle_random(self):
        rng = random.Random(246)
        for _ in range(120):
            n = rng.randint(1, 8)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.45
            ]
            g = Graph(n, edges)
            s = rng.sample(range(n), rng.randint(0, n))
            assert is_irredundant(g, s) == oracles.irredundant(g, s)
            assert is_maximal_irredundant(g, s) == oracles.maximal_irredundant(g, s)


def random_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def reference_irredundant_extension(g, pns, union_closed, candidates):
    """`irredundant_extension` as a generator scan with all(); kept as the
    reference the loop version must agree with."""
    for w in bits(candidates):
        cw = g.clo[w]
        if not cw & ~union_closed:
            continue
        if all(pn & ~cw for pn in pns):
            return w
    return None


class TestIrredundanceState:
    def test_private_neighborhoods_match_per_member(self, corpus_by_order):
        for line, g in corpus_by_order[5]:
            for smask in range(1 << g.n):
                state = private_neighborhoods(g, smask)
                members = tuple(bits(smask))
                pns = [mask_of(private_neighbors(g, members, x)) for x in members]
                if not all(pns):
                    assert state is None, (line, smask)
                    continue
                assert state == (pns, mask_of(v for x in bits(smask) for v in bits(g.clo[x])))

    def test_maximal_mask_matches_oracle_on_every_subset(self, corpus_by_order):
        for n in range(1, 7):
            for line, g in corpus_by_order[n]:
                for smask in range(1 << n):
                    expected = oracles.maximal_irredundant(g, set(bits(smask)))
                    assert is_maximal_irredundant(g, bits(smask)) == expected, (line, smask)

    def test_maximal_mask_matches_oracle_random(self):
        # random subsets are rarely maximal, so also try greedy maximal
        # irredundant sets and their one-vertex deletions and additions
        rng = random.Random(912)
        for n in range(9, 13):
            for _ in range(8):
                g = random_graph(rng, n, rng.choice((0.2, 0.35, 0.5)))
                order = list(range(n))
                rng.shuffle(order)
                greedy = set()
                for v in order:
                    if oracles.irredundant(g, greedy | {v}):
                        greedy.add(v)
                trials = [set(rng.sample(range(n), rng.randint(0, n))) for _ in range(10)]
                trials.append(greedy)
                trials.extend(greedy - {x} for x in greedy)
                trials.extend(greedy | {v} for v in range(n) if v not in greedy)
                for s in trials:
                    expected = oracles.maximal_irredundant(g, s)
                    assert is_maximal_irredundant(g, s) == expected, (n, s)
                assert is_maximal_irredundant(g, greedy)


class TestIrredundantExtension:
    @staticmethod
    def assert_matches_reference(g, smask, candidates):
        pns, union_closed = private_neighborhoods(g, smask)
        got = irredundant_extension(g, pns, union_closed, candidates)
        expected = reference_irredundant_extension(g, pns, union_closed, candidates)
        assert got == expected, (g.n, smask, candidates)
        if got is not None:
            assert is_irredundant(g, list(bits(smask | 1 << got)))

    def test_every_irredundant_subset(self, corpus_by_order):
        for n in range(1, 7):
            for line, g in corpus_by_order[n]:
                for smask in range(1 << n):
                    if private_neighborhoods(g, smask) is None:
                        continue
                    outside = g.full & ~smask
                    self.assert_matches_reference(g, smask, outside)
                    # every candidate set but the lowest outside vertex
                    self.assert_matches_reference(g, smask, outside & (outside - 1))

    def test_random(self):
        rng = random.Random(717)
        for n in range(9, 17):
            for _ in range(6):
                g = random_graph(rng, n, rng.choice((0.15, 0.3, 0.5)))
                for _ in range(40):
                    # sets of at most n / 3 vertices are mostly irredundant
                    smask = mask_of(rng.sample(range(n), rng.randint(0, n // 3)))
                    if private_neighborhoods(g, smask) is None:
                        continue
                    outside = g.full & ~smask
                    self.assert_matches_reference(g, smask, outside)
                    self.assert_matches_reference(g, smask, outside & rng.getrandbits(n))


class TestIsolation:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            is_k_isolating(p4(), [], 0)

    def test_above_clique_capacity_everything_isolates(self, corpus_by_order):
        for line, g in corpus_by_order[5]:
            delta = g.max_degree()
            assert is_k_isolating(g, [], delta + 2)

    def test_k1_is_domination_exhaustive(self, corpus_by_order):
        from itertools import combinations

        for line, g in corpus_by_order[6][:60]:
            for size in range(g.n + 1):
                for s in combinations(range(g.n), size):
                    assert is_k_isolating(g, s, 1) == is_dominating(g, s)

    def test_k1_is_domination_random(self, corpus_by_order):
        rng = random.Random(31337)
        for n in (7, 8):
            for line, g in rng.sample(corpus_by_order[n], 60):
                for _ in range(12):
                    s = rng.sample(range(n), rng.randint(0, n))
                    assert is_k_isolating(g, s, 1) == is_dominating(g, s)

    def test_matches_oracle_random(self):
        rng = random.Random(8080)
        for _ in range(80):
            n = rng.randint(1, 8)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            g = Graph(n, edges)
            s = rng.sample(range(n), rng.randint(0, n // 2))
            for k in (1, 2, 3, 4):
                assert is_k_isolating(g, s, k) == oracles.k_isolating(g, s, k)

    def test_triangle_cases(self):
        g = Graph(3, [(0, 1), (1, 2), (2, 0)])
        assert is_k_isolating(g, [], 4)
        assert not is_k_isolating(g, [], 3)
        assert is_k_isolating(g, [0], 3)


# The package modules that predicates.py, the checker module, may import
# from, with the names it may take from each (None: any). A checker shares
# no code with what it checks, so no solver and no clique code.
CHECKER_IMPORTS = {"errors": None, "graph": {"bits", "closed_mask", "vertex_mask"}}


def boundary_breaches(source):
    """Each import of the package in source, unparsed, that CHECKER_IMPORTS
    does not allow; `from . import x` and a plain `import isobound...` never
    are."""
    breaches = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name.partition(".")[0] == "isobound" for a in node.names):
                breaches.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                package, _, module = module.partition(".")
                if package != "isobound":
                    continue  # the standard library
            elif node.level > 1:
                module = ""  # above the package
            allowed = CHECKER_IMPORTS.get(module, set())
            if module not in CHECKER_IMPORTS or (
                allowed is not None and not {a.name for a in node.names} <= allowed
            ):
                breaches.append(ast.unparse(node))
    return breaches


class TestPackageImports:
    def test_predicates_imports_only_the_bit_primitives(self):
        path = os.path.join(os.path.dirname(isobound.__file__), "predicates.py")
        with open(path, encoding="utf-8") as fh:
            assert boundary_breaches(fh.read()) == []

    @pytest.mark.parametrize(
        "line",
        [
            "from .graph import clique_table",
            "from .graph import bits, _clique_levels",
            "from .graph import isolation_covers as covers",
            "from .graph import *",
            "from . import graph",
            "from .solvers import gamma",
            "from isobound.graph import clique_table",
            "from isobound import solvers",
            "import isobound.graph",
            "import os, isobound",
            "from .. import isobound",
        ],
    )
    def test_boundary_breach_found(self, line):
        assert boundary_breaches(line) == [line]

    def test_allowed_imports_pass(self):
        source = (
            "import itertools\n"
            "from itertools import combinations\n"
            "from .errors import CertificateError, ParameterError\n"
            "from .graph import bits, vertex_mask\n"
            "from isobound.graph import closed_mask\n"
        )
        assert boundary_breaches(source) == []

    def test_public_names_resolve_once(self):
        names = isobound.__all__
        assert [name for name in names if not hasattr(isobound, name)] == []
        assert sorted({name for name in names if names.count(name) > 1}) == []
