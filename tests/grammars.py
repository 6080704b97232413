"""Grammars shared across test modules: two fixed reference grammars plus
seeded random finite (acyclic) and recursive PCFG generators."""

import random

from pgsynth.grammar import Pcfg, ProductionRule, normalize
from pgsynth.lang import (
    BOOL,
    INT,
    And,
    Hole,
    IntLit,
    Ite,
    Leq,
    Minus,
    Nonterminal,
    Plus,
    Times,
    Var,
)

R = ProductionRule
INT_NT = Nonterminal(INT)
BOOL_NT = Nonterminal(BOOL)


def two_sort_grammar() -> Pcfg:
    """Int/Bool grammar with probabilities 0.15/0.3/0.3/0.15/0.1 and 0.8/0.2
    (so `x + 1` has probability 0.15 * 0.3 * 0.3 = 0.0135)."""
    return normalize(
        [
            R("int0", INT_NT, IntLit(0), 15),
            R("int1", INT_NT, IntLit(1), 30),
            R("intx", INT_NT, Var("x"), 30),
            R("add", INT_NT, Plus(Hole(INT_NT), Hole(INT_NT)), 15),
            R("cond", INT_NT, Ite(Hole(BOOL_NT), Hole(INT_NT), Hole(INT_NT)), 10),
            R("le", BOOL_NT, Leq(Hole(INT_NT), Hole(INT_NT)), 80),
            R("conj", BOOL_NT, And(Hole(BOOL_NT), Hole(BOOL_NT)), 20),
        ]
    )


def mixed_template_grammar() -> Pcfg:
    """Int/Bool grammar whose templates mix holes with complete subterms,
    before and after the hole, nested one level down, and a complete
    template of depth two."""
    return normalize(
        [
            R("int0", INT_NT, IntLit(0), 15),
            R("int1", INT_NT, IntLit(1), 20),
            R("intx", INT_NT, Var("x"), 30),
            R("inc", INT_NT, Plus(Hole(INT_NT), IntLit(1)), 10),
            R("zero+", INT_NT, Plus(Minus(Var("x"), Var("x")), Hole(INT_NT)), 5),
            R("twice", INT_NT, Plus(Var("x"), Plus(Hole(INT_NT), Var("x"))), 5),
            R("dec", INT_NT, Minus(Var("x"), IntLit(1)), 5),
            R("add", INT_NT, Plus(Hole(INT_NT), Hole(INT_NT)), 10),
            R("cond", INT_NT, Ite(Hole(BOOL_NT), Hole(INT_NT), Hole(INT_NT)), 10),
            R("le", BOOL_NT, Leq(Hole(INT_NT), Hole(INT_NT)), 60),
            R("lex", BOOL_NT, Leq(Var("x"), Hole(INT_NT)), 20),
            R("conj", BOOL_NT, And(Hole(BOOL_NT), Leq(IntLit(0), Var("x"))), 20),
        ]
    )


def weight_table_rules() -> list[ProductionRule]:
    """plus/minus/one/zero/variable at weights 10/5/5/10/20."""
    return [
        R("plus", INT_NT, Plus(Hole(INT_NT), Hole(INT_NT)), 10),
        R("minus", INT_NT, Minus(Hole(INT_NT), Hole(INT_NT)), 5),
        R("one", INT_NT, IntLit(1), 5),
        R("zero", INT_NT, IntLit(0), 10),
        R("var", INT_NT, Var("__var"), 20, variable_of=INT),
    ]


def _binary_templates(rng: random.Random, nts, lo: int):
    """Distinct two-hole templates over nonterminals nts[lo:]."""
    ops = [Plus, Minus, Times]
    combos = [
        (op, a, b)
        for op in range(len(ops))
        for a in range(lo, len(nts))
        for b in range(lo, len(nts))
    ]
    rng.shuffle(combos)
    for op, a, b in combos:
        yield ops[op](Hole(nts[a]), Hole(nts[b]))


def random_finite_pcfg(rng: random.Random, n_nts: int = 4, max_rules: int = 3) -> Pcfg:
    """Acyclic grammar: every rule of nts[i] references only nts[j], j > i, so
    the set of complete productions is finite and small."""
    nts = [Nonterminal(INT, f"F{i}") for i in range(n_nts)]
    rules = []
    for i, nt in enumerate(nts):
        rules.append(R(f"t{i}", nt, IntLit(100 * i), rng.randint(1, 10)))
        if i + 1 >= n_nts:
            continue
        templates = _binary_templates(rng, nts, i + 1)
        for j in range(rng.randint(0, max_rules - 1)):
            rules.append(R(f"r{i}_{j}", nt, next(templates), rng.randint(1, 10)))
    return normalize(rules)


def random_recursive_pcfg(rng: random.Random, n_nts: int = 3, max_rules: int = 3) -> Pcfg:
    """Cyclic grammar over attributed Int nonterminals; every nonterminal has
    a terminal rule, so all are productive, and no rule has probability 1."""
    nts = [Nonterminal(INT, f"R{i}") for i in range(n_nts)]
    rules = []
    for i, nt in enumerate(nts):
        rules.append(R(f"t{i}", nt, IntLit(100 * i), rng.randint(1, 10)))
        rules.append(R(f"v{i}", nt, Var(f"x{rng.randrange(2)}"), rng.randint(1, 10)))
        templates = _binary_templates(rng, nts, 0)
        for j in range(rng.randint(1, max_rules - 1)):
            rules.append(R(f"r{i}_{j}", nt, next(templates), rng.randint(1, 10)))
    return normalize(rules)
