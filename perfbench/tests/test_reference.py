import itertools
import math

import pytest

from reference import Reference, chain_prob, value_of

S_COA = [[("S", ("x",)), ("CoA", ("x", "y"))]]


def scientists(default=0.0):
    domain = ["Einstein", "Erdos", "VonNeumann", "Shakespeare"]
    tables = {
        "S": {("Einstein",): 0.8, ("Erdos",): 0.8, ("VonNeumann",): 0.9, ("Shakespeare",): 0.2},
        "CoA": {
            ("Einstein", "Erdos"): 0.8,
            ("Erdos", "VonNeumann"): 0.9,
            ("VonNeumann", "Einstein"): 0.5,
        },
    }
    return Reference(domain, tables, default)


def test_readme_worked_example():
    assert value_of(scientists().ucq_logc(S_COA)) == pytest.approx(0.94456, abs=1e-12)


def test_open_world_by_hand():
    # Domain {A, B}; S(A)=0.5 and CoA(A,B)=0.2 stored, every other tuple at 0.3.
    ref = Reference(["A", "B"], {"S": {("A",): 0.5}, "CoA": {("A", "B"): 0.2}}, 0.3)
    q_a = 1 - 0.7 * 0.8
    q_b = 1 - 0.7 * 0.7
    complement = (1 - 0.5 * q_a) * (1 - 0.3 * q_b)
    assert ref.ucq_logc(S_COA) == pytest.approx(math.log(complement), rel=1e-12)


def test_open_world_complement_below_double_precision():
    # 1000 absent S tuples at 0.3: P(not S(x)) = 0.7 ** 1000, about 1e-155,
    # so P itself rounds to 1 and only the log complement carries the answer.
    ref = Reference([f"C{i}" for i in range(1000)], {}, 0.3)
    logc = ref.ucq_logc([[("S", ("x",))]])
    assert value_of(logc) == 1.0
    assert logc / math.log(10) == pytest.approx(1000 * math.log10(0.7), rel=1e-12)


def test_union_and_disconnected_conjunction():
    ref = scientists()
    p_s = 1 - 0.2 * 0.2 * 0.1 * 0.8
    p_coa = 1 - 0.2 * 0.1 * 0.5
    assert value_of(ref.ucq_logc([[("S", ("x",)), ("CoA", ("y", "z"))]])) == pytest.approx(p_s * p_coa)
    union = [[("S", ("x",))], [("CoA", ("y", "z"))]]
    assert value_of(ref.ucq_logc(union)) == pytest.approx(1 - (1 - p_s) * (1 - p_coa))


def test_chain_matches_world_enumeration():
    domain = ["D0", "D1", "D2"]
    r = {("D0",): 0.3, ("D1",): 0.6}
    s = {("D0", "D1"): 0.5, ("D1", "D2"): 0.4, ("D1", "D1"): 0.7}
    t = {("D1",): 0.2, ("D2",): 0.9}
    atoms = [("R", k, p) for k, p in r.items()] + [("S", k, p) for k, p in s.items()] + [("T", k, p) for k, p in t.items()]
    total = 0.0
    for bits in itertools.product((False, True), repeat=len(atoms)):
        weight = 1.0
        true = set()
        for (pred, args, p), b in zip(atoms, bits):
            weight *= p if b else 1 - p
            if b:
                true.add((pred, args))
        if any(
            ("R", (x,)) in true and ("S", (x, y)) in true and ("T", (y,)) in true
            for x in domain
            for y in domain
        ):
            total += weight
    assert chain_prob(domain, r, s, t) == pytest.approx(total, abs=1e-12)
