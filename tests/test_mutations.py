"""Mutation tables: each plants one-site faults in a formula that a
check rests on, and pins where the checks first see each one.

- The multiplicity bracket: every change of one field of the five groups
  that motivic.multiplicity_coefficients hands to exactpoly.gauss_sum
  makes verify_decomposition fail, or raise ValueError, at some g <= 6.
- The kernel split: every change of one field of the two groups that
  fano_odd.kernel_coefficients hands to gauss_sum makes
  verify_decomposition fail, raise or trip the Serre guard of
  fano_odd_blocks by g = 3.
- The measure and Macdonald: one-site changes of
  curves.block_e_polynomial and curves.macdonald_vectors, with the first
  g at which each of the sweep's hyperelliptic checks sees them.  Both
  sides of verify_decomposition are measured by block_e_polynomial, so
  a fault in the measure reaches only verify_k0_identity, whose right
  side is built from dense diamonds.
"""

import inspect
import textwrap

import pytest

from twoquadrics import curves, fano_odd, motivic
from twoquadrics.exactpoly import ConsistencyError, gauss_sum

# the number of shifts of each group of the bracket, in order
SHIFT_COUNTS = (1, 2, 6, 4, 1)

# mutant -> the smallest g at which verify_decomposition(g, k) fails or
# raises for some k.  "[i] f+1" moves the field f of group i by +1: n or
# m of its Gaussian binomial [n, m], or its shift sj; "[i] w*2" doubles
# its weight.
SMALLEST_FAILING_G = {
    "[0] w*2": 2, "[0] n-1": 2, "[0] n+1": 2, "[0] m-1": 2, "[0] m+1": 2,
    "[0] s0-1": 2, "[0] s0+1": 2,
    "[1] w*2": 2, "[1] n-1": 3, "[1] n+1": 3, "[1] m-1": 2, "[1] m+1": 2,
    "[1] s0-1": 2, "[1] s0+1": 2, "[1] s1-1": 2, "[1] s1+1": 2,
    "[2] w*2": 3, "[2] n-1": 4, "[2] n+1": 4, "[2] m-1": 3, "[2] m+1": 2,
    "[2] s0-1": 3, "[2] s0+1": 3, "[2] s1-1": 3, "[2] s1+1": 3, "[2] s2-1": 3, "[2] s2+1": 3,
    "[2] s3-1": 3, "[2] s3+1": 3, "[2] s4-1": 3, "[2] s4+1": 3, "[2] s5-1": 3, "[2] s5+1": 3,
    "[3] w*2": 4, "[3] n-1": 5, "[3] n+1": 5, "[3] m-1": 4, "[3] m+1": 3,
    "[3] s0-1": 4, "[3] s0+1": 4, "[3] s1-1": 4, "[3] s1+1": 4, "[3] s2-1": 4, "[3] s2+1": 4,
    "[3] s3-1": 4, "[3] s3+1": 4,
    "[4] w*2": 5, "[4] n-1": 6, "[4] n+1": 6, "[4] m-1": 5, "[4] m+1": 4,
    "[4] s0-1": 5, "[4] s0+1": 5,
}

# the mutants that raise ValueError at their g instead of failing, both
# for a negative shift of a binomial that does not vanish: "[0] s0-1"
# moves a shift 0 to -1, and "[1] m+1" turns [-1, -1], which vanishes
# and so may carry the shift -1, into [-1, 0] = 1
RAISING = {"[0] s0-1", "[1] m+1"}


def mutants(shift_counts=SHIFT_COUNTS):
    """(name, group, field, change) for each mutant of groups with these
    numbers of shifts: the 53 of the bracket by default."""
    for group, count in enumerate(shift_counts):
        yield f"[{group}] w*2", group, "w", "*2"
        for field in ("n", "m", *(f"s{j}" for j in range(count))):
            for change in ("-1", "+1"):
                yield f"[{group}] {field}{change}", group, field, change


def mutated(groups, group, field, change):
    """`groups` with `change` applied to `field` of group `group`."""
    w, n, m, shifts = groups[group]
    fields = {"w": w, "n": n, "m": m, **{f"s{j}": s for j, s in enumerate(shifts)}}
    value = fields[field]
    fields[field] = 2 * value if change == "*2" else value + int(change)
    moved = tuple(fields[f"s{j}"] for j in range(len(shifts)))
    return (*groups[:group], (fields["w"], fields["n"], fields["m"], moved), *groups[group + 1:])


def kind(verifier, args):
    """"verified" when verifier(*a) verifies for every a in `args`, else
    for the first that does not: "failed", "raised" (ValueError) or
    "inconsistent" (ConsistencyError)."""
    for a in args:
        try:
            if not verifier(*a).verified:
                return "failed"
        except ValueError:
            return "raised"
        except ConsistencyError:
            return "inconsistent"
    return "verified"


def planes(g):
    return [(g, k) for k in range(g - 1)]


def outcome(g):
    """The kind of verify_decomposition(g, k) over every k."""
    return kind(motivic.verify_decomposition, planes(g))


def test_the_table_names_every_mutant():
    names = [name for name, *_ in mutants()]
    assert len(names) == len(set(names)) == 53
    assert set(names) == set(SMALLEST_FAILING_G)
    assert RAISING <= set(names)


@pytest.mark.parametrize(
    "name,group,field,change", [pytest.param(*mutant, id=mutant[0]) for mutant in mutants()]
)
def test_mutant_first_fails_at_its_g(monkeypatch, name, group, field, change):
    def planted(groups):
        groups = tuple(groups)
        assert [len(shifts) for *_, shifts in groups] == list(SHIFT_COUNTS)
        return gauss_sum(mutated(groups, group, field, change))

    monkeypatch.setattr(motivic, "gauss_sum", planted)
    smallest = SMALLEST_FAILING_G[name]
    assert smallest <= 6
    for g in range(2, smallest):
        assert outcome(g) == "verified", g
    assert outcome(smallest) == ("raised" if name in RAISING else "failed")


# the number of shifts of each group of the kernel split: [a+b-1, b-a+1]
# at shift 0 and [a+b-2, b-a] at a+b-1
KERNEL_SHIFT_COUNTS = (1, 1)

# kernel mutant -> (the smallest g at which outcome(g) is not "verified",
# and that outcome), named as in SMALLEST_FAILING_G
KERNEL_SPLIT = {
    "[0] w*2": (2, "inconsistent"), "[0] n-1": (2, "inconsistent"),
    "[0] n+1": (2, "inconsistent"), "[0] m-1": (2, "failed"), "[0] m+1": (2, "inconsistent"),
    "[0] s0-1": (2, "raised"), "[0] s0+1": (2, "inconsistent"),
    "[1] w*2": (2, "inconsistent"), "[1] n-1": (3, "inconsistent"),
    "[1] n+1": (3, "inconsistent"), "[1] m-1": (2, "inconsistent"),
    "[1] m+1": (2, "inconsistent"), "[1] s0-1": (2, "inconsistent"),
    "[1] s0+1": (2, "inconsistent"),
}


def test_the_kernel_table_names_every_mutant():
    names = [name for name, *_ in mutants(KERNEL_SHIFT_COUNTS)]
    assert len(names) == len(set(names)) == 14
    assert set(names) == set(KERNEL_SPLIT)


@pytest.mark.parametrize(
    "name,group,field,change",
    [pytest.param(*mutant, id=mutant[0]) for mutant in mutants(KERNEL_SHIFT_COUNTS)],
)
def test_kernel_mutant_first_fails_at_its_g(
    monkeypatch, fresh_odd_caches, name, group, field, change
):
    def planted(groups):
        groups = tuple(groups)
        assert [len(shifts) for *_, shifts in groups] == list(KERNEL_SHIFT_COUNTS)
        return gauss_sum(mutated(groups, group, field, change))

    monkeypatch.setattr(fano_odd, "gauss_sum", planted)
    smallest, how = KERNEL_SPLIT[name]
    for g in range(2, smallest):
        assert outcome(g) == "verified", g
    assert outcome(smallest) == how


def mutant_of(function, old, new):
    """`function` compiled again from its source with the one occurrence
    of `old` replaced by `new`, in a copy of its module's namespace."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


# the sweep's hyperelliptic checks: name -> (verifier, its arguments at g)
SWEEP_CHECKS = {
    "odd": (motivic.verify_decomposition, planes),
    "k0": (motivic.verify_k0_identity, lambda g: [(g,)]),
    "bgmn": (motivic.verify_bgmn_crosscheck, lambda g: [(g,)]),
    "hochschild": (motivic.verify_hochschild, planes),
}
MEASURE_MAX_G = 8

# mutant -> (function, source text, its replacement, and for each sweep
# check the smallest g <= MEASURE_MAX_G at which it does not verify and
# how, or None when it verifies for every g up to there)
MEASURE_MUTANTS = {
    "sign (-1)^(r+1)": (
        "block_e_polynomial", "(-h if r % 2 else h)", "(h if r % 2 else -h)",
        {"odd": None, "k0": (2, "inconsistent"), "bgmn": None, "hochschild": None},
    ),
    "weight C(g, a)^2": (
        "block_e_polynomial", "comb_g[a] * comb_g[r - a]", "comb_g[a] * comb_g[a]",
        {"odd": None, "k0": (2, "failed"), "bgmn": None, "hochschild": None},
    ),
    "drop the first a": (
        "block_e_polynomial", "range(max(0, r - g), r // 2 + 1)",
        "range(max(0, r - g) + 1, r // 2 + 1)",
        {"odd": None, "k0": (2, "failed"), "bgmn": None, "hochschild": None},
    ),
    "drop the last a": (
        "block_e_polynomial", "range(max(0, r - g), r // 2 + 1)", "range(max(0, r - g), r // 2)",
        {"odd": None, "k0": (2, "failed"), "bgmn": None, "hochschild": None},
    ),
    "block one step higher in p": (
        "block_e_polynomial", "slice(low + a - base, low + a - base + len(coeffs))",
        "slice(low + a + 1 - base, low + a + 1 - base + len(coeffs))",
        {"odd": None, "k0": (2, "inconsistent"), "bgmn": None, "hochschild": None},
    ),
    "Macdonald shift by L^2": (
        "macdonald_vectors", "itertools.chain((0,), q)", "itertools.chain((0, 0), q)",
        {"odd": (2, "failed"), "k0": None, "bgmn": None, "hochschild": (2, "failed")},
    ),
    "drop the top coefficient of each P_i": (
        "macdonald_vectors", "(start - low, coeffs)",
        "(start - low, coeffs[:-1] if len(coeffs) > 1 else coeffs)",
        {"odd": (2, "failed"), "k0": None, "bgmn": None, "hochschild": None},
    ),
}


def test_the_measure_table_names_every_mutant():
    assert len(MEASURE_MUTANTS) == 7
    for attr, _, _, first in MEASURE_MUTANTS.values():
        assert attr in ("block_e_polynomial", "macdonald_vectors")
        assert set(first) == set(SWEEP_CHECKS)
        # every mutant is seen by some check
        assert any(first.values())


@pytest.mark.parametrize("name", sorted(MEASURE_MUTANTS))
def test_measure_mutant_first_fails_at_its_g(monkeypatch, cold_caches, name):
    attr, old, new, first = MEASURE_MUTANTS[name]
    mutant = mutant_of(getattr(curves, attr), old, new)
    monkeypatch.setattr(curves, attr, mutant)
    monkeypatch.setattr(motivic, attr, mutant)
    for check, (verifier, args) in SWEEP_CHECKS.items():
        smallest, how = first[check] or (MEASURE_MAX_G + 1, "verified")
        for g in range(2, smallest):
            assert kind(verifier, args(g)) == "verified", (check, g)
        if smallest <= MEASURE_MAX_G:
            assert kind(verifier, args(smallest)) == how, check
