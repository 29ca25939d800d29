"""Mutation table of the multiplicity bracket: every change of one field
of the five groups that motivic.multiplicity_coefficients hands to
exactpoly.gauss_sum makes verify_decomposition fail, or raise
ValueError, at some g <= 6, so the check cannot pass vacuously.  The
table pins the smallest such g of each mutant."""

import pytest

from twoquadrics import motivic
from twoquadrics.exactpoly import gauss_sum

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


def mutants():
    """(name, group, field, change) for each of the 53 mutants."""
    for group, count in enumerate(SHIFT_COUNTS):
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


def outcome(g):
    """"verified" when verify_decomposition(g, k) verifies for every k,
    else "failed" or "raised" for the first k that does not."""
    for k in range(g - 1):
        try:
            if not motivic.verify_decomposition(g, k).verified:
                return "failed"
        except ValueError:
            return "raised"
    return "verified"


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
