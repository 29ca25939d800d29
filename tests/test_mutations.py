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
- The stacky three-way agreement: one-field changes of the first and the
  last Betti group of fano_even.fano_even_betti_numbers, and one-site
  changes of euler_closed_form and stacky_collection_length, with the
  first (g, k) at which stacky_counts_report sees each, over g <= 20.
- multiplicity_at_one: one-site changes, with the first (g, k) at which
  verify_hochschild sees each.
- The identity suites: one-site changes of either side of
  gessel_identity_check and of the P_n step and the right-side row of
  chu_vandermonde_suite_report, with the first instance each suite sees
  within its default bounds.
- Every mutant above that raises is an error report of the sweep task
  that runs its check, named by the exception's type, not an exception
  that escapes the task.
"""

import inspect
import textwrap

import pytest

from twoquadrics import cli, curves, fano_even, fano_odd, motivic, stacky
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


def first_seen(verifier, instances):
    """The first instance at which verifier(*instance) does not verify,
    and how (see kind), or None when it verifies on all of them."""
    for args in instances:
        how = kind(verifier, [args])
        if how != "verified":
            return args, how
    return None


STACKY_MAX_G = 20
STACKY_PLANES = [plane for g in range(2, STACKY_MAX_G + 1) for plane in planes(g)]


def betti_mutants():
    """(name, group, field, change) for each one-field mutant of the first
    and of the last Betti group, j = 0 and j = k+1; a group index -1
    stands for the last."""
    for group, label in ((0, "[0]"), (-1, "[k+1]")):
        for name, _, field, change in mutants((1,)):
            yield name.replace("[0]", label), group, field, change


# mutant of the Betti groups -> the first (g, k) at which
# stacky_counts_report does not verify, and how
BETTI_GROUPS = {
    "[0] w*2": ((2, 0), "failed"), "[0] n-1": ((2, 0), "inconsistent"),
    "[0] n+1": ((2, 0), "inconsistent"), "[0] m-1": ((2, 0), "inconsistent"),
    "[0] m+1": ((3, 0), "inconsistent"), "[0] s0-1": ((2, 0), "raised"),
    "[0] s0+1": ((2, 0), "inconsistent"),
    "[k+1] w*2": ((2, 0), "failed"), "[k+1] m-1": ((2, 0), "failed"),
    "[k+1] m+1": ((2, 0), "inconsistent"), "[k+1] s0-1": ((2, 0), "inconsistent"),
    "[k+1] s0+1": ((2, 0), "inconsistent"),
}

# mutants proved equivalent -> why
EQUIVALENT = {
    "[k+1] n-1": "the last group is [2g-2k-2, 0]_q, and [n, 0]_q = 1 for every n >= 0",
    "[k+1] n+1": "the last group is [2g-2k-2, 0]_q, and [n, 0]_q = 1 for every n >= 0",
}


def test_the_betti_table_names_every_mutant():
    names = [name for name, *_ in betti_mutants()]
    assert len(names) == len(set(names)) == 14
    assert set(names) == set(BETTI_GROUPS) | set(EQUIVALENT)
    assert not set(BETTI_GROUPS) & set(EQUIVALENT)


@pytest.mark.parametrize(
    "name,group,field,change", [pytest.param(*mutant, id=mutant[0]) for mutant in betti_mutants()]
)
def test_betti_mutant_is_first_seen_at_its_plane(monkeypatch, name, group, field, change):
    def planted(groups):
        groups = tuple(groups)
        if len(groups) == 1:  # one block summed alone, to name it: as it is
            return gauss_sum(groups)
        return gauss_sum(mutated(groups, group % len(groups), field, change))

    monkeypatch.setattr(fano_even, "gauss_sum", planted)
    expected = None if name in EQUIVALENT else BETTI_GROUPS[name]
    assert first_seen(stacky.stacky_counts_report, STACKY_PLANES) == expected


# mutant -> (the function, its source text, the replacement, and the
# first (g, k) at which stacky_counts_report does not verify, and how)
STACKY_SOURCE_MUTANTS = {
    "closed form C(g, k+1) 4^k": (
        fano_even.euler_closed_form, "4 ** (k + 1)", "4 ** k", ((2, 0), "failed"),
    ),
    "closed form C(g, k) 4^(k+1)": (
        fano_even.euler_closed_form, "math.comb(g, k + 1)", "math.comb(g, k)", ((2, 0), "failed"),
    ),
    "closed form C(g+1, k+1) 4^(k+1)": (
        fano_even.euler_closed_form, "math.comb(g, k + 1)", "math.comb(g + 1, k + 1)",
        ((2, 0), "failed"),
    ),
    "count n-1": (
        stacky.stacky_collection_length, "2 * g - 3 - k - i", "2 * g - 4 - k - i",
        ((2, 0), "raised"),
    ),
    "count n+1": (
        stacky.stacky_collection_length, "2 * g - 3 - k - i", "2 * g - 2 - k - i",
        ((2, 0), "failed"),
    ),
    "count m-1": (stacky.stacky_collection_length, "k + 1 - i)", "k - i)", ((2, 0), "raised")),
    "count m+1": (stacky.stacky_collection_length, "k + 1 - i)", "k + 2 - i)", ((2, 0), "failed")),
    "count drops the last i": (
        stacky.stacky_collection_length, "range(k + 2)", "range(k + 1)", ((2, 0), "failed"),
    ),
}


@pytest.mark.parametrize("name", sorted(STACKY_SOURCE_MUTANTS))
def test_stacky_source_mutant_is_first_seen_at_its_plane(monkeypatch, name):
    function, old, new, expected = STACKY_SOURCE_MUTANTS[name]
    monkeypatch.setattr(stacky, function.__name__, mutant_of(function, old, new))
    assert first_seen(stacky.stacky_counts_report, STACKY_PLANES) == expected


HOCHSCHILD_PLANES = [plane for g in range(2, 13) for plane in planes(g)]

# mutant of multiplicity_at_one, C(n, k+1-i) + 2 C(n, k-i) with
# n = 2g-4-k-i -> (its source text, the replacement, and the first
# (g, k) at which verify_hochschild does not verify, and how); the two
# that raise give binomial an n < 0 with an m >= 1
AT_ONE_MUTANTS = {
    "n-1": ("n = 2 * g - 4 - k - i", "n = 2 * g - 5 - k - i", ((2, 0), "raised")),
    "n+1": ("n = 2 * g - 4 - k - i", "n = 2 * g - 3 - k - i", ((2, 0), "failed")),
    "first m-1": ("binomial(n, k + 1 - i)", "binomial(n, k - i)", ((2, 0), "failed")),
    "first m+1": ("binomial(n, k + 1 - i)", "binomial(n, k + 2 - i)", ((2, 0), "raised")),
    "second m-1": ("binomial(n, k - i)", "binomial(n, k - 1 - i)", ((2, 0), "failed")),
    "second m+1": ("binomial(n, k - i)", "binomial(n, k + 1 - i)", ((2, 0), "failed")),
    "weight 1": ("2 * binomial", "1 * binomial", ((2, 0), "failed")),
    "weight 3": ("2 * binomial", "3 * binomial", ((2, 0), "failed")),
}


@pytest.mark.parametrize("name", sorted(AT_ONE_MUTANTS))
def test_at_one_mutant_is_first_seen_at_its_plane(monkeypatch, name):
    old, new, expected = AT_ONE_MUTANTS[name]
    mutant = mutant_of(motivic.multiplicity_at_one, old, new)
    monkeypatch.setattr(motivic, "multiplicity_at_one", mutant)
    assert first_seen(motivic.verify_hochschild, HOCHSCHILD_PLANES) == expected


# the default suite bounds of the CLI
MAX_M, MAX_A, MAX_N = 30, 60, 40
# Gessel's bounds in the suite's order, m then a: the first bounds at
# which the suite does not verify name the first instance it reaches
# that does not verify
GESSEL_BOUNDS = [(m, a) for m in range(MAX_M + 1) for a in range(0, MAX_A + 1, 2)]

# mutant of gessel_identity_check, 4^m C(m+a/2, m) = sum_{i<=m}
# C(m+a-i, a) C(2m+a+1, i) -> (its source text, the replacement, and the
# first bounds (m, a) at which gessel_suite_report does not verify, and
# how)
GESSEL_MUTANTS = {
    "left weight 2 4^m": ("4**m", "2 * 4**m", ((0, 0), "failed")),
    "left n-1": ("math.comb(m + a // 2, m)", "math.comb(m + a // 2 - 1, m)", ((0, 0), "raised")),
    "left n+1": ("math.comb(m + a // 2, m)", "math.comb(m + a // 2 + 1, m)", ((1, 0), "failed")),
    "left m-1": ("math.comb(m + a // 2, m)", "math.comb(m + a // 2, m - 1)", ((0, 0), "raised")),
    "left m+1": ("math.comb(m + a // 2, m)", "math.comb(m + a // 2, m + 1)", ((0, 0), "failed")),
    "right C(m+a-i, a) n-1": (
        "math.comb(m + a - i, a)", "math.comb(m + a - i - 1, a)", ((0, 0), "raised"),
    ),
    "right C(m+a-i, a) n+1": (
        "math.comb(m + a - i, a)", "math.comb(m + a - i + 1, a)", ((0, 2), "failed"),
    ),
    "right C(m+a-i, a) m-1": (
        "math.comb(m + a - i, a)", "math.comb(m + a - i, a - 1)", ((0, 0), "raised"),
    ),
    "right C(m+a-i, a) m+1": (
        "math.comb(m + a - i, a)", "math.comb(m + a - i, a + 1)", ((0, 0), "failed"),
    ),
    "right C(2m+a+1, i) n-1": (
        "math.comb(2 * m + a + 1, i)", "math.comb(2 * m + a, i)", ((1, 0), "failed"),
    ),
    "right C(2m+a+1, i) n+1": (
        "math.comb(2 * m + a + 1, i)", "math.comb(2 * m + a + 2, i)", ((1, 0), "failed"),
    ),
    "right C(2m+a+1, i) m-1": (
        "math.comb(2 * m + a + 1, i)", "math.comb(2 * m + a + 1, i - 1)", ((0, 0), "raised"),
    ),
    "right C(2m+a+1, i) m+1": (
        "math.comb(2 * m + a + 1, i)", "math.comb(2 * m + a + 1, i + 1)", ((0, 2), "failed"),
    ),
    "right drops the first i": ("range(m + 1)", "range(1, m + 1)", ((0, 0), "failed")),
    "right drops the last i": ("range(m + 1)", "range(m)", ((0, 0), "failed")),
}


@pytest.mark.parametrize("name", sorted(GESSEL_MUTANTS))
def test_gessel_mutant_is_first_seen_at_its_bounds(monkeypatch, name):
    old, new, expected = GESSEL_MUTANTS[name]
    monkeypatch.setattr(
        stacky, "gessel_identity_check", mutant_of(stacky.gessel_identity_check, old, new)
    )
    assert first_seen(stacky.gessel_suite_report, GESSEL_BOUNDS) == expected


# mutant of chu_vandermonde_suite_report -> (its source text, the
# replacement, and the smallest max_n at which the suite does not
# verify, and how): the P_n step, P_n = (1+z) P_{n-1} + (1+x)^n, and the
# right-side row C(n+1, s), s = 0..n+1
CHU_VANDERMONDE_MUTANTS = {
    "P_n drops (1+x)^n": ("[c, *row]", "[0, *row]", (0, "failed")),
    "P_n doubles (1+x)^n": ("[c, *row]", "[2 * c, *row]", (0, "failed")),
    "P_n reads (1+x)^n one j up": ("zip(rows, power)", "zip(rows, power[1:] + [0])", (0, "failed")),
    "P_n with 1 for (1+z)": ("[c, *row]", "[c] + [0] * len(row)", (1, "failed")),
    "P_n with z for (1+z)": ("row + [0]", "[0] * (len(row) + 1)", (1, "failed")),
    "right C(n, s)": ("math.comb(n + 1, s)", "math.comb(n, s)", (0, "failed")),
    "right C(n+2, s)": ("math.comb(n + 1, s)", "math.comb(n + 2, s)", (0, "failed")),
    "right C(n+1, s+1)": ("math.comb(n + 1, s)", "math.comb(n + 1, s + 1)", (0, "failed")),
    "right C(n+1, s-1)": ("math.comb(n + 1, s)", "math.comb(n + 1, s - 1)", (0, "raised")),
    "right drops the first s": ("range(n + 2)", "range(1, n + 2)", (0, "failed")),
    "right drops the last s": ("range(n + 2)", "range(n + 1)", (0, "failed")),
}


@pytest.mark.parametrize("name", sorted(CHU_VANDERMONDE_MUTANTS))
def test_chu_vandermonde_mutant_is_first_seen_at_its_bound(name):
    old, new, (n, how) = CHU_VANDERMONDE_MUTANTS[name]
    suite = mutant_of(stacky.chu_vandermonde_suite_report, old, new)
    assert first_seen(suite, [(bound,) for bound in range(MAX_N + 1)]) == ((n,), how)


def planted_groups(shift_counts, name):
    """gauss_sum with the mutant `name` of groups with these numbers of
    shifts planted, as the bracket and kernel tests plant it."""
    group, field, change = next(m[1:] for m in mutants(shift_counts) if m[0] == name)
    return lambda groups: gauss_sum(mutated(tuple(groups), group, field, change))


def planted_betti(name):
    """gauss_sum with the Betti mutant `name` planted, as
    test_betti_mutant_is_first_seen_at_its_plane plants it."""
    group, field, change = next(m[1:] for m in betti_mutants() if m[0] == name)

    def planted(groups):
        groups = tuple(groups)
        if len(groups) == 1:
            return gauss_sum(groups)
        return gauss_sum(mutated(groups, group % len(groups), field, change))

    return planted


def raising_mutants():
    """(id, CHECKS target, the check's instances at the mutant's pinned g
    or bounds, in order, and the (module, attribute, value) plants) of
    every mutant the tables record as raising."""
    for name in sorted(RAISING):
        yield (f"bracket {name}", "odd", planes(SMALLEST_FAILING_G[name]),
               [(motivic, "gauss_sum", planted_groups(SHIFT_COUNTS, name))])
    for name, (g, how) in sorted(KERNEL_SPLIT.items()):
        if how == "raised":
            yield (f"kernel {name}", "odd", planes(g),
                   [(fano_odd, "gauss_sum", planted_groups(KERNEL_SHIFT_COUNTS, name))])
    for name, (plane, how) in sorted(BETTI_GROUPS.items()):
        if how == "raised":
            yield f"betti {name}", "even", [plane], [(fano_even, "gauss_sum", planted_betti(name))]
    for name, (function, old, new, (plane, how)) in sorted(STACKY_SOURCE_MUTANTS.items()):
        if how == "raised":
            yield name, "even", [plane], [(stacky, function.__name__, mutant_of(function, old, new))]
    for name, (old, new, (plane, how)) in sorted(AT_ONE_MUTANTS.items()):
        if how == "raised":
            mutant = mutant_of(motivic.multiplicity_at_one, old, new)
            yield f"at one {name}", "hochschild", [plane], [(motivic, "multiplicity_at_one", mutant)]
    for name, (old, new, (bounds, how)) in sorted(GESSEL_MUTANTS.items()):
        if how == "raised":
            mutant = mutant_of(stacky.gessel_identity_check, old, new)
            yield f"gessel {name}", "gessel", [bounds], [(stacky, "gessel_identity_check", mutant)]
    for name, (old, new, (n, how)) in sorted(CHU_VANDERMONDE_MUTANTS.items()):
        if how == "raised":
            mutant = mutant_of(stacky.chu_vandermonde_suite_report, old, new)
            yield f"chu-vandermonde {name}", "chu-vandermonde", [(n,)], [
                (cli, "chu_vandermonde_suite_report", mutant)
            ]


RAISING_MUTANTS = list(raising_mutants())


def test_every_raising_mutant_is_taken():
    # two of the bracket, one of the kernel and of the Betti groups, two
    # of the count, of multiplicity_at_one, five of Gessel, one of
    # Chu-Vandermonde
    assert len(RAISING_MUTANTS) == 14


@pytest.mark.parametrize(
    "target,instances,plants", [pytest.param(*m[1:], id=m[0]) for m in RAISING_MUTANTS]
)
def test_raising_mutant_is_an_error_report_of_its_sweep_task(
    monkeypatch, cold_caches, target, instances, plants
):
    for module, attr, value in plants:
        monkeypatch.setattr(module, attr, value)
    # the first instance that does not verify, run as a sweep task
    for args in instances:
        report, _ = cli.run_sweep_task((target, args))
        if not report.verified:
            break
    assert report.status == "error"
    with pytest.raises(ValueError) as raised:
        cli.run_check(target, args)
    assert report.observations == (
        ("error", f"{type(raised.value).__name__}: {raised.value}"),
    )
