"""Test oracles: the dense routes the library ran on lists of ints before
its dense polynomials were packed into single ints.  Each is the former
library code, kept whole, so the packed routes can be compared with it
and their widths with the values it forms.  `kunneth`, the former
HodgeDiamond.kunneth, is kept here as an oracle for product diamonds,
and `loop_block_diamond`, the former per-block loop of
curves.block_diamond, as the oracle for every diamond built from blocks.
`trim_blocks`, the former block sum of motivic.verify_decomposition,
turns the dense block vectors of the oracles into the library's one
trimmed (r, low, coeffs) form.  Two routes that Macdonald's formula
replaced are kept as its oracles: `sym_blocks`, the former inline block
list of curves.sym_curve_diamond, and `hochschild_weights` with
`weighted_hochschild`, the former running weights of the sum side of
motivic.verify_hochschild and the former (r, weight) form of
curves.block_hochschild that measured them.  `payload` and `report_to_json_obj`, the
former object encoder of cli, are the oracle of the report text that
cli.report_json writes directly.  `gauss_binomial`, `eval_at_one` and
`multiplicity`, former library views of the Gaussian binomials and the
multiplicity kernel, are kept for the tests that read them.
`padded_serre_violation` is the naive oracle of hodge.serre_violation:
it scatters the counts into 0..span before it checks anything.

Every function here can record the largest |value| it forms: pass a
`seen` list and each intermediate coefficient list is appended to it.
`pack`, the former library encoder of packed polynomials, is kept as the
inverse of `exactpoly.unpack` for round-trip tests and for planting
corrupted packed values.
"""

import functools
import itertools
import math
import operator

from twoquadrics.exactpoly import (
    BiPoly,
    ConsistencyError,
    InexactDivisionError,
    LaurentPoly,
    _nonzero_ends,
    binomial,
    gauss_coefficients,
)
from twoquadrics.fano_odd import multiplicity_kernel
from twoquadrics.hodge import HodgeDiamond
from twoquadrics.motivic import multiplicity_at_one


def mul_one_minus_power(coeffs, s):
    """Multiply the dense polynomial `coeffs` (entry e is the coefficient
    of q^e) by 1 - q^s in place, for s >= 1."""
    coeffs.extend([0] * s)
    # the right-hand slices are copies, so every subtrahend is an old value
    coeffs[s:] = map(operator.sub, coeffs[s:], coeffs[:-s])


def div_one_minus_power(coeffs, s):
    """Divide the dense polynomial `coeffs` by 1 - q^s in place, for s >= 1.

    The quotient series is the stride-s running sum of the coefficients.
    It is a polynomial exactly when its top s coefficients (the dropped
    tail) vanish; otherwise InexactDivisionError is raised.
    """
    n = len(coeffs)
    for r in range(min(s, n)):
        coeffs[r:n:s] = itertools.accumulate(coeffs[r:n:s])
    top = max(n - s, 0)
    if any(coeffs[top:]):
        raise InexactDivisionError(f"polynomial division by 1 - q^{s} is not exact")
    del coeffs[top:]


@functools.cache
def _list_diagonal(d):
    """[m+d, m]_q by m as tuples, seeded with m = 0."""
    return {0: (1,)}


def list_gauss_coefficients(n, m):
    """[n, m]_q as a dense tuple by the former list Pascal table: filled
    diagonal by diagonal, one slice update per entry."""
    if m < 0:
        return ()
    if m == 0:
        return (1,)
    if n < m:
        return ()
    diagonal = _list_diagonal(n - m)
    if m not in diagonal:
        start = n - m
        while start and m not in _list_diagonal(start - 1):
            start -= 1
        below = _list_diagonal(start - 1) if start else {}
        for d in range(start, n - m + 1):
            diagonal = _list_diagonal(d)
            for i in range(len(diagonal), m + 1):
                low = diagonal[i - 1]
                out = list(low) + [0] * (i * d + 1 - len(low))
                out[i:] = map(operator.add, out[i:], below.get(i, ()))
                diagonal.setdefault(i, tuple(out))
            below = diagonal
    return diagonal[m]


def pack(coeffs, width):
    """sum_e coeffs[e] 2^(width e): the packed form of the dense
    polynomial `coeffs` (entry e is the coefficient of X^e).  Every
    coefficient must lie in [-2^(width-1), 2^(width-1)); OverflowError
    otherwise.

    Each coefficient becomes `width` bits of two's complement, and the
    bytes are read as one unsigned int z; flipping the top bit of every
    digit turns two's complement into offset form, so (z ^ H) - H, H the
    half digits, is the balanced value."""
    size = width // 8
    data = b"".join(c.to_bytes(size, "little", signed=True) for c in coeffs)
    half = int.from_bytes((bytes(size - 1) + b"\x80") * len(coeffs), "little")
    return (int.from_bytes(data, "little") ^ half) - half


def list_gauss_sum(groups, seen=None):
    """sum over (w, n, m, shifts) of w [n, m]_q (q^{s_1} + ...) as a dense
    (low, coeffs) with nonzero ends, one slice update per shifted
    binomial; a group whose binomial vanishes adds nothing."""
    acc = []
    for w, n, m, shifts in groups:
        if not binomial(n, m):
            continue
        coeffs = [w * c for c in list_gauss_coefficients(n, m)]
        for s in shifts:
            end = s + len(coeffs)
            if end > len(acc):
                acc.extend([0] * (end - len(acc)))
            acc[s:end] = map(operator.add, acc[s:end], coeffs)
            if seen is not None:
                seen.append(list(acc))
    hi = len(acc)
    while hi and not acc[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not acc[lo]:
        lo += 1
    return (lo, acc[lo:hi]) if lo < hi else (0, [])


def list_kernel_step(a, b, previous, seen=None):
    """K(a, b) from K(a, b-1) by the in-place list steps."""
    coeffs = list(previous)
    for step, s in ((mul_one_minus_power, 2 * b), (mul_one_minus_power, a + b - 2),
                    (div_one_minus_power, 2 * b - 2), (div_one_minus_power, b - a + 1)):
        step(coeffs, s)
        if seen is not None:
            seen.append(list(coeffs))
    return tuple(coeffs)


@functools.cache
def list_kernel_coefficients(a, b):
    """The dense kernel K(a, b) in u = q^2, stepped from K(a, a-1) = 1."""
    if b == a - 1:
        return (1,)
    return list_kernel_step(a, b, list_kernel_coefficients(a, b - 1))


def list_betti_numbers(g, k, seen=None):
    """The even Betti vector of the (g, k) stacky Fano scheme, one slice
    update per weighted Gaussian binomial."""
    d = (k + 1) * (2 * g - 2 * k - 2)
    b = [0] * (d + 1)
    for j in range(k + 2):
        coeffs = list_gauss_coefficients(2 * g - k - j - 1, k + 1 - j)
        s = j * (g - k - 1)
        e = s + len(coeffs)
        w = math.comb(2 * g + 1, j)
        b[s:e] = map(operator.add, b[s:e], map(w.__mul__, coeffs))
        if seen is not None:
            seen.append(list(b))
    return tuple(b)


def list_multiplicity_coefficients(g, k, i, seen=None):
    """M_i(L) of the (g, k) decomposition as a dense (base, coeffs) with
    nonzero ends: the five-group bracket accumulated by slice updates."""
    groups = (
        ((0,), 2 * g - k - i, k + 1 - i, 1),
        ((g - k - 1, g + 2 * k - 3 * i), 2 * g - k - i - 4, k - i, -1),
        (
            (g - k, g - i, g + k - 2 * i, 3 * g - 3 * k - 4, 3 * g - 2 * k - 4 - i,
             3 * g - k - 2 * i - 4),
            2 * g - k - i - 4, k - i - 1, -1,
        ),
        (
            (3 * (g - k - 1), 3 * (g - k - 1) + 1, 3 * g - 2 * k - i - 3,
             3 * g - 2 * k - i - 2),
            2 * g - k - i - 4, k - i - 2, -1,
        ),
        ((4 * (g - k) - 2,), 2 * g - k - i - 4, k - i - 3, -1),
    )
    acc = []
    for shifts, n, m, sign in groups:
        if m < 0 or (0 <= n < m):
            continue
        coeffs = list_gauss_coefficients(n, m)
        combine = operator.add if sign > 0 else operator.sub
        for s in shifts:
            end = s + len(coeffs)
            if end > len(acc):
                acc.extend([0] * (end - len(acc)))
            acc[s:end] = map(combine, acc[s:end], coeffs)
            if seen is not None:
                seen.append(list(acc))
    hi = len(acc)
    while hi and not acc[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not acc[lo]:
        lo += 1
    return i * (g - k - 1) + lo, acc[lo:hi]


def max_abs(lists):
    """The largest |entry| over a collection of int lists (0 if none)."""
    return max((abs(c) for values in lists for c in values), default=0)


def kunneth(a, b):
    """Diamond of the product of the varieties of diamonds a and b (the
    Kunneth convolution of their tables)."""
    d = a.dimension + b.dimension
    out = [[0] * (d + 1) for _ in range(d + 1)]
    for p1, row1 in enumerate(a.rows()):
        for q1, h1 in enumerate(row1):
            if not h1:
                continue
            for p2, row2 in enumerate(b.rows()):
                for q2, h2 in enumerate(row2):
                    if h2:
                        out[p1 + p2][q1 + q2] += h1 * h2
    return HodgeDiamond(out)


def loop_block_diamond(g, d, blocks):
    """Diamond of dimension d whose cohomology is the sum of blocks
    mult * wedge^r H^1(C)(-t), C a curve of genus g.

    Each block (r, t, mult) adds mult * C(g, p-t) C(g, q-t) to h^{p,q}
    for every p + q = r + 2t.  A block that does not fit in the table, or
    a table that fails the diamond checks, raises ConsistencyError.
    """
    comb_g = [math.comb(g, a) for a in range(g + 1)]
    h = [[0] * (d + 1) for _ in range(d + 1)]
    for r, t, mult in blocks:
        if r < 0 or t < 0 or t + min(r, g) > d:
            raise ConsistencyError(
                f"block (r, t) = ({r}, {t}) of genus {g} does not fit in dimension {d}"
            )
        # wedge^r H^1 has h^{a, r-a} = C(g, a) C(g, r-a), shifted by (t, t)
        for a in range(max(0, r - g), min(g, r) + 1):
            h[t + a][t + r - a] += mult * comb_g[a] * comb_g[r - a]
    try:
        return HodgeDiamond(h)
    except ValueError as exc:
        raise ConsistencyError(str(exc)) from exc


def block_triples(vectors):
    """(r, low, coeffs) block vectors as the (r, t, mult) blocks of
    loop_block_diamond, one per nonzero coefficient."""
    return [
        (r, low + e, mult) for r, low, coeffs in vectors for e, mult in enumerate(coeffs) if mult
    ]


def trim_blocks(vectors):
    """(r, low, coeffs) block vectors, distinct r, in the trimmed form of
    fano_odd_blocks and macdonald_vectors: (r, lowest exponent,
    coefficients up to the highest) in ascending r, zero vectors dropped."""
    out = []
    for r, low, coeffs in vectors:
        lo, hi = _nonzero_ends(coeffs)
        if lo < hi:
            out.append((r, low + lo, tuple(coeffs[lo:hi])))
    return tuple(sorted(out))


def sym_blocks(g, n):
    """Blocks of [Sym^n C], C of genus g: by Macdonald, the sum of
    wedge^r H^1 (1 + L + ... + L^{n-r}) over r <= min(n, 2g)."""
    return [(r, 0, (1,) * (n - r + 1)) for r in range(min(n, 2 * g) + 1)]


def hochschild_weights(g, k):
    """(r, weight) pairs of the sum side of the (g, k) Hochschild check: by
    Macdonald r weighs sum_{i >= r} M_i(1) (i - r + 1), accumulated from
    the top i down."""
    weights = []
    tail = weight = 0
    for r in range(k + 1, -1, -1):
        tail += multiplicity_at_one(g, k, r)
        weight += tail
        weights.append((r, weight))
    return weights


def weighted_hochschild(g, weights):
    """Hochschild polynomial of the sum of weight * wedge^r H^1(C) over
    (r, weight) in `weights`: wedge^r H^1 adds C(g, a) C(g, r-a) to
    t^{r-2a}."""
    comb_g = [math.comb(g, a) for a in range(g + 1)]
    hh = [0] * (2 * g + 1)
    for r, weight in weights:
        for a in range(max(0, r - g), min(g, r) + 1):
            hh[r - 2 * a + g] += weight * comb_g[a] * comb_g[r - a]
    return LaurentPoly._raw({i - g: c for i, c in enumerate(hh) if c})


def gauss_binomial(n, m):
    """Gaussian binomial coefficient [n, m]_q as a polynomial in q."""
    return LaurentPoly._raw({e: c for e, c in enumerate(gauss_coefficients(n, m)) if c})


def eval_at_one(p):
    """Sum of all coefficients (the value at q = 1)."""
    return sum(p._coeffs.values())


def multiplicity(a, b, c):
    """Number of copies of the (a, b) cohomology block in centered degree c."""
    return multiplicity_kernel(a, b).coefficient(c)


def payload(value):
    """JSON payload for a polynomial-like report side.

    Polynomials become sorted arrays of [exponent(s), coefficient] with
    coefficients as decimal strings (they exceed native integer widths);
    integers become decimal strings; term lists become [index, payload]
    pairs.
    """
    if value is None:
        return None
    if isinstance(value, LaurentPoly):
        return [[e, str(c)] for e, c in value.items()]
    if isinstance(value, BiPoly):
        return [[p, q, str(c)] for (p, q), c in value.items()]
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [[i, payload(p)] for i, p in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def report_to_json_obj(report, elapsed_ms):
    """The report and its time as a JSON object, built field by field; its
    canonical dump is what cli.report_json writes."""
    lhs = payload(report.lhs)
    return {
        "identity": report.identity,
        "params": dict(report.params),
        "status": report.status,
        "lhs": lhs,
        "rhs": lhs if report.rhs is report.lhs else payload(report.rhs),
        "effectivity": [[i, bool(ok)] for i, ok in report.effectivity],
        "observations": dict(report.observations),
        "elapsed_ms": elapsed_ms,
    }


def padded_serre_violation(values, low, span):
    """Oracle of hodge.serre_violation(values, low, span, str): the counts
    values[e] scattered term by term into a list over 0..span, then the
    rule's three checks in its order (every index low + e inside 0..span,
    every entry non-negative, the list equal to its reverse), the first
    failure worded as the rule words it with index t named "t"."""
    top = low + len(values) - 1
    if not all(0 <= low + e <= span for e in range(len(values))):
        return f"{low}..{top} does not fit in 0..{span}"
    v = [0] * (span + 1)
    for e, h in enumerate(values):
        v[low + e] = h
    for t in range(span + 1):
        if v[t] < 0:
            return f"{t} = {v[t]} is not a non-negative integer"
    if v != v[::-1]:
        t = min(t for t in range(span + 1) if v[t] != v[span - t])
        return f"Serre duality fails: {t} = {v[t]} but {span - t} = {v[span - t]}"
    return None
