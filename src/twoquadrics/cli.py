"""Command-line front end: compute diamonds, verify identities, sweep
parameter ranges, and emit deterministic text or JSON reports with
CI-friendly exit codes (0 verified, 1 any failure, 2 usage error, 3
internal error).  One table, CHECKS, drives `verify`, `identity` and the
sweep, and DIAMONDS drives `diamond`; each target has its own
sub-parser, whose flags are those of its row, read from FLAGS.  The
runner returns each check's wall time beside its report, and the
writers take both.  argparse checks which flags were given, and the
library functions check their values (exactpoly.check_param and
stacky.check_suite_bounds).  The type of an exception alone decides
its exit code: exactpoly.UsageError, the one type of bad input (a value
out of range, a grammar error, or an --output or a stdout that cannot
be written), is exit 2, and any other exception is an internal error,
exit 3, one line written by _internal_message.  A sweep checks every
range before its first task runs and writes each report as it
completes; any exception inside a task becomes a report with status
"error", the other reports are still emitted and the sweep exits 3."""

from __future__ import annotations

import argparse
import collections
import contextlib
import errno
import json
import os
import stat
import sys
import tempfile
import time
from typing import Callable, NamedTuple

from .curves import jacobian_diamond, sym_curve_diamond
from .exactpoly import BiPoly, ConsistencyError, LaurentPoly, UsageError, check_param
from .fano_even import EvenFanoParams, fano_even_diamond
from .fano_odd import OddFanoParams, fano_odd_diamond
from .motivic import (
    ERROR,
    VERIFIED,
    VerificationReport,
    verify_bgmn_crosscheck,
    verify_decomposition,
    verify_hochschild,
    verify_k0_identity,
)
from .stacky import (
    check_suite_bounds,
    chu_vandermonde_suite_report,
    gessel_suite_report,
    stacky_counts_report,
)


# ---------------------------------------------------------------------------
# serialization

def _side_json(value) -> str:
    """Canonical JSON text of a report side, written directly: a
    polynomial is its array of [exponent(s), coefficient] terms in key
    order, an int a decimal string (coefficients exceed native integer
    widths), a term list its [index, side] pairs.  These hold only ints,
    decimal strings and nested arrays, whose canonical forms need no
    escaping."""
    if value is None:
        return "null"
    if isinstance(value, LaurentPoly):
        return "[" + ",".join([f'[{e},"{c}"]' for e, c in value.items()]) + "]"
    if isinstance(value, BiPoly):
        return "[" + ",".join([f'[{p},{q},"{c}"]' for (p, q), c in value.items()]) + "]"
    if isinstance(value, int):
        return f'"{value}"'
    if isinstance(value, (tuple, list)):
        return "[" + ",".join([f"[{i},{_side_json(p)}]" for i, p in value]) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def report_to_json_obj(report: VerificationReport, elapsed_ms: int) -> dict:
    """The report and its time as a JSON object: report_json parsed back."""
    return json.loads(report_json(report, elapsed_ms))


def canonical_json(obj) -> str:
    """Canonical dump: sorted keys, no whitespace between tokens, trailing
    newline; without `indent` the dump runs on the C encoder.  Parsing and
    re-serializing an emitted document is byte-identical."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def report_json(report: VerificationReport, elapsed_ms: int) -> str:
    """The canonical dump of the report and its time, with each side
    written as text by _side_json and spliced into the dump of the report
    with both sides null; a side that is the other side (a verified
    decomposition) is written once.

    The report object's keys sort as effectivity, elapsed_ms, identity,
    lhs, observations, params, rhs, status.  No value before "lhs" is an
    object and the value after "rhs" is a string, whose quotes the dump
    escapes, so the first '"lhs":null' and the last '"rhs":null' of the
    skeleton are those keys.
    """
    lhs = _side_json(report.lhs)
    rhs = lhs if report.rhs is report.lhs else _side_json(report.rhs)
    skeleton = {
        "identity": report.identity,
        "params": dict(report.params),
        "status": report.status,
        "lhs": None,
        "rhs": None,
        "effectivity": [[i, bool(ok)] for i, ok in report.effectivity],
        "observations": dict(report.observations),
        "elapsed_ms": elapsed_ms,
    }
    head, _, rest = canonical_json(skeleton).partition('"lhs":null')
    middle, _, tail = rest.rpartition('"rhs":null')
    return f'{head}"lhs":{lhs}{middle}"rhs":{rhs}{tail}'


# identity -> the variable of its LaurentPoly sides: Hochschild
# polynomials are in t, the multiplicities M_i in L
_SIDE_VARIABLES = {"hochschild-decomposition": "t", "bgmn-crosscheck": "L"}


def _pretty_side(value, var: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, LaurentPoly):
        return value.pretty(var)
    if isinstance(value, BiPoly):
        return value.pretty()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (tuple, list)):
        return "; ".join(f"[{i}] {_pretty_side(p, var)}" for i, p in value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _params_text(report: VerificationReport) -> str:
    return " ".join(f"{k}={v}" for k, v in report.params)


def report_to_text(report: VerificationReport, elapsed_ms: int) -> str:
    """One head line with the time; a report that is not verified adds
    its sides (an error report has none) and then every observation, one
    line each in key order, a string as it is and any other value as
    JSON."""
    head = {VERIFIED: "PASS", ERROR: "ERROR"}.get(report.status, "FAIL")
    lines = [f"{head} {report.identity} {_params_text(report)} ({elapsed_ms} ms)"]
    if report.verified:
        return lines[0]
    if report.status != ERROR:
        var = _SIDE_VARIABLES.get(report.identity, "q")
        lines.append(f"  lhs: {_pretty_side(report.lhs, var)}")
        lines.append(f"  rhs: {_pretty_side(report.rhs, var)}")
        bad = [i for i, ok in report.effectivity if not ok]
        if bad:
            lines.append(f"  non-effective multiplicities at i = {bad}")
    for key, value in report.observations:
        lines.append(f"  {key}: {value if isinstance(value, str) else json.dumps(value)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the checks and the sweep

def _genera(max_g: int) -> list[tuple[int]]:
    return [(g,) for g in range(2, max_g + 1)]


def _planes(max_g: int) -> list[tuple[int, int]]:
    return [(g, k) for g in range(2, max_g + 1) for k in range(g - 1)]


class Check(NamedTuple):
    identity: str  # the identity its reports carry
    params: tuple[str, ...]  # its parameter names, the flags that give them
    run: Callable[..., VerificationReport]
    instances: Callable[[dict], list[tuple]]  # sweep ranges -> its parameters, ascending


# CLI target -> check.  The checks look their functions up at call time,
# so a patched module attribute is used.  A target whose parameters are
# suite bounds is an `identity` suite, any other a `verify` target; the
# sweep runs every target.
CHECKS = {
    "odd": Check("hyperelliptic-decomposition", ("g", "k"),
                 lambda g, k: verify_decomposition(g, k), lambda r: _planes(r["max_g"])),
    "even": Check("stacky-counts", ("g", "k"),
                  lambda g, k: stacky_counts_report(g, k), lambda r: _planes(r["max_g_even"])),
    "k0": Check("k0-identity", ("g",),
                lambda g: verify_k0_identity(g), lambda r: _genera(r["max_g"])),
    "bgmn": Check("bgmn-crosscheck", ("g",),
                  lambda g: verify_bgmn_crosscheck(g), lambda r: _genera(r["max_g"])),
    "hochschild": Check("hochschild-decomposition", ("g", "k"),
                        lambda g, k: verify_hochschild(g, k), lambda r: _planes(r["max_g"])),
    "gessel": Check("gessel-identity", ("max_m", "max_a"),
                    lambda m, a: gessel_suite_report(m, a), lambda r: [(r["max_m"], r["max_a"])]),
    "chu-vandermonde": Check("chu-vandermonde", ("max_n",),
                             lambda n: chu_vandermonde_suite_report(n), lambda r: [(r["max_n"],)]),
}

def _ms_since(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


def run_check(name: str, args: tuple) -> tuple[VerificationReport, int]:
    """Run the check CHECKS[name] on `args`: its report and its wall time
    in ms; the one runner of `verify`, `identity` and the sweep."""
    t0 = time.perf_counter()
    report = CHECKS[name].run(*args)
    return report, _ms_since(t0)


def _internal_message(exc: Exception) -> str:
    """The text of an internal error: a ConsistencyError's message as it
    is, any other exception's as "<Type>: <message>"."""
    if isinstance(exc, ConsistencyError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def run_sweep_task(task: tuple) -> tuple[VerificationReport, int]:
    """Run one sweep task, a (CHECKS target, parameters) pair, by
    run_check.  Any exception becomes a report with status "error" and
    its _internal_message as the one observation, "error", timed to the
    error, so one broken task does not discard the others.  sweep_tasks
    checks every range before the first task runs, so nothing a task
    raises is bad input."""
    name, args = task
    t0 = time.perf_counter()
    try:
        return run_check(name, args)
    except Exception as exc:
        check = CHECKS[name]
        report = VerificationReport(
            identity=check.identity,
            params=dict(zip(check.params, args)),
            status=ERROR,
            lhs=None,
            rhs=None,
            observations={"error": _internal_message(exc)},
        )
        return report, _ms_since(t0)


def sweep_tasks(max_g, max_g_even, max_m, max_a, max_n) -> list[tuple]:
    """The sweep's tasks, (CHECKS target, parameters) pairs, in output
    order: by identity name, then by parameters, so each report can be
    written as soon as it completes.  The ranges are checked first: each
    genus bound an int >= 2, the suite bounds by check_suite_bounds."""
    check_param("max_g", max_g, 2)
    check_param("max_g_even", max_g_even, 2)
    check_suite_bounds(max_m, max_a, max_n)
    ranges = dict(max_g=max_g, max_g_even=max_g_even, max_m=max_m, max_a=max_a, max_n=max_n)
    by_identity = sorted(CHECKS.items(), key=lambda item: item[1].identity)
    return [(name, args) for name, check in by_identity for args in check.instances(ranges)]


# diamond target -> (parameter names, builder); like the checks, the
# builders look their functions up at call time
DIAMONDS = {
    "fano-odd": (("g", "k"), lambda g, k: fano_odd_diamond(OddFanoParams(g, k))),
    "fano-even": (("g", "k"), lambda g, k: fano_even_diamond(EvenFanoParams(g, k))),
    "sym": (("g", "n"), lambda g, n: sym_curve_diamond(g, n)),
    "jac": (("g",), lambda g: jacobian_diamond(g)),
}


def worker_count(jobs: int, n_tasks: int) -> int:
    """Worker processes for a sweep: never more than requested, than there
    are tasks, or than the machine has cores."""
    return min(jobs, n_tasks, os.cpu_count() or 1)


def run_sweep(tasks: list[tuple], jobs: int = 1):
    """Run the sweep tasks `tasks` (see sweep_tasks), yielding the
    (report, elapsed_ms) pairs of run_sweep_task in task order as they
    complete, so the output never depends on worker scheduling.  Workers
    run at most two tasks each ahead of the report being yielded, so at
    most that many finished reports wait in memory, however large the
    ranges."""
    workers = worker_count(jobs, len(tasks))
    if workers == 1:
        yield from map(run_sweep_task, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = collections.deque()
        try:
            for task in tasks:
                pending.append(pool.submit(run_sweep_task, task))
                if len(pending) > 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


# ---------------------------------------------------------------------------
# argument parsing and dispatch

# integer flag -> (default, help); a flag without a default is required.
# The flags with a default are the sweep's ranges and the suite bounds.
FLAGS = {
    "g": (None, "genus parameter of the associated curve"),
    "k": (None, "dimension of the linear subspaces"),
    "n": (None, "symmetric-power index"),
    "max_g": (12, "largest genus, hyperelliptic checks (default %(default)s)"),
    "max_g_even": (20, "largest genus, stacky counts (default %(default)s)"),
    "max_m": (30, "gessel: largest m (default %(default)s)"),
    "max_a": (60, "gessel: largest even a (default %(default)s)"),
    "max_n": (40, "chu-vandermonde: largest n (default %(default)s)"),
}


class _Parser(argparse.ArgumentParser):
    """A parser whose grammar errors raise UsageError, so main prints
    each as one line, and which takes each flag only as written in full;
    every sub-parser add_parser builds is one too."""

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _add_arguments(p: argparse.ArgumentParser, flags, run) -> None:
    """Give the parser `p` the FLAGS `flags`, then --format and --output,
    and make it run `run`."""
    for flag in flags:
        default, text = FLAGS[flag]
        p.add_argument("--" + flag.replace("_", "-"), type=int, default=default,
                       required=default is None, help=text)
    p.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    p.add_argument("--output", metavar="FILE", help="write the result to FILE atomically")
    p.set_defaults(run=run)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twoquadrics",
        description=(
            "Exact Hodge diamonds and motivic invariants of Fano schemes of "
            "linear subspaces on smooth intersections of two quadrics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    diamond, verify, identity = (
        sub.add_parser(name, help=text).add_subparsers(dest="target", required=True)
        for name, text in (("diamond", "print a Hodge diamond"),
                           ("verify", "verify one identity instance"),
                           ("identity", "run a combinatorial identity suite"))
    )
    for target, (names, _) in DIAMONDS.items():
        _add_arguments(diamond.add_parser(target), names, _cmd_diamond)
    for target, check in CHECKS.items():
        # the suite bounds are the check parameters that have a default
        suite = all(FLAGS[name][0] is not None for name in check.params)
        _add_arguments((identity if suite else verify).add_parser(target), check.params, _cmd_check)
    ranges = [flag for flag, (default, _) in FLAGS.items() if default is not None]
    p = sub.add_parser("sweep", help="verify everything over parameter ranges")
    _add_arguments(p, ranges, _cmd_sweep)
    p.add_argument(
        "--jobs", type=int, default=1,
        help="parallel worker processes (capped at the task and core counts)",
    )
    return parser


def _cmd_diamond(args, write) -> int:
    names, build = DIAMONDS[args.target]
    dia = build(*(getattr(args, name) for name in names))
    write(canonical_json(dia.to_json_obj()) if args.format == "json" else dia.to_text() + "\n")
    return 0


def _cmd_check(args, write) -> int:
    """Run one check, a `verify` target or an `identity` suite, and write
    its report; an internal error reaches main, so nothing is written."""
    params = CHECKS[args.target].params
    report, ms = run_check(args.target, tuple(getattr(args, name) for name in params))
    write(report_json(report, ms) if args.format == "json" else report_to_text(report, ms) + "\n")
    return 0 if report.verified else 1


def _cmd_sweep(args, write) -> int:
    """Write each report as it completes, then the summary.  The JSON is
    the canonical dump of {"reports": [...], "summary": {...}}, written
    piece by piece: "reports" sorts before "summary", and each report is
    its own canonical dump without the trailing newline.  The tasks, and
    with them the ranges, are checked before the first write."""
    check_param("jobs", args.jobs, 1)
    tasks = sweep_tasks(args.max_g, args.max_g_even, args.max_m, args.max_a, args.max_n)
    as_json = args.format == "json"
    total = failed = errors = 0
    if as_json:
        write('{"reports":[')
    for report, ms in run_sweep(tasks, args.jobs):
        if report.status == ERROR:
            errors += 1
            _error_line(
                f"twoquadrics: internal error: {report.identity} {_params_text(report)}: "
                f"{dict(report.observations)['error']}"
            )
        if as_json:
            if total:
                write(",")
            write(report_json(report, ms)[:-1])
        else:
            write(report_to_text(report, ms) + "\n")
        total += 1
        failed += not report.verified
    summary = {"failed": failed, "total": total, "verified": total - failed}
    if as_json:
        write('],"summary":' + canonical_json(summary)[:-1] + "}\n")
    else:
        write(f"verified {total - failed}/{total}\n")
    return 3 if errors else 1 if failed else 0


def _cannot_write(path: str, exc: OSError) -> UsageError:
    return UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _to_devnull(stream) -> None:
    """Point the file descriptor of `stream` at os.devnull, so the flush
    at interpreter exit drops what is left instead of failing again."""
    with contextlib.suppress(OSError):
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _stdout_failed(exc: OSError) -> UsageError:
    """The UsageError of a failed write to stdout (a closed pipe)."""
    _to_devnull(sys.stdout)
    return _cannot_write("stdout", exc)


def _error_line(text: str) -> None:
    """Write one line to stderr; a lost line (a closed pipe) never
    changes the exit code."""
    try:
        print(text, file=sys.stderr, flush=True)
    except OSError:
        _to_devnull(sys.stderr)


@contextlib.contextmanager
def _output(path):
    """Yield the write function of a command's output: stdout, or a
    temporary file made in the directory of `path` before any work is
    done and renamed over the file `path` resolves to (os.path.realpath,
    so a link survives) when the command returns.  A command that raises
    leaves nothing at `path`.  mkstemp creates the file as 0600; it gets
    0666 less the umask, the mode of an ordinary new file, before the
    rename.  An OSError of the file becomes UsageError, and a `path`
    that is empty or is not a regular file (a directory, a pipe, a
    device, which a rename would replace) is refused at once, not after
    the work (an empty path would put the temporary file in the parent
    of the working directory).  An OSError of stdout, which is flushed
    when the command returns, becomes UsageError too."""
    if path is None:
        def write_stdout(text: str) -> None:
            try:
                sys.stdout.write(text)
            except OSError as exc:
                raise _stdout_failed(exc) from exc

        yield write_stdout
        try:
            sys.stdout.flush()
        except OSError as exc:
            raise _stdout_failed(exc) from exc
        return
    if not path:
        raise UsageError(f"cannot write {path!r}: {os.strerror(errno.ENOENT)}")
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = stat.S_IFREG  # a new file
    except OSError as exc:
        raise _cannot_write(path, exc) from exc
    if not stat.S_ISREG(mode):
        reason = os.strerror(errno.EISDIR) if stat.S_ISDIR(mode) else "not a regular file"
        raise UsageError(f"cannot write {path}: {reason}")
    directory = os.path.dirname(target)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".twoquadrics-", suffix=".tmp")
    except OSError as exc:
        raise _cannot_write(path, exc) from exc
    handle = os.fdopen(fd, "w")

    def write(text: str) -> None:
        try:
            handle.write(text)
        except OSError as exc:
            raise _cannot_write(path, exc) from exc

    try:
        yield write
        try:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.close()
            os.replace(tmp, target)
        except OSError as exc:
            raise _cannot_write(path, exc) from exc
    except BaseException:
        with contextlib.suppress(OSError):
            handle.close()
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with _output(args.output) as write:
            return args.run(args, write)
    except UsageError as exc:
        _error_line(f"{parser.prog}: error: {exc}")
        return 2
    except Exception as exc:
        _error_line(f"{parser.prog}: internal error: {_internal_message(exc)}")
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
