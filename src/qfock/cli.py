"""Command-line front end.

Every computation and verifier in the package is reachable from here but
five library-only entry points: ``analysis.dilation_check``,
``analysis.deformation_block_check`` and the coset helpers
``combinatorics.coset_data`` and ``combinatorics.partition_triple``, which
the acceptance criteria call directly, and
``identities.alternating_claim``, the claim for one partition (the
``verify-claim`` scan reads bare pair tuples instead).  All subcommands can
emit a JSON envelope with the fixed shape

    {"command": ..., "config": ..., "results": [...],
     "verified": bool, "violations": [...]}

where exact scalars appear as strings ("2 + q") so nothing is rounded.

Each ``cmd_*`` handler takes the parsed arguments and the scalar mode of
``--q`` and returns ``(results, violations, text)``; ``text`` is what the
non-JSON formats print.  ``main`` alone parses ``--q`` (on every
subcommand, so a bad value is a usage error even where it is unused),
builds the envelope, writes it through ``emit`` and sets the exit code:
0 when ``violations`` is empty, 1 when it is not, 2 when argparse rejects
the arguments, ``--out`` cannot be written or a ``qfock.budget.Refused`` is
raised (an input refused before any work).  Any other exception is a fault
and propagates with its traceback.  ``--inject-fault`` corrupts one comparison
in the verify-* scans (seeded, for exercising the exit-code contract); it
has no other use.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import re
import sys

from . import budget
from .analysis import (
    block_decay,
    deformation_scan,
    ou_tail,
    phi_hk_check,
    phi_hk_operator,
    phi_schatten_closed_form,
    schatten_norm,
    schatten_term_ratio,
)
from .budget import Refused
from .combinatorics import PartialPartition, count_patterns, crossings, iota_prime
from .fock import (
    FockVector,
    SpaceConfig,
    _lifted_blocks,
    parse_word,
    word_basis,
    word_to_str,
)
from .identities import (
    check_budget,
    claim_scan,
    inclusion_exclusion_sweep,
    iota_prime_identity_scan,
    merge_reports,
    two_mode_scan,
)
from .render import ASCII_UNIT, ascii_diagram, svg_diagram
from .scalars import EXACT, QPolynomial, ScalarMode
from .wick import (
    clt_moments,
    moment_pair_partitions,
    offdiag_reference,
    offdiag_wick_coefficient,
    wick_apply,
    wick_split_product,
)

# ---------------------------------------------------------------------------
# parsing helpers


def parse_q(text: str) -> ScalarMode:
    if text == "generic":
        return EXACT
    try:
        q = float(text)
    except ValueError:
        raise Refused(f'--q must be "generic" or a float, got {text!r}') from None
    return ScalarMode.at(q)


def finite_float(text: str) -> float:
    """Argument type of the float options: NaN and infinities are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


_PAIR = re.compile(r"([0-9]+):([0-9]+)")


def parse_pairs(text: str) -> tuple:
    """Pairs written as comma-separated ``i:j`` tokens in ASCII digits.

    Surrounding whitespace and empty tokens are skipped; any other token
    is refused.

    >>> parse_pairs("1:6, 2:5,")
    ((1, 6), (2, 5))
    """
    pairs = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        match = _PAIR.fullmatch(tok)
        if match is None:
            raise Refused(f"pair {tok!r} is not of the form i:j")
        pairs.append((int(match[1]), int(match[2])))
    return tuple(pairs)


def scalar_out(c, mode: ScalarMode):
    return str(c) if mode.is_exact else float(c)


def vector_results(v: FockVector, d: int) -> list:
    mode = v.cfg.scalar
    items = sorted(v.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return [{"word": word_to_str(w, d), "coeff": scalar_out(c, mode)} for w, c in items]


def envelope(args, results: list, violations: list) -> dict:
    config = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "out") and v is not None
    }
    return {
        "command": args.command,
        "config": config,
        "results": results,
        "verified": not violations,
        "violations": violations,
    }


def emit(args, payload: dict, text: str = None) -> str:
    """The output text: ``text`` for the non-JSON formats, else
    ``json.dumps(payload, indent=2)`` with every non-finite float value
    written as null (RFC 8259 has no NaN or Infinity).

    ``json.dumps`` writes a copy of the payload in which each ``_Row`` is
    a marker string, and the row's text, rendered for ``_GRAM_ROW_DEPTH``,
    then takes the marker's place; the output is joined once.  A marker
    that does not sit at that depth, or a marker count other than the row
    count, raises TypeError (a fault, not a usage error).
    """
    if args.format != "json":
        return text if text.endswith("\n") else text + "\n"
    rows = []
    dumped = json.dumps(_plain(payload, rows), indent=2)
    if not rows:
        return dumped + "\n"
    pieces = dumped.split(_ROW_MARK)
    if len(pieces) != len(rows) + 1 or not all(piece.endswith(_ROW_INDENT) for piece in pieces[:-1]):
        raise TypeError(f"{len(rows)} gram rows do not match their markers at depth {_GRAM_ROW_DEPTH}")
    out = [pieces[0]]
    for row, piece in zip(rows, pieces[1:]):
        out += (row.text, piece)
    out.append("\n")
    return "".join(out)


def _plain(obj, rows: list):
    """A copy of a JSON payload with every non-finite float value as None
    and each ``_Row`` as ``_ROW_STAND_IN``, appended to ``rows`` in the
    order json writes them; containers become lists and dicts, keys stay
    as they are."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if type(obj) is _Row:
        rows.append(obj)
        return _ROW_STAND_IN
    if isinstance(obj, dict):
        return {key: _plain(value, rows) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value, rows) for value in obj]
    return obj


def fault_index(args):
    # seeded corruption of one scan comparison; see module docstring
    if getattr(args, "inject_fault", False):
        return random.Random(args.seed).randrange(1 << 20)
    return None


def scan_payload(reports) -> tuple:
    results = [
        {"name": r.name, "cases": r.cases, "passed": r.passed, "notes": dict(r.notes)}
        for r in reports
    ]
    violations = [str(v) for r in reports for v in r.violations]
    return results, violations, "\n".join(r.summary() for r in reports)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gram(args, mode: ScalarMode) -> tuple:
    """The Gram block of one degree, printed by letter content.

    Words of different contents are orthogonal, so each row starts as a
    copy of one shared zero row, each content block is placed into its
    rows once, and each row is rendered once (``_Row``).  Each distinct
    entry is rendered once (``fock._lifted_blocks``); only that rendering
    and the zero text differ by mode: exact mode renders a coefficient
    tuple to its polynomial string and that string's printed text, float
    mode a float by ``repr``.
    """
    cfg = SpaceConfig(args.d, args.copies, args.max_degree, mode)
    # the printed rows outweigh the assembly; both modes refuse a degree above max_degree
    if args.degree <= cfg.max_degree:
        budget.check("MAX_GRAM_ENTRIES", cfg.dim(args.degree) ** 2, "gram would print")
        if not mode.is_exact:  # degree n makes n(n + 1)/2 slot passes
            budget.check("FLOAT_GRAM_TAKES", args.degree * (args.degree + 1) // 2, "float gram makes")
    as_json = args.format == "json"
    if mode.is_exact:
        quote = json.encoder.encode_basestring_ascii if as_json else str
        render, zero = (lambda coeffs: (p := str(QPolynomial(coeffs)), quote(p))), ("0", quote("0"))
    else:
        # ScalarMode refuses |q| >= 1, so every entry between contents is +0.0
        # and |<u, v>| <= n!; under MAX_GRAM_ENTRIES only a space of one letter
        # reaches a degree where that overflows, to inf, which json writes as null
        show = _json_float if as_json else repr
        render, zero = (lambda value: (value, show(value))), (0.0, "0.0")
    blocks = _lifted_blocks(args.degree, cfg, render)
    rows = _content_rows(cfg.dim(args.degree), blocks, zero, _GRAM_ROW_DEPTH if as_json else None)
    words = word_basis(args.degree, cfg.letters)
    results = [
        {
            "degree": args.degree,
            "words": [word_to_str(w, args.d) for w in words],
            "matrix": rows,
        }
    ]
    text = None if as_json else "\n".join(row.text for row in rows)
    return results, [], text


def _json_float(value: float) -> str:
    return repr(value) if math.isfinite(value) else "null"


# a gram row sits at this depth of the envelope: results, its member, "matrix", the row
_GRAM_ROW_DEPTH = 4
_ROW_INDENT = "\n" + "  " * _GRAM_ROW_DEPTH
# a row's stand-in in the copy json.dumps writes, and the text written for
# it; the NULs keep it apart from any printed word or polynomial
_ROW_STAND_IN = "\0gram row\0"
_ROW_MARK = json.dumps(_ROW_STAND_IN)


class _Row(list):
    """A payload row that carries its printed ``text``: the JSON text of
    the row at ``_GRAM_ROW_DEPTH``, or its entries joined by tabs."""

    __slots__ = ("text",)


def _content_rows(dim: int, blocks, zero: tuple, depth) -> list:
    """The ``_Row``s of a block-diagonal matrix, rendered for ``depth``.

    Each block is (word indices, rows of (value, text) pairs), and every
    index lies in exactly one block.  Each row is a copy of one shared
    zero row, values and texts, with the entries of its block placed in
    it; the texts are joined once, and only the row's text is kept.
    """
    if depth is None:
        start, join, end = "", "\t".join, ""
    else:
        pad = "\n" + "  " * (depth + 1)
        start, join, end = "[" + pad, ("," + pad).join, pad[:-2] + "]"
    zero_values, zero_texts = [zero[0]] * dim, [zero[1]] * dim
    rows = [None] * dim
    for words, entries in blocks:
        for s, pairs in zip(words, entries):
            row, texts = _Row(zero_values), zero_texts.copy()
            for t, (value, text) in zip(words, pairs):
                row[t] = value
                texts[t] = text
            row.text = start + join(texts) + end
            rows[s] = row
    return rows


def cmd_moment(args, mode: ScalarMode) -> tuple:
    codes, _ = parse_word(args.letters, args.d)
    value = moment_pair_partitions(codes, mode)
    results = [{"letters": args.letters, "moment": scalar_out(value, mode)}]
    return results, [], str(value)


def cmd_wick(args, mode: ScalarMode) -> tuple:
    codes, copies = parse_word(args.letters, args.d)
    on_codes, on_copies = parse_word(args.on, args.d) if args.on else ((), 1)
    max_degree = len(codes) + len(on_codes) if args.max_degree is None else args.max_degree
    cfg = SpaceConfig(args.d, max(copies, on_copies), max_degree, mode)
    xi = FockVector.from_word(cfg, codes)
    out = wick_apply(xi, FockVector.from_word(cfg, on_codes))
    return vector_results(out, args.d), [], _vector_text(out, args.d)


def cmd_split(args, mode: ScalarMode) -> tuple:
    codes, copies = parse_word(args.letters, args.d)
    n = len(codes)
    cfg = SpaceConfig(args.d, copies, n if args.max_degree is None else args.max_degree, mode)
    xi = FockVector.from_word(cfg, codes)
    combined = wick_split_product(xi, args.k)
    # same product through the two factor operators, for the dual route
    left = FockVector.from_word(cfg, codes[: n - args.k])
    right = FockVector.from_word(cfg, codes[n - args.k :])
    direct = wick_apply(left, wick_apply(right, FockVector.vacuum(cfg)))
    a, b, zero = combined.coeffs, direct.coeffs, mode.zero()
    differ = sorted(w for w in a.keys() | b.keys() if not _agree(a.get(w, zero), b.get(w, zero), mode))
    violations = [f"routes differ on {differ}"] if differ else []
    return vector_results(combined, args.d), violations, _vector_text(combined, args.d)


def cmd_clt(args, mode: ScalarMode) -> tuple:
    # the color sums walk at most the set partitions of the m positions into
    # N or fewer blocks, and the diagonal moment writes a row per N
    if args.N < 1:
        raise Refused("need at least one color")
    what = f"clt with {args.N} colors walks"
    if args.left or args.right:
        if not (args.left and args.right):
            raise Refused("off-diagonal comparison needs both --left and --right")
        f_codes, _ = parse_word(args.left, args.d)
        h_codes, _ = parse_word(args.right, args.d)
        budget.check("MAX_CLT_PARTITIONS", count_patterns(len(f_codes) + len(h_codes), args.N), what)
        value = offdiag_wick_coefficient(args.N, f_codes, h_codes, mode)
        ref = offdiag_reference(args.N, f_codes, h_codes, mode)
        violations = [] if _agree(value, ref, mode) else [f"N={args.N}: {value} != {ref}"]
        results = [
            {
                "N": args.N,
                "coefficient": scalar_out(value, mode),
                "reference": scalar_out(ref, mode),
            }
        ]
        return results, violations, f"{value}  vs  {ref}"
    if not args.letters:
        raise Refused("need --letters for the diagonal moment")
    codes, _ = parse_word(args.letters, args.d)
    budget.check("MAX_CLT_PARTITIONS", count_patterns(len(codes), args.N) + args.N, what)
    limit = moment_pair_partitions(codes, mode)
    results = []
    lines = []
    for N, value in enumerate(clt_moments(args.N, codes, mode), 1):
        results.append({"N": N, "moment": scalar_out(value, mode)})
        lines.append(f"N={N}: {value}")
    results.append({"N": "limit", "moment": scalar_out(limit, mode)})
    lines.append(f"limit: {limit}")
    return results, [], "\n".join(lines)


def cmd_verify_iota(args, mode: ScalarMode) -> tuple:
    return scan_payload([iota_prime_identity_scan(args.nmax, fault=fault_index(args))])


def cmd_verify_ie(args, mode: ScalarMode) -> tuple:
    # both scans are sized before either starts
    check_budget("two-mode", args.split_nmax, args.d)
    check_budget("sweep", args.nmax, args.d)
    reports = [
        two_mode_scan(args.split_nmax, args.d),
        inclusion_exclusion_sweep(args.nmax, args.d, fault=fault_index(args)),
    ]
    return scan_payload([merge_reports("splitting identities", reports)] if args.merged else reports)


def cmd_verify_claim(args, mode: ScalarMode) -> tuple:
    return scan_payload([claim_scan(args.nmax, args.mmax, args.reading, fault=fault_index(args))])


def cmd_schatten(args, mode: ScalarMode) -> tuple:
    top = args.max_degree  # degrees 0..D make D(D + 1)(D + 2)/6 slot passes
    budget.check("SCHATTEN_TAKES", top * (top + 1) * (top + 2) // 6, f"schatten to degree {top} makes")
    cfg = SpaceConfig(args.d, 1, top, mode)
    h = (1.0,) + (0.0,) * (args.d - 1)
    k = (args.hk,) + (0.0,) * (args.d - 1)
    op = phi_hk_operator(h, k, cfg, route=args.route)
    report = schatten_norm(op, args.p, cfg)
    closed = phi_schatten_closed_form(mode.q, args.d, args.p, args.hk, args.max_degree)
    violations = []
    # written so that a NaN or infinite norm is a violation
    if not abs(report.norm - closed) <= 1e-10 * max(closed, 1.0):
        violations.append(f"norm {report.norm!r} differs from closed form {closed!r}")
    ratio = schatten_term_ratio(mode.q, args.d, args.p)
    if report.threshold > 0 and (args.p > report.threshold) != (ratio < 1.0):
        violations.append(f"term ratio {ratio!r} inconsistent with threshold {report.threshold!r}")
    results = [
        {
            "p": args.p,
            "norm": report.norm,
            "closed_form": closed,
            "threshold": report.threshold,
            "term_ratio": ratio,
            "partial_norms": report.partial_norms,
        }
    ]
    return results, violations, report.summary()


def cmd_phi_check(args, mode: ScalarMode) -> tuple:
    cfg = SpaceConfig(args.d, 2, args.max_degree, mode)
    h = _parse_floats(args.h, args.d) if args.h else (1.0,) + (0.0,) * (args.d - 1)
    k = _parse_floats(args.k, args.d) if args.k else h
    dev = phi_hk_check(h, k, cfg)
    violations = [] if dev < args.tol else [f"deviation {dev!r} above {args.tol!r}"]
    results = [{"deviation": dev, "tol": args.tol}]
    return results, violations, f"deviation {dev:.3e}"


def cmd_decay(args, mode: ScalarMode) -> tuple:
    cfg = SpaceConfig(args.d, 2, args.max_degree, mode)
    codes, _ = parse_word(args.letters, args.d)
    xi = FockVector.from_word(cfg, codes)
    eta = xi
    if args.right:
        right_codes, _ = parse_word(args.right, args.d)
        eta = FockVector.from_word(cfg, right_codes)
    report = block_decay(xi, eta, cfg)
    violations = [] if report.max_offband == 0.0 else [f"mass outside the band: {report.max_offband!r}"]
    results = [
        {
            "band_width": report.band_width,
            "rate": report.rate,
            "constant": report.constant,
            "max_offband": report.max_offband,
            "blocks": [
                {"target": i, "source": j, "norm": v}
                for (i, j), v in sorted(report.block_norms.items())
            ],
        }
    ]
    return results, violations, f"rate {report.rate:.6f} over degrees {report.fit_degrees}"


def cmd_deform(args, mode: ScalarMode) -> tuple:
    if args.kcut < 1:  # before 2^-kcut, which overflows for a large negative cut
        raise Refused("cut level must be at least 1")
    if args.steps < 1:
        raise Refused("need at least one grid point")
    budget.check("MAX_DEFORM_STEPS", args.steps, "deform would scan")
    cfg = SpaceConfig(args.d, 2, args.nmax, mode)
    t_cap = 2.0 ** (-args.kcut)
    tmin = args.tmin if args.tmin is not None else t_cap / 20
    tmax = args.tmax if args.tmax is not None else t_cap * 0.9
    step = (tmax - tmin) / max(args.steps - 1, 1)
    grid = [tmin + i * step for i in range(args.steps)]
    report = deformation_scan(args.kcut, args.nmax, grid, cfg)
    violations = []
    if report.crosscheck_dev >= 1e-10:
        violations.append(f"operator crosscheck deviation {report.crosscheck_dev!r}")
    results = [
        {
            "kcut": report.kcut,
            "max_ratio": report.max_ratio,
            "crosscheck_dev": report.crosscheck_dev,
            "rows": [list(row) for row in report.rows],
        }
    ]
    text = f"max ratio {report.max_ratio:.6f} over {len(report.rows)} rows"
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "t", "left", "right", "ratio"])
        writer.writerows(report.rows)
        text = buf.getvalue()
    return results, violations, text


def cmd_tail(args, mode: ScalarMode) -> tuple:
    codes, copies = parse_word(args.letters, args.d)
    cfg = SpaceConfig(args.d, copies, len(codes) if args.max_degree is None else args.max_degree, mode)
    x = FockVector.from_word(cfg, codes)
    value = ou_tail(x, args.t, args.top)
    return [{"t": args.t, "top": args.top, "tail": value}], [], f"{value:.12g}"


def cmd_render(args, mode: ScalarMode) -> tuple:
    if args.n < 1:
        raise Refused(f"--n must be at least 1, got {args.n}")
    pairs = parse_pairs(args.pairs)
    # the ASCII grid, drawn in every format, is 4n columns by at most pairs + 2 rows
    budget.check("MAX_RENDER_CELLS", ASCII_UNIT * args.n * (len(pairs) + 2), "render would draw")
    rho = PartialPartition(args.n, args.k, pairs)
    doc = ascii_diagram(rho)
    results = [
        {
            "n": args.n,
            "k": args.k,
            "pairs": [list(p) for p in rho.pairs],
            "iota": crossings(rho),
            "diagram": doc,
        }
    ]
    if rho.k > 0 and rho.respects_block():
        results[0]["iota_prime"] = iota_prime(rho)
    return results, [], svg_diagram(rho) if args.format == "svg" else doc


def _vector_text(v: FockVector, d: int) -> str:
    if v.is_zero():
        return "0"
    return "\n".join(f"{r['word'] or '()'}: {r['coeff']}" for r in vector_results(v, d))


def _agree(a, b, mode: ScalarMode) -> bool:
    """Two routes' values of one coefficient agree: exactly in exact mode;
    in float mode up to 1e-12 relative to the larger one, floored at 1."""
    if mode.is_exact:
        return (a - b).is_zero()
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def _parse_floats(text: str, d: int) -> tuple:
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise Refused(f"coefficients must be floats, got {text!r}") from None
    if len(values) != d:
        raise Refused(f"expected {d} coefficients, got {len(values)}")
    if not all(map(math.isfinite, values)):
        raise Refused(f"coefficients must be finite, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, *, q_default="generic", formats=("json", "text")):
    sub.add_argument("--q", default=q_default, help='"generic" for exact scalars, or a float')
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--out", default=None, help="write output to a file instead of stdout")


def _add_verify(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--inject-fault", action="store_true", dest="inject_fault")


_SUBCOMMANDS: dict = {}
"""Subcommand name -> (help, function adding its arguments to a parser)."""


def _subcommand(name: str, help: str):
    def register(populate):
        _SUBCOMMANDS[name] = (help, populate)
        return populate

    return register


@_subcommand("gram", "Gram matrix of one degree block")
def _gram_args(p):
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--copies", type=int, choices=(1, 2), default=1)
    _add_common(p)
    p.set_defaults(func=cmd_gram)


@_subcommand("moment", "vacuum moment of a field-operator word")
def _moment_args(p):
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--letters", required=True)
    _add_common(p, formats=("text", "json"))
    p.set_defaults(func=cmd_moment)


@_subcommand("wick", "Wick product applied to a word")
def _wick_args(p):
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--letters", required=True)
    p.add_argument("--on", default="", help="target word (default: vacuum)")
    p.add_argument("--max-degree", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_wick)


@_subcommand("split", "two-block splitting of a Wick product on the vacuum")
def _split_args(p):
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--letters", required=True)
    p.add_argument("--k", type=int, required=True, help="size of the right block")
    p.add_argument("--max-degree", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_split)


@_subcommand("clt", "finite-size central limit moments")
def _clt_args(p):
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--letters", default="")
    p.add_argument("--N", type=int, required=True, help="number of colors")
    p.add_argument("--left", default="", help="adjoint-side word for the off-diagonal check")
    p.add_argument("--right", default="", help="distinct-color word for the off-diagonal check")
    _add_common(p)
    p.set_defaults(func=cmd_clt)


@_subcommand("verify-iota", "insertion statistic against its coset closed form")
def _verify_iota_args(p):
    p.add_argument("--nmax", type=int, default=8)
    _add_common(p)
    _add_verify(p)
    p.set_defaults(func=cmd_verify_iota)


@_subcommand("verify-ie", "two-mode split and inclusion-exclusion scans")
def _verify_ie_args(p):
    p.add_argument("--nmax", type=int, default=5)
    p.add_argument("--split-nmax", type=int, default=6)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--merged", action="store_true", help="report one merged scan")
    _add_common(p)
    _add_verify(p)
    p.set_defaults(func=cmd_verify_ie)


@_subcommand("verify-claim", "alternating cancellation over sub-pairings")
def _verify_claim_args(p):
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--mmax", type=int, default=3)
    p.add_argument("--reading", choices=("prime-plain", "prime-prime"), default="prime-plain")
    _add_common(p)
    _add_verify(p)
    p.set_defaults(func=cmd_verify_claim)


@_subcommand("schatten", "Schatten norm of the rank-one compression")
def _schatten_args(p):
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=finite_float, required=True)
    p.add_argument("--hk", type=finite_float, default=1.0, help="inner product of the two vectors")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--route", choices=("diagonal", "vector"), default="diagonal")
    _add_common(p, q_default="0.5")
    p.set_defaults(func=cmd_schatten)


@_subcommand("phi-check", "rank-one form of the compressed double sandwich")
def _phi_check_args(p):
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--h", default="", help="comma-separated coefficients")
    p.add_argument("--k", default="", help="comma-separated coefficients")
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--tol", type=finite_float, default=1e-10)
    _add_common(p, q_default="0.5")
    p.set_defaults(func=cmd_phi_check)


@_subcommand("decay", "block-norm decay of a compressed Wick sandwich")
def _decay_args(p):
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--letters", required=True)
    p.add_argument("--right", default="", help="second word (default: same as --letters)")
    p.add_argument("--max-degree", type=int, default=6)
    _add_common(p, q_default="0.5")
    p.set_defaults(func=cmd_decay)


@_subcommand("deform", "second-quantized rotation against the surviving tail")
def _deform_args(p):
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--kcut", type=int, required=True)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--tmin", type=finite_float, default=None)
    p.add_argument("--tmax", type=finite_float, default=None)
    p.add_argument("--steps", type=int, default=9)
    _add_common(p, q_default="0.5", formats=("csv", "json", "text"))
    p.set_defaults(func=cmd_deform)


@_subcommand("tail", "semigroup tail norm above a cutoff degree")
def _tail_args(p):
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--letters", required=True)
    p.add_argument("--t", type=finite_float, required=True)
    p.add_argument("--top", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None)
    _add_common(p, q_default="0.5")
    p.set_defaults(func=cmd_tail)


@_subcommand("render", "arc diagram of a pair/singleton partition")
def _render_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--pairs", default="", help='pairs as "1:6,2:5"')
    _add_common(p, formats=("text", "svg", "json"))
    p.set_defaults(func=cmd_render)


@functools.lru_cache(maxsize=len(_SUBCOMMANDS) + 1)
def build_parser(command: str = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with ``command`` alone; each is
    built once per process, and ``parse_args`` leaves it unchanged.  The full
    tree is asked for with no argument only, so it has one memo key."""
    parser = argparse.ArgumentParser(
        prog="qfock", description="Deformed Fock space computations and identity verifiers"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help, populate) in _SUBCOMMANDS.items():
        if command in (None, name):
            populate(subs.add_parser(name, help=help))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named subcommand is parsed by its parser alone; any other argv, and
    # arguments that parser leaves over, go to the full tree and its usage
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    try:
        args, extra = (build_parser(command) if command else build_parser()).parse_known_args(argv)
        if extra:
            build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        results, violations, text = args.func(args, parse_q(args.q))
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = emit(args, envelope(args, results, violations), text)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
