"""Command-line front end.

Every computation and verifier in the package is reachable from here.  All
subcommands can emit a JSON envelope with the fixed shape

    {"command": ..., "config": ..., "results": [...],
     "verified": bool, "violations": [...]}

where exact scalars appear as strings ("2 + q") so nothing is rounded.  Exit
codes: 0 success/verified, 1 an identity failed to verify, 2 bad usage or
configuration.  ``--inject-fault`` corrupts one comparison in the verify-*
scans (seeded, for exercising the exit-code contract); it has no other use.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys

from .analysis import (
    block_decay,
    deformation_scan,
    ou_tail,
    phi_hk_check,
    phi_hk_operator,
    phi_schatten_closed_form,
    schatten_norm,
    schatten_term_ratio,
    schatten_threshold,
)
from .combinatorics import PartialPartition
from .fock import FockVector, SpaceConfig, gram_matrix, word_basis
from .identities import (
    claim_scan,
    inclusion_exclusion_sweep,
    iota_prime_identity_scan,
    merge_reports,
    two_mode_scan,
)
from .render import ascii_diagram, svg_diagram
from .scalars import EXACT, ScalarMode
from .wick import (
    clt_finite,
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
    return ScalarMode.at(float(text))


def parse_letters(text: str, d: int) -> tuple:
    """Comma-separated letter indices, "t" suffix for the second copy.

    Returns (codes, copies): "1,2t" with d=2 -> ((0, 3), 2).
    """
    codes, copies = [], 1
    for tok in text.split(","):
        tok = tok.strip()
        copy = 1
        if tok.endswith("t"):
            copy, tok = 2, tok[:-1]
            copies = 2
        idx = int(tok)
        if not 1 <= idx <= d:
            raise ValueError(f"letter index {idx} outside 1..{d}")
        codes.append((copy - 1) * d + (idx - 1))
    return tuple(codes), copies


def parse_pairs(text: str) -> tuple:
    if not text:
        return ()
    return tuple(
        tuple(int(x) for x in tok.split(":")) for tok in text.split(",") if tok.strip()
    )


def word_str(word: tuple, d: int) -> str:
    return ",".join(f"{c % d + 1}t" if c >= d else f"{c % d + 1}" for c in word)


def scalar_out(c, mode: ScalarMode):
    return str(c) if mode.is_exact else float(c)


def vector_results(v: FockVector, d: int) -> list:
    mode = v.cfg.scalar
    items = sorted(v.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return [{"word": word_str(w, d), "coeff": scalar_out(c, mode)} for w, c in items]


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
    if args.format == "json":
        return json.dumps(payload, indent=2) + "\n"
    if text is None:
        raise ValueError(f"format {args.format!r} not available for {args.command}")
    return text if text.endswith("\n") else text + "\n"


def fault_index(args):
    # seeded corruption of one scan comparison; see module docstring
    if getattr(args, "inject_fault", False):
        return random.Random(args.seed).randrange(1 << 20)
    return None


def scan_payload(args, reports) -> tuple:
    results = [
        {"name": r.name, "cases": r.cases, "passed": r.passed, "notes": _notes(r)}
        for r in reports
    ]
    violations = [str(v) for r in reports for v in r.violations]
    payload = envelope(args, results, violations)
    text = "\n".join(r.summary() for r in reports)
    return emit(args, payload, text), (0 if not violations else 1)


def _notes(report) -> dict:
    return {k: v for k, v in report.notes.items()}


# ---------------------------------------------------------------------------
# subcommands


def cmd_gram(args) -> tuple:
    mode = parse_q(args.q)
    cfg = SpaceConfig(args.d, args.copies, args.max_degree, mode)
    if args.degree > args.max_degree:
        raise ValueError(f"degree {args.degree} above truncation {args.max_degree}")
    matrix = gram_matrix(args.degree, cfg)
    words = word_basis(args.degree, cfg.letters)
    rows = [[scalar_out(entry, mode) for entry in row] for row in matrix]
    results = [
        {
            "degree": args.degree,
            "words": [word_str(w, args.d) for w in words],
            "matrix": rows,
        }
    ]
    text = "\n".join("\t".join(str(entry) for entry in row) for row in rows)
    return emit(args, envelope(args, results, []), text), 0


def cmd_moment(args) -> tuple:
    mode = parse_q(args.q)
    codes, _ = parse_letters(args.letters, args.d)
    value = moment_pair_partitions(codes, mode)
    results = [{"letters": args.letters, "moment": scalar_out(value, mode)}]
    return emit(args, envelope(args, results, []), str(value)), 0


def cmd_wick(args) -> tuple:
    mode = parse_q(args.q)
    codes, copies = parse_letters(args.letters, args.d)
    on_codes, on_copies = parse_letters(args.on, args.d) if args.on else ((), 1)
    max_degree = args.max_degree or len(codes) + len(on_codes)
    cfg = SpaceConfig(args.d, max(copies, on_copies), max_degree, mode)
    xi = FockVector.from_word(cfg, codes)
    out = wick_apply(xi, FockVector.from_word(cfg, on_codes))
    return emit(args, envelope(args, vector_results(out, args.d), []), _vector_text(out, args.d)), 0


def cmd_split(args) -> tuple:
    mode = parse_q(args.q)
    codes, copies = parse_letters(args.letters, args.d)
    n = len(codes)
    cfg = SpaceConfig(args.d, copies, args.max_degree or n, mode)
    xi = FockVector.from_word(cfg, codes)
    combined = wick_split_product(xi, args.k)
    # same product through the two factor operators, for the dual route
    left = FockVector.from_word(cfg, codes[: n - args.k])
    right = FockVector.from_word(cfg, codes[n - args.k :])
    direct = wick_apply(left, wick_apply(right, FockVector.vacuum(cfg)))
    violations = _vector_mismatch(combined, direct, mode)
    results = vector_results(combined, args.d)
    code = 0 if not violations else 1
    return emit(args, envelope(args, results, violations), _vector_text(combined, args.d)), code


def cmd_clt(args) -> tuple:
    mode = parse_q(args.q)
    if args.left or args.right:
        if not (args.left and args.right):
            raise ValueError("off-diagonal comparison needs both --left and --right")
        f_codes, _ = parse_letters(args.left, args.d)
        h_codes, _ = parse_letters(args.right, args.d)
        _guard_colorings(args.N, len(f_codes) + len(h_codes))
        value = offdiag_wick_coefficient(args.N, f_codes, h_codes, mode)
        ref = offdiag_reference(args.N, f_codes, h_codes, mode)
        violations = _scalar_mismatch(value, ref, mode, f"N={args.N}")
        results = [
            {
                "N": args.N,
                "coefficient": scalar_out(value, mode),
                "reference": scalar_out(ref, mode),
            }
        ]
        text = f"{value}  vs  {ref}"
        return emit(args, envelope(args, results, violations), text), 0 if not violations else 1
    if not args.letters:
        raise ValueError("need --letters for the diagonal moment")
    codes, _ = parse_letters(args.letters, args.d)
    _guard_colorings(args.N, len(codes))
    limit = moment_pair_partitions(codes, mode)
    results = []
    lines = []
    for N in range(1, args.N + 1):
        value = clt_finite(N, codes, mode)
        results.append({"N": N, "moment": scalar_out(value, mode)})
        lines.append(f"N={N}: {value}")
    results.append({"N": "limit", "moment": scalar_out(limit, mode)})
    lines.append(f"limit: {limit}")
    return emit(args, envelope(args, results, []), "\n".join(lines)), 0


def _guard_colorings(N: int, m: int) -> None:
    if N < 1:
        raise ValueError("need at least one color")
    if N ** m > 2_000_000:
        raise ValueError(f"{N}^{m} color assignments is too many to enumerate")


def cmd_verify_iota(args) -> tuple:
    return scan_payload(args, [iota_prime_identity_scan(args.nmax, fault=fault_index(args))])


def cmd_verify_ie(args) -> tuple:
    reports = [
        two_mode_scan(args.split_nmax, args.d),
        inclusion_exclusion_sweep(args.nmax, args.d, fault=fault_index(args)),
    ]
    return scan_payload(args, [merge_reports("splitting identities", reports)] if args.merged else reports)


def cmd_verify_claim(args) -> tuple:
    return scan_payload(
        args, [claim_scan(args.nmax, args.mmax, args.reading, fault=fault_index(args))]
    )


def cmd_schatten(args) -> tuple:
    mode = parse_q(args.q)
    cfg = SpaceConfig(args.d, 1, args.max_degree, mode)
    h = (1.0,) + (0.0,) * (args.d - 1)
    k = (args.hk,) + (0.0,) * (args.d - 1)
    op = phi_hk_operator(h, k, cfg, route=args.route)
    report = schatten_norm(op, args.p, cfg)
    closed = phi_schatten_closed_form(mode.q, args.d, args.p, args.hk, args.max_degree)
    violations = []
    if abs(report.norm - closed) > 1e-10 * max(closed, 1.0):
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
    return emit(args, envelope(args, results, violations), report.summary()), 0 if not violations else 1


def cmd_phi_check(args) -> tuple:
    mode = parse_q(args.q)
    cfg = SpaceConfig(args.d, 2, args.max_degree, mode)
    h = _parse_floats(args.h, args.d) if args.h else (1.0,) + (0.0,) * (args.d - 1)
    k = _parse_floats(args.k, args.d) if args.k else h
    dev = phi_hk_check(h, k, cfg)
    violations = [] if dev < args.tol else [f"deviation {dev!r} above {args.tol!r}"]
    results = [{"deviation": dev, "tol": args.tol}]
    return emit(args, envelope(args, results, violations), f"deviation {dev:.3e}"), 0 if not violations else 1


def cmd_decay(args) -> tuple:
    mode = parse_q(args.q)
    cfg = SpaceConfig(args.d, 2, args.max_degree, mode)
    codes, _ = parse_letters(args.letters, args.d)
    xi = FockVector.from_word(cfg, codes)
    eta = xi
    if args.right:
        right_codes, _ = parse_letters(args.right, args.d)
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
    text = f"rate {report.rate:.6f} over degrees {report.fit_degrees}"
    return emit(args, envelope(args, results, violations), text), 0 if not violations else 1


def cmd_deform(args) -> tuple:
    mode = parse_q(args.q)
    cfg = SpaceConfig(args.d, 2, args.nmax, mode)
    t_cap = 2.0 ** (-args.kcut)
    tmin = args.tmin if args.tmin is not None else t_cap / 20
    tmax = args.tmax if args.tmax is not None else t_cap * 0.9
    if args.steps < 1:
        raise ValueError("need at least one grid point")
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
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "t", "left", "right", "ratio"])
        writer.writerows(report.rows)
        return buf.getvalue(), 0 if not violations else 1
    text = f"max ratio {report.max_ratio:.6f} over {len(report.rows)} rows"
    return emit(args, envelope(args, results, violations), text), 0 if not violations else 1


def cmd_tail(args) -> tuple:
    mode = parse_q(args.q)
    codes, copies = parse_letters(args.letters, args.d)
    cfg = SpaceConfig(args.d, copies, args.max_degree or len(codes), mode)
    x = FockVector.from_word(cfg, codes)
    value = ou_tail(x, args.t, args.top)
    results = [{"t": args.t, "top": args.top, "tail": value}]
    return emit(args, envelope(args, results, []), f"{value:.12g}"), 0


def cmd_render(args) -> tuple:
    rho = PartialPartition(args.n, args.k, parse_pairs(args.pairs))
    if args.format == "svg":
        return svg_diagram(rho), 0
    doc = ascii_diagram(rho)
    if args.format == "json":
        from .combinatorics import crossings, iota_prime

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
        return emit(args, envelope(args, results, [])), 0
    return doc, 0


def _vector_text(v: FockVector, d: int) -> str:
    if v.is_zero():
        return "0"
    return "\n".join(f"{r['word'] or '()'}: {r['coeff']}" for r in vector_results(v, d))


def _vector_mismatch(a: FockVector, b: FockVector, mode: ScalarMode) -> list:
    diff = a - b
    if mode.is_exact:
        return [] if diff.is_zero() else [f"routes differ on {sorted(diff.coeffs)}"]
    worst = max((abs(c) for c in diff.coeffs.values()), default=0.0)
    return [] if worst < 1e-12 else [f"routes differ by {worst!r}"]


def _scalar_mismatch(a, b, mode: ScalarMode, label: str) -> list:
    if mode.is_exact:
        return [] if (a - b).is_zero() else [f"{label}: {a} != {b}"]
    return [] if abs(a - b) < 1e-12 else [f"{label}: {a!r} != {b!r}"]


def _parse_floats(text: str, d: int) -> tuple:
    values = tuple(float(x) for x in text.split(","))
    if len(values) != d:
        raise ValueError(f"expected {d} coefficients, got {len(values)}")
    return values


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, *, q_default="generic", formats=("json", "text"), fmt_default=None):
    sub.add_argument("--q", default=q_default, help='"generic" for exact scalars, or a float')
    sub.add_argument("--format", choices=formats, default=fmt_default or formats[0])
    sub.add_argument("--out", default=None, help="write output to a file instead of stdout")


def _add_verify(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--inject-fault", action="store_true", dest="inject_fault")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfock", description="Deformed Fock space computations and identity verifiers"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gram", help="Gram matrix of one degree block")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--copies", type=int, choices=(1, 2), default=1)
    _add_common(p, formats=("json", "text"))
    p.set_defaults(func=cmd_gram)

    p = subs.add_parser("moment", help="vacuum moment of a field-operator word")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--letters", required=True)
    _add_common(p, formats=("text", "json"))
    p.set_defaults(func=cmd_moment)

    p = subs.add_parser("wick", help="Wick product applied to a word")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--letters", required=True)
    p.add_argument("--on", default="", help="target word (default: vacuum)")
    p.add_argument("--max-degree", type=int, default=None)
    _add_common(p, formats=("json", "text"))
    p.set_defaults(func=cmd_wick)

    p = subs.add_parser("split", help="two-block splitting of a Wick product on the vacuum")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--letters", required=True)
    p.add_argument("--k", type=int, required=True, help="size of the right block")
    p.add_argument("--max-degree", type=int, default=None)
    _add_common(p, formats=("json", "text"))
    p.set_defaults(func=cmd_split)

    p = subs.add_parser("clt", help="finite-size central limit moments")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--letters", default="")
    p.add_argument("--N", type=int, required=True, help="number of colors")
    p.add_argument("--left", default="", help="adjoint-side word for the off-diagonal check")
    p.add_argument("--right", default="", help="distinct-color word for the off-diagonal check")
    _add_common(p, formats=("json", "text"))
    p.set_defaults(func=cmd_clt)

    p = subs.add_parser("verify-iota", help="insertion statistic against its coset closed form")
    p.add_argument("--nmax", type=int, default=8)
    _add_common(p, formats=("json", "text"))
    _add_verify(p)
    p.set_defaults(func=cmd_verify_iota)

    p = subs.add_parser("verify-ie", help="two-mode split and inclusion-exclusion scans")
    p.add_argument("--nmax", type=int, default=5)
    p.add_argument("--split-nmax", type=int, default=6)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--merged", action="store_true", help="report one merged scan")
    _add_common(p, formats=("json", "text"))
    _add_verify(p)
    p.set_defaults(func=cmd_verify_ie)

    p = subs.add_parser("verify-claim", help="alternating cancellation over sub-pairings")
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--mmax", type=int, default=3)
    p.add_argument("--reading", choices=("prime-plain", "prime-prime"), default="prime-plain")
    _add_common(p, formats=("json", "text"))
    _add_verify(p)
    p.set_defaults(func=cmd_verify_claim)

    p = subs.add_parser("schatten", help="Schatten norm of the rank-one compression")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--hk", type=float, default=1.0, help="inner product of the two vectors")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--route", choices=("diagonal", "vector"), default="diagonal")
    _add_common(p, q_default="0.5", formats=("json", "text"))
    p.set_defaults(func=cmd_schatten)

    p = subs.add_parser("phi-check", help="rank-one form of the compressed double sandwich")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--h", default="", help="comma-separated coefficients")
    p.add_argument("--k", default="", help="comma-separated coefficients")
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_common(p, q_default="0.5", formats=("json", "text"))
    p.set_defaults(func=cmd_phi_check)

    p = subs.add_parser("decay", help="block-norm decay of a compressed Wick sandwich")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--letters", required=True)
    p.add_argument("--right", default="", help="second word (default: same as --letters)")
    p.add_argument("--max-degree", type=int, default=6)
    _add_common(p, q_default="0.5", formats=("json", "text"))
    p.set_defaults(func=cmd_decay)

    p = subs.add_parser("deform", help="second-quantized rotation against the surviving tail")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--kcut", type=int, required=True)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--steps", type=int, default=9)
    _add_common(p, q_default="0.5", formats=("csv", "json", "text"))
    p.set_defaults(func=cmd_deform)

    p = subs.add_parser("tail", help="semigroup tail norm above a cutoff degree")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--letters", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--top", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None)
    _add_common(p, q_default="0.5", formats=("json", "text"))
    p.set_defaults(func=cmd_tail)

    p = subs.add_parser("render", help="arc diagram of a pair/singleton partition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--pairs", default="", help='pairs as "1:6,2:5"')
    _add_common(p, formats=("text", "svg", "json"))
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        text, code = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
