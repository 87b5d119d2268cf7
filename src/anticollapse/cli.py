"""Command-line interface.

Exit codes: 0 success / property holds, 1 property fails or nothing found
within budget, 2 usage or input error, 3 principled refusal.

Every randomized subcommand requires an explicit --seed; passing
"--seed auto" draws one from system entropy and prints it, so any run can
be reproduced from its output header.
"""
from __future__ import annotations

import argparse
import secrets
import sys
from pathlib import Path

from . import constructions
from .collapse import Certificate, core_erosion, random_discrete_morse, replay, search_collapse
from .complexes import digest, format_facet_file, read_facet_file
from .constructions import Refusal, catalog, load_base_case, theorem2_construct, write_witness
from .duality import alexander_dual, is_anticollapsible
from .errors import InputError, StepError
from .homology import homology
from .hypertrees import kruskal_generate, run_survey

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_REFUSAL = 3


def _parse_seed(value: str, echo: bool = True) -> int:
    """The seed to use; a drawn one is printed unless the command echoes
    the seed itself."""
    if value == "auto":
        seed = secrets.randbits(63)
        if echo:
            print(f"# seed {seed}")
        return seed
    try:
        return int(value)
    except ValueError as exc:
        raise InputError(f"seed must be an integer or 'auto', got {value!r}") from exc


def _write(text: str, out: str | None) -> None:
    """Write text to the --out path, or to stdout without one."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_homology(args) -> int:
    X = read_facet_file(args.facetfile)
    profile = homology(X)
    for d, b in enumerate(profile.betti):
        torsion = ",".join(str(t) for t in profile.torsion[d])
        print(f"dim {d}: betti={b} torsion=[{torsion}]")
    return EXIT_OK


def cmd_dual(args) -> int:
    dual = alexander_dual(read_facet_file(args.facetfile))
    _write(format_facet_file(dual, header_comments=[f"dual of {args.facetfile}"]), args.out)
    return EXIT_OK


# the search behind each certificate subcommand and the noun it reports
_SEARCHES = {"collapse": (search_collapse, "collapse"),
             "anticollapse": (is_anticollapsible, "expansion")}


def cmd_certificate(args) -> int:
    """collapse and anticollapse: search, then print or write the certificate.
    Both outcomes name the seed, so a drawn one is not echoed again."""
    if args.budget < 1:
        raise InputError("at least one restart")
    search, noun = _SEARCHES[args.command]
    X = read_facet_file(args.facetfile)
    seed = _parse_seed(args.seed, echo=False)
    cert = search(X, rng_seed=seed, restarts=args.budget)
    if cert is None:
        print(f"no {noun} found within {args.budget} restarts (seed {seed})")
        return EXIT_FAIL
    print(f"# seed {seed}")
    _write(cert.to_json() + "\n", args.out)
    if args.out:
        print(f"{cert.kind} certificate with {len(cert)} steps -> {args.out}")
    return EXIT_OK


def cmd_rdm(args) -> int:
    if args.trials < 1:
        raise InputError("at least one trial")
    X = read_facet_file(args.facetfile)
    seed = _parse_seed(args.seed)
    for t in range(args.trials):
        vector, _ = random_discrete_morse(X, rng_seed=seed + t)
        print(vector)
    return EXIT_OK


def cmd_core(args) -> int:
    X = read_facet_file(args.facetfile)
    residue, collapsible = core_erosion(X)
    d = X.dim
    print(f"dimension {d}: {'erodes fully' if collapsible else 'stuck'}")
    if not collapsible:
        print(f"surviving {d}-faces: {residue.n_faces(d)}")
    return EXIT_OK if collapsible else EXIT_FAIL


def cmd_kruskal(args) -> int:
    seed = _parse_seed(args.seed, echo=bool(args.out))  # else the header on stdout names it
    X = kruskal_generate(args.n, args.d, seed)
    _write(format_facet_file(
        X, header_comments=[f"seed {seed}", f"spanning {args.d}-complex on {args.n} vertices"]
    ), args.out)
    return EXIT_OK


def cmd_survey(args) -> int:
    seed = _parse_seed(args.seed, echo=False)
    summary = run_survey(
        args.n, args.d, trials=args.trials, rng_seed=seed, csv_path=args.out
    )
    print(f"# seed {seed}")
    print(f"trials: {summary.trials}")
    print(f"invalid: {len(summary.invalid_seeds)}")
    print(f"collapsible-not-expandable seeds: {summary.class_a_seeds}")
    print(f"neither-direction seeds: {summary.class_b_seeds}")
    print(f"no-free-face seeds: {summary.no_free_face_seeds}")
    return EXIT_OK if not summary.invalid_seeds else EXIT_FAIL


def cmd_construct(args) -> int:
    seed = _parse_seed(args.seed, echo=False)  # printed with the witness; refusals ignore it
    result = theorem2_construct(args.n, args.d)
    if isinstance(result, Refusal):
        print(str(result))
        return EXIT_REFUSAL
    X, cert = result
    stem = f"witness_{args.n}_{args.d}"
    write_witness(args.out, stem, X, cert,
                  [f"seed {seed}", f"witness for n={args.n}, d={args.d}"])
    print(f"# seed {seed}")
    print(f"wrote {stem}.facets and {stem}.cert to {Path(args.out)}")
    return EXIT_OK


def cmd_verify_cert(args) -> int:
    X = read_facet_file(args.facetfile)
    cert = Certificate.from_json(Path(args.certfile).read_text(encoding="utf-8"))
    try:
        end = replay(X, cert)
    except (InputError, StepError) as exc:
        print(f"replay failed: {exc}")
        return EXIT_FAIL
    print(f"replay ok: {len(cert)} {cert.kind} steps, end digest {digest(end)[:16]}...")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    rows: list[tuple[str, bool, str]] = []

    def row(name: str, ok: bool, detail: str = "") -> None:
        rows.append((name, ok, detail))

    def digest_row(label: str, load, detail) -> None:
        try:
            entry = load()
            ok = digest(entry.complex) == constructions.EXPECTED_DIGESTS[entry.name]
            row(label, ok, detail(entry) if ok else "digest mismatch")
        except Exception as exc:  # claim verification failures land here
            row(label, False, str(exc))

    for name in constructions.CATALOG_NAMES:
        digest_row(f"catalog {name}", lambda: catalog(name),
                   lambda entry: f"{len(entry.complex.facets())} facets")
    for d in (2, 3):
        digest_row(f"golden base_8_{d}", lambda: load_base_case(d),
                   lambda entry: f"cert {len(entry.certificate)} steps")

    for name in ("C38_3", "dual_C38_3"):
        try:
            X = catalog(name).complex
            _, collapsible = core_erosion(X)
            row(f"core survives in {name}", not collapsible)
        except Exception as exc:
            row(f"core survives in {name}", False, str(exc))

    # theorem2_construct checks and replays each witness it returns
    for n in range(8, 11):
        wanted = set(range(2, n - 3))
        try:
            got = {d for d in range(n) if not isinstance(theorem2_construct(n, d), Refusal)}
            detail = "" if got == wanted else f"accepted {sorted(got)}, wanted {sorted(wanted)}"
        except Exception as exc:
            got, detail = None, str(exc)
        row(f"witness matrix n={n}", got == wanted, detail)

    if not args.quick:
        summary = run_survey(8, 3, trials=200, rng_seed=20250808)
        row(
            "survey 8/3 validity (200 trials)",
            not summary.invalid_seeds,
            f"classes a={len(summary.class_a_seeds)} b={len(summary.class_b_seeds)}",
        )

    width = max(len(name) for name, _, _ in rows)
    failed = 0
    for name, ok, detail in rows:
        status = "pass" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{name:<{width}}  {status}{suffix}")
        if not ok:
            failed += 1
    print(f"{len(rows) - failed}/{len(rows)} rows pass")
    return EXIT_OK if failed == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anticollapse",
        description="collapsibility and expansion machinery for simplicial complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="reduced homology of a facet file")
    p.add_argument("facetfile")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("dual", help="write the dual complex's facet file")
    p.add_argument("facetfile")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dual)

    for command, help_text in (("collapse", "search for a full collapse certificate"),
                               ("anticollapse", "search for an expansion certificate")):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("facetfile")
        p.add_argument("--budget", type=int, default=64)
        p.add_argument("--seed", required=True)
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("rdm", help="random collapse runs, one critical-cell vector per line")
    p.add_argument("facetfile")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", required=True)
    p.set_defaults(func=cmd_rdm)

    p = sub.add_parser("core", help="exhaust top-dimensional collapses")
    p.add_argument("facetfile")
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("kruskal", help="generate a random spanning complex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_kruskal)

    p = sub.add_parser("survey", help="generate and classify spanning complexes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--out", default=None, help="CSV path, one row per trial")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("construct", help="build a no-free-face expandable witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", required=True, help="echoed in the facet file "
                   "header; no effect, as the witness and certificate depend on (n, d) only")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify-cert", help="replay a certificate against a facet file")
    p.add_argument("facetfile")
    p.add_argument("certfile")
    p.set_defaults(func=cmd_verify_cert)

    p = sub.add_parser("reproduce", help="run the verification table")
    p.add_argument("--quick", action="store_true", help="skip the survey row")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"unreadable input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
