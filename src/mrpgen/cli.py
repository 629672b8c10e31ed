"""Command-line entry point binding generation, catalogs, analytics, and cost.

Every subcommand prints a report envelope (command, version, input digest,
result) on stdout and diagnostics on stderr.  With --canonical the report
carries no timestamp and is byte-reproducible for identical inputs.  The
catalog scan runs in the calling thread: it is a pure-Python sieve, with
Miller-Rabin only above 32-bit words, which worker threads cannot overlap.
gen-mrp, retry-gen and verify run the serial limb loop, which for a large
polynomial one forked helper process may save work (``sampling._each_limb``);
their output is the serial loop's.  gen-limb makes its one limb in this
process alone: the row helper that ``sampling.generate_limb`` forks pays for
itself only over many limbs.  gen-mrp and retry-gen hash each limb in the
process that made it and, with --out, first store it there as its row of
the container (``formats._mrp_rows``, the one writer of a container, for any
target); verify reads only the stored row each process compares.

Exit codes: 0 success; 1 an expected domain failure, raised as a
``DomainFailure`` after the report is printed; 2 a usage error (argparse),
any other ``MrpgenError`` or an ``OSError`` from a path (``code=io-error``);
3 any other exception (``code=internal-error``), a bug.  ``main`` prints each
error it catches as one ``error code=<code> <message>`` line on stderr.

Imports sit at the top unless deferring one spares a start that does not
use it: ``fractions`` loads on every start (through ``profiles``), and
``primes`` on all but cost.  Handlers import the rest: only the generator
handlers (gen-mrp, gen-limb, gen-seg, retry-gen, verify, stats) load
``formats``, ``sampling``, ``xof`` and numpy, and only analyze, fit-table1
and stats load ``analytics``.  ``random`` stays in retry-gen: without the
interpreter's ``site`` hooks (``python -S``) ``import mrpgen.cli`` does not
load it.  When ``main`` runs as the program (no argv given), it calls
``gc.freeze()`` once the handler is done, so the interpreter's final
collection does not walk the heap; every file the CLI writes is closed
explicitly, because a file caught in a reference cycle would no longer be
finalized by that collection.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__, primes, profiles
from .errors import DomainFailure, GenerationFailure, MrpgenError, ParamsError

if TYPE_CHECKING:
    from .sampling import GenParams
    from .xof import Seed


# ---------------------------------------------------------------- rendering

def _text_lines(value, key=""):
    if isinstance(value, dict):
        lines = []
        for k, v in value.items():
            lines.extend(_text_lines(v, f"{key}.{k}" if key else str(k)))
        return lines
    if isinstance(value, (list, tuple)):
        if all(isinstance(v, (int, float, str, bool)) for v in value):
            return [f"{key} = {' '.join(str(v) for v in value)}"]
        lines = []
        for i, v in enumerate(value):
            lines.extend(_text_lines(v, f"{key}[{i}]"))
        return lines
    return [f"{key} = {value}"]


def _digest(args: argparse.Namespace) -> str:
    skip = {"handler", "format", "canonical"}
    payload = {k: str(v) for k, v in sorted(vars(args).items()) if k not in skip}
    blob = json.dumps({"command": args.command, "args": payload}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _emit(args, payload: dict, body_lines=None) -> None:
    envelope = {
        "command": args.command,
        "version": __version__,
        "input_digest": _digest(args),
    }
    if not args.canonical:
        from datetime import datetime, timezone

        envelope["generated_at"] = datetime.now(timezone.utc).isoformat()
    if args.format == "json":
        envelope["result"] = payload
        print(json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False))
        return
    for key in ("command", "version", "input_digest", "generated_at"):
        if key in envelope:
            print(f"{key} = {envelope[key]}")
    print()
    for line in (body_lines if body_lines is not None else _text_lines(payload)):
        print(line)


# ---------------------------------------------------------------- helpers

def _seed_from_args(args) -> Seed:
    from .xof import Seed, derive_polynomial_seed

    if args.seed is not None:
        if args.common is not None or args.poly_id is not None:
            raise ParamsError("--seed excludes --common and --poly-id")
        return Seed.from_hex(args.seed)
    if args.common is not None:
        if args.poly_id is None:
            raise ParamsError("--common requires --poly-id")
        try:
            common = bytes.fromhex(args.common)
        except ValueError:
            raise ParamsError("--common must be hexadecimal") from None
        return derive_polynomial_seed(common, args.poly_id)
    raise ParamsError("a seed is required: --seed or --common/--poly-id")


def _limb_sha256(params: GenParams, out, run):
    """run(make), where make(seed) makes seed's polynomial and returns its
    limb_sha256 summary: each limb's SHA-256 over its "<u4" words, by q.

    The process that makes a limb (sampling._each_limb) hashes it and, with
    out, first stores it as its row of the container (formats._mrp_rows),
    so this process reads no limb a helper made.
    """
    import numpy as np

    from . import formats, sampling

    def make(seed: Seed, put) -> dict:
        def digest(row: int, limb: np.ndarray) -> np.ndarray:
            words = np.ascontiguousarray(limb, dtype="<u4")
            if put is not None:
                put(row, words)
            return np.frombuffer(hashlib.sha256(words).digest(), np.uint8)

        digests = sampling._each_limb(seed, params, digest, (32,), np.uint8)
        return {str(q): row.tobytes().hex() for q, row in zip(params.base, digests)}

    with contextlib.nullcontext() if out is None else formats._mrp_rows(out, params) as put:
        return run(lambda seed: make(seed, put))


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParamsError(f"not a decimal or a/b fraction: {text!r}") from None


# ---------------------------------------------------------------- handlers

def cmd_gen_mrp(args) -> None:
    from . import formats

    params = formats.load_params(args.params)
    seed = _seed_from_args(args)
    payload = {
        "seed": seed.hex(),
        "N": params.N, "w": params.w, "n_seg": params.n_seg,
        "base": list(params.base),
        "limb_sha256": _limb_sha256(params, args.out, lambda make: make(seed)),
        "out": None if args.out is None else str(args.out),
    }
    _emit(args, payload)


def cmd_gen_limb(args) -> None:
    import numpy as np

    from . import formats, sampling

    params = formats.load_params(args.params)
    seed = _seed_from_args(args)
    limb = sampling._serial_limb(seed, args.q, params)
    words = np.ascontiguousarray(limb.coeffs, dtype="<u4")
    if args.out is not None:
        with formats._replacing(args.out, words.nbytes) as fh:
            fh.writelines((words,))
    payload = {
        "seed": seed.hex(), "q": args.q, "coeff_count": len(limb.coeffs),
        "sha256": hashlib.sha256(words).hexdigest(),
        "head": limb.coeffs[:4].tolist(), "tail": limb.coeffs[-4:].tolist(),
        "out": None if args.out is None else str(args.out),
    }
    _emit(args, payload)


def cmd_gen_seg(args) -> None:
    from . import formats, sampling

    params = formats.load_params(args.params)
    seed = _seed_from_args(args)
    values = sampling.generate_segment(seed, args.q, args.id, params).values
    complete = len(values) >= params.seg_len
    payload = {
        "seed": seed.hex(), "q": args.q, "id_seg": args.id,
        "requested": params.seg_len, "accepted": len(values),
        "complete": complete, "values": values.tolist(),
    }
    _emit(args, payload)
    if not complete:
        raise GenerationFailure(args.q, args.id)


def cmd_retry_gen(args) -> None:
    import random

    from . import formats, sampling

    params = formats.load_params(args.params)
    source = sampling.seed_source_from_rng(random.Random(args.rng_seed))
    seed, summary, attempts = _limb_sha256(
        params, args.out, lambda make: sampling._first_valid(source, args.max_attempts, make))
    payload = {
        "attempts": attempts,
        "seed": seed.hex(),
        "rng_seed": args.rng_seed,
        "limb_sha256": summary,
        "out": None if args.out is None else str(args.out),
    }
    _emit(args, payload)


def cmd_verify(args) -> None:
    from . import formats

    seed = _seed_from_args(args)
    report = formats.verify_mrp_file(args.mrp, seed)
    payload = {"mrp": str(args.mrp), "seed": seed.hex(),
               "match": report.ok, "detail": report.detail or None}
    _emit(args, payload)
    if not report.ok:
        raise DomainFailure("verify-mismatch", report.detail)


def cmd_enum_primes(args) -> None:
    # 64 bits is the widest word CatalogFilter admits
    if not (0 <= args.n <= 64 and 0 <= args.qmin_bits <= 64):
        raise ParamsError("--n and --qmin-bits must be in 0..64")
    filt = primes.CatalogFilter(
        n_ring=1 << args.n, w=args.w, hw_naf_max=args.hwnaf_max,
        p_r_max=_parse_fraction(args.pr_max),
        q_min_exclusive=1 << args.qmin_bits if args.qmin_bits else 1)
    catalog = primes.enumerate_supported(filt)
    hist = primes.histogram(catalog)
    payload = {
        "count": len(catalog),
        "histogram": {str(b): c for b, c in hist.items()},
        "records": [{"q": r.q, "bucket": r.bucket, "hw_naf": r.hw_naf,
                     "p_r_num": r.p_r.numerator, "p_r_den": r.p_r.denominator}
                    for r in catalog],
    }
    body = ["q,bucket,hw_naf,p_r_num,p_r_den"]
    body += [f"{r.q},{r.bucket},{r.hw_naf},{r.p_r.numerator},{r.p_r.denominator}"
             for r in catalog]
    body += ["", f"count = {len(catalog)}"]
    body += [f"bucket[{b}] = {c}" for b, c in hist.items()]
    _emit(args, payload, body)


def _reference_filter() -> primes.CatalogFilter:
    return primes.CatalogFilter(
        n_ring=profiles.DEFAULT_N, w=profiles.DEFAULT_W,
        hw_naf_max=profiles.DEFAULT_HW_NAF_MAX, p_r_max=Fraction(1, 2),
        q_min_exclusive=profiles.DEFAULT_Q_MIN_EXCLUSIVE)


def cmd_table1(args) -> None:
    full = primes.enumerate_supported(_reference_filter())
    rows = []
    all_match = True
    for p_r_max, count, hist, seg_len, bound in profiles.REFERENCE_ROWS:
        sub = full.restrict(Fraction(p_r_max))
        got_hist = primes.histogram(sub)
        got_row = [got_hist.get(b, 0) for b in profiles.HIST_BUCKETS]
        row = {
            "p_r_max": p_r_max, "seg_len": seg_len, "failure_bound": bound,
            "count": len(sub), "expected_count": count,
            "count_match": len(sub) == count,
            "histogram": got_row, "expected_histogram": list(hist),
            "histogram_match": got_row == list(hist),
        }
        all_match = all_match and row["count_match"] and row["histogram_match"]
        rows.append(row)
    payload = {"bucket_convention": "round(log2 q)",
               "buckets": list(profiles.HIST_BUCKETS),
               "rows": rows, "all_match": all_match}
    body = ["bucket_convention = round(log2 q)",
            f"buckets = {' '.join(str(b) for b in profiles.HIST_BUCKETS)}"]
    for row in rows:
        status = "ok" if row["count_match"] and row["histogram_match"] else "MISMATCH"
        body.append(f"p_r_max={row['p_r_max']} len={row['seg_len']} "
                    f"count={row['count']}/{row['expected_count']} "
                    f"hist={','.join(str(c) for c in row['histogram'])} [{status}]")
    body.append(f"all_match = {all_match}")
    _emit(args, payload, body)
    if not all_match:
        raise DomainFailure("reference-mismatch", "supported-set statistics deviate")


def cmd_analyze(args) -> None:
    from . import analytics

    p_r = _parse_fraction(args.pr)
    seg_fail = analytics.seg_failure_prob(p_r, args.t, args.len)
    limb_fail = analytics.mrp_failure_bound(p_r, args.t, args.len, args.nseg, 1)
    mrp_fail = analytics.mrp_failure_bound(p_r, args.t, args.len, args.nseg, args.L)
    payload = {
        "t": args.t, "len": args.len, "n_seg": args.nseg, "L": args.L,
        "p_r": str(p_r),
        "p_seg": float(1 - seg_fail),
        "seg_failure": float(seg_fail),
        "p_limb": 1 - limb_fail,
        "limb_failure": limb_fail,
        "p_mrp_bound": 1 - mrp_fail,
        "mrp_failure_bound": mrp_fail,
    }
    _emit(args, payload)


def cmd_fit_table1(args) -> None:
    from . import analytics

    if not 0 <= args.tol < math.inf:
        raise ParamsError(f"fit tolerance must be a finite number >= 0, got {args.tol}")
    rows = [(seg_len, Fraction(p_r_max))
            for p_r_max, _, _, seg_len, _ in profiles.REFERENCE_ROWS
            if Fraction(p_r_max) < Fraction(1, 2)]
    L, residual, solved = analytics.fit_limb_count(
        rows, t=profiles.DEFAULT_T, n_ring=profiles.DEFAULT_N,
        max_fail=profiles.DEFAULT_MAX_FAIL, l_range=(1, args.lmax))
    ok = residual <= args.tol
    payload = {
        "L": L, "residual": residual, "ok": ok, "tolerance": args.tol,
        "rows": [{"len": seg_len, "published": str(pub), "solved": float(sol),
                  "deviation": abs(float(sol - pub))}
                 for (seg_len, pub), sol in zip(rows, solved)],
    }
    if args.len4_check:
        worst = primes.enumerate_supported(_reference_filter()).worst_p_r()
        seg_len = profiles.REFERENCE_ROWS[-1][3]
        bound = analytics.mrp_failure_bound(worst, profiles.DEFAULT_T, seg_len,
                                            profiles.DEFAULT_N // seg_len, L)
        payload["len4_check"] = {"len": seg_len, "worst_p_r": float(worst),
                                 "failure_bound": bound,
                                 "ok": bound <= 0.0030}
    _emit(args, payload)
    if not ok:
        raise DomainFailure("no-fit", f"best L={L} residual={residual}")


def cmd_stats(args) -> None:
    from . import analytics, formats

    coeffs, params = formats.read_mrp(args.mrp)
    limbs = []
    for q, row in zip(params.base, coeffs):
        statistic, p_value = analytics.chi_square_uniformity(q, row, args.bins)
        limbs.append({"q": q, "samples": len(row), "statistic": statistic,
                      "dof": args.bins - 1, "p_value": p_value})
    payload = {"mrp": str(args.mrp), "bins": args.bins, "limbs": limbs}
    _emit(args, payload)


def cmd_cost(args) -> None:
    from . import costmodel

    params = costmodel.CostParams(
        R=args.R, w=args.w, f_hz=args.f * 1e9,
        gamma=float(_parse_fraction(args.gamma)),
        d_mm=args.d, e_j_per_bit_mm=args.E * 1e-15)
    report = costmodel.build_cost_report(params, local_hop_mm=args.local_hop)
    payload = {
        "throughput_bps": report.throughput_bps,
        "throughput_tbps": report.throughput_bps / 1e12,
        "central_power_w": report.central_power_w,
        "distributed_power_w": report.distributed_power_w,
        "saving_w": report.central_power_w - report.distributed_power_w,
        "per_axis_density_bps_per_mm": report.per_axis_density_bps_per_mm,
        "per_axis_density_tbps_per_mm": report.per_axis_density_bps_per_mm / 1e12,
    }
    _emit(args, payload)


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrpgen",
        description="Seed-expanded uniform multi-residue polynomial toolkit")
    parser.add_argument("--canonical", action="store_true",
                        help="omit timestamps; byte-reproducible reports")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed_args(p):
        p.add_argument("--seed", help="72 hex chars (288-bit seed)")
        p.add_argument("--common", help="64 hex chars (256-bit common part)")
        p.add_argument("--poly-id", type=int, help="32-bit per-polynomial id")

    p = sub.add_parser("gen-mrp", help="generate a full multi-residue polynomial")
    add_seed_args(p)
    p.add_argument("--params", required=True)
    p.add_argument("--out", help="write the binary MRP container here")
    p.set_defaults(handler=cmd_gen_mrp)

    p = sub.add_parser("gen-limb", help="generate one limb at random access")
    add_seed_args(p)
    p.add_argument("--params", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", help="write raw little-endian u32 coefficients here")
    p.set_defaults(handler=cmd_gen_limb)

    p = sub.add_parser("gen-seg", help="generate one segment (one engine's unit)")
    add_seed_args(p)
    p.add_argument("--params", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--id", type=int, required=True)
    p.set_defaults(handler=cmd_gen_seg)

    p = sub.add_parser("retry-gen", help="client loop: draw seeds until one validates")
    p.add_argument("--params", required=True)
    p.add_argument("--max-attempts", type=int, default=100)
    p.add_argument("--rng-seed", type=int, default=0,
                   help="seed of the documented Python Random generator")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_retry_gen)

    p = sub.add_parser("verify", help="recompute a stored MRP from its seed")
    add_seed_args(p)
    p.add_argument("--mrp", required=True)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("enum-primes", help="enumerate the supported moduli set")
    p.add_argument("--n", type=int, required=True, help="log2 of the ring dimension")
    p.add_argument("--w", type=int, default=32)
    p.add_argument("--hwnaf-max", type=int, default=5)
    p.add_argument("--pr-max", default="0.5", help="decimal rejection cap")
    p.add_argument("--qmin-bits", type=int, default=0,
                   help="admit only q > 2^bits (0 = no bound)")
    p.set_defaults(handler=cmd_enum_primes)

    p = sub.add_parser("table1", help="reproduce the bundled reference statistics")
    p.set_defaults(handler=cmd_table1)

    p = sub.add_parser("analyze", help="success probabilities for one profile point")
    p.add_argument("--t", type=int, default=profiles.DEFAULT_T)
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--nseg", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--pr", required=True, help="decimal per-sample rejection probability")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("fit-table1", help="recover the limb count behind the reference thresholds")
    p.add_argument("--lmax", type=int, default=200)
    p.add_argument("--tol", type=float, default=0.0005)
    p.add_argument("--no-len4-check", dest="len4_check", action="store_false")
    p.set_defaults(handler=cmd_fit_table1)

    p = sub.add_parser("stats", help="chi-square uniformity of a stored MRP")
    p.add_argument("--mrp", required=True)
    p.add_argument("--bins", type=int, default=64)
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("cost", help="central vs distributed wiring cost")
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--f", type=float, required=True, help="clock in GHz")
    p.add_argument("--gamma", required=True, help="occupancy, decimal or a/b")
    p.add_argument("--d", type=float, required=True, help="die side in mm")
    p.add_argument("--E", type=float, required=True, help="wire energy in fJ/bit/mm")
    p.add_argument("--local-hop", type=float, default=0.0,
                   help="distributed-case hop distance in mm")
    p.set_defaults(handler=cmd_cost)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
        return 0
    except MrpgenError as exc:
        print(f"error code={exc.code} {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error code=io-error {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error code=internal-error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if argv is None:
            # The process is about to exit: move every object to the permanent
            # generation, so the interpreter's final collection does not walk
            # the heap numpy built.  A caller of main([...]) keeps its gc state.
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
