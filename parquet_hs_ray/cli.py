"""CLI: encode / decode / verify / plan / summary.

The reference's CLI decodes one hardcoded file to stdout
(`/root/reference/src/Main.hs:15-18`); ours drives the distributed jobs.
This module OWNS a Ray session (guarded init + shutdown) — library code
never initializes Ray (driver contract).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys


def _parse_where(spec: str) -> tuple:
    """'col OP value' -> (col, op, typed value); also 'col IS NULL' /
    'col IS NOT NULL', 'col IN (v1, v2, ...)' (case-insensitive) and
    'col contains value'.  See WHERE_HELP; the grammar is
    ``predicates.py``'s."""
    import csv
    import io
    import re

    low = spec.strip().lower()
    # IN-list: strict shape (identifier, 'in', parenthesized list) and a
    # quote-aware value tokenizer — a quoted string containing a comma
    # ('a, b') must stay ONE value (ADVICE-r3: bare-comma split used to
    # mis-tokenize it).  No match falls through to the scalar ops below.
    m = re.match(r"^(\w+)\s+in\s+\((.*)\)\s*$", spec.strip(),
                 flags=re.IGNORECASE | re.DOTALL)
    if m:
        col, body = m.group(1), m.group(2)
        # newlines in the list body are separators-equivalent whitespace,
        # not csv row breaks (a raw csv.reader would silently drop values
        # after a line break); an empty body is a legitimate empty IN
        # list (matches nothing)
        body = body.replace("\r", " ").replace("\n", " ").strip()
        rows = list(csv.reader(io.StringIO(body),
                               quotechar="'", skipinitialspace=True))
        vals = []
        for tok in (rows[0] if rows else []):
            tok = tok.strip()
            # csv strips the outer single quotes it parsed; still strip
            # double quotes for "v" style literals
            if len(tok) >= 2 and tok[0] == tok[-1] and tok[0] in "'\"":
                tok = tok[1:-1]
            try:
                vals.append(int(tok))
            except ValueError:
                try:
                    vals.append(float(tok))
                except ValueError:
                    vals.append(tok)
        return (col, "in", vals)
    if low.endswith(" is not null"):
        return (spec.strip()[: -len(" is not null")].strip(), "is_not_null", None)
    if low.endswith(" is null"):
        return (spec.strip()[: -len(" is null")].strip(), "is_null", None)
    if " contains " in low:
        i = low.find(" contains ")
        col, raw = spec[:i], spec[i + len(" contains "):]
        raw = raw.strip()
        try:
            val: object = int(raw)
        except ValueError:
            val = raw
        return (col.strip(), "contains", val)
    for op in ("<=", ">=", "==", "<", ">"):
        if op in spec:
            col, _, raw = spec.partition(op)
            raw = raw.strip()
            try:
                val: object = int(raw)
            except ValueError:
                try:
                    val = float(raw)
                except ValueError:
                    val = raw
            return (col.strip(), op, val)
    raise SystemExit(f"bad --where {spec!r}: expected 'col OP value'")


WHERE_HELP = ("predicate: 'col OP value' (OP one of == < <= > >=), "
              "'col IN (v1, v2, ...)', 'col IS NULL', 'col IS NOT NULL' "
              "or 'col contains value' (list-column element membership); "
              "value int/float/string; repeatable = AND")


def _ray_session(num_cpus: int | None):
    """Returns (ray, owns): ``owns`` is False when a session already
    existed (e.g. the CLI is driven in-process from a host app or test)
    — we must not tear down a session we didn't create."""
    import ray

    owns = not ray.is_initialized()
    if owns:
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    return ray, owns


def main(argv=None):
    ap = argparse.ArgumentParser(prog="parquet_hs_ray")
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    enc = sub.add_parser("encode", help="encode parquet input to blocks + manifest")
    enc.add_argument("--input", required=True)
    enc.add_argument("--out", required=True)
    enc.add_argument("--token-col", default="n_tok")
    enc.add_argument("--token-budget", type=int, default=4_000_000)
    enc.add_argument("--force", action="store_true", help="wipe output dir first")
    enc.add_argument("--no-resume", action="store_true")
    enc.add_argument("--no-bloom", action="store_true",
                     help="skip per-partition Bloom filters (point-equality "
                          "pruning stats) in the manifest")

    dec = sub.add_parser(
        "decode", help="decode blocks back to parquet: one part-<id>.parquet "
        "per kept partition (resumable: a rerun skips partitions whose file "
        "--out already holds)")
    dec.add_argument("--encoded", required=True)
    dec.add_argument("--out", required=True,
                     help="output directory; a partition whose file it already "
                          "holds is skipped, also after a later delete: export "
                          "before delete, or to a fresh dest")
    dec.add_argument("--columns", default=None, help="comma-separated column subset")
    dec.add_argument("--partition-cols", default=None,
                     help="comma-separated columns to hive-partition the "
                          "decoded parquet output by (_done/ markers track "
                          "finished partitions)")
    dec.add_argument("--where", default=None, action="append",
                     help=WHERE_HELP + ". Partitions whose manifest "
                          "min/max/null-count/Bloom stats exclude it are "
                          "never opened.")
    dec.add_argument("--keep-deleted", action="store_true",
                     help="ignore deletion vectors (audit the base data)")
    dec.add_argument("--snapshot", default=None,
                     help="time travel: decode the state pinned by "
                     "`snapshot --name <n>` (later appends/deletes invisible)")
    dec.add_argument("--writer", default="pyarrow",
                     choices=("pyarrow", "kernels"),
                     help="parquet encoder: pyarrow or our own write kernels")
    dec.add_argument("--unify-schema", action="store_true",
                     help="schema evolution: decode an appended store to the "
                          "UNION schema (older partitions null-pad columns "
                          "they predate; type conflicts raise)")

    snp = sub.add_parser(
        "snapshot", help="pin the store's current visible state "
        "(partitions + delete vectors) under a name for time-travel reads")
    snp.add_argument("--encoded", required=True)
    snp.add_argument("--name", default=None,
                     help="snapshot name; omit to list existing snapshots")

    dele = sub.add_parser(
        "delete", help="row-level DELETE WHERE via deletion-vector "
        "sidecars (no blob rewrite; compact materializes)")
    dele.add_argument("--encoded", required=True)
    dele.add_argument("--where", required=True, action="append",
                      help=WHERE_HELP + '; rows matching are deleted, '
                      'e.g. "n_tok > 900"')

    ver = sub.add_parser("verify", help="per-partition round-trip equality vs input")
    ver.add_argument("--encoded", required=True)
    ver.add_argument("--input", required=False, help="(lineage in plan.json is used)")

    cpt = sub.add_parser(
        "compact", help="merge runs of small encoded partitions into "
        "token-budget-sized ones (source untouched; lineage + resume)")
    cpt.add_argument("--encoded", required=True, help="source encoded dir")
    cpt.add_argument("--out", required=True, help="compacted output dir")
    cpt.add_argument("--token-budget", type=int, default=4_000_000)
    cpt.add_argument("--no-resume", action="store_true")

    mcp = sub.add_parser(
        "manifest-compact", help="merge per-partition manifest JSONs into "
        "one compact-<n>.jsonl (listing-bottleneck fix at millions of "
        "partitions; crash-safe, loader reads both forms)")
    mcp.add_argument("--encoded", required=True)

    val = sub.add_parser(
        "validate", help="run declarative expectation rules over a decoded "
        "store; one summary line per rule, exit 1 if any rule has "
        "violations")
    val.add_argument("--encoded", required=True)
    val.add_argument("--rules", required=True,
                     help="JSON file: list of rules, e.g. "
                          '[["not_null","doc_id"],["range","n_tok",1,100000],'
                          '["unique","doc_id"],["in_set","source",["a","b"]],'
                          '["regex","doc_id","^d"]]')
    val.add_argument("--unify-schema", action="store_true")

    sub.add_parser("synth-help")
    summ = sub.add_parser("summary")
    summ.add_argument("--encoded", required=True)
    adv = sub.add_parser(
        "advise", help="row-layout advisor: the sort order (if any) that "
        "shrinks this table's encoding; apply upstream before encode")
    adv.add_argument("--input", required=True, help="parquet file or dir")
    adv.add_argument("--sample-rows", type=int, default=16384)

    trc = sub.add_parser(
        "transcode", help="rewrite parquet through the kernel writer "
        "(standard parquet out; per-chunk dict/delta/BSS auto-selection "
        "usually shrinks pyarrow-written files)")
    trc.add_argument("--input", required=True, help="parquet file or dir")
    trc.add_argument("--out", required=True, help="output directory")
    trc.add_argument("--compression", default="SNAPPY",
                     choices=("UNCOMPRESSED", "SNAPPY", "GZIP", "ZSTD",
                              "LZ4", "LZ4_RAW"))
    trc.add_argument("--encodings", default="auto",
                     choices=("classic", "auto"))
    trc.add_argument("--page-version", default="1.0",
                     choices=("1.0", "2.0"))
    trc.add_argument("--row-group-size", type=int, default=1 << 20)
    trc.add_argument("--partitions", type=int, default=None,
                     help="repartition before writing (file count)")
    trc.add_argument("--data-page-rows", type=int, default=None,
                     help="paginate flat chunks to this many rows per "
                     "page (enables page-granular index pruning)")
    trc.add_argument("--bloom", default=None,
                     help="comma-separated columns to write split-block "
                     "bloom filters for (point-lookup pruning)")

    lay = sub.add_parser(
        "layout", help="rewrite parquet clustered along the 2-D Morton "
        "curve of --zorder colx,coly so per-partition manifest min/max "
        "boxes prune on EITHER column (run before encode)")
    lay.add_argument("--input", required=True, help="parquet file or dir")
    lay.add_argument("--out", required=True, help="output parquet directory")
    lay.add_argument("--zorder", required=True,
                     help="two comma-separated integer columns, e.g. x,y")

    args = ap.parse_args(argv)

    if args.cmd == "advise":
        import pyarrow.dataset as pads

        from .selector import advise_sort_order

        tbl = pads.dataset(args.input).head(args.sample_rows)
        keys, report = advise_sort_order(tbl, sample_rows=args.sample_rows)
        print(json.dumps({
            "sort_keys": keys,
            "report": {",".join(k) or "<identity>": v
                       for k, v in sorted(report.items(), key=lambda kv: kv[1])},
        }))
        return 0

    if args.cmd == "summary":
        from .state import deletes as dvs
        from .state import manifest as mf

        out = mf.summary(args.encoded)
        out.update(dvs.deletes_summary(args.encoded))
        print(json.dumps(out, indent=2))
        return 0
    if args.cmd == "snapshot":
        from .state import snapshots as snaps

        if args.name is None:
            print(json.dumps({"snapshots": snaps.list_snapshots(args.encoded)}))
            return 0
        snap = snaps.create_snapshot(args.encoded, args.name)
        print(json.dumps({"name": snap["name"],
                          "partitions": len(snap["partitions"]),
                          "with_deletes": sum(1 for r in snap["partitions"]
                                              if "deletes_b64" in r)}))
        return 0
    if args.cmd == "manifest-compact":
        from .state import manifest as mf

        print(json.dumps(mf.compact_manifest(args.encoded)))
        return 0
    if args.cmd == "validate":
        from .pipelines.encode_job import decode_dataset
        from .pipelines.validate import validate

        with open(args.rules) as f:
            rules = [tuple(r) for r in json.load(f)]
        ds = decode_dataset(args.encoded, unify_schema=args.unify_schema)
        out = validate(ds, rules).to_pandas()
        for _, r in out.iterrows():
            print(json.dumps({"rule": r["rule"],
                              "n_checked": int(r["n_checked"]),
                              "n_violations": int(r["n_violations"])}))
        return 1 if int(out["n_violations"].sum()) > 0 else 0

    ray, owns_session = _ray_session(args.num_cpus)
    try:
        if args.cmd == "encode":
            from .pipelines.encode_job import encode_dataset

            if args.force and os.path.isdir(args.out):
                shutil.rmtree(args.out)
            tc = args.token_col if args.token_col not in ("", "none") else None
            res = encode_dataset(
                args.input, args.out, token_col=tc, token_budget=args.token_budget,
                resume=not args.no_resume,
                bloom_stats=not args.no_bloom,
            )
            print(json.dumps(res))
        elif args.cmd == "delete":
            from .pipelines.encode_job import delete_rows

            preds = [_parse_where(w) for w in args.where]
            print(json.dumps(delete_rows(args.encoded, preds)))
        elif args.cmd == "decode":
            from .pipelines.encode_job import decode_to_parquet

            print(json.dumps(decode_to_parquet(
                args.encoded, args.out,
                columns=args.columns.split(",") if args.columns else None,
                predicate=[_parse_where(w) for w in args.where] if args.where else None,
                partition_cols=args.partition_cols.split(",") if args.partition_cols else None,
                unify_schema=args.unify_schema, apply_deletes=not args.keep_deleted,
                snapshot=args.snapshot, writer=args.writer)))
        elif args.cmd == "compact":
            from .pipelines.encode_job import compact_dataset

            res = compact_dataset(args.encoded, args.out,
                                  token_budget=args.token_budget,
                                  resume=not args.no_resume)
            print(json.dumps(res))
        elif args.cmd == "transcode":
            import ray.data

            from .sources.kernel_sink import write_parquet_kernels

            ds = ray.data.read_parquet(args.input)
            if args.partitions:
                ds = ds.repartition(args.partitions)
            manifest = write_parquet_kernels(
                ds, args.out, compression=args.compression,
                encodings=args.encodings,
                page_version=args.page_version,
                row_group_size=args.row_group_size,
                data_page_rows=args.data_page_rows,
                bloom_filters=([c.strip() for c in args.bloom.split(",")]
                               if args.bloom else None))
            print(json.dumps({"rows": manifest["rows"],
                              "bytes": manifest["bytes"],
                              "files": len(manifest["files"]),
                              "out": args.out}))
        elif args.cmd == "layout":
            import ray.data

            from .pipelines.layout import zorder_sort

            cols = [c.strip() for c in args.zorder.split(",")]
            if len(cols) != 2:
                raise SystemExit("--zorder takes exactly two columns")
            # materialize once: count() after write_parquet would
            # otherwise re-run the whole read + range-shuffle sort
            ds = zorder_sort(ray.data.read_parquet(args.input),
                             cols[0], cols[1]).materialize()
            ds.write_parquet(args.out)
            print(json.dumps({"rows": ds.count(), "out": args.out,
                              "zorder": cols}))
        elif args.cmd == "verify":
            from .pipelines.encode_job import verify_roundtrip

            res = verify_roundtrip(args.input, args.encoded)
            print(json.dumps(res))
    finally:
        if owns_session:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
