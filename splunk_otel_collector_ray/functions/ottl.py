"""OTTL statement execution — the transform processor's statement language.

The reference's `transform` processor runs ordered statement lists over log
records (citations into /root/reference):

- ``set(severity_text, "DEBUG") where attributes["Level"] == "DETAIL"`` and
  ``delete_key(attributes, "Level")``
  (examples/otel-logs-severity-splunk/otel-collector-config.yml:33-44)
- ``set(body, Substring(body, 0, 10))``
  (examples/otel-logs-truncate-splunk/otel-collector-config.yml:38-42)

This module compiles those statement strings into VECTORIZED batch
transforms: the ``where`` clause reuses functions.expr's safe predicate
compiler (extended with ``attributes["key"]`` map lookups), values are
evaluated with Arrow/numpy kernels, and attribute-map mutation (set /
delete_key / keep_keys) rebuilds the map<string,string> column from its flat
key/value arrays with numpy offset arithmetic — no per-row Python.

Grammar:
    set(<target>, <value>) [where <predicate>]
    delete_key(attributes, "key") [where <predicate>]
    delete_matching_keys(attributes, "regex") [where <predicate>]
    keep_keys(attributes, ["k1", "k2"]) [where <predicate>]
    limit(attributes, n[, ["priority", …]]) [where <predicate>]
    truncate_all(attributes, n) [where <predicate>]
    replace_pattern(<target>, "regex", "replacement") [where <predicate>]
  <target> := column | attributes["key"]
  <value>  := literal | column | attributes["key"]
            | Substring(<value>, start, length) | Concat([<value>…], sep)
            | ConvertCase(<value>, "upper"|"lower") | Len(<value>)
            | Trim(<value>) | Int(<value>) | Double(<value>)
            | SHA256(<value>)
  predicates may use IsMatch(col, "regex") — the upstream OTTL condition
  function (alias of functions.expr's matches()); replacement backrefs use
  RE2 ``\\1`` syntax (the kernel is pyarrow replace_substring_regex).
"""

from __future__ import annotations

import ast
from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .expr import compile_predicate, map_get

BatchFn = Callable[[pa.Table], pa.Table]


# --------------------------------------------------------------------------
# map<string,string> rebuild kernels (flat-array numpy, no row loop)
# --------------------------------------------------------------------------

def _map_parts(arr) -> tuple[np.ndarray, np.ndarray, np.ndarray, int,
                             np.ndarray]:
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    offsets = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    keys = arr.keys.to_numpy(zero_copy_only=False)
    items = arr.items.to_numpy(zero_copy_only=False)
    nulls = pc.is_null(arr).to_numpy(zero_copy_only=False)
    return offsets, keys, items, len(arr), nulls


def _rebuild(n: int, rows: np.ndarray, keys: np.ndarray, items: np.ndarray,
             nulls: np.ndarray | None = None) -> pa.Array:
    """(row id, key, value) triples in row order → map column; ``nulls``
    marks rows whose map stays NULL (validity is reapplied via null offsets
    — ADVICE r2: null maps must not be rebuilt as empty non-null maps)."""
    counts = np.bincount(rows, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    if nulls is not None and nulls.any():
        off = pa.array(offsets, type=pa.int32(),
                       mask=np.concatenate([nulls, [False]]))
    else:
        off = pa.array(offsets, type=pa.int32())
    return pa.MapArray.from_arrays(
        off,
        pa.array(keys, type=pa.string()),
        pa.array(items, type=pa.string()))


def map_delete_key(arr, key: str, mask: np.ndarray | None = None) -> pa.Array:
    """Drop ``key`` entries (in masked rows only when ``mask`` given)."""
    offsets, keys, items, n, nulls = _map_parts(arr)
    rows = np.repeat(np.arange(n), np.diff(offsets))
    hit = keys == key
    if mask is not None:
        hit &= mask[rows]
    keep = ~hit
    return _rebuild(n, rows[keep], keys[keep], items[keep], nulls)


def map_keep_keys(arr, wanted: list[str],
                  mask: np.ndarray | None = None) -> pa.Array:
    """Project the map to ``wanted`` keys (in masked rows only)."""
    offsets, keys, items, n, nulls = _map_parts(arr)
    rows = np.repeat(np.arange(n), np.diff(offsets))
    keep = np.isin(keys, np.asarray(wanted, dtype=object))
    if mask is not None:
        keep |= ~mask[rows]
    return _rebuild(n, rows[keep], keys[keep], items[keep], nulls)


def map_truncate_all(arr, limit: int,
                     mask: np.ndarray | None = None) -> pa.Array:
    """Truncate every map VALUE to ``limit`` code units (the upstream OTTL
    ``truncate_all(attributes, limit)`` editor) — flat-array, no row loop."""
    offsets, keys, items, n, nulls = _map_parts(arr)
    rows = np.repeat(np.arange(n), np.diff(offsets))
    cut = pc.utf8_slice_codeunits(
        pa.array(items, type=pa.string()), 0, limit).to_numpy(
        zero_copy_only=False)
    if mask is not None:
        keep_orig = ~mask[rows]
        cut[keep_orig] = items[keep_orig]
    return _rebuild(n, rows, keys, cut, nulls)


def map_delete_matching_keys(arr, pattern: str,
                             mask: np.ndarray | None = None) -> pa.Array:
    """Drop every entry whose KEY matches ``pattern`` (upstream OTTL
    ``delete_matching_keys(attributes, "regex")`` editor) — one RE2 pass
    over the flat keys array."""
    offsets, keys, items, n, nulls = _map_parts(arr)
    rows = np.repeat(np.arange(n), np.diff(offsets))
    hit = pc.match_substring_regex(
        pa.array(keys, type=pa.string()), pattern).to_numpy(
        zero_copy_only=False)
    if mask is not None:
        hit &= mask[rows]
    keep = ~hit
    return _rebuild(n, rows[keep], keys[keep], items[keep], nulls)


def map_limit(arr, limit: int, priority_keys: list[str] | None = None,
              mask: np.ndarray | None = None) -> pa.Array:
    """Keep at most ``limit`` entries per map, ``priority_keys`` first
    (upstream OTTL ``limit(attributes, n, ["k", …])`` editor). Within each
    priority class the original map order decides — flat-array lexsort +
    per-row rank, no row loop."""
    offsets, keys, items, n, nulls = _map_parts(arr)
    rows = np.repeat(np.arange(n), np.diff(offsets))
    pos = np.arange(len(rows)) - offsets[rows]
    prio = np.full(len(rows), len(priority_keys or []), dtype=np.int64)
    for i, k in enumerate(priority_keys or []):
        prio[keys == k] = i
    order = np.lexsort((pos, prio, rows))
    # rank within row in (prio, pos) order: position minus row start
    starts = np.concatenate([[0], np.cumsum(np.bincount(
        rows, minlength=n))])[:-1]
    rank = np.empty(len(rows), dtype=np.int64)
    rank[order] = np.arange(len(rows)) - starts[rows[order]]
    keep = rank < limit
    if mask is not None:
        keep |= ~mask[rows]
    return _rebuild(n, rows[keep], keys[keep], items[keep], nulls)


def map_set_key(arr, key: str, values: np.ndarray,
                mask: np.ndarray | None = None) -> pa.Array:
    """Upsert ``key`` = values[row] for masked rows (append-at-end order).
    A set on a null-map row CREATES the map (row becomes non-null); null
    rows outside the mask stay null."""
    offsets, keys, items, n, nulls = _map_parts(arr)
    if mask is None:
        mask = np.ones(n, dtype=bool)
    rows = np.repeat(np.arange(n), np.diff(offsets))
    keep = ~((keys == key) & mask[rows])
    k_rows, k_keys, k_items = rows[keep], keys[keep], items[keep]
    a_rows = np.flatnonzero(mask)
    new_rows = np.concatenate([k_rows, a_rows])
    new_keys = np.concatenate([k_keys, np.full(len(a_rows), key, object)])
    new_items = np.concatenate([k_items, values[a_rows].astype(object)])
    order = np.argsort(new_rows, kind="stable")  # kept entries sort first
    return _rebuild(n, new_rows[order], new_keys[order], new_items[order],
                    nulls & ~mask)


# --------------------------------------------------------------------------
# statement compiler
# --------------------------------------------------------------------------

def _value_fn(node) -> Callable[[pa.Table], "np.ndarray | object"]:
    """Compile a value expression → per-row numpy array (or a scalar)."""
    if isinstance(node, ast.Constant):
        return lambda b, v=node.value: v
    if isinstance(node, ast.Name):
        return lambda b, c=node.id: b[c].to_pandas().to_numpy()
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and isinstance(node.slice, ast.Constant)):
        col, key = node.value.id, node.slice.value
        return lambda b, c=col, k=key: map_get(b, c, k).to_numpy()
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "Substring":
            inner = _value_fn(node.args[0])
            start = ast.literal_eval(node.args[1])
            length = ast.literal_eval(node.args[2])

            def sub(b, inner=inner, start=start, length=length):
                v = inner(b)
                arr = v if isinstance(v, pa.Array) else pa.array(
                    v, type=pa.string())
                return pc.utf8_slice_codeunits(
                    arr, start, start + length).to_numpy(zero_copy_only=False)

            return sub
        if node.func.id == "ConvertCase":
            # upstream OTTL converter ConvertCase(target, "upper"|"lower")
            inner = _value_fn(node.args[0])
            mode = ast.literal_eval(node.args[1])
            kern = {"upper": pc.utf8_upper, "lower": pc.utf8_lower}[mode]

            def cc(b, inner=inner, kern=kern):
                v = inner(b)
                arr = v if isinstance(v, pa.Array) else pa.array(
                    v, type=pa.string())
                return kern(arr).to_numpy(zero_copy_only=False)

            return cc
        if node.func.id == "Len":
            # upstream OTTL converter Len(target) — unicode code points,
            # matching SQL length(); int64 so the oracle BIGINT twin aligns
            inner = _value_fn(node.args[0])

            def ln(b, inner=inner):
                v = inner(b)
                arr = v if isinstance(v, pa.Array) else pa.array(
                    v, type=pa.string())
                return pc.utf8_length(arr).cast(pa.int64()).to_numpy(
                    zero_copy_only=False)

            return ln
        if node.func.id == "Trim":
            # upstream OTTL converter Trim(target): strip leading/trailing
            # whitespace (pc.utf8_trim_whitespace — vectorized)
            inner = _value_fn(node.args[0])

            def tr(b, inner=inner):
                v = inner(b)
                arr = v if isinstance(v, pa.Array) else pa.array(
                    v, type=pa.string())
                return pc.utf8_trim_whitespace(arr).to_numpy(
                    zero_copy_only=False)

            return tr
        if node.func.id in ("Int", "Double"):
            # upstream OTTL type converters: string/number → int64 / float64.
            # Unparseable inputs become null (upstream returns nil);
            # Int("3.9") truncates toward zero like Go's int64 conversion.
            inner = _value_fn(node.args[0])
            is_int = node.func.id == "Int"

            def conv(b, inner=inner, is_int=is_int):
                v = inner(b)
                s = pd.Series(v.to_pandas() if isinstance(v, pa.Array) else v)
                num = pd.to_numeric(s, errors="coerce").to_numpy(np.float64)
                if not is_int:
                    return num  # NaN ≙ null for float64 columns
                tr = np.trunc(num)
                valid = ~np.isnan(tr)
                # object array of python ints + None → pa.array infers int64
                # with nulls, keeping the column type deterministic per batch
                obj = np.empty(len(tr), dtype=object)
                obj[valid] = tr[valid].astype(np.int64)
                return obj

            return conv
        if node.func.id == "SHA256":
            # upstream OTTL converter SHA256(target) → lowercase hex digest.
            # No vectorized sha kernel exists in Arrow; the per-row hash is
            # inherent (same as the attributes processor's hash action) and
            # runs only on this statement's column, not the whole stream.
            import hashlib

            inner = _value_fn(node.args[0])

            def sha(b, inner=inner):
                v = inner(b)
                s = pd.Series(
                    v.to_pandas() if isinstance(v, pa.Array) else v)
                return s.map(
                    lambda x: hashlib.sha256(str(x).encode()).hexdigest()
                    if x is not None else None).to_numpy(dtype=object)

            return sha
        if node.func.id == "Concat":
            if not isinstance(node.args[0], ast.List):
                raise ValueError("Concat([v…], sep) expected")
            parts = [_value_fn(e) for e in node.args[0].elts]
            sep = ast.literal_eval(node.args[1])

            def cat(b, parts=parts, sep=sep):
                arrs = []
                for p in parts:
                    v = p(b)
                    arrs.append(pa.array(
                        np.full(b.num_rows, v, dtype=object)
                        if np.isscalar(v) else v, type=pa.string()))
                return pc.binary_join_element_wise(
                    *arrs, sep).to_numpy(zero_copy_only=False)

            return cat
    raise ValueError(f"unsupported value expression {ast.dump(node)}")


def _set_column(batch: pa.Table, name: str, vals, mask) -> pa.Table:
    if name in batch.column_names:
        col = batch[name]
        typ = col.type
        cur = col.to_pandas().to_numpy()
    else:  # OTTL set creates absent fields; type inferred from the value
        typ = None
        cur = np.full(batch.num_rows, None, dtype=object)
    if np.isscalar(vals) or vals is None:
        vals = np.full(batch.num_rows, vals)
    out = np.where(mask, vals, cur) if mask is not None else vals
    if typ is not None:
        new = pa.array(out, type=typ)
    else:
        new = pa.array(out)
        if pa.types.is_null(new.type):  # all-None: default to string
            new = new.cast(pa.string())
    if name in batch.column_names:
        return batch.set_column(batch.column_names.index(name), name, new)
    return batch.append_column(name, new)


def _split_where(stmt: str) -> tuple[str, str | None]:
    """Split a statement on its `` where `` clause separator, ignoring any
    `` where `` that sits inside a string literal (ADVICE r2: a statement
    like ``set(body, "a where b")`` must not be mis-parsed). One linear scan
    tracking quote state with backslash escapes."""
    quote: str | None = None
    i, n = 0, len(stmt)
    while i < n:
        c = stmt[i]
        if quote is not None:
            if c == "\\":
                i += 2
                continue
            if c == quote:
                quote = None
        elif c in "\"'":
            quote = c
        elif c == " " and stmt.startswith(" where ", i):
            return stmt[:i], stmt[i + len(" where "):]
        i += 1
    return stmt, None


def compile_statement(stmt: str) -> BatchFn:
    """One OTTL statement string → batch transform function."""
    call_s, cond_s = _split_where(stmt)
    pred = compile_predicate(cond_s) if cond_s is not None else None
    node = ast.parse(call_s.strip(), mode="eval").body
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        raise ValueError(f"statement must be a call: {stmt!r}")
    fname = node.func.id

    if fname == "set":
        target, value = node.args
        vfn = _value_fn(value)
        if isinstance(target, ast.Name):
            tname = target.id

            def run(b, tname=tname, vfn=vfn, pred=pred):
                return _set_column(b, tname, vfn(b),
                                   pred(b) if pred else None)

            return run
        if (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and isinstance(target.slice, ast.Constant)):
            mcol, key = target.value.id, target.slice.value

            def run(b, mcol=mcol, key=key, vfn=vfn, pred=pred):
                v = vfn(b)
                vals = (np.full(b.num_rows, v, dtype=object)
                        if np.isscalar(v) else np.asarray(v, dtype=object))
                new = map_set_key(b[mcol], key, vals,
                                  pred(b) if pred else None)
                return b.set_column(b.column_names.index(mcol), mcol, new)

            return run
        raise ValueError(f"unsupported set target in {stmt!r}")

    if fname == "delete_key":
        mcol = node.args[0].id
        key = ast.literal_eval(node.args[1])

        def run(b, mcol=mcol, key=key, pred=pred):
            new = map_delete_key(b[mcol], key, pred(b) if pred else None)
            return b.set_column(b.column_names.index(mcol), mcol, new)

        return run

    if fname == "keep_keys":
        mcol = node.args[0].id
        wanted = ast.literal_eval(node.args[1])

        def run(b, mcol=mcol, wanted=wanted, pred=pred):
            new = map_keep_keys(b[mcol], wanted, pred(b) if pred else None)
            return b.set_column(b.column_names.index(mcol), mcol, new)

        return run

    if fname == "truncate_all":
        mcol = node.args[0].id
        limit = ast.literal_eval(node.args[1])

        def run(b, mcol=mcol, limit=limit, pred=pred):
            arr = b[mcol]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            new = map_truncate_all(arr, limit, pred(b) if pred else None)
            return b.set_column(b.column_names.index(mcol), mcol, new)

        return run

    if fname == "delete_matching_keys":
        mcol = node.args[0].id
        pattern = ast.literal_eval(node.args[1])

        def run(b, mcol=mcol, pattern=pattern, pred=pred):
            arr = b[mcol]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            new = map_delete_matching_keys(
                arr, pattern, pred(b) if pred else None)
            return b.set_column(b.column_names.index(mcol), mcol, new)

        return run

    if fname == "limit":
        mcol = node.args[0].id
        lim = ast.literal_eval(node.args[1])
        prio = ast.literal_eval(node.args[2]) if len(node.args) > 2 else []

        def run(b, mcol=mcol, lim=lim, prio=prio, pred=pred):
            arr = b[mcol]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            new = map_limit(arr, lim, prio, pred(b) if pred else None)
            return b.set_column(b.column_names.index(mcol), mcol, new)

        return run

    if fname == "replace_pattern":
        # upstream OTTL editor replace_pattern(target, regex, replacement):
        # regex-global-replace in place; a missing/null target is untouched
        target = node.args[0]
        pattern = ast.literal_eval(node.args[1])
        repl = ast.literal_eval(node.args[2])
        if isinstance(target, ast.Name):
            tname = target.id

            def run(b, tname=tname, pattern=pattern, repl=repl, pred=pred):
                col = b[tname]
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                new = pc.replace_substring_regex(col, pattern=pattern,
                                                 replacement=repl)
                if pred is not None:
                    new = pc.if_else(pa.array(pred(b)), new, col)
                return b.set_column(b.column_names.index(tname), tname, new)

            return run
        if (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and isinstance(target.slice, ast.Constant)):
            mcol, key = target.value.id, target.slice.value

            def run(b, mcol=mcol, key=key, pattern=pattern, repl=repl,
                    pred=pred):
                vals = map_get(b, mcol, key)
                present = vals.notna().to_numpy()
                mask = present if pred is None else present & pred(b)
                newv = vals.str.replace(pattern, repl, regex=True)
                new = map_set_key(
                    (b[mcol].combine_chunks()
                     if isinstance(b[mcol], pa.ChunkedArray) else b[mcol]),
                    key, newv.to_numpy(dtype=object), mask)
                return b.set_column(b.column_names.index(mcol), mcol, new)

            return run
        raise ValueError(f"unsupported replace_pattern target in {stmt!r}")

    raise ValueError(f"unknown statement function {fname!r}")


class OttlTransform:
    """map_batches stage: ordered OTTL statement list, compiled once on
    the driver; the pickled instance ships to every task."""

    def __init__(self, statements: list[str]) -> None:
        self.statements = list(statements)
        self.fns = [compile_statement(s) for s in statements]

    def __call__(self, batch: pa.Table) -> pa.Table:
        for fn in self.fns:
            batch = fn(batch)
        return batch
