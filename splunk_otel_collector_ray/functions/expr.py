"""Safe vectorized predicate expressions — the OTTL/expr hook surface.

The reference wires user predicates as expression strings in config: routing
connector conditions (gateway_config.yaml:163-170), stanza router exprs
(``body matches "^\\d+"``, logs_config_linux.yaml:342-346), discovery
``expr`` matches (discoveryreceiver/evaluator.go:79-96). This module gives
our config surface the same power with a SAFE evaluator: the expression is
parsed with ``ast`` and compiled to a vectorized mask builder over batch
columns — no eval(), only a whitelisted node set.

Grammar (python syntax):
    col == "lit"      col != "lit"      col >= 17      col < 3
    matches(col, "^regex$")             col in ("a", "b")
    cond and cond     cond or cond      not cond

Example (the FIXTURES §4 routing table, as config):
    routes = [("sink_tools", "role == 'tool' and tool != ''"),
              ("sink_errors", "severity_number >= 17"),
              ("sink_assistant", "role == 'assistant'")]
"""

from __future__ import annotations

import ast
from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

MaskFn = Callable[[pa.Table], np.ndarray]

_CMP = {
    ast.Eq: lambda c, v: c == v,
    ast.NotEq: lambda c, v: c != v,
    ast.Gt: lambda c, v: c > v,
    ast.GtE: lambda c, v: c >= v,
    ast.Lt: lambda c, v: c < v,
    ast.LtE: lambda c, v: c <= v,
}


def _col(batch: pa.Table, name: str) -> pa.ChunkedArray:
    if name not in batch.column_names:
        raise KeyError(f"unknown column {name!r} in expression")
    return batch[name]


def _map_lookup(batch: pa.Table, col: str, key: str) -> pa.Array:
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return pc.map_lookup(arr, pa.scalar(key), "last")


def map_get(batch: pa.Table, col: str, key: str) -> pd.Series:
    """Vectorized ``attributes["key"]`` lookup on a map<string,string> column
    (Arrow map_lookup kernel; null where the key is absent)."""
    return _map_lookup(batch, col, key).to_pandas()


def _arrow_operand(node) -> "Callable[[pa.Table], pa.Array]":
    """Compile a readable operand to its Arrow values: a column name, or
    attributes["key"]."""
    if isinstance(node, ast.Name):
        return lambda b, c=node.id: _col(b, c)
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and isinstance(node.slice, ast.Constant)):
        col, key = node.value.id, node.slice.value
        return lambda b, c=col, k=key: _map_lookup(b, c, k)
    raise ValueError(
        "left side must be a column name or attributes[\"key\"]")


def _operand(node) -> "Callable[[pa.Table], pd.Series]":
    """:func:`_arrow_operand` as a pandas Series."""
    get = _arrow_operand(node)
    return lambda b: get(b).to_pandas()


def compile_arrow_filter(expr: str):
    """Compile a (sub)set of the predicate grammar to a pyarrow dataset
    Expression for parquet READ pushdown (row-group pruning — the
    'prune at the read' rule): comparisons against literals, ``in``,
    and/or/not over plain column names. Raises ValueError on anything the
    scan layer can't evaluate (matches()/map lookups stay engine-side)."""
    import pyarrow.dataset as pds

    tree = ast.parse(expr, mode="eval").body

    def build(node):
        if isinstance(node, ast.BoolOp):
            parts = [build(v) for v in node.values]
            out = parts[0]
            for p in parts[1:]:
                out = (out & p) if isinstance(node.op, ast.And) else (out | p)
            return out
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return ~build(node.operand)
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1 or not isinstance(node.left, ast.Name):
                raise ValueError("pushdown filters support only "
                                 "`column <op> literal` comparisons")
            f = pds.field(node.left.id)
            op = node.ops[0]
            if isinstance(op, ast.In):
                vals = [ast.literal_eval(e) for e in node.comparators[0].elts]
                return f.isin(vals)
            lit = ast.literal_eval(node.comparators[0])
            return {
                ast.Eq: lambda: f == lit, ast.NotEq: lambda: f != lit,
                ast.Gt: lambda: f > lit, ast.GtE: lambda: f >= lit,
                ast.Lt: lambda: f < lit, ast.LtE: lambda: f <= lit,
            }[type(op)]()
        raise ValueError(
            f"unsupported pushdown expression node {type(node).__name__}")

    return build(tree)


def compile_predicate(expr: str) -> MaskFn:
    """Compile an expression string to a vectorized batch→bool-mask fn."""
    tree = ast.parse(expr, mode="eval").body

    def build(node) -> MaskFn:
        if isinstance(node, ast.BoolOp):
            parts = [build(v) for v in node.values]
            op = np.logical_and if isinstance(node.op, ast.And) else np.logical_or
            def f(b, parts=parts, op=op):
                m = parts[0](b)
                for p in parts[1:]:
                    m = op(m, p(b))
                return m
            return f
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            inner = build(node.operand)
            return lambda b, inner=inner: ~inner(b)
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise ValueError("chained comparisons not supported")
            get = _operand(node.left)
            op = node.ops[0]
            if isinstance(op, ast.In):
                if not isinstance(node.comparators[0], (ast.Tuple, ast.List)):
                    raise ValueError("'in' needs a literal tuple/list")
                vals = [ast.literal_eval(e) for e in node.comparators[0].elts]
                return lambda b, g=get, v=vals: g(b).isin(v).to_numpy()
            lit = ast.literal_eval(node.comparators[0])
            fn = _CMP.get(type(op))
            if fn is None:
                raise ValueError(f"unsupported operator {type(op).__name__}")
            return lambda b, g=get, v=lit, fn=fn: np.asarray(
                fn(g(b), v)) & g(b).notna().to_numpy()
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("matches", "IsMatch")):
            # IsMatch = upstream OTTL's condition-function name; same
            # kernel. RE2 — the syntax of Go's regexp (upstream OTTL) and
            # of DuckDB (the oracle): `\d` is ASCII-only; a null is False
            if len(node.args) != 2:
                raise ValueError("matches(col, 'regex') expected")
            get = _arrow_operand(node.args[0])
            rx = ast.literal_eval(node.args[1])
            try:  # reject what RE2 cannot compile, at compile time
                pc.match_substring_regex(pa.array([""]), rx)
            except pa.ArrowInvalid as ex:
                raise ValueError(f"matches(): {ex}") from None
            return lambda b, g=get, rx=rx: pc.fill_null(
                pc.match_substring_regex(g(b), rx), False).to_numpy(
                zero_copy_only=False)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("startsWith", "endsWith", "contains")):
            # the stanza EXPR string helpers (recombine is_last_entry uses
            # `endsWith`, examples/recombine/otel-collector-config.yml:18)
            if len(node.args) != 2:
                raise ValueError(f"{node.func.id}(col, 'literal') expected")
            get = _operand(node.args[0])
            lit = ast.literal_eval(node.args[1])
            kernel = {"startsWith": "startswith", "endsWith": "endswith",
                      "contains": "contains"}[node.func.id]

            def f(b, g=get, lit=lit, kernel=kernel):
                s = g(b).str
                if kernel == "contains":
                    return s.contains(lit, regex=False,
                                      na=False).to_numpy()
                # na=False (not fillna) keeps the mask bool-dtyped — an
                # object-dtype mask breaks `not ...` via numpy ~ on ints
                return getattr(s, kernel)(lit, na=False).to_numpy()

            return f
        raise ValueError(
            f"unsupported expression node {type(node).__name__} "
            "(allowed: comparisons, in, matches()/IsMatch(), "
            "startsWith/endsWith/contains, and/or/not)")

    return build(tree)
