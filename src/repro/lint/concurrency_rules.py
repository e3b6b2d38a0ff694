"""Pass family: static concurrency analysis of the pool and span users.

The sweep harness fans work out through one persistent process pool
(:func:`repro.core.parallel.run_tasks`). Three shapes break it silently:

* a pool task that itself fans out deadlocks the persistent pool, and an
  executor ``submit`` outside ``core/parallel.py`` bypasses its
  broken-pool rebuild and serial fallback (P105);
* a recorder span that is not a ``with`` statement never closes, so
  every later span nests under it (P106);
* a file that cannot be parsed hides both (P100).

This pass walks the AST of :func:`default_concurrency_paths` — the pool
implementation, the sweep harness, plus every file in ``src/repro``
that touches the pool or span API — and checks those shapes
*syntactically*: no path-sensitive dataflow, but precise enough that the
clean tree pins at zero findings (see ``tests/lint/``).

Suppressions reuse ``# repro-lint: disable=P105`` comments on the
flagged line; stale or unknown suppressions surface as W001/W002 via
:mod:`repro.lint.suppress`.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.findings import Finding
from repro.lint.rules import finding
from repro.lint.suppress import SuppressionIndex

#: source tokens that mark a file for the pass: the pool API (P105) and
#: the recorder's span API (P106).
_TOKENS = ("run_tasks", ".submit(", ".span(")

#: transitive-closure depth when resolving a pool worker's helpers.
_CLOSURE_DEPTH = 5


def _dotted(node: ast.expr) -> str:
    """Best-effort dotted name of a call target ('rec.span')."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _leaf_recv(call: ast.Call) -> tuple[str, str]:
    """(method leaf, dotted receiver) of a call; receiver '' for bare
    names and non-name bases (``get_recorder().span`` -> '')."""
    name = _dotted(call.func)
    if "." in name:
        recv, leaf = name.rsplit(".", 1)
    else:
        recv, leaf = "", name
    if not isinstance(call.func, ast.Attribute):
        recv = ""
    return leaf, recv


def _scan_spans(path: str, tree: ast.AST, sup: SuppressionIndex,
                out: list[Finding]) -> None:
    """P106: recorder spans (``rec.span``, ``get_recorder().span``)
    must be ``with`` items."""
    as_items: set[int] = set()
    for n in ast.walk(tree):
        if isinstance(n, (ast.With, ast.AsyncWith)):
            for item in n.items:
                as_items.add(id(item.context_expr))
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call) or id(n) in as_items:
            continue
        leaf, recv = _leaf_recv(n)
        if leaf != "span":
            continue
        if isinstance(n.func, ast.Attribute) and \
                isinstance(n.func.value, ast.Call):
            recv = _dotted(n.func.value.func) + "()"
        if "rec" in recv.lower() and not sup.suppresses(n.lineno, "P106"):
            out.append(finding(
                "P106", f"{path}:{n.lineno}",
                f"{recv}.span(...) is not the context expression of a "
                "with statement — the span never closes"))


def _closure(name: str, index: dict[str, tuple[str, ast.FunctionDef]],
             seen: set[str], depth: int = 0) -> None:
    """Transitively resolve a worker function's same-set helpers."""
    if name in seen or depth > _CLOSURE_DEPTH or name not in index:
        return
    seen.add(name)
    _, fn = index[name]
    for n in ast.walk(fn):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name):
            _closure(n.func.id, index, seen, depth + 1)


def _run_tasks_calls(tree: ast.AST) -> list[ast.Call]:
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            leaf, _ = _leaf_recv(n)
            if leaf == "run_tasks":
                out.append(n)
    return out


def default_concurrency_paths(
        root: str | Path | None = None) -> list[Path]:
    """The sources this pass covers: the pool implementation and the
    sweep harness plus every ``src/repro`` module whose text touches the
    pool or span API (the lint package itself is excluded — rule tables
    quote the tokens)."""
    if root is None:
        root = Path(__file__).resolve().parents[1]  # src/repro
    root = Path(root)
    paths = [root / "core" / "parallel.py", root / "core" / "sweeps.py"]
    paths = [p for p in paths if p.exists()]
    have = set(paths)
    for p in sorted(root.rglob("*.py")):
        if p in have or (root / "lint") in p.parents:
            continue
        try:
            text = p.read_text(encoding="utf-8")
        except OSError:
            continue
        if any(tok in text for tok in _TOKENS):
            paths.append(p)
    return paths


def lint_concurrency(paths: list[Path] | None = None) -> list[Finding]:
    """Run the pass over ``paths`` (default:
    :func:`default_concurrency_paths`)."""
    out: list[Finding] = []
    parsed: list[tuple[str, ast.Module, SuppressionIndex]] = []
    #: module-level function index across the analyzed set, for
    #: resolving pool worker functions and their helpers
    index: dict[str, tuple[str, ast.FunctionDef]] = {}

    for p in (default_concurrency_paths() if paths is None else paths):
        p = Path(p)
        posix = p.as_posix()
        try:
            text = p.read_text(encoding="utf-8")
        except OSError as exc:
            out.append(finding("P100", posix, f"unreadable: {exc}"))
            continue
        try:
            tree = ast.parse(text, filename=str(p))
        except SyntaxError as exc:
            out.append(finding("P100", f"{posix}:{exc.lineno or 0}",
                               f"unparseable source: {exc.msg}"))
            continue
        sup = SuppressionIndex(posix, text.splitlines())
        parsed.append((posix, tree, sup))
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                index.setdefault(stmt.name, (posix, stmt))

    #: every function that runs inside a pool worker (first args of
    #: run_tasks calls, plus their same-set transitive helpers)
    worker_fns: set[str] = set()
    for posix, tree, sup in parsed:
        for call in _run_tasks_calls(tree):
            if call.args and isinstance(call.args[0], ast.Name):
                _closure(call.args[0].id, index, worker_fns)

    for posix, tree, sup in parsed:
        _scan_spans(posix, tree, sup, out)

        # ---- P105: no fan-out from worker context, no raw submits
        for name, (fpath, fn) in index.items():
            if fpath != posix or name not in worker_fns:
                continue
            for n in ast.walk(fn):
                if not isinstance(n, ast.Call):
                    continue
                leaf, recv = _leaf_recv(n)
                if leaf == "run_tasks" and \
                        not sup.suppresses(n.lineno, "P105"):
                    out.append(finding(
                        "P105", f"{posix}:{n.lineno}",
                        f"pool task '{name}' calls run_tasks — nested "
                        "fan-out deadlocks the persistent pool"))
        if not posix.endswith("core/parallel.py"):
            for n in ast.walk(tree):
                if isinstance(n, ast.Call):
                    leaf, recv = _leaf_recv(n)
                    if leaf == "submit" and recv and \
                            not sup.suppresses(n.lineno, "P105"):
                        out.append(finding(
                            "P105", f"{posix}:{n.lineno}",
                            f"{recv}.submit(...) bypasses run_tasks — "
                            "executor submission belongs to "
                            "core/parallel.py"))

        out.extend(sup.audit())
    return out
