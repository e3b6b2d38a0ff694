"""Pass family 2: AST lint of kernel-emitter (and ISA-context) source.

The trace cache keys on a *source fingerprint* of the emitters
(:func:`repro.core.sweeps.kernel_fingerprint`): two runs of unchanged
source are assumed to record the same trace. Anything nondeterministic
breaks that contract silently — the fingerprint stays fixed while the
recorded trace varies — so wall-clock reads (E001) and unseeded
randomness (E002) are errors in emitter code. The remaining rules keep
the hot paths columnar (E003) and the ISA usage legal: max-VL literals
must be powers of two within the machine envelope (E004), and CSR state
may only change through the :mod:`repro.isa.csr` API (E005/E006).

Suppression: append ``# repro-lint: disable=E001`` (comma-separated rule
ids, or ``disable=all``) to the flagged line.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.findings import Finding
from repro.lint.rules import finding
from repro.lint.suppress import SuppressionIndex
from repro.util.mathx import is_pow2

#: dotted call names that read the wall clock (E001).
_WALLCLOCK = {
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow",
}

#: dotted call names that are nondeterministic RNG draws (E002).
_UNSEEDED = {
    "random.random", "random.randint", "random.randrange",
    "random.choice", "random.shuffle", "random.sample", "random.uniform",
    "random.gauss", "np.random.rand", "np.random.randn",
    "np.random.randint", "np.random.random", "np.random.choice",
    "np.random.permutation", "np.random.shuffle", "np.random.uniform",
    "numpy.random.rand", "numpy.random.randn", "numpy.random.randint",
    "numpy.random.random", "numpy.random.choice",
    "numpy.random.permutation", "numpy.random.shuffle",
    "numpy.random.uniform", "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.randbelow",
}

#: RNG constructors that are fine *with* a seed argument, flagged bare.
_SEEDABLE = {"np.random.default_rng", "numpy.random.default_rng",
             "np.random.RandomState", "numpy.random.RandomState",
             "random.Random"}

#: call names/kwargs whose integer literal must be a legal max-VL (E004).
_VL_CALLEES = {"CsrFile", "write_max_vl", "with_max_vl"}
_VL_KWARGS = {"max_vl", "hw_max_vl"}
_VL_RANGE = (1, 256)

#: private CSR state only isa/csr.py may assign (E005).
_CSR_STATE = {"_vl", "_max_vl", "_hw_max_vl", "_sew", "_lmul"}

#: the CSR address map (E006: these literals belong to isa/csr.py).
_CSR_ADDRS = {0xC20, 0xC21, 0x7C0, 0xC00}

def _dotted(node: ast.expr) -> str:
    """Best-effort dotted name of a call target ('np.random.rand')."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


class _EmitterVisitor(ast.NodeVisitor):
    def __init__(self, path: str, lines: list[str], *,
                 in_isa_csr: bool, hot_path_rules: bool,
                 sup: SuppressionIndex | None = None) -> None:
        self.path = path
        self.lines = lines
        self.in_isa_csr = in_isa_csr
        self.hot_path_rules = hot_path_rules
        self.sup = sup if sup is not None else SuppressionIndex(path, lines)
        self.loop_depth = 0
        self.findings: list[Finding] = []

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        if self.sup.suppresses(node.lineno, rule):
            return
        self.findings.append(
            finding(rule, f"{self.path}:{node.lineno}", message))

    # ------------------------------------------------------------- loops

    def visit_For(self, node: ast.For) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    # ------------------------------------------------------------- calls

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        tail2 = ".".join(name.split(".")[-2:])
        if name in _WALLCLOCK or tail2 in _WALLCLOCK:
            self._report("E001", node,
                         f"wall-clock call {name}() in emitter code")
        elif name in _UNSEEDED or tail2 in _UNSEEDED:
            self._report("E002", node,
                         f"nondeterministic RNG call {name}()")
        elif (name in _SEEDABLE or tail2 in _SEEDABLE) and not node.args \
                and not node.keywords:
            self._report("E002", node,
                         f"{name}() constructed without a seed")

        leaf = name.split(".")[-1]
        if leaf in _VL_CALLEES:
            for arg in node.args:
                self._check_vl_literal(arg)
        for kw in node.keywords:
            if kw.arg in _VL_KWARGS:
                self._check_vl_literal(kw.value)

        if (self.hot_path_rules and self.loop_depth > 0
                and leaf == "append"
                and isinstance(node.func, ast.Attribute)):
            target = _dotted(node.func.value)
            if target == "trace" or target.endswith(".trace"):
                self._report(
                    "E003", node,
                    "trace.append(...) inside a loop; use the columnar "
                    "emit_* calls or a TraceTemplate")
        self.generic_visit(node)

    def _check_vl_literal(self, node: ast.expr) -> None:
        if not (isinstance(node, ast.Constant)
                and isinstance(node.value, int)
                and not isinstance(node.value, bool)):
            return
        v = node.value
        lo, hi = _VL_RANGE
        if not (lo <= v <= hi and is_pow2(v)):
            self._report(
                "E004", node,
                f"max-VL literal {v} is not a power of two in "
                f"[{lo}, {hi}] DP elements")

    # ------------------------------------------------------- assignments

    def _check_target(self, target: ast.expr) -> None:
        if self.in_isa_csr:
            return
        if isinstance(target, ast.Attribute) and target.attr in _CSR_STATE:
            self._report(
                "E005", target,
                f"assignment to CSR state '.{target.attr}' outside "
                "isa/csr.py")

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            self._check_target(t)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    # ---------------------------------------------------------- literals

    def visit_Constant(self, node: ast.Constant) -> None:
        if (not self.in_isa_csr and isinstance(node.value, int)
                and not isinstance(node.value, bool)
                and node.value in _CSR_ADDRS):
            # only hex spellings: decimal coincidences (3104 = 0xC20)
            # would be far too noisy on address arithmetic
            seg = ""
            if 1 <= node.lineno <= len(self.lines):
                line = self.lines[node.lineno - 1]
                seg = line[node.col_offset:getattr(node, "end_col_offset",
                                                   len(line))]
            if seg.lower().startswith("0x"):
                self._report(
                    "E006", node,
                    f"raw CSR address {seg} duplicated outside isa/csr.py")


def lint_source(path: str | Path, text: str | None = None, *,
                hot_path_rules: bool | None = None) -> list[Finding]:
    """Lint one Python source file; returns its findings.

    ``hot_path_rules`` controls E003 (object-path emission in loops); by
    default it applies to kernel emitters only.
    """
    p = Path(path)
    if text is None:
        text = p.read_text(encoding="utf-8")
    posix = p.as_posix()
    if hot_path_rules is None:
        hot_path_rules = "/kernels/" in posix
    try:
        tree = ast.parse(text, filename=str(p))
    except SyntaxError as exc:
        return [finding("E000", f"{posix}:{exc.lineno or 0}",
                        f"unparseable source: {exc.msg}")]
    visitor = _EmitterVisitor(
        posix, text.splitlines(),
        in_isa_csr=posix.endswith("isa/csr.py"),
        hot_path_rules=hot_path_rules,
    )
    visitor.visit(tree)
    # unknown-rule / never-fired suppressions rot visibly (W001/W002)
    visitor.findings.extend(visitor.sup.audit())
    return visitor.findings


def default_emitter_paths(root: str | Path | None = None) -> list[Path]:
    """The sources the emitter pass covers: kernels + ISA contexts."""
    if root is None:
        root = Path(__file__).resolve().parents[1]  # src/repro
    root = Path(root)
    paths = sorted((root / "kernels").rglob("*.py"))
    paths += sorted((root / "isa").glob("*.py"))
    return paths


def lint_paths(paths=None) -> list[Finding]:
    """Run the emitter pass over ``paths`` (default: kernels + isa)."""
    out: list[Finding] = []
    for p in (default_emitter_paths() if paths is None else paths):
        out.extend(lint_source(p))
    return out
