"""The rule catalog: one entry per diagnosable problem.

Rule ids are stable and grouped by pass family:

* ``T0xx`` — template hazard analysis (dep coverage of address overlaps);
* ``T1xx`` — columnar invariants of sealed :class:`TraceBuffer` contents;
* ``E0xx`` — AST lint of kernel-emitter source;
* ``C0xx`` — sweep/config grid legality;
* ``S0xx`` — trace-cache staleness;
* ``O0xx`` — exported-artifact validation (``repro.obs.check``);
* ``P1xx`` — static concurrency analysis of the process-pool and span
  consumers;
* ``W0xx`` — lint hygiene (the suppression audit).

``docs/static-analysis.md`` is the prose catalog; this module is the
machine-readable one (``repro-sdv lint --list-rules`` prints it). Each
rule carries its *default* severity — passes may not raise it, and the
``--ignore`` flag (or, for ``E``-family source rules, an inline
``# repro-lint: disable=RULE`` comment) suppresses it entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lint.findings import Finding, Severity


@dataclass(frozen=True)
class Rule:
    """Catalog entry: stable id, default severity, and what it means."""

    id: str
    severity: Severity
    title: str
    description: str = ""
    hint: str = ""

    def finding(self, location: str, message: str,
                hint: str | None = None,
                severity: Severity | None = None) -> Finding:
        """Build a finding for this rule (catalog defaults filled in)."""
        return Finding(
            rule=self.id,
            severity=self.severity if severity is None else severity,
            location=location,
            message=message,
            hint=self.hint if hint is None else hint,
        )


_E, _W, _I = Severity.ERROR, Severity.WARNING, Severity.INFO

_ALL_RULES = (
    # ---- template hazard analysis (T0xx) --------------------------------
    Rule("T001", _E, "undeclared RAW hazard",
         "a template store's addresses overlap a later load with no Dep "
         "path or barrier ordering the pair",
         "declare Dep.local/Dep.prev on the reader, or separate the "
         "records with a barrier"),
    Rule("T002", _E, "undeclared WAR hazard",
         "a template store overwrites addresses an earlier load reads, "
         "with no Dep path or barrier ordering the pair",
         "order the store after the load with a Dep, or add a barrier"),
    Rule("T003", _E, "undeclared WAW hazard",
         "two template stores touch the same addresses with no Dep path "
         "or barrier ordering the pair",
         "chain the stores with a Dep, or add a barrier"),
    Rule("T004", _E, "invalid dep declaration",
         "a Dep references a slot that cannot order anything: itself, a "
         "later slot of the same iteration, a barrier, or an "
         "out-of-range index",
         "point the Dep at an earlier value-producing record"),
    Rule("T005", _W, "dead dep declaration",
         "a Dep targets a store whose addresses never overlap the "
         "depending record across any replicated iteration — the edge "
         "serializes the pipeline for no reason",
         "drop the Dep, or fix the address stream it was meant to cover"),
    Rule("T006", _W, "unordered vector/scalar aliasing",
         "a vector store and a scalar access touch the same addresses "
         "with no barrier between them — the decoupled VPU gives no "
         "ordering across the two pipelines",
         "separate the accesses with a barrier record"),
    # ---- columnar trace invariants (T1xx) -------------------------------
    Rule("T101", _E, "address-arena offsets not monotone",
         "addr_off must be a nondecreasing prefix-sum starting at 0",
         "rebuild the trace; a custom extend_columns batch is corrupt"),
    Rule("T102", _E, "address-arena bounds mismatch",
         "addr_off's final entry must equal the arena length, and the "
         "writes arena must align with it",
         "rebuild the trace; arena and offsets disagree"),
    Rule("T103", _E, "column schema violation",
         "a trace column has the wrong dtype, shape, or the string "
         "table does not start with the empty string (v2 schema)",
         "emit through TraceBuffer, do not hand-build columns"),
    Rule("T104", _E, "invalid enum encoding",
         "kind/opclass/pattern holds a value outside its encoding, or a "
         "MEM record lacks a pattern / a non-MEM record carries one",
         "use the REC_*/OPCLASS_ID/PATTERN_ID encodings"),
    Rule("T105", _E, "active elements do not fit",
         "a vector record's active (unmasked) element count is negative "
         "or exceeds its vector length, or a MEM record does not own "
         "exactly one address per active element",
         "0 <= active <= vl (active equals vl when unmasked), and a MEM "
         "record's addresses are its active elements'"),
    Rule("T106", _E, "non-neutral barrier row",
         "a barrier row must hold the neutral column values (vl 0, no "
         "addresses, no dep)",
         "emit barriers via emit_barrier/Barrier only"),
    Rule("T107", _E, "forward or self dependency",
         "dep must reference an earlier record (or -1)",
         "records can only depend on already-emitted records"),
    Rule("T108", _E, "vector length out of ISA range",
         "a record's vl exceeds what any legal vsetvl could grant "
         "(max_vl * 8 at the smallest SEW, LMUL 8)",
         "check the emitter's vsetvl arithmetic"),
    Rule("T109", _E, "scalar block counts out of range",
         "a scalar block has a negative ALU-op count or an mlp below 1 "
         "(the timing model overlaps up to mlp of its misses)",
         "n_alu >= 0 and mlp >= 1 (MLP_UNBOUNDED when the misses are "
         "independent)"),
    # ---- emitter AST lint (E0xx) ----------------------------------------
    Rule("E000", _E, "unparseable emitter source",
         "the file cannot be parsed as Python, so no emitter rule can "
         "be checked", ""),
    Rule("E001", _E, "wall-clock call in emitter",
         "emitters must be deterministic: wall-clock reads make the "
         "recorded trace differ run-to-run while the kernel-source "
         "cache fingerprint stays the same",
         "derive everything from the workload and the seed"),
    Rule("E002", _E, "unseeded randomness in emitter",
         "unseeded RNGs poison the trace-cache fingerprint: the source "
         "hash stays fixed while the recorded trace varies",
         "thread a seeded numpy Generator through the workload"),
    Rule("E003", _W, "object-path emission in a hot loop",
         "trace.append(...) inside a loop pays a validated dataclass "
         "round-trip per record",
         "use emit_vector/emit_scalar_block/emit_barrier or a "
         "TraceTemplate"),
    Rule("E004", _E, "illegal VL literal",
         "max-VL values must be powers of two in [1, 256] DP elements "
         "(the paper's FPGA-SDV envelope is {8..256})",
         "pick a power of two within the machine envelope"),
    Rule("E005", _E, "CSR state written outside isa/csr.py",
         "CSR state may only change through the CsrFile API so the "
         "custom max-VL CSR semantics stay in one place",
         "call vsetvl()/write_max_vl()/write() instead"),
    Rule("E006", _W, "CSR address literal outside isa/csr.py",
         "raw CSR addresses duplicated outside isa/csr.py drift when "
         "the CSR map changes",
         "import CSR_VL/CSR_VTYPE/CSR_MAXVL/CSR_CYCLE from "
         "repro.isa.csr"),
    # ---- sweep/config legality (C0xx) -----------------------------------
    Rule("C001", _E, "illegal latency point",
         "Latency Controller points must be non-negative integers",
         "the paper sweeps 0..1024 extra cycles"),
    Rule("C002", _E, "illegal bandwidth point",
         "Bandwidth Limiter points must be positive divisors of the "
         "64 B line (num/den windows admit 64/den B per cycle)",
         "use a power of two in 1..64 B/cycle"),
    Rule("C003", _E, "illegal VL grid entry",
         "VLs must be powers of two >= 1 (the machine CSR rejects "
         "anything else)",
         "the paper evaluates {8, 16, 32, 64, 128, 256}"),
    Rule("C004", _E, "invalid bandwidth fraction",
         "the limiter window needs num >= 1, den >= 1 and num <= den "
         "(peak is 1 line/cycle = 64 B/cycle)", ""),
    Rule("C005", _E, "invalid SoC configuration",
         "SdvConfig.validate() rejected the hardware build", ""),
    Rule("C006", _W, "untidy sweep axis",
         "duplicate or unsorted points make figure output misleading",
         "sort the axis ascending and deduplicate"),
    Rule("C007", _W, "point outside the paper envelope",
         "the value is legal but beyond what the paper's study covers "
         "(latency <= 1024, bandwidth <= 64 B/cycle, VL <= 256)",
         "results there are extrapolation, not reproduction"),
    Rule("C008", _E, "empty sweep grid",
         "a sweep needs at least one point and one VL", ""),
    # ---- trace-cache staleness (S0xx) -----------------------------------
    Rule("S001", _E, "stale trace-cache schema",
         "a cache entry was written by a different on-disk trace "
         "format version and will never be loaded",
         "delete the entry (or the whole cache directory)"),
    Rule("S002", _E, "stale trace-cache fingerprint",
         "a cache entry's source fingerprint no longer matches the code "
         "that records or classifies the trace — the entry is from "
         "edited code",
         "delete the entry; it is dead weight and a confusion hazard"),
    Rule("S003", _W, "unrecognized trace-cache entry",
         "a file in the cache directory does not match the cache "
         "naming scheme",
         "only trace_cache_path-named .npz files belong there"),
    Rule("S005", _E, "unreadable trace-cache entry",
         "a current cache entry cannot be read back (a truncated or "
         "corrupt zip, a missing or misfit trace or classification "
         "member); every cached run regenerates it",
         "delete the entry, or let the next cached run overwrite it"),
    # ---- exported artifacts (O0xx) --------------------------------------
    Rule("O001", _E, "unrecognized artifact",
         "the file is neither a run manifest nor a trace_event dump",
         "emit artifacts via --emit-json/--emit-trace"),
    Rule("O002", _E, "manifest schema violation",
         "the run manifest fails repro.manifest/1 validation (missing "
         "keys, bad types, or buckets not summing to cycles)", ""),
    Rule("O003", _E, "trace-event schema violation",
         "the trace_event dump fails structural validation", ""),
    Rule("O004", _E, "unreadable artifact",
         "the file cannot be read or parsed as JSON", ""),
    Rule("O005", _E, "run-log schema violation",
         "the JSONL run log fails repro.runlog/2 validation (bad header, "
         "record-count mismatch, unknown record kind, trace-id drift, or "
         "out-of-order records)",
         "emit run logs via --emit-runlog"),
    Rule("O006", _E, "perf-ledger schema violation",
         "a ledger record fails repro.ledger/1 validation (missing keys, "
         "bad types, or an unsupported schema tag)",
         "append records via repro.obs.ledger.append_record"),
    Rule("O007", _E, "dashboard contract violation",
         "the HTML dashboard is missing its repro.dash/1 marker, is "
         "truncated, or references external resources (must be "
         "self-contained)",
         "regenerate it with repro-sdv dash"),
    # ---- static concurrency analysis (P1xx) -----------------------------
    Rule("P100", _E, "unparseable source in concurrency pass",
         "the file cannot be parsed as Python, so no concurrency rule "
         "can be checked", ""),
    Rule("P105", _E, "pool submission from a worker context",
         "a function that runs as a pool task itself calls run_tasks "
         "or submits to an executor — nested pools deadlock the "
         "persistent-pool model (and .submit outside core/parallel.py "
         "bypasses its rebuild/fallback protocol)",
         "fan out only from the sweep parent via run_tasks"),
    Rule("P106", _W, "recorder span not used as a context manager",
         "a recorder span() call is not the context expression of a with "
         "statement, so its end record is never written and every later "
         "span nests under a dangling one",
         "wrap the call in a with statement"),
    # ---- lint hygiene (W0xx) --------------------------------------------
    Rule("W001", _W, "suppression names unknown rule",
         "a # repro-lint: disable= comment lists a rule id that is not "
         "in the catalog, so it suppresses nothing",
         "fix the typo or drop the id"),
    Rule("W002", _W, "stale suppression",
         "a # repro-lint: disable= comment suppressed nothing this "
         "run — the finding it once silenced is gone",
         "delete the comment (or re-check the rule id)"),
)

#: rule id -> catalog entry, in catalog order.
RULES: dict[str, Rule] = {r.id: r for r in _ALL_RULES}


def get_rule(rule_id: str) -> Rule:
    try:
        return RULES[rule_id]
    except KeyError:
        raise KeyError(f"unknown lint rule '{rule_id}'") from None


def finding(rule_id: str, location: str, message: str,
            hint: str | None = None,
            severity: Severity | None = None) -> Finding:
    """Shorthand: build a finding from a catalog rule id."""
    return get_rule(rule_id).finding(location, message, hint=hint,
                                     severity=severity)


def render_catalog() -> str:
    """The ``--list-rules`` table."""
    lines = [f"{r.id}  {r.severity.name:<7} {r.title}" for r in _ALL_RULES]
    return "\n".join(lines)
