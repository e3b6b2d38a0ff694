"""The concurrency pass (P1xx) and the suppression audit.

Each rule gets a minimal positive and negative source fragment, and the
real ``src/repro`` tree pins at zero findings.
"""

import textwrap

from repro.lint.concurrency_rules import (
    default_concurrency_paths,
    lint_concurrency,
)


def _lint(tmp_path, src, name="mod.py"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(src))
    return lint_concurrency([p])


def _rules(findings):
    return sorted(f.rule for f in findings)


class TestP105NestedFanout:
    def test_worker_calling_run_tasks_flagged(self, tmp_path):
        fs = _lint(tmp_path, """
            def _leaf(t):
                return t

            def _nested(t):
                return run_tasks(_leaf, [t])

            def main(tasks):
                return run_tasks(_nested, tasks, jobs=2)
        """)
        assert _rules(fs) == ["P105"]

    def test_transitive_helper_flagged(self, tmp_path):
        fs = _lint(tmp_path, """
            def _leaf(t):
                return t

            def _helper(t):
                return run_tasks(_leaf, [t])

            def _worker(t):
                return _helper(t)

            def main(tasks):
                return run_tasks(_worker, tasks, jobs=2)
        """)
        assert _rules(fs) == ["P105"]

    def test_raw_submit_outside_parallel_flagged(self, tmp_path):
        fs = _lint(tmp_path, """
            def f(pool, fn):
                return pool.submit(fn, 1)
        """)
        assert _rules(fs) == ["P105"]
        assert "core/parallel.py" in fs[0].message


class TestP106UnscopedSpans:
    def test_bare_span_flagged(self, tmp_path):
        fs = _lint(tmp_path, """
            def f(tracer):
                tracer.span("phase")
        """)
        assert _rules(fs) == ["P106"]

    def test_with_span_clean(self, tmp_path):
        fs = _lint(tmp_path, """
            def f(tracer, runlog):
                with tracer.span("phase"):
                    with runlog.context("phase"):
                        pass
        """)
        assert fs == []

    def test_bare_runlog_context_flagged(self, tmp_path):
        fs = _lint(tmp_path, """
            def f(runlog):
                runlog.context("phase")
        """)
        assert _rules(fs) == ["P106"]


class TestSuppressionAudit:
    def test_used_suppression_silences_and_stays_quiet(self, tmp_path):
        fs = _lint(tmp_path, """
            def f(pool, fn):
                return pool.submit(fn, 1)  # repro-lint: disable=P105
        """)
        assert fs == []

    def test_unknown_rule_is_w001(self, tmp_path):
        fs = _lint(tmp_path, """
            def f(tracer):
                tracer.span("phase")  # repro-lint: disable=P999,P106
        """)
        assert _rules(fs) == ["W001"]

    def test_stale_suppression_is_w002(self, tmp_path):
        fs = _lint(tmp_path, """
            def f(tracer):
                with tracer.span("phase"):  # repro-lint: disable=P106
                    pass
        """)
        assert _rules(fs) == ["W002"]

    def test_disable_all(self, tmp_path):
        fs = _lint(tmp_path, """
            def f(pool, fn):
                return pool.submit(fn, 1)  # repro-lint: disable=all
        """)
        assert fs == []


class TestDefaultPaths:
    def test_core_modules_always_covered(self):
        paths = [p.as_posix() for p in default_concurrency_paths()]
        assert any(p.endswith("core/parallel.py") for p in paths)
        assert any(p.endswith("core/sweeps.py") for p in paths)

    def test_consumers_found_by_token_scan(self):
        paths = [p.as_posix() for p in default_concurrency_paths()]
        assert any(p.endswith("obs/profile.py") for p in paths)

    def test_lint_package_excluded(self):
        # the rule tables quote the very tokens the scan looks for
        assert not any("/lint/" in p.as_posix()
                       for p in default_concurrency_paths())

    def test_unparseable_source_is_p100(self, tmp_path):
        fs = _lint(tmp_path, "def broken(:\n")
        assert _rules(fs) == ["P100"]


class TestCleanTree:
    def test_static_pass_pins_at_zero(self):
        report = lint_concurrency()
        assert report == [], "\n".join(f.render() for f in report)
