"""CL012: no ambient execution state in library code.

PR 9 threaded an explicit ExecPolicy through every parallel loop: a policy
names where a loop runs (serial, or a pool its caller owns) and owns the
workspace arena its workers bind, which is what lets two SuiteRunners on
disjoint pools execute concurrently and still emit byte-identical rows.
There is no process-wide pool; the ambient spellings --
ThreadPool::global(), a free parallel_for, RunWorkspace::current() -- would
reach execution state through process globals instead, silently re-coupling
concurrent suites and bypassing policy-owned scratch.  The rule keeps all
three from coming back: library code takes an ExecPolicy (usually via
ProtocolEnv) and uses policy.par_for / policy.workspace(); the per-thread
workspace fallback survives only in the files that define it.
"""

from __future__ import annotations

from typing import List

from engine import Diagnostic, LintContext, Rule, SourceFile, make_diag


def _check_ambient_execution(sf: SourceFile,
                             ctx: LintContext) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    toks = sf.tokens
    for i, tok in enumerate(toks):
        if not tok.is_ident:
            continue
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        prv = toks[i - 1].text if i > 0 else ""
        qual = toks[i - 2].text if i >= 2 and prv == "::" else ""
        if tok.text == "global" and qual == "ThreadPool" and nxt == "(":
            out.append(make_diag(
                RULE_AMBIENT_EXECUTION, sf, tok.line, tok.col,
                "ThreadPool::global() in library code; there is no "
                "process-wide pool -- take an ExecPolicy (ExecPolicy::serial() "
                "or ExecPolicy::pool(...) over a pool the caller owns) so "
                "callers control where loops run"))
        elif tok.text == "parallel_for" and nxt == "(" \
                and prv not in (".", "->", "::"):
            out.append(make_diag(
                RULE_AMBIENT_EXECUTION, sf, tok.line, tok.col,
                "free parallel_for() does not exist -- there is no process "
                "pool to run it on; loops go through policy.par_for(...) (or "
                "env.par_for inside protocols) so they stay on their suite's "
                "policy"))
        elif tok.text == "current" and qual == "RunWorkspace" and nxt == "(":
            out.append(make_diag(
                RULE_AMBIENT_EXECUTION, sf, tok.line, tok.col,
                "RunWorkspace::current() bypasses the policy-owned arena; "
                "use policy.workspace() (or env.workspace()) so concurrent "
                "suites never alias scratch buffers"))
    return out


RULE_AMBIENT_EXECUTION = Rule(
    rule_id="CL012",
    slug="ambient-execution",
    description="No ThreadPool::global(), free parallel_for(), or "
                "RunWorkspace::current() in library code -- execution and "
                "scratch flow through an explicit ExecPolicy "
                "(policy.par_for / policy.workspace), keeping concurrent "
                "suites on disjoint pools fully independent.",
    hint="thread a 'const ExecPolicy&' parameter (default "
         "ExecPolicy::serial()) down to the loop, or use the "
         "ProtocolEnv's policy via env.par_for / env.workspace()",
    check=_check_ambient_execution,
    scope=("src/",),
    exclude=("src/common/exec_policy.hpp", "src/common/exec_policy.cpp",
             "src/common/thread_pool.hpp", "src/common/thread_pool.cpp",
             "src/common/workspace.cpp"),
)

RULES = [RULE_AMBIENT_EXECUTION]
