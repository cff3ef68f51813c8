"""CL012: no ambient execution state in library code.

PR 9 threaded an explicit ExecPolicy through every parallel loop: a policy
names where a loop runs (serial, or a pool its caller owns), which is what
lets two SuiteRunners on disjoint pools execute concurrently and still emit
byte-identical rows.  There is no process-wide pool; the ambient spellings
-- ThreadPool::global(), a free parallel_for -- would reach execution state
through process globals instead, silently re-coupling concurrent suites.
Scratch belongs to the executing thread, but it is still spelled through
the policy (policy.workspace() / env.workspace()), so every protocol reads
its workspace the one way the CL001 group contract is written against;
RunWorkspace::current() appears only where it is defined and in the one
file that forwards to it.  WorkerScope binds nothing any more and lives on
only for the bench/e2e replay of run_scenario; outside its declaring header
it gains no users.
"""

from __future__ import annotations

from typing import List

from engine import Diagnostic, LintContext, Rule, SourceFile, make_diag

_WORKER_SCOPE_HEADER = "src/common/exec_policy.hpp"


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
                "RunWorkspace::current() in library code; spell scratch "
                "policy.workspace() (or env.workspace()), the one access path "
                "the workspace group contract is written against"))
        elif tok.text == "WorkerScope" \
                and sf.effective_path != _WORKER_SCOPE_HEADER:
            out.append(make_diag(
                RULE_AMBIENT_EXECUTION, sf, tok.line, tok.col,
                "WorkerScope binds nothing -- scratch belongs to the thread; "
                "it survives only for the bench/e2e replay, so delete the use"))
    return out


RULE_AMBIENT_EXECUTION = Rule(
    rule_id="CL012",
    slug="ambient-execution",
    description="No ThreadPool::global(), free parallel_for(), "
                "RunWorkspace::current() or WorkerScope in library code -- "
                "execution and scratch flow through an explicit ExecPolicy "
                "(policy.par_for / policy.workspace), keeping concurrent "
                "suites on disjoint pools fully independent.",
    hint="thread a 'const ExecPolicy&' parameter (default "
         "ExecPolicy::serial()) down to the loop, or use the "
         "ProtocolEnv's policy via env.par_for / env.workspace()",
    check=_check_ambient_execution,
    scope=("src/",),
    exclude=("src/common/exec_policy.cpp", "src/common/thread_pool.hpp",
             "src/common/workspace.cpp"),
)

RULES = [RULE_AMBIENT_EXECUTION]
