#!/usr/bin/env python3
"""colscore-lint: the repo's invariant-enforcing static-analysis pass.

Enforces the codified invariants from ROADMAP.md ("Static analysis &
concurrency hygiene") as named, suppressible rules over the CMake
compilation database:

    CL001  workspace-group-ownership   RunWorkspace buffer groups
    CL002  deprecated-probe-api        removed names (probe_many, shims) stay gone
    CL003  serial-probe-loop           batch slates known up front
    CL004  slow-distance-call          hamming_exceeds / diff_positions_into
    CL005  ambient-randomness          seeds via Rng/mix_keys, time via Timer
    CL006  raw-thread                  ThreadPool/parallel_for only
    CL007  unordered-iteration         hash order must not feed output
    CL008  registry-description       add() must document the entry
    CL009  literal-metric-key          keys checkable offline
    CL010  stdio-in-library            log.hpp / ResultSink only
    CL011  raw-kernel-loop             distance loops use dispatched kernels
    CL000  lint hygiene (malformed or stale suppressions; not suppressible)

Suppress a diagnostic on its line (or from a comment-only line above) with:

    // colscore-lint: allow(CL003) adaptive: next coord depends on the answer

Usage:
    colscore_lint.py --compile-db build/compile_commands.json   # whole tree
    colscore_lint.py src/protocols/select.cpp ...               # these files
    colscore_lint.py --check-fixtures tests/lint                # golden test
    colscore_lint.py --list-rules

Exits non-zero iff any unsuppressed diagnostic (or fixture mismatch) exists.

The analysis itself is a deterministic token-level pass, so the golden
expected-diagnostics file is byte-identical on every machine.  The optional
libclang bindings (clang.cindex) are detected and reported by --version for
future AST-backed cross-checks, but no diagnostic depends on them: the CI
image only needs python3.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import sys
from typing import Dict, List, Optional, Set, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from engine import Diagnostic, LintContext, SourceFile  # noqa: E402
from rules import KNOWN_IDS, RULES  # noqa: E402

_FIXTURE_AS_RE = re.compile(r"lint-fixture-as:\s*(\S+)")

_SOURCE_EXTS = (".cpp", ".hpp", ".cc", ".h")


def detect_clang() -> str:
    try:
        import clang.cindex  # type: ignore  # noqa: F401
        return "available"
    except ImportError:
        return "unavailable (token backend only; diagnostics are identical)"


def repo_root(start: str) -> str:
    d = os.path.abspath(start)
    while d != os.path.dirname(d):
        if os.path.isdir(os.path.join(d, ".git")):
            return d
        d = os.path.dirname(d)
    return os.path.abspath(start)


def files_from_compile_db(db_path: str, root: str) -> List[str]:
    """Translation units from the db, plus every header under their source
    dirs (headers are not compile-db entries but carry invariants too)."""
    with open(db_path, "r", encoding="utf-8") as f:
        db = json.load(f)
    rels: Set[str] = set()
    dirs: Set[str] = set()
    for entry in db:
        path = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"])
            if not os.path.isabs(entry["file"]) else entry["file"])
        rel = os.path.relpath(path, root)
        if rel.startswith(".."):
            continue  # outside the repo (system sources)
        rels.add(rel)
        dirs.add(rel.split(os.sep, 1)[0])
    for top in sorted(dirs):
        for cur, _subdirs, names in os.walk(os.path.join(root, top)):
            for name in names:
                if name.endswith(_SOURCE_EXTS):
                    rels.add(os.path.relpath(os.path.join(cur, name), root))
    # Fixture files violate rules on purpose; never lint them in tree mode.
    return sorted(r.replace(os.sep, "/") for r in rels
                  if not r.replace(os.sep, "/").startswith("tests/lint/"))


def lint_files(rel_paths: List[str], root: str) -> List[Diagnostic]:
    ctx = LintContext(root)
    diags: List[Diagnostic] = []
    for rel in rel_paths:
        full = os.path.join(root, rel)
        try:
            with open(full, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"colscore-lint: cannot read {rel}: {e}", file=sys.stderr)
            continue
        sf = SourceFile(full, rel, text, KNOWN_IDS)
        # The alias marker applies in every mode, so linting a fixture file
        # directly agrees with --check-fixtures (tree mode never sees
        # tests/lint/ at all).
        m = _FIXTURE_AS_RE.search(text)
        if m:
            sf.effective_path = m.group(1)
        raw: List[Diagnostic] = []
        for rule in RULES:
            if not rule.applies_to(sf.effective_path):
                continue
            raw.extend(rule.check(sf, ctx))
        # Apply suppressions; remember which were used.
        for d in raw:
            suppressed = False
            for s in sf.allowed_ids(d.line):
                if d.rule_id in s.ids:
                    s.used = True
                    suppressed = True
            if not suppressed:
                diags.append(d)
        for line, msg in sf.malformed:
            diags.append(Diagnostic(sf.path, line, 1, "CL000",
                                    "lint-hygiene", msg))
        for s in sf.suppressions:
            if not s.used:
                diags.append(Diagnostic(
                    sf.path, s.line, 1, "CL000", "lint-hygiene",
                    f"stale suppression: allow({','.join(s.ids)}) matches no "
                    "diagnostic on its line -- delete it"))
    diags.sort(key=lambda d: d.sort_key())
    return diags


def check_fixtures(fixture_dir: str, root: str, update: bool) -> int:
    rel_dir = os.path.relpath(os.path.abspath(fixture_dir), root)
    full_dir = os.path.join(root, rel_dir)
    fixtures = sorted(
        os.path.join(rel_dir, n).replace(os.sep, "/")
        for n in os.listdir(full_dir)
        if n.startswith("fixture_") and n.endswith(_SOURCE_EXTS))
    if not fixtures:
        print(f"colscore-lint: no fixture_* files in {rel_dir}", file=sys.stderr)
        return 2
    diags = lint_files(fixtures, root)
    got = [d.render(with_hint=False) for d in diags]
    expected_path = os.path.join(full_dir, "expected.txt")
    if update:
        with open(expected_path, "w", encoding="utf-8") as f:
            f.write("\n".join(got) + "\n")
        print(f"colscore-lint: wrote {len(got)} expected diagnostics to "
              f"{os.path.relpath(expected_path, root)}")
        return 0
    try:
        with open(expected_path, "r", encoding="utf-8") as f:
            want = [l for l in f.read().splitlines() if l.strip()]
    except OSError:
        print(f"colscore-lint: missing {expected_path} "
              "(run --check-fixtures with --update to create it)",
              file=sys.stderr)
        return 2
    if got == want:
        covered = {l.split(" ", 1)[1].split(" ")[0] for l in got if " " in l}
        print(f"colscore-lint: fixtures OK -- {len(got)} diagnostics, "
              f"{len(covered)} rule ids covered "
              f"({', '.join(sorted(covered))})")
        return 0
    print("colscore-lint: fixture diagnostics drifted from "
          f"{os.path.relpath(expected_path, root)}:")
    for line in difflib.unified_diff(want, got, "expected", "actual",
                                     lineterm=""):
        print(line)
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="colscore_lint.py",
        description="invariant-enforcing static analysis for colscore")
    ap.add_argument("files", nargs="*", help="repo-relative files to lint")
    ap.add_argument("--compile-db", metavar="PATH",
                    help="lint every repo source named by this CMake "
                    "compilation database (plus headers in the same trees)")
    ap.add_argument("--check-fixtures", metavar="DIR",
                    help="lint DIR/fixture_* and compare to DIR/expected.txt")
    ap.add_argument("--update", action="store_true",
                    help="with --check-fixtures: rewrite expected.txt")
    ap.add_argument("--root", default=None,
                    help="repo root (default: nearest .git upward from cwd)")
    ap.add_argument("--rules", metavar="IDS",
                    help="comma-separated rule ids to run (default: all)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--no-hints", action="store_true")
    ap.add_argument("--version", action="store_true")
    args = ap.parse_args(argv)

    if args.version:
        print(f"colscore-lint ({len(RULES)} rules); "
              f"libclang bindings: {detect_clang()}")
        return 0
    if args.list_rules:
        for r in RULES:
            scope = ", ".join(r.scope) if r.scope else "everywhere"
            print(f"{r.rule_id}  {r.slug:28s} [{scope}]\n"
                  f"       {r.description}")
        return 0

    root = args.root or repo_root(os.getcwd())

    if args.rules:
        wanted = {x.strip() for x in args.rules.split(",") if x.strip()}
        unknown = wanted - {r.rule_id for r in RULES}
        if unknown:
            print(f"colscore-lint: unknown rule ids: {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
        RULES[:] = [r for r in RULES if r.rule_id in wanted]

    if args.check_fixtures:
        return check_fixtures(args.check_fixtures, root, args.update)

    if args.compile_db:
        rel_paths = files_from_compile_db(args.compile_db, root)
    elif args.files:
        rel_paths = [os.path.relpath(os.path.abspath(f), root).replace(os.sep, "/")
                     for f in args.files]
    else:
        ap.error("give files, --compile-db, or --check-fixtures")
        return 2

    diags = lint_files(rel_paths, root)
    for d in diags:
        print(d.render(with_hint=not args.no_hints))
    if diags:
        by_rule: Dict[str, int] = {}
        for d in diags:
            by_rule[d.rule_id] = by_rule.get(d.rule_id, 0) + 1
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(by_rule.items()))
        print(f"colscore-lint: {len(diags)} diagnostic"
              f"{'s' if len(diags) != 1 else ''} ({summary}) over "
              f"{len(rel_paths)} files")
        return 1
    print(f"colscore-lint: clean over {len(rel_paths)} files "
          f"({len(RULES)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
