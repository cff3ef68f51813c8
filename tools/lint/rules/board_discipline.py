"""CL014: library code does not read the board's log back.

The board is a medium, not an archive (ROADMAP "Board retention"): the
default BulletinBoard keeps a count of probe reports, and frees each vector
channel at its one support read (take_support).  Only a board built with
BoardRetention::kFull -- which tests construct as their reference -- keeps
the posts, so all_reports / reports_for / vectors work on nothing the
library ever builds; on the default board they throw.  The rule keeps them
out of src/, where such a call would pass tests on a kFull harness and
throw on every production run.
"""

from __future__ import annotations

from typing import List

from engine import Diagnostic, LintContext, Rule, SourceFile, make_diag

_LOG_READERS = ("all_reports", "reports_for", "vectors")


def _check_board_log_read(sf: SourceFile,
                          ctx: LintContext) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    toks = sf.tokens
    for i, tok in enumerate(toks):
        if not (tok.is_ident and tok.text in _LOG_READERS):
            continue
        if i == 0 or toks[i - 1].text not in (".", "->"):
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        out.append(make_diag(
            RULE_BOARD_LOG_READ, sf, tok.line, tok.col,
            f"'{tok.text}()' reads the board's log, which only a test-only "
            "BoardRetention::kFull board keeps; library code counts "
            "(report_count / vector_count) or ranks a channel once "
            "(take_support)"))
    return out


RULE_BOARD_LOG_READ = Rule(
    rule_id="CL014",
    slug="board-log-read",
    description="src/ may not call BulletinBoard::all_reports, reports_for "
                "or vectors: the default board keeps counts, not posts, so "
                "those reads work only under the test-only kFull retention.",
    hint="read a vector channel through take_support(tag) right after its "
         "publication; keep whatever else the protocol needs in its own "
         "buffers, not on the board",
    check=_check_board_log_read,
    scope=("src/",),
    exclude=("src/board/bulletin_board.hpp", "src/board/bulletin_board.cpp"),
)

RULES = [RULE_BOARD_LOG_READ]
