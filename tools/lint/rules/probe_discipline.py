"""CL002/CL003/CL004/CL013: probe-pipeline API discipline.

The probe pipeline (ROADMAP "Probe pipeline + run workspaces") has four
sanctioned read shapes: probe_row for contiguous ranges, probe_gather /
own_probe_bits for slates known up front, a ProbeMemo or its wide form
(own_probe_memo) for tournaments and adaptive loops that revisit
coordinates -- it charges each coordinate read once, when it goes out of
scope -- and single probe()/own_probe() only inside genuinely adaptive
loops (none in the library: adaptive ZeroRadius elimination reads through
its memo).  These rules keep the next perf PR from
quietly reintroducing the serial forms the pipeline replaced, and keep
uncharged truth reads (the adversary_peek family) inside the oracle, the
env's honest/dishonest dispatch and the population's reports, so no
protocol can peek and charge by hand.
"""

from __future__ import annotations

from typing import List, Tuple

from engine import Diagnostic, LintContext, Rule, SourceFile, make_diag

# -- CL002: removed names stay gone -------------------------------------------

# Removed name -> what to use instead (the diagnostic's advice).
_REMOVED = {
    "probe_many": "use ProbeOracle::probe_row / ProbeOracle::probe_gather",
    "own_probe_many":
        "use ProtocolEnv::own_probe_row / ProtocolEnv::own_probe_bits",
    "TruthSource":
        "ProbeOracle takes a const PreferenceMatrix& and reads its packed "
        "rows directly",
    "gather_unpacked":
        "use ProbeOracle::probe_gather (truth rows are always packed)",
    "suite_csv_columns":
        "use default_columns (src/sim/record.hpp)",
    "suite_csv_row":
        "write suite_row_cells(run) through CsvWriter::row, or stream "
        "records through a ResultSink",
}


def _check_deprecated(sf: SourceFile, ctx: LintContext) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for tok in sf.tokens:
        if tok.is_ident and tok.text in _REMOVED:
            out.append(make_diag(
                RULE_DEPRECATED, sf, tok.line, tok.col,
                f"'{tok.text}' was removed; {_REMOVED[tok.text]}"))
    return out


RULE_DEPRECATED = Rule(
    rule_id="CL002",
    slug="deprecated-probe-api",
    description="Names removed from the library must not reappear; each "
                "entry of the table names its replacement (the uint8-out "
                "batch probes probe_many / own_probe_many, the virtual "
                "TruthSource interface and its unpacked gather fallback, "
                "the suite_csv_columns / suite_csv_row CSV shims).",
    hint="each diagnostic names the replacement; the removed form was a "
         "second spelling of it",
    check=_check_deprecated,
)

# -- CL003: no serial probe loops ---------------------------------------------


def _loop_body_ranges(sf: SourceFile) -> List[Tuple[int, int]]:
    """(start, end) clean-text offsets of every for/while loop body."""
    ranges: List[Tuple[int, int]] = []
    toks = sf.tokens
    for i, tok in enumerate(toks):
        if tok.text not in ("for", "while"):
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        header_end = sf.match_forward(toks[i + 1].offset, "(", ")")
        # Body: a braced block, or a single statement up to the next ';'.
        j = header_end
        clean = sf.clean
        while j < len(clean) and clean[j].isspace():
            j += 1
        if j < len(clean) and clean[j] == "{":
            ranges.append((j, sf.match_forward(j, "{", "}")))
        else:
            end = clean.find(";", j)
            ranges.append((j, len(clean) if end == -1 else end + 1))
    return ranges


def _probe_calls(sf: SourceFile) -> List[Tuple[int, int, int, str]]:
    """(offset, line, col, name) of .probe( / ->probe( / own_probe( calls."""
    calls = []
    toks = sf.tokens
    for i, tok in enumerate(toks):
        if not tok.is_ident:
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        if tok.text == "own_probe":
            calls.append((tok.offset, tok.line, tok.col, tok.text))
        elif tok.text == "probe" and i > 0 and toks[i - 1].text in (".", "->"):
            calls.append((tok.offset, tok.line, tok.col, tok.text))
    return calls


def _check_serial_loop(sf: SourceFile, ctx: LintContext) -> List[Diagnostic]:
    calls = _probe_calls(sf)
    if not calls:
        return []
    ranges = _loop_body_ranges(sf)
    out: List[Diagnostic] = []
    for offset, line, col, name in calls:
        if any(lo <= offset < hi for lo, hi in ranges):
            out.append(make_diag(
                RULE_SERIAL_LOOP, sf, line, col,
                f"serial {name}() call inside a loop; a slate known up front "
                "must be charged as one batch (probe_row / probe_gather / "
                "own_probe_bits)"))
    return out


RULE_SERIAL_LOOP = Rule(
    rule_id="CL003",
    slug="serial-probe-loop",
    description="Loops may not issue single probe()/own_probe() calls unless "
                "genuinely adaptive (each coordinate depends on the previous "
                "answer) -- then suppress with the reason.",
    hint="batch the slate; if the loop is adaptive, add "
         "'// colscore-lint: allow(CL003) adaptive: <why>'",
    check=_check_serial_loop,
    scope=("src/",),
)

# -- CL004: early-exit/scratch forms, not the allocating ones -----------------

_BULK = ("hamming_exceeds", "diff_positions_into")
_SLOW = ("hamming", "diff_positions")


def _check_slow_distance(sf: SourceFile, ctx: LintContext) -> List[Diagnostic]:
    has_bulk = any(t.is_ident and t.text in _BULK for t in sf.tokens)
    if not has_bulk:
        return []
    out: List[Diagnostic] = []
    toks = sf.tokens
    for i, tok in enumerate(toks):
        if not (tok.is_ident and tok.text in _SLOW):
            continue
        if i == 0 or toks[i - 1].text not in (".", "->"):
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        alt = "hamming_exceeds(other, tau)" if tok.text == "hamming" \
            else "diff_positions_into(other, out)"
        out.append(make_diag(
            RULE_SLOW_DISTANCE, sf, tok.line, tok.col,
            f"'{tok.text}()' in a file that already uses the hot forms; "
            f"use {alt} here too (early exit / caller scratch)"))
    return out


RULE_SLOW_DISTANCE = Rule(
    rule_id="CL004",
    slug="slow-distance-call",
    description="Files on the hot path (they call hamming_exceeds / "
                "diff_positions_into) must not also use the full-scan or "
                "allocating distance forms.",
    hint="hamming_exceeds early-exits at the threshold; "
         "diff_positions_into reuses caller scratch",
    check=_check_slow_distance,
    scope=("src/",),
    exclude=(
        "src/common/bitvector.hpp", "src/common/bitvector.cpp",
        "src/common/bitkernels.hpp", "src/common/bitmatrix.hpp",
        "src/common/bitmatrix.cpp",
    ),
)

# -- CL013: uncharged truth reads stay behind the charging layer --------------

_UNCHARGED = ("adversary_peek", "adversary_peek_row", "adversary_peek_gather")


def _check_uncharged_read(sf: SourceFile, ctx: LintContext) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for tok in sf.tokens:
        if tok.is_ident and tok.text in _UNCHARGED:
            out.append(make_diag(
                RULE_UNCHARGED_READ, sf, tok.line, tok.col,
                f"'{tok.text}' reads truth without charging; learn a "
                "player's own bits through ProtocolEnv::own_probe / "
                "own_probe_row / own_probe_bits / own_probe_memo, which "
                "charge honest players and let dishonest ones read free"))
    return out


RULE_UNCHARGED_READ = Rule(
    rule_id="CL013",
    slug="uncharged-truth-read",
    description="The uncharged truth reads (adversary_peek, "
                "adversary_peek_row, adversary_peek_gather) are used only by "
                "the probe oracle, ProtocolEnv's honest/dishonest dispatch "
                "and the population's reports; protocol code that peeks and "
                "charges by hand can drift from the per-player bill.",
    hint="call env.own_probe* (the honest/dishonest split is already "
         "there); a dishonest-only branch may suppress with "
         "'// colscore-lint: allow(CL013) <why the read is a dishonest "
         "player's>'",
    check=_check_uncharged_read,
    scope=("src/",),
    exclude=(
        "src/board/probe_oracle.hpp", "src/board/probe_oracle.cpp",
        "src/protocols/env.hpp", "src/model/population.cpp",
    ),
)

RULES = [RULE_DEPRECATED, RULE_SERIAL_LOOP, RULE_SLOW_DISTANCE,
         RULE_UNCHARGED_READ]
