"""Property-based (hypothesis) checks of the parse stage's two fast paths.

``ParseStage.classify`` (a gate plus a bisection tree over ``DETECT``
alternations) must equal the first-match cascade of the ``DETECT`` rows on
any line; the cascade is kept here as the reference.

The extraction twins: on any line, ``ParseStage.extract`` must return, for
every group it returns (the groups the stage reads), exactly the field of
the shipped pattern (``RX``, the regex_parser patterns of
logs_config_linux.yaml) — for every ``TWIN`` family.

Real lines of every family are edited by inserting, replacing or deleting
the characters the twins' classes and guards hinge on — brackets, quotes,
``" - "``, ``" | "``, colons, doubled spaces, tabs, newlines — plus
non-digits in the time and plain and multi-byte characters. NCSA lines are
also rendered from real field values with single fields edited (so a
field gains a delimiter while the rest of the line keeps its shape). Three
edits in four land next to a delimiter, where a wrong split would show;
half of those put another delimiter there."""

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splunk_otel_collector_ray import corpus
from splunk_otel_collector_ray.stages.parse import (
    _GATE, _NODES, DETECT, RX, TWIN, ParseStage, _detect_alt)


def cascade(text: pa.Array) -> np.ndarray:
    """The stanza router as written: each ``DETECT`` row in order, first
    match wins, a null line is plain."""
    text = pc.fill_null(text, "")
    codes = np.full(len(text), len(DETECT), dtype=np.int8)
    open_ = np.ones(len(text), dtype=bool)
    for i, (_, kind, pat) in enumerate(DETECT):
        m = (pc.starts_with(text, pat) if kind == "prefix"
             else pc.match_substring_regex(text, pat))
        hit = open_ & m.to_numpy(zero_copy_only=False)
        codes[hit] = i
        open_ &= ~hit
    return codes


_SAMPLE = corpus.build_transcripts("sf0.001")["text"]
_SAMPLE_CODES = cascade(_SAMPLE)
# a few real lines of every family (plain included)
FAMILY_LINES = [_SAMPLE[int(j)].as_py() for code in range(len(DETECT) + 1)
                for j in np.flatnonzero(_SAMPLE_CODES == code)[:6]]
PROSE = ["The deploy went fine; I'll check the logs (again) tomorrow.",
         "Sure: run `ls -la` then [edit] the <config> file #1.",
         "SELECTED items 2026-01-01 at 12:00 | ok",
         "Jan 1 we met at 10:00 at host-0 about it", "1:x (12) y", ""]
# the literals the gate's alternatives hinge on: prefixes, the java/mysql
# heads, brackets, redis's "(", ")" and ":" shapes, the pii digit runs
LITERALS = ['{"log":', '{"Level":', '{"t":', "[", "]", "<", "\tat ",
            "Caused by: ", "# Time: ", "SELECT ", "(", ")", ":", " | ", "#",
            '"', " - ", "0000-000-0000", "123-456-7890", "1234-56-7890",
            "1234-567-890", "\n", "é"]
PHONE = "call 0014-042-0098 now"


@st.composite
def edited_detect_line(draw) -> str:
    """A real family line or prose with a gate literal inserted, replaced
    or deleted next to where the patterns look: at the start, or at a
    character one of the literals holds."""
    line = draw(st.sampled_from(FAMILY_LINES + PROSE))
    for _ in range(draw(st.integers(1, 3))):
        lit = draw(st.sampled_from(LITERALS))
        spots = [i for i, c in enumerate(line) if c in '{[]<(): |#-"\t']
        pos = (0 if not spots or not draw(st.integers(0, 2))
               else draw(st.sampled_from(spots)) + draw(st.integers(0, 1)))
        op = draw(st.sampled_from(["insert", "replace", "delete"]))
        if op == "insert":
            line = line[:pos] + lit + line[pos:]
        elif op == "replace":
            line = line[:pos] + lit + line[pos + len(lit):]
        else:
            line = line[:pos] + line[pos + draw(st.integers(1, 3)):]
    return line


@st.composite
def two_pattern_line(draw) -> str:
    """A family line that the unanchored pii pattern also matches."""
    line = draw(st.sampled_from(FAMILY_LINES))
    pos = draw(st.integers(0, len(line)))
    return line[:pos] + PHONE + line[pos:]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from(FAMILY_LINES + PROSE), edited_detect_line(),
    two_pattern_line(), st.none(), st.text(max_size=40)),
    min_size=1, max_size=24))
# a redis handler and an apache_error line carrying a phone number: both
# match two patterns, the first one must win
@example(["1:signal-handler (1767225870) " + PHONE,
          "[Thu Jan 01 00:02:43 2026] [core:alert] [pid 1:tid 1] " + PHONE])
# an escaped "(" in redis_handler's pattern is a literal, not a group
@example(["1:signal-handler 1767225870) x", "1:signal-handler (17672) x"])
@example([None, "", "\n"])
def test_classify_equals_first_match_cascade(lines):
    text = pa.array(lines, type=pa.string())
    codes, names = ParseStage.classify(text)
    assert names == [name for name, _, _ in DETECT] + ["plain"]
    assert codes.dtype == np.int8
    assert codes.tolist() == cascade(text).tolist(), lines


def test_classify_nodes_are_detect_alternations():
    """The gate and every node are the alternation of their ``DETECT``
    slice: one alternative per row, each matching the lines its row
    matches. They compile under RE2 and hold no group name (so also under
    an engine that refuses a name twice, like Python's ``re``), and the
    nodes form the bisection tree: (0, n) and, under each (lo, hi),
    (lo, mid) and (mid, hi)."""
    lines = pa.array(FAMILY_LINES + PROSE + [
        line + " " + PHONE for line in FAMILY_LINES], type=pa.string())

    def matches(pat: str, kind: str = "regex") -> list[bool]:
        m = (pc.starts_with(lines, pat) if kind == "prefix"
             else pc.match_substring_regex(lines, pat))
        return m.to_pylist()

    def check(pat: str, rows: list) -> None:
        alts = [_detect_alt([row]) for row in rows]
        assert pat == "|".join(alts)
        assert "(?P<" not in pat
        re.compile(pat)
        for alt, (_, kind, row_pat) in zip(alts, rows):
            assert matches(alt) == matches(row_pat, kind), (alt, row_pat)
        hit = np.any([matches(alt) for alt in alts], axis=0)
        assert matches(pat) == hit.tolist()

    n = len(DETECT)
    check(_GATE, DETECT)
    want, todo = set(), [(0, n)]
    while todo:
        lo, hi = todo.pop()
        if hi - lo < 2:
            continue
        mid = (lo + hi) // 2
        want.add((lo, hi))
        todo += [(lo, mid), (mid, hi)]
        check(_NODES[lo, hi], DETECT[lo:mid])
    assert set(_NODES) == want


CHARS = [" ", "[", "]", '"', "\n", "0", "a", "-", "é"]
DELIMS = ' []"'

# real values per NCSA field: host remote_logname user time method path
# protocol (common), then referer agent (combined); corpus shapes
# (corpus._render_transcripts) and the Apache log-format docs
FIELDS = [
    ["10.0.0.23", "127.0.0.1", "::1"],
    ["-", "user-identifier"],
    ["user0", "frank", "-"],
    ["01/Jan/2026:00:06:06 +0000", "10/Oct/2000:13:55:36 -0700"],
    ["GET", "DELETE", "POST"],
    ["/api/v1/page", "/apache_pb.gif", "/a b"],
    ["HTTP/1.1", "HTTP/1.0"],
    ["-", "http://www.example.com/start.html", "https://ex.com/?q=a b"],
    ["agent-0", "Mozilla/4.08 [en] (Win98; I ;Nav)", "curl/8.0 (x86 linux)"],
]


def render(f: list[str], code: int, size: int, combined: bool) -> str:
    line = (f'{f[0]} {f[1]} {f[2]} [{f[3]}] "{f[4]} {f[5]} {f[6]}" '
            f'{code} {size}')
    return line + f' "{f[7]}" "{f[8]}"' if combined else line


LINES = [render([v[0] for v in FIELDS], 200, 161, True),
         render([v[0] for v in FIELDS], 503, 65, False),
         render([v[1] for v in FIELDS], 200, 2326, True),
         render([v[-1] for v in FIELDS], 201, 0, True)]


def edit(draw, s: str) -> str:
    delims = [i for i, c in enumerate(s) if c in DELIMS]
    if delims and draw(st.integers(0, 3)):
        pos = draw(st.sampled_from(delims)) + draw(st.integers(0, 1))
        ch = draw(st.sampled_from(DELIMS + "\n" if draw(st.booleans())
                                  else CHARS))
    else:
        pos = draw(st.integers(0, len(s)))
        ch = draw(st.sampled_from(CHARS))
    op = draw(st.sampled_from(["insert", "replace", "delete"]))
    if op == "insert":
        return s[:pos] + ch + s[pos:]
    if op == "replace":
        return s[:pos] + ch + s[pos + 1:]
    return s[:pos] + s[pos + 1:]


@st.composite
def edited_line(draw) -> str:
    line = draw(st.sampled_from(LINES))
    for _ in range(draw(st.integers(0, 6))):
        line = edit(draw, line)
    return line


@st.composite
def edited_fields(draw) -> str:
    f = [draw(st.sampled_from(v)) for v in FIELDS]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(f) - 1))
        f[i] = edit(draw, f[i])
    return render(f, draw(st.integers(0, 999)), draw(st.integers(0, 99999)),
                  draw(st.booleans()))


# the characters the twins' classes and guards stop at, and the edits the
# lazy/greedy shipped groups would split differently on
HAZARDS = ["\t", "\n", "  ", " - ", " | ", '"', "[", "]", ":", " "]
OTHERS = ["(", ")", "{", "}", ",", "@", "#", "<", ">", "/", ".", "-", "é",
          "x", "0", "\\n"]
BY_FAMILY = {name: [line for line, code in zip(
    _SAMPLE.to_pylist(), _SAMPLE_CODES) if code == i][:6]
    for i, (name, _, _) in enumerate(DETECT)}


@st.composite
def edited_family_line(draw) -> str:
    """A real line of a family (drawn uniformly over families) with one to
    four edits: a twin delimiter, tab, newline or doubled space put next to
    a delimiter or anywhere, or a non-digit in the time."""
    line = draw(st.sampled_from(BY_FAMILY[draw(st.sampled_from(
        sorted(BY_FAMILY)))]))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "insert", "replace", "delete",
                                   "time"]))
        if op == "time":  # a non-digit where the time has a digit
            digits = [i for i, c in enumerate(line[:30]) if c.isdigit()]
            if digits:
                i = draw(st.sampled_from(digits))
                line = (line[:i] + draw(st.sampled_from(["a", " ", "-", ":"]))
                        + line[i + 1:])
            continue
        spots = [i for i, c in enumerate(line) if c in ' []"()<>{}:|-@#,']
        pos = (draw(st.sampled_from(spots)) + draw(st.integers(0, 1))
               if spots and draw(st.integers(0, 3))
               else draw(st.integers(0, len(line))))
        lit = draw(st.sampled_from(HAZARDS) if draw(st.integers(0, 3))
                   else st.sampled_from(OTHERS))
        if op == "insert":
            line = line[:pos] + lit + line[pos:]
        elif op == "replace":
            line = line[:pos] + lit + line[pos + len(lit):]
        else:
            line = line[:pos] + line[pos + draw(st.integers(1, 3)):]
    return line


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(edited_family_line(), edited_line(),
                          edited_fields()), min_size=1, max_size=16))
# a second ' [' inside the time: the shipped pattern's greedy host moves
# its '[' there, so only the one-'[' class keeps the twin out
@example([LINES[0].replace(" +0000]", " [0000]")])
# a newline inside a field: RE2's `.` stops there, a class without '\n'
# would not
@example([LINES[1].replace("user0", "us\ner0")])
# a second ' - ' in a cassandra message: the shipped greedy time runs on
# to the last `file:line - `
@example(["INFO  [main] 2026-01-01 00:00:01 A.java:1 - x B.java:2 - y",
          "INFO  [main] 2026-01-01 00:00:01 A.java:1 - - y"])
# syslog: a host the shipped lazy time can take for a program, and a tab
# where \S stops
@example(["Jan 01 00:05:14 web: x: y", "Jan 01 00:05:14 we\tb sshd[1]: x",
          "Jan  1 00:05:14 host-0 sshd: x"])
# zookeeper's lazy thread ends at the last ':' before the class
@example(["2026-01-01 00:03:50 - WARN  [SyncThread:0:QuorumPeer@107] - x"])
# a tab where the shipped \S stops; a newline where its `.` stops (a
# `[\s\S]*` log runs on); a doubled space the lazy time takes in
@example(["1:M\tx 01 Jan 2026 00:10:12.040 # y",
          "1:signal\thandler (1767225870) x",
          "2026-01-01 00:02:08 E | a\nb", "2026-01-01 00:06:29 1 [Note] a\nb",
          "260101 00:02:59 \n x", "260101 00:02:59\t \tQuery\tx",
          "2026/01/01 00:02:17  [alert] 1000#1: x",
          "2026-01-01 00:04:52.019 UTC  [1000] x",
          "01-Jan-2026 00:04:01 WARNING [main] a\tb c"])
# a second closing delimiter: the shipped lazy/greedy group moves to it
@example(["[Thu Jan 01 00:02:43 2026] x] [core:alert] [pid 1:tid 1] y",
          "[a] [core:alert] [pid 1:tid 1] b] [core:alert] [pid 1:tid 1] c",
          '{"t":{"$date":"2026-01-01T00:05:24.021+00:00"},"s":"I",'
          '"c":"NETWORK","ctx":"c","msg":"a"}"}',
          '{"log":"x","stream":"a","time":"b"}","stream":"stdout",'
          '"time":"2026-01-01T00:00:00.000000Z"}',
          "2026-01-01 00:01:27.005:DEBUG:org.x.Server:main:1: x",
          "contact at 0014-042-0098 re 1234-567-8901 x"])
def test_twin_extract_equals_shipped_regex(lines):
    text = pa.array(lines, type=pa.string())
    for family in TWIN:
        fast = ParseStage.extract(family, text)
        ref = ParseStage._fields(pc.extract_regex(text, RX[family]))
        assert set(fast) <= set(ref), family
        for name in fast:
            assert fast[name].to_pylist() == ref[name].to_pylist(), (
                family, name, lines)
