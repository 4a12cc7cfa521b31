"""Property-based (hypothesis) check of the NCSA fast path: on any line,
``ParseStage.extract`` must return exactly the fields of the shipped
pattern (``RX``, logs_config_linux.yaml:51/:259).

Real combined and common lines are edited by inserting, replacing or
deleting the characters the twin's guard and classes hinge on — brackets,
quotes, spaces, newlines — plus plain and multi-byte characters. Edits hit
whole lines (so separators move) and single fields of a line rendered from
real field values (so a field gains a delimiter while the rest of the line
keeps its shape). Three edits in four land next to a delimiter, where a
wrong split would show; half of those put another delimiter there."""

import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splunk_otel_collector_ray.stages.parse import NCSA_TWIN, RX, ParseStage

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


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(edited_line(), edited_fields()),
                min_size=1, max_size=16))
# a second ' [' inside the time: the shipped pattern's greedy host moves
# its '[' there, so only the one-'[' guard keeps the twin out
@example([LINES[0].replace(" +0000]", " [0000]")])
# a newline inside a field: RE2's `.` stops there, a class without '\n'
# would not
@example([LINES[1].replace("user0", "us\ner0")])
def test_ncsa_fast_path_equals_shipped_regex(lines):
    text = pa.array(lines, type=pa.string())
    stage = ParseStage()
    for family in NCSA_TWIN:
        fast = stage.extract(family, text)
        ref = ParseStage._fields(pc.extract_regex(text, RX[family]))
        assert list(fast) == list(ref)
        for name in ref:
            assert fast[name].to_pylist() == ref[name].to_pylist(), (
                family, name, lines)
