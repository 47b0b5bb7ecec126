"""The INI reader shared by configs and records: its grammar, its errors,
the record round trip and the README's example config."""
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardy_optim.config import format_record, load_config, parse_record, read_ini
from hardy_optim.errors import ConfigError
from hardy_optim.potentials import Kind

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("text,sections", [
    ("[a]\nx = 1\n", {"a": {"x": "1"}}),
    ("[a]\nx: 1\n", {"a": {"x": "1"}}),
    ("[domain]\nR = 2.5\n", {"domain": {"r": "2.5"}}),
    ("[a]\n  Key Name   =   spaced value  \n", {"a": {"key name": "spaced value"}}),
    ("[a]\nx = 1 = 2\ny = a:b\nz: c=d\n", {"a": {"x": "1 = 2", "y": "a:b", "z": "c=d"}}),
    ("[a]\nx =\n", {"a": {"x": ""}}),
    ("# lead\n; lead\n\n[a]\n  # indented\nx = 1\n\n; tail\n[b]\n", {"a": {"x": "1"}, "b": {}}),
    ("[a]\nx = 1 ; not a comment\ny = 5%\n", {"a": {"x": "1 ; not a comment", "y": "5%"}}),
    ("[a]\r\nx = 1\r\n", {"a": {"x": "1"}}),
    ("[A]\n[a]\n", {"A": {}, "a": {}}),
    ("", {}),
], ids=["equals", "colon", "key-folded", "stripped", "first-delimiter", "empty-value",
        "comments-and-blanks", "no-inline-comment-or-interpolation", "crlf",
        "sections-keep-case", "empty"])
def test_read_ini_grammar(text, sections):
    assert read_ini(text) == sections


@pytest.mark.parametrize("text,line,what", [
    ("x = 1\n", 1, "before the first section header"),
    ("# c\n\nx = 1\n", 3, "before the first section header"),
    ("[a]\nx\n", 2, "expected 'key = value'"),
    ("[a]\nx = 1\n  continued\n", 3, "expected 'key = value'"),
    ("[a]\n= 1\n", 2, "expected 'key = value'"),
    ("[a]\n : 1\n", 2, "expected 'key = value'"),
    ("[a]\n[b]\n[a]\n", 3, "repeated section [a]"),
    ("[a]\nx = 1\nX = 2\n", 3, "repeated key 'x' in [a]"),
    ("[a] trailing\n", 1, "malformed section header"),
    ("[a\n", 1, "malformed section header"),
    ("[]\n", 1, "malformed section header"),
], ids=["before-header", "before-header-after-comments", "no-delimiter", "continuation",
        "empty-key-equals", "empty-key-colon", "repeated-section", "repeated-key",
        "header-trailing-text", "header-unclosed", "header-empty"])
def test_read_ini_errors_name_the_line(text, line, what):
    with pytest.raises(ConfigError, match=rf"^line {line}: .*{re.escape(what)}"):
        read_ini(text)


def test_load_config_errors_name_the_path_and_line(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[potential]\nkind = constant\n\nkind = power_law\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: line 4: repeated key"):
        load_config(str(path))


@pytest.mark.parametrize("text,culprit", [
    ("[DEFAULT]\namplitude = 2\n[potential]\nkind = constant\n", "DEFAULT"),
    ("[potential]\nkind = constant\namplitude = 2%\n", "2%"),
    ("[potential]\nkind = constant\n[solver]\ns_max = 1e6 ; horizon\n", "horizon"),
], ids=["default-section", "percent", "inline-comment"])
def test_load_config_takes_values_verbatim(tmp_path, text, culprit):
    # configparser spread [DEFAULT] into every section, read '%%' as '%' and
    # raised on a lone '%'; none of them is special now
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(culprit)):
        load_config(str(path))


def test_load_config_reads_utf8(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("# Hardy–Rellich, λ ≥ ¼\n[potential]\nkind = constant\n", encoding="utf-8")
    assert load_config(str(path)).potential.kind is Kind.CONSTANT
    path.write_bytes(b"[potential]\nkind = constant\n# \xff\n")
    with pytest.raises(ConfigError, match="unreadable"):
        load_config(str(path))


_KEY = st.from_regex(r"[a-z_][a-z0-9_]{0,11}", fullmatch=True)
# anything on one line without surrounding blanks, '%', ':', '=', ';' and '#' included
_VALUE = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40).map(
    lambda text: text.replace("\n", " ").replace("\r", " ").strip())
_SPECIAL = st.sampled_from(["100%", "a: b", "x = y", "; z", "# w", "1e6%", "%(r)s", "[s]",
                            "k: v = w ; u # t"])


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_KEY, st.one_of(_VALUE, _SPECIAL), max_size=8),
       st.sampled_from(["result", "error"]))
def test_parse_record_inverts_format_record(record, section):
    assert parse_record(format_record(record, section)) == record


def test_format_record_renders_numpy_scalars_by_value():
    # numpy scalars are not the builtin types of the renderer's table: a float
    # still takes 17 digits, an integer its digits, anything else its str
    text = format_record({"x": np.float64(0.1), "f": np.float32(0.5), "n": np.int64(-3),
                          "pair": (1, 2)})
    assert text == "[result]\nx = 0.10000000000000001\nf = 0.5\nn = -3\npair = (1, 2)\n"


@pytest.mark.parametrize("text", ["[result]\nx = 1\n[error]\ny = 2\n", "# none\n"],
                         ids=["two-sections", "no-section"])
def test_parse_record_needs_exactly_one_section(text):
    with pytest.raises(ConfigError, match="expected exactly one record section"):
        parse_record(text)


def test_readme_example_config_loads(tmp_path):
    # its kind line once carried a trailing '; constant | ...', which was
    # read as part of the kind and rejected
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    path = tmp_path / "readme.ini"
    path.write_text(block, encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.potential.kind is Kind.POWER_LAW and cfg.potential.alpha == 1.0
    assert (cfg.R, cfg.n, cfg.grid_n, cfg.s_max) == (1.0, 3, 10000, 1e6)
