from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from casepipe.config import ConfigError
from casepipe.extract import (
    CaseSegment,
    ExtractionFailure,
    SourceDocument,
    extract_text,
    prenormalize,
    split_cases,
)

GOOD_TEXT = "Missing person report. " * 10


def make_doc(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return SourceDocument(document_id=path.stem, path=path)


class TestExtractText:
    def test_plaintext_engine_reads_file(self, tmp_path):
        doc = make_doc(tmp_path, "case1.txt", GOOD_TEXT)
        result = extract_text(doc)
        assert result.engine_used == "plaintext"
        assert result.text == GOOD_TEXT
        assert result.char_count == len(GOOD_TEXT)
        assert result.quality_ok

    def test_short_text_is_returned_below_quality(self, tmp_path):
        doc = make_doc(tmp_path, "short.txt", "hello")
        result = extract_text(doc)
        assert result.text == "hello"
        assert result.char_count == 5
        assert result.alnum_ratio == 1.0
        assert not result.quality_ok

    def test_unreadable_path_raises(self, tmp_path):
        (tmp_path / "broken.txt").mkdir()
        doc = SourceDocument(document_id="broken", path=tmp_path / "broken.txt")
        with pytest.raises(ExtractionFailure) as excinfo:
            extract_text(doc)
        assert excinfo.value.document_id == "broken"
        assert str(excinfo.value).startswith("could not read broken: ")


class TestPrenormalize:
    def test_tabs_and_crlf(self):
        assert prenormalize("a\t\tb\r\nc") == "a b\nc"

    def test_control_chars_removed(self):
        assert prenormalize("x\x00y") == "xy"

    def test_lines_trimmed(self):
        assert prenormalize("  padded line  \nnext") == "padded line\nnext"

    def test_blank_run_collapse(self):
        assert prenormalize("a\n\n\n\n\nb") == "a\n\nb"

    def test_two_blank_lines_kept(self):
        assert prenormalize("a\n\n\nb") == "a\n\n\nb"

    def test_nbsp_collapses(self):
        assert prenormalize("a  b") == "a b"

    @given(st.text(alphabet=st.characters(max_codepoint=0x2060), max_size=300))
    def test_idempotent(self, text):
        once = prenormalize(text)
        assert prenormalize(once) == once


class TestSplitCases:
    PATTERNS = [r"^CASE\s*#\s*\d+"]

    def test_no_headers_single_segment(self):
        text = "just one case here"
        segments = split_cases(text, self.PATTERNS)
        assert segments == [CaseSegment(0, text, 0, len(text))]

    def test_empty_text_single_empty_segment(self):
        assert split_cases("", self.PATTERNS) == [CaseSegment(0, "", 0, 0)]

    def test_two_headers(self):
        text = "CASE #1\nfirst body\nCASE #2\nsecond body\n"
        segments = split_cases(text, self.PATTERNS)
        assert len(segments) == 2
        assert segments[0].text.startswith("CASE #1")
        assert segments[1].text.startswith("CASE #2")
        assert segments[0].char_end == segments[1].char_start

    def test_preamble_belongs_to_first_segment(self):
        text = "Letterhead\n\nCASE #1\nbody one\nCASE #2\nbody two"
        segments = split_cases(text, self.PATTERNS)
        assert len(segments) == 2
        assert segments[0].text.startswith("Letterhead")
        assert "body one" in segments[0].text

    def test_segments_reconstruct_text(self):
        text = "intro\nCASE #1\naaa\nCASE #2\nbbb\nCASE #3\nccc"
        segments = split_cases(text, self.PATTERNS)
        assert "".join(s.text for s in segments) == text
        for segment in segments:
            assert text[segment.char_start : segment.char_end] == segment.text

    def test_bad_pattern_rejected(self):
        with pytest.raises(ConfigError):
            split_cases("x", ["("])

    @given(st.text(alphabet="CASE#123\n ab", max_size=200))
    def test_cover_property(self, text):
        segments = split_cases(text, self.PATTERNS)
        assert "".join(s.text for s in segments) == text
        indices = [s.segment_index for s in segments]
        assert indices == list(range(len(segments)))
