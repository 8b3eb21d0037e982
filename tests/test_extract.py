from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casepipe.extract import (
    END_SENTINEL,
    CaseSegment,
    ExtractionFailure,
    SourceDocument,
    cut_trailer,
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


class TestDecoding:
    """Input is strict UTF-8, else cp1252; a NUL byte means a binary file."""

    def _doc(self, tmp_path, data: bytes):
        path = tmp_path / "doc.txt"
        path.write_bytes(data)
        return SourceDocument(document_id="doc", path=path)

    def test_utf8_is_read_as_utf8(self, tmp_path):
        result = extract_text(self._doc(tmp_path, "Full Name: José".encode("utf-8")))
        assert result.text == "Full Name: José"
        assert result.fallback_offset is None

    def test_a_byte_order_mark_is_dropped(self, tmp_path):
        text = "Full Name: José\n" + GOOD_TEXT
        plain = extract_text(self._doc(tmp_path, text.encode("utf-8")))
        marked = extract_text(self._doc(tmp_path, text.encode("utf-8-sig")))
        assert marked == plain
        assert marked.text == text
        assert marked.char_count == len(text)

    def test_a_byte_order_mark_before_cp1252_stays_as_cp1252_reads_it(self, tmp_path):
        result = extract_text(self._doc(tmp_path, b"\xef\xbb\xbfJos\xe9"))
        assert result.text == "\u00ef\u00bb\u00bfJos\u00e9"
        assert result.fallback_offset == 6

    def test_cp1252_falls_back_at_the_first_undecodable_byte(self, tmp_path):
        result = extract_text(self._doc(tmp_path, "Full Name: José".encode("cp1252")))
        assert result.text == "Full Name: José"
        assert "\ufffd" not in result.text
        assert result.fallback_offset == len("Full Name: Jos")

    def test_only_the_undefined_cp1252_bytes_are_replaced(self, tmp_path):
        result = extract_text(self._doc(tmp_path, b"caf\xe9 \x81\x8d\x8f\x90\x9d \x93q\x94"))
        assert result.text == "café \ufffd\ufffd\ufffd\ufffd\ufffd \u201cq\u201d"
        assert result.fallback_offset == 3

    def test_line_endings_become_lf(self, tmp_path):
        assert extract_text(self._doc(tmp_path, b"a\r\nb\rc\n")).text == "a\nb\nc\n"
        assert extract_text(self._doc(tmp_path, b"a\r\nb\rc\xe9")).text == "a\nb\nc\xe9"
        crlf = extract_text(self._doc(tmp_path, GOOD_TEXT.replace(". ", ".\r\n").encode()))
        lf = extract_text(self._doc(tmp_path, GOOD_TEXT.replace(". ", ".\n").encode()))
        assert (crlf.text, crlf.char_count, crlf.alnum_ratio) == (
            lf.text,
            lf.char_count,
            lf.alnum_ratio,
        )

    @pytest.mark.parametrize(
        "data", [b"\x00", b"Full Name: Jo\x00hn\n", b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR"]
    )
    def test_a_nul_byte_is_a_binary_file(self, tmp_path, data):
        with pytest.raises(ExtractionFailure) as excinfo:
            extract_text(self._doc(tmp_path, data))
        assert excinfo.value.document_id == "doc"
        offset = data.index(b"\x00")
        assert str(excinfo.value) == f"could not read doc: binary file, NUL byte at {offset}"


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
    def test_no_headers_single_segment(self):
        text = "just one case here"
        segments = split_cases(text)
        assert segments == [CaseSegment(0, text, 0, len(text))]

    def test_empty_text_single_empty_segment(self):
        assert split_cases("") == [CaseSegment(0, "", 0, 0)]

    def test_two_headers(self):
        text = "CASE #1\nfirst body\nCASE #2\nsecond body\n"
        segments = split_cases(text)
        assert len(segments) == 2
        assert segments[0].text.startswith("CASE #1")
        assert segments[1].text.startswith("CASE #2")
        assert segments[0].char_end == segments[1].char_start

    def test_preamble_belongs_to_first_segment(self):
        text = "Letterhead\n\nCASE #1\nbody one\nCASE #2\nbody two"
        segments = split_cases(text)
        assert len(segments) == 2
        assert segments[0].text.startswith("Letterhead")
        assert "body one" in segments[0].text

    def test_segments_reconstruct_text(self):
        text = "intro\nCASE #1\naaa\nCASE #2\nbbb\nCASE #3\nccc"
        segments = split_cases(text)
        assert "".join(s.text for s in segments) == text
        for segment in segments:
            assert text[segment.char_start : segment.char_end] == segment.text

    @given(st.text(alphabet="CASE#123\n ab", max_size=200))
    def test_cover_property(self, text):
        segments = split_cases(text)
        assert "".join(s.text for s in segments) == text
        indices = [s.segment_index for s in segments]
        assert indices == list(range(len(segments)))


# Sentinels as they may arrive: exact, and mangled in ways that only
# normalization repairs (so no raw match exists).
_SENTINELS = (
    END_SENTINEL,
    "-----\tEND CASE DOCUMENT -----",
    "----- END  CASE DOCUMENT\t-----",
    "----- END CA\x00SE DOCUMENT -----",
    "----- END CASE DOCUMENT \x1b-----",
)
_PIECES = (
    "CASE #1", "Full Name: Jane Doe", "text", "  ", "\t", "\x00", "\x0c", "\x85",
    "\u00a0", "\n", "\r", "\r\n", "\n\n\n", "\n\n\n\n", "-", "%%CASE-GOLD:e30=%%",
)


@st.composite
def raw_documents(draw):
    parts = draw(
        st.lists(st.sampled_from(_PIECES + _SENTINELS + (END_SENTINEL,)), max_size=16)
    )
    return "".join(parts)


def _expected_cut(text):
    whole = prenormalize(text)
    index = whole.find(END_SENTINEL)
    return whole if index < 0 else whole[:index]


class TestCutTrailer:
    @settings(max_examples=1500, deadline=None)
    @given(raw_documents())
    def test_matches_cutting_the_normalized_text(self, text):
        content, trailer = cut_trailer(text)
        whole = prenormalize(text)
        assert content == _expected_cut(text)
        assert content + prenormalize(trailer) == whole

    @given(st.text(alphabet=st.sampled_from("ab -\t\r\n\x00END#"), max_size=80))
    def test_contract_on_arbitrary_text(self, text):
        content, trailer = cut_trailer(text)
        assert content == _expected_cut(text)
        assert content + prenormalize(trailer) == prenormalize(text)

    @pytest.mark.parametrize(
        "text, content, trailer",
        [
            ("no sentinel\r\nhere ", "no sentinel\nhere", ""),
            ("body\n" + END_SENTINEL + "\nmarker", "body\n", END_SENTINEL + "\nmarker"),
            # Text before the sentinel on its line stays content.
            ("a\nlead  in " + END_SENTINEL + " x\nb", "a\nlead in ", END_SENTINEL + " x\nb"),
            # Three or more blank lines before the sentinel become one.
            ("a\n\n\n\n" + END_SENTINEL, "a\n\n", END_SENTINEL),
            (END_SENTINEL + "\n" + END_SENTINEL, "", END_SENTINEL + "\n" + END_SENTINEL),
            # Mangled only: the whole text is normalized, then cut.
            ("a\n-----\tEND CASE DOCUMENT -----\nz", "a\n", END_SENTINEL + "\nz"),
            # A mangled sentinel above a literal one is the first.
            (
                "a\n----- END  CASE DOCUMENT -----\nb\n" + END_SENTINEL + "\nz",
                "a\n",
                END_SENTINEL + "\nb\n" + END_SENTINEL + "\nz",
            ),
        ],
    )
    def test_handpicked(self, text, content, trailer):
        got_content, got_trailer = cut_trailer(text)
        assert got_content == content
        assert prenormalize(got_trailer) == trailer

    def test_only_lines_up_to_the_sentinel_are_normalized(self):
        seen = []

        def recording(text):
            seen.append(text)
            return prenormalize(text)

        below = "\n%%CASE-GOLD:" + "QUJD" * 50 + "%%\n"
        content, trailer = cut_trailer("Full Name: A\t B\r\n" + END_SENTINEL + below, recording)
        assert content == "Full Name: A B\n"
        assert seen == ["Full Name: A\t B\n" + END_SENTINEL]
        assert trailer == END_SENTINEL + below
