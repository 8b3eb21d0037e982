"""Hypothesis strategy producing canonical, schema-valid case records.

Shared by the serialization round-trip tests and the acceptance suite. The
strategy draws leaf values that respect every cross-field rule (ordered
min/max pairs, coordinate coupling, timestamp ordering), so every generated
record validates cleanly.
"""

from datetime import date, datetime, timedelta, timezone

from hypothesis import strategies as st

from casepipe.schema import (
    SEX_VALUES,
    SOURCE_FAMILIES,
    STATUS_VALUES,
    assemble_record,
    default_schema,
)

SCHEMA = default_schema()
_ENGINES = SCHEMA.entry("provenance.engine_used").enum_values

_NAME_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz '-"
_PLACES = ("Culpeper", "Norfolk", "Richmond", "Baltimore", "Dover", "Fairfax")
_STATES = ("Virginia", "Maryland", "Delaware")
_CUES = ("Maryland", "Delaware", "Richmond", "Ocean City", "Norfolk")
_LABELS = ("missing_persons_registry", "police_bulletin", "case_profile_site")

_text = (
    st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=24)
    .map(str.strip)
    .filter(bool)
)


def _iso_datetime(base: datetime) -> str:
    return base.replace(tzinfo=timezone(timedelta(hours=-5))).isoformat()


@st.composite
def _ordered_pair(draw, lo: int, hi: int):
    first = draw(st.integers(lo, hi))
    second = draw(st.integers(first, hi))
    return first, second


@st.composite
def records(draw):
    v = {}
    v["case_id"] = f"CASE-{draw(st.integers(0, 99999)):05d}"

    v["demographic.name"] = draw(st.none() | _text)
    v["demographic.sex"] = draw(st.sampled_from(SEX_VALUES))
    v["demographic.age_years"] = draw(st.none() | st.integers(0, 120))
    if draw(st.booleans()):
        v["demographic.age_min"], v["demographic.age_max"] = draw(_ordered_pair(0, 120))
    if draw(st.booleans()):
        v["demographic.height_min_cm"], v["demographic.height_max_cm"] = draw(
            _ordered_pair(120, 210)
        )
    if draw(st.booleans()):
        v["demographic.weight_min_kg"], v["demographic.weight_max_kg"] = draw(
            _ordered_pair(30, 150)
        )
    v["demographic.race_ethnicity"] = draw(st.none() | _text)

    if draw(st.booleans()):
        city = draw(st.sampled_from(_PLACES))
        state = draw(st.sampled_from(_STATES))
        v["spatial.city"] = city
        v["spatial.state"] = state
        v["spatial.last_seen_location"] = f"{city}, {state}"
    v["spatial.county"] = draw(st.none() | _text)
    if draw(st.booleans()):
        v["spatial.postal_code"] = f"{draw(st.integers(10000, 99999))}"
    if draw(st.booleans()):
        v["spatial.lat"] = round(draw(st.floats(-89.9, 89.9, allow_nan=False)), 4)
        v["spatial.lon"] = round(draw(st.floats(-179.9, 179.9, allow_nan=False)), 4)
        v["spatial.geocode_method"] = draw(
            st.sampled_from(("gazetteer", "source_provided"))
        )
        v["spatial.geocode_plausible"] = draw(st.booleans())
    else:
        v["spatial.geocode_method"] = "none"

    base_day = date(2021, 1, 1) + timedelta(days=draw(st.integers(0, 1000)))
    base_dt = datetime.combine(base_day, datetime.min.time()) + timedelta(
        minutes=draw(st.integers(0, 1439))
    )
    last_seen_kind = draw(st.sampled_from(("none", "date", "datetime")))
    if last_seen_kind == "date":
        v["temporal.last_seen_ts"] = base_day.isoformat()
    elif last_seen_kind == "datetime":
        v["temporal.last_seen_ts"] = _iso_datetime(base_dt)
    reported_kind = draw(st.sampled_from(("none", "date", "datetime")))
    reported_dt = base_dt + timedelta(hours=draw(st.integers(0, 96)))
    if reported_kind == "date":
        v["temporal.reported_missing_ts"] = reported_dt.date().isoformat()
    elif reported_kind == "datetime":
        v["temporal.reported_missing_ts"] = _iso_datetime(reported_dt)
    if last_seen_kind != "none" or reported_kind != "none":
        v["temporal.timezone"] = draw(
            st.sampled_from(("-05:00", "UTC", "America/New_York"))
        )

    v["narrative_osint.circumstances"] = draw(st.none() | _text)
    v["narrative_osint.clothing_description"] = draw(st.none() | _text)
    v["narrative_osint.distinctive_features"] = draw(st.none() | _text)
    v["narrative_osint.movement_cues"] = draw(
        st.lists(st.sampled_from(_CUES), max_size=3, unique=True)
    )

    v["outcome.status"] = draw(st.sampled_from(STATUS_VALUES))
    if draw(st.booleans()):
        v["outcome.status_ts"] = (reported_dt + timedelta(days=3)).date().isoformat()

    v["provenance.source_label"] = draw(st.sampled_from(_LABELS))
    v["provenance.source_family"] = draw(st.none() | st.sampled_from(SOURCE_FAMILIES))
    path = draw(st.sampled_from(("rule", "llm")))
    v["provenance.extraction_path"] = path
    v["provenance.repair_count"] = 0 if path == "rule" else draw(st.integers(0, 2))
    v["provenance.engine_used"] = draw(st.none() | st.sampled_from(_ENGINES))
    v["provenance.document_id"] = f"doc-{draw(st.integers(0, 999)):03d}"
    v["provenance.ingest_ts"] = "2025-01-15T09:30:00+00:00"
    v["provenance.warnings_count"] = draw(st.integers(0, 3))
    origins = {}
    for origin_path in draw(
        st.lists(
            st.sampled_from(("demographic.name", "spatial.city", "temporal.last_seen_ts")),
            max_size=2,
            unique=True,
        )
    ):
        start = draw(st.integers(0, 400))
        origins[origin_path] = [draw(st.integers(0, 3)), start, start + draw(st.integers(1, 40))]
    v["provenance.field_origins"] = origins

    return assemble_record(v, SCHEMA)
