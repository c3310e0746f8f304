"""Tests for repro.metadata.shadow: shadow memory and registers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import PAGE_SIZE, WORD_SIZE, keys_in_range, words_in_range
from repro.metadata import ShadowMemory, ShadowRegisters, WordBytes


class TestShadowMemory:
    def test_default_for_unshadowed(self):
        shadow = ShadowMemory(default=7)
        assert shadow.read(0x1234) == 7

    def test_word_granularity(self):
        shadow = ShadowMemory()
        shadow.write(0x1000, 5)
        for offset in range(WORD_SIZE):
            assert shadow.read(0x1000 + offset) == 5
        assert shadow.read(0x1004) == 0

    def test_write_reports_change(self):
        shadow = ShadowMemory()
        assert shadow.write(0x10, 1)
        assert not shadow.write(0x10, 1)
        assert shadow.write(0x10, 2)

    def test_writing_default_reclaims_storage(self):
        shadow = ShadowMemory(default=0)
        shadow.write(0x10, 3)
        assert len(shadow) == 1
        shadow.write(0x10, 0)
        assert len(shadow) == 0
        assert shadow.read(0x10) == 0

    def test_rejects_out_of_range_values(self):
        shadow = ShadowMemory()
        with pytest.raises(ValueError):
            shadow.write(0, 256)
        with pytest.raises(ValueError):
            ShadowMemory(default=300)

    def test_bulk_set_equals_word_loop(self):
        bulk = ShadowMemory()
        loop = ShadowMemory()
        start, length, value = 0x103, 37, 9
        words = bulk.fill(start, length, value)
        count = 0
        from repro.common.units import words_in_range

        for word in words_in_range(start, length):
            loop.write(word, value)
            count += 1
        assert words == count
        assert bulk.snapshot() == loop.snapshot()

    def test_snapshot_is_a_copy(self):
        shadow = ShadowMemory()
        shadow.write(0x10, 3)
        snapshot = shadow.snapshot()
        shadow.write(0x20, 4)
        assert 0x20 - (0x20 % WORD_SIZE) not in snapshot

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=256),
                st.integers(min_value=0, max_value=255),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_last_write_wins(self, writes):
        """Property: a read returns the last write to the containing word."""
        shadow = ShadowMemory(default=0)
        model = {}
        for address, value in writes:
            shadow.write(address, value)
            model[ShadowMemory.word_address(address)] = value
        for word, value in model.items():
            assert shadow.read(word) == value


#: Page-aware range starts/lengths: page boundaries, a word either side of
#: them, and arbitrary offsets, so ranges straddle pages, cover whole pages
#: or stay partial.
_BOUNDARY = st.sampled_from([0, WORD_SIZE, PAGE_SIZE - WORD_SIZE])
_ADDRESS = st.one_of(
    st.builds(
        lambda page, offset: page * PAGE_SIZE + offset,
        st.integers(min_value=0, max_value=4),
        _BOUNDARY,
    ),
    st.integers(min_value=0, max_value=5 * PAGE_SIZE),
)
_LENGTH = st.one_of(
    st.sampled_from([0, 1, WORD_SIZE, PAGE_SIZE, 2 * PAGE_SIZE, 3 * PAGE_SIZE]),
    st.integers(min_value=0, max_value=3 * PAGE_SIZE + 9),
)
_VALUE = st.sampled_from([0x00, 0x01, 0x03, 0x81, 0xFF])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _ADDRESS, st.just(0), _VALUE),
        st.tuples(st.just("fill"), _ADDRESS, _LENGTH, _VALUE),
    ),
    max_size=40,
)


class TestPagedMap:
    """The paged byte map against a plain-dict reference model."""

    @given(default=st.sampled_from([0x00, 0xFF]), ops=_OPS)
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_model(self, default, ops):
        shadow = ShadowMemory(default=default)
        model = {}
        for op, address, length, value in ops:
            if op == "write":
                word = ShadowMemory.word_address(address)
                assert shadow.write(address, value) == (
                    model.get(word, default) != value
                )
                model[word] = value
            else:
                covered = getattr(shadow, op)(address, length, value)
                words = words_in_range(address, length)
                assert covered == len(words)
                model.update(dict.fromkeys(words, value))
        expected = {word: v for word, v in model.items() if v != default}
        assert shadow.snapshot() == expected
        assert dict(shadow.items()) == expected
        assert len(shadow) == len(expected)
        for word in range(0, 9 * PAGE_SIZE // 2, WORD_SIZE):
            assert shadow.read(word + 3) == model.get(word, default)

    @given(default=st.sampled_from([0x00, 0xFF]), ops=_OPS)
    @settings(max_examples=50, deadline=None)
    def test_restore_state_round_trips_in_place(self, default, ops):
        shadow = ShadowMemory(default=default)
        for op, address, length, value in ops:
            if op == "write":
                shadow.write(address, value)
            else:
                getattr(shadow, op)(address, length, value)
        state = shadow.capture_state()
        assert all(type(page) is bytes for page in state["pages"].values())
        other = ShadowMemory(default=default)
        other.write(7 * PAGE_SIZE, 0x42)  # Stale contents restore replaces.
        pages = other.pages
        other.restore_state(state)
        assert other.pages is pages
        assert other.snapshot() == shadow.snapshot()
        # Restored pages are private copies, not views of the state.
        other.fill(0, 5 * PAGE_SIZE, 0x42)
        assert state == shadow.capture_state()

    def test_default_fill_over_empty_map_creates_no_pages(self):
        for default in (0x00, 0xFF):
            shadow = ShadowMemory(default=default)
            assert shadow.fill(0x123, 5 * PAGE_SIZE, default) > 0
            assert shadow.pages == {}
            assert not shadow.write(0x40, default)
            assert shadow.pages == {}

    def test_whole_page_fill_drops_or_replaces_pages(self):
        table = WordBytes(default=0)
        table.fill(0, 3 * PAGE_SIZE, 0x07)
        assert sorted(table.pages) == [0, 1, 2]
        table.fill(PAGE_SIZE, PAGE_SIZE, 0)
        assert sorted(table.pages) == [0, 2]
        assert len(table) == 2 * PAGE_SIZE // WORD_SIZE

    def test_fill_rejects_out_of_range_value_before_mutating(self):
        table = WordBytes()
        with pytest.raises(ValueError):
            table.fill(0, PAGE_SIZE, 256)
        with pytest.raises(ValueError):
            table.write(0, -1)
        assert table.pages == {}


class TestKeysInRange:
    @given(
        keys=st.sets(
            st.integers(min_value=0, max_value=512).map(lambda w: w * WORD_SIZE)
        ),
        start=st.integers(min_value=0, max_value=2048),
        length=st.integers(min_value=0, max_value=2048),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_filter(self, keys, start, length):
        words = words_in_range(start, length)
        expected = [word for word in words if word in keys]
        assert keys_in_range(keys, words) == expected
        assert keys_in_range(dict.fromkeys(keys), words) == expected

    def test_ascending_on_both_branches(self):
        # Insertion order deliberately descending.
        table = dict.fromkeys([400, 40, 8, 4, 0])
        small = words_in_range(0, 12)  # Shorter than the table: probes it.
        large = words_in_range(0, 4096)  # Longer: scans and sorts the table.
        assert len(small) <= len(table) < len(large)
        assert keys_in_range(table, small) == [0, 4, 8]
        assert keys_in_range(table, large) == [0, 4, 8, 40, 400]


class TestShadowRegisters:
    def test_defaults(self):
        registers = ShadowRegisters(num_registers=8, default=3)
        assert all(registers.read(index) == 3 for index in range(8))

    def test_write_and_change_detection(self):
        registers = ShadowRegisters()
        assert registers.write(4, 9)
        assert not registers.write(4, 9)
        assert registers.read(4) == 9

    def test_rejects_bad_value(self):
        with pytest.raises(ValueError):
            ShadowRegisters().write(0, 999)

    def test_out_of_range_index_raises(self):
        with pytest.raises(IndexError):
            ShadowRegisters(num_registers=4).read(99)

    def test_snapshot(self):
        registers = ShadowRegisters(num_registers=3)
        registers.write(1, 5)
        assert registers.snapshot() == (0, 5, 0)
