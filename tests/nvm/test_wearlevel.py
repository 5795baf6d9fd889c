"""Start-Gap wear levelling: translation algebra and device facade."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dewrite import DeWriteController
from repro.nvm.config import NvmConfig, NvmOrganization
from repro.nvm.memory import NvmMainMemory
from repro.nvm.wearlevel import StartGapConfig, StartGapMapper, WearLevelledNvm

LINE = 256


def small_nvm(lines: int = 1024) -> NvmMainMemory:
    return NvmMainMemory(
        NvmConfig(organization=NvmOrganization(capacity_bytes=lines * LINE))
    )


class TestMapperAlgebra:
    def test_initial_mapping_is_identity(self):
        mapper = StartGapMapper(8)
        assert [mapper.translate(l) for l in range(8)] == list(range(8))

    def test_mapping_always_bijective(self):
        mapper = StartGapMapper(8, StartGapConfig(gap_interval=1))
        for _ in range(100):
            mapper.record_write()
            assert mapper.mapping_is_bijective()

    def test_gap_move_reports_copy(self):
        mapper = StartGapMapper(8, StartGapConfig(gap_interval=1))
        move = mapper.record_write()
        assert move == (7, 8)  # line above the gap slides into it
        assert mapper.gap == 7

    def test_wrap_advances_start(self):
        mapper = StartGapMapper(4, StartGapConfig(gap_interval=1))
        for _ in range(4):
            mapper.record_write()
        assert mapper.gap == 0
        # The wrap copies the top slot's line down into slot 0.
        assert mapper.record_write() == (4, 0)
        assert mapper.start == 1
        assert mapper.gap == 4
        assert mapper.rotations == 1
        assert mapper.mapping_is_bijective()

    def test_full_rotation_returns_to_identity(self):
        region = 5
        mapper = StartGapMapper(region, StartGapConfig(gap_interval=1))
        baseline = [mapper.translate(l) for l in range(region)]
        # One full rotation = slots x (region moves + wrap).
        for _ in range((region + 1) * (region + 1)):
            mapper.record_write()
        # After slots rotations start wraps to 0 again.
        while mapper.start != 0 or mapper.gap != region:
            mapper.record_write()
        assert [mapper.translate(l) for l in range(region)] == baseline

    def test_out_of_region_rejected(self):
        mapper = StartGapMapper(8)
        with pytest.raises(IndexError):
            mapper.translate(8)

    def test_validation(self):
        with pytest.raises(ValueError):
            StartGapMapper(0)
        with pytest.raises(ValueError):
            StartGapConfig(gap_interval=0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 200))
    def test_bijectivity_under_random_churn(self, region, writes):
        mapper = StartGapMapper(region, StartGapConfig(gap_interval=1))
        for _ in range(writes):
            mapper.record_write()
        assert mapper.mapping_is_bijective()


class TestWearLevelledDevice:
    def test_read_your_writes_across_gap_moves(self):
        device = WearLevelledNvm(small_nvm(), region_lines=16, config=StartGapConfig(gap_interval=2))
        model = {}
        rng = random.Random(3)
        now = 0.0
        for step in range(200):
            address = rng.randrange(16)
            data = bytes([step % 251 + 1]) * LINE
            device.write(address, data, now)
            model[address] = data
            now += 1_000.0
            probe = rng.randrange(16)
            device.read(probe, now)
            assert device.peek(probe) == model.get(probe, bytes(LINE))
            now += 1_000.0

    def test_levelling_writes_accounted(self):
        device = WearLevelledNvm(small_nvm(), region_lines=16, config=StartGapConfig(gap_interval=5))
        now = 0.0
        for step in range(50):
            device.write(0, bytes([step % 250 + 1]) * LINE, now)
            now += 1_000.0
        assert device.levelling_writes == pytest.approx(50 / 5, abs=2)
        assert device.writes == 50 + device.levelling_writes

    def test_hot_line_wear_spreads(self):
        # A single scorching-hot line must not keep hitting one slot.
        device = WearLevelledNvm(small_nvm(), region_lines=32, config=StartGapConfig(gap_interval=1))
        now = 0.0
        total_writes = 400
        for step in range(total_writes):
            device.write(5, bytes([step % 250 + 1]) * LINE, now)
            now += 1_000.0
        max_per_slot = max(
            device.wear.writes_to(slot) for slot in range(33)
        )
        # Without levelling one slot would take all 400 writes; Start-Gap
        # at interval 1 spreads a rotation every 33 writes.
        assert max_per_slot < total_writes * 0.2

    def test_region_too_large_rejected(self):
        with pytest.raises(ValueError, match="spare"):
            WearLevelledNvm(small_nvm(16), region_lines=16)

    def test_controller_runs_on_levelled_device(self):
        # DeWrite on top of Start-Gap: full stack still a correct memory.
        base = small_nvm(64 * 1024)
        device = WearLevelledNvm(base, region_lines=64 * 1024 - 1,
                                 config=StartGapConfig(gap_interval=50))
        controller = DeWriteController(device)  # type: ignore[arg-type]
        now = 0.0
        model = {}
        rng = random.Random(7)
        for step in range(150):
            address = rng.randrange(64)
            data = bytes([rng.randrange(1, 5)]) * LINE
            now = controller.write(address, data, now).complete_ns + 100
            model[address] = data
        for address, expected in model.items():
            assert controller.read(address, now).data == expected
