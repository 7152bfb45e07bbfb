"""DRAM timing parameters."""

import pytest

from repro.dram import TimingParams
from repro.errors import ConfigurationError


@pytest.fixture
def timing():
    return TimingParams.ddr3_1600()


class TestTiming:
    def test_ddr3_values(self, timing):
        assert timing.clock_mhz == 800.0
        assert timing.tRRD == 8 and timing.tFAW == 32  # the paper's values
        assert timing.tRC == timing.tRAS + timing.tRP
        assert timing.tCCD == timing.burst_cycles  # zero-bubble capable

    def test_cycles_to_us(self, timing):
        # 87,440 cycles at 800 MHz = the paper's 109.3 us.
        assert timing.cycles_to_us(87440) == pytest.approx(109.3)

    def test_all_presets_valid(self):
        for preset in (
            TimingParams.ddr3_1600,
            TimingParams.wideio_200,
            TimingParams.hmc_2500,
        ):
            t = preset()
            assert t.tRAS >= t.tRCD

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TimingParams(800, 11, 11, 11, 5, 4, 8, 32, 12, 4)  # tRAS < tRCD
        with pytest.raises(ConfigurationError):
            TimingParams(-1, 11, 11, 11, 28, 4, 8, 32, 12, 4)
        with pytest.raises(ConfigurationError):
            TimingParams(800, 0, 11, 11, 28, 4, 8, 32, 12, 4)
