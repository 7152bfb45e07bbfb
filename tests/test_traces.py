"""Trace ingestion: readers, writers, fixtures, and error context.

Covers the two shipped formats (ramulator address traces and
DRAMPower-style command CSVs), the committed 1k-line fixtures under
``tests/data/``, and the requirement that a malformed line anywhere in a
trace is reported with its file and line number.
"""

from pathlib import Path

import pytest

from repro.controller.request import (
    ReadRequest,
    TraceMapping,
    WorkloadConfig,
    generate_workload,
    read_drampower_trace,
    read_ramulator_trace,
    read_trace,
    write_drampower_trace,
    write_ramulator_trace,
)
from repro.errors import ConfigurationError, TraceError

DATA = Path(__file__).parent / "data"


class TestMapping:
    def test_decode_encode_roundtrip(self):
        m = TraceMapping()
        for die in range(m.num_dies):
            for bank in range(m.banks_per_die):
                for row in (0, 1, 4095):
                    addr = m.encode(die, bank, row)
                    assert m.decode(addr) == (die, bank, row)

    def test_sequential_stream_spreads_banks_first(self):
        m = TraceMapping()
        decoded = [m.decode(i * m.line_bytes) for i in range(m.banks_per_die)]
        assert [b for _, b, _ in decoded] == list(range(m.banks_per_die))
        assert all(d == 0 and r == 0 for d, _, r in decoded)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TraceMapping(num_dies=0)
        with pytest.raises(ConfigurationError):
            TraceMapping(line_bytes=0)


class TestFixtures:
    def test_ramulator_fixture_parses(self):
        reqs = list(read_trace(DATA / "ramulator_1k.trace"))
        assert len(reqs) == 1000
        assert all(0 <= r.die < 4 and 0 <= r.bank < 8 for r in reqs)
        assert any(r.is_write for r in reqs)

    def test_drampower_fixture_parses(self):
        reqs = list(read_trace(DATA / "drampower_1k.csv"))
        assert len(reqs) == 1000
        arrivals = [r.arrival_cycle for r in reqs]
        assert arrivals == sorted(arrivals)

    def test_fixtures_describe_the_same_stream(self):
        """Both fixtures were written from the same synthetic workload, so
        the (die, bank, row, op) sequences match."""
        ram = list(read_trace(DATA / "ramulator_1k.trace"))
        dp = list(read_trace(DATA / "drampower_1k.csv"))
        key = lambda r: (r.die, r.bank, r.row, r.is_write)  # noqa: E731
        assert [key(r) for r in ram] == [key(r) for r in dp]


class TestRoundTrip:
    def _workload(self):
        return generate_workload(
            WorkloadConfig(
                num_requests=200, seed=11, write_fraction=0.3, arrival_interval=3
            )
        )

    def test_drampower_roundtrip_exact(self, tmp_path):
        wl = self._workload()
        out = tmp_path / "t.csv"
        assert write_drampower_trace(out, wl) == 200
        back = list(read_drampower_trace(out))
        assert [
            (r.die, r.bank, r.row, r.arrival_cycle, r.is_write) for r in back
        ] == [(r.die, r.bank, r.row, r.arrival_cycle, r.is_write) for r in wl]

    def test_ramulator_roundtrip_resynthesizes_arrivals(self, tmp_path):
        wl = self._workload()
        out = tmp_path / "t.trace"
        assert write_ramulator_trace(out, wl) == 200
        back = list(read_ramulator_trace(out, arrival_interval=3))
        # The format has no timestamps: (die, bank, row, op) round-trips,
        # arrivals are re-synthesized at the requested interval.
        assert [(r.die, r.bank, r.row, r.is_write) for r in back] == [
            (r.die, r.bank, r.row, r.is_write) for r in wl
        ]
        assert [r.arrival_cycle for r in back] == [3 * i for i in range(200)]

    def test_fractional_arrival_interval(self, tmp_path):
        out = tmp_path / "t.trace"
        out.write_text("0x0 R\n0x40 R\n0x80 R\n0xc0 R\n")
        back = list(read_ramulator_trace(out, arrival_interval=0.5))
        assert [r.arrival_cycle for r in back] == [0, 0, 1, 1]


class TestMalformedLines:
    def _expect_error(self, path, match, lineno):
        with pytest.raises(TraceError) as exc_info:
            list(read_trace(path))
        err = exc_info.value
        assert err.context["path"] == str(path)
        assert err.context["line"] == lineno
        assert match in str(err)

    def test_ramulator_bad_field_count(self, tmp_path):
        p = tmp_path / "t.trace"
        p.write_text("0x0 R\n0x40 R W\n")
        self._expect_error(p, "expected '<hex address> <R|W>'", 2)

    def test_ramulator_bad_address(self, tmp_path):
        p = tmp_path / "t.trace"
        p.write_text("# comment\n0xzz R\n")
        self._expect_error(p, "bad address", 2)

    def test_ramulator_bad_op(self, tmp_path):
        p = tmp_path / "t.trace"
        p.write_text("0x0 R\n\n0x40 X\n")
        self._expect_error(p, "bad op", 3)

    def test_drampower_bad_field_count(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("cycle,command,die,bank,row\n1,RD,0,0\n")
        self._expect_error(p, "expected", 2)

    def test_drampower_non_integer(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,RD,0,x,5\n")
        self._expect_error(p, "non-integer", 1)

    def test_drampower_unsupported_command(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,ACT,0,0,5\n")
        self._expect_error(p, "unsupported command", 1)

    def test_drampower_time_goes_backwards(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("5,RD,0,0,1\n3,RD,0,1,1\n")
        self._expect_error(p, "goes backwards", 2)

    def test_drampower_header_after_comment(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "# exported by a DRAMPower run\n\n"
            "cycle,command,die,bank,row\n7,WR,1,2,3\n"
        )
        reqs = list(read_drampower_trace(p))
        assert len(reqs) == 1
        r = reqs[0]
        assert (r.arrival_cycle, r.is_write, r.die, r.bank, r.row) == (
            7, True, 1, 2, 3,
        )

    def test_drampower_header_after_data_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,RD,0,0,5\ncycle,command,die,bank,row\n")
        self._expect_error(p, "non-integer", 2)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_trace(tmp_path / "t.trace", fmt="vcd")

    def test_error_renders_path_and_line(self, tmp_path):
        p = tmp_path / "deep.trace"
        p.write_text("0x0 R\n" * 10 + "garbage\n")
        with pytest.raises(TraceError) as exc_info:
            list(read_ramulator_trace(p))
        rendered = str(exc_info.value)
        assert str(p) in rendered
        assert "line=11" in rendered


class TestStreamingBehavior:
    def test_reader_is_lazy(self, tmp_path):
        """The reader must not pre-parse the file: a bad line past the
        consumed prefix never raises."""
        p = tmp_path / "t.trace"
        p.write_text("0x0 R\n0x40 W\ngarbage\n")
        it = read_ramulator_trace(p)
        first = next(it)
        second = next(it)
        assert isinstance(first, ReadRequest)
        assert second.is_write
        with pytest.raises(TraceError):
            next(it)


def _reference_parse(path, mapping=TraceMapping(), arrival_interval=1.0):
    """A plain line-by-line ramulator parse: the definition the reader's
    loop must reproduce request for request."""
    out = []
    for raw in Path(path).read_text().splitlines():
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        addr_s, op = text.split()
        die, bank, row = mapping.decode(int(addr_s, 16))
        req_id = len(out)
        out.append(
            ReadRequest(
                req_id=req_id,
                die=die,
                bank=bank,
                row=row,
                arrival_cycle=int(req_id * arrival_interval),
                is_write=op.upper() == "W",
            )
        )
    return out


def _fields(r):
    return (
        r.req_id, r.die, r.bank, r.row, r.arrival_cycle, r.is_write,
        r.issue_cycle, r.complete_cycle,
    )


class TestReaderFastPath:
    """The ramulator reader splits each line once and builds requests
    positionally; it must stream exactly the requests a plain parse
    yields, and fail exactly as before."""

    @pytest.mark.parametrize("interval", [1.0, 0.5, 3, 2.5, 0.0])
    def test_fixture_matches_reference(self, interval):
        path = DATA / "ramulator_1k.trace"
        got = list(read_ramulator_trace(path, arrival_interval=interval))
        want = _reference_parse(path, arrival_interval=interval)
        assert [_fields(r) for r in got] == [_fields(r) for r in want]

    @pytest.mark.parametrize(
        "mapping",
        [TraceMapping(), TraceMapping(num_dies=3, banks_per_die=5, num_rows=7)],
    )
    def test_generated_mixed_trace_matches_reference(self, tmp_path, mapping):
        path = tmp_path / "mixed.trace"
        wl = generate_workload(
            WorkloadConfig(num_requests=3000, seed=9, write_fraction=0.3)
        )
        write_ramulator_trace(path, wl)
        got = list(read_ramulator_trace(path, mapping=mapping))
        want = _reference_parse(path, mapping=mapping)
        assert len(got) == 3000
        assert sum(r.is_write for r in got) > 600
        assert [_fields(r) for r in got] == [_fields(r) for r in want]

    def test_lowercase_ops_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "t.trace"
        p.write_text(
            "# header comment\n"
            "\n"
            "0x0 r\n"
            "   \t\n"
            "  # indented comment\n"
            "\t0x40\tw  \n"
            "#0x80 R\n"
            "0X80 R\n"
        )
        got = list(read_ramulator_trace(p))
        assert [_fields(r) for r in got] == [_fields(r) for r in _reference_parse(p)]
        assert [(r.bank, r.is_write, r.arrival_cycle) for r in got] == [
            (0, False, 0), (1, True, 1), (2, False, 2),
        ]

    @pytest.mark.parametrize(
        "text, message, lineno",
        [
            ("0x0 R\n0x40\n", "expected '<hex address> <R|W>', got '0x40'", 2),
            ("0x0 R\n  0x40 R W  \n", "expected '<hex address> <R|W>', got '0x40 R W'", 2),
            ("\n# c\n0xzz R\n", "bad address '0xzz'", 3),
            ("0x0 R\n-0x40 W\n", "negative address '-0x40'", 2),
            ("0x0 R\n0x40 X\n", "bad op 'X' (expected R or W)", 2),
            ("0x0 RW\n", "bad op 'RW' (expected R or W)", 1),
        ],
    )
    def test_errors_keep_message_path_and_line(self, tmp_path, text, message, lineno):
        p = tmp_path / "bad.trace"
        p.write_text(text)
        with pytest.raises(TraceError) as exc_info:
            list(read_ramulator_trace(p))
        err = exc_info.value
        assert err.args == (message,)
        assert err.context == {"path": str(p), "line": lineno}
