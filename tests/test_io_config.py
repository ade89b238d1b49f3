import math
import warnings
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wfhsim.io

from wfhsim.cli import main
from wfhsim.config import (
    KEY_PARSERS,
    ConfigError,
    _defaults_text,
    load_config,
    parse_config_text,
)
from wfhsim.constellation import build_psk
from wfhsim.io import (
    _BLOCK_ROWS,
    _g17_rows,
    format_value,
    parse_table,
    read_trace_bin,
    read_trace_csv,
    render_table,
    write_trace_bin,
    write_trace_csv,
)
from wfhsim.lock_sim import simulate_lock
from wfhsim.phase_metrology import PhaseTrace


class TestFloatFormatting:
    @pytest.mark.parametrize(
        "x", [0.1, 1.0 / 3.0, 2.04, math.pi, 1e-300, 12345.6789, 1e17, 4.9e-324]
    )
    def test_round_trip_exact(self, x):
        assert float(format_value(x)) == x

    def test_ints_stay_ints(self):
        assert format_value(42) == "42"

    def test_bools_lowercase(self):
        assert format_value(True) == "true"

    def test_numpy_bools_lowercase(self):
        assert (format_value(np.True_), format_value(np.False_)) == ("true", "false")


class TestTables:
    def test_csv_round_trip(self):
        header = ["a", "b"]
        rows = [(1, 0.1), (2, 1.0 / 3.0)]
        text = render_table(header, rows, meta={"alpha": 2.04})
        meta, hdr, parsed = parse_table(text)
        assert hdr == header
        assert float(meta["alpha"]) == 2.04
        assert [(int(r[0]), float(r[1])) for r in parsed] == rows

    def test_lf_endings_and_header(self):
        text = render_table(["x"], [(1,)])
        assert "\r" not in text
        assert text.splitlines()[0] == "x"


def reference_trace_csv(trace) -> str:
    """The row-by-row rendering the bulk trace writer must reproduce."""
    rows = [(i * trace.dt, v) for i, v in enumerate(trace.samples)]
    return render_table(["t_s", "value"], rows, meta={"dt": trace.dt})


SPECIAL_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
    math.inf, -math.inf, 0.1, -1.0 / 3.0,
]


class TestTraceFiles:
    def test_csv_round_trip(self, tmp_path):
        trace = PhaseTrace(np.array([0.1, -0.2, 0.3]), 1e-3)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        back = read_trace_csv(path)
        assert np.array_equal(back.samples, trace.samples)
        assert back.dt == trace.dt

    def test_csv_dt_inferred_without_meta(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("t_s,value\n0,0.5\n0.001,0.25\n0.002,0.75\n")
        back = read_trace_csv(path)
        assert back.dt == pytest.approx(1e-3)

    @pytest.mark.parametrize("dt", [1e-4, 1.0 / 3.0])
    def test_csv_bytes_match_row_renderer(self, tmp_path, dt):
        rng = np.random.default_rng(11)
        samples = np.concatenate([rng.normal(0.0, 0.3, 10_000), SPECIAL_VALUES])
        trace = PhaseTrace(samples, dt)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        assert path.read_bytes() == reference_trace_csv(trace).encode()
        back = read_trace_csv(path)
        assert np.array_equal(back.samples, trace.samples)
        assert back.dt == trace.dt
        assert [math.copysign(1.0, v) for v in back.samples[-11:]] == [
            math.copysign(1.0, v) for v in SPECIAL_VALUES
        ]

    def test_csv_bytes_match_row_renderer_for_nan(self, tmp_path):
        # PhaseTrace rejects NaN, so the writer gets a stand-in with its fields
        trace = SimpleNamespace(samples=np.array([0.5, math.nan, -math.nan]), dt=0.1)
        path = tmp_path / "nan.csv"
        write_trace_csv(path, trace)
        assert path.read_bytes() == reference_trace_csv(trace).encode()

    @pytest.mark.parametrize("n", [0, 1])
    def test_csv_too_short_is_rejected_without_warnings(self, tmp_path, n):
        # PhaseTrace needs two samples, so the writer gets a stand-in
        trace = SimpleNamespace(samples=np.arange(n, dtype=float), dt=0.5)
        path = tmp_path / "short.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_trace_csv(path, trace)
            assert path.read_bytes() == reference_trace_csv(trace).encode()
            with pytest.raises(ValueError, match="at least 2 samples"):
                read_trace_csv(path)

    def test_csv_reader_follows_table_grammar(self, tmp_path):
        text = (
            "# dt=0.25\n# source=hand edited\n\nt_s,value\n# a note\n"
            "0,0.5   \n\n0.25,-1.25e-3\n# dt is unchanged\n 0.5 , 3 \n"
        )
        path = tmp_path / "edited.csv"
        path.write_text(text)
        meta, _, rows = parse_table(text)
        back = read_trace_csv(path)
        assert back.samples.tolist() == [float(r[1]) for r in rows]
        assert back.dt == float(meta["dt"])

    @pytest.mark.parametrize(
        "row", ["0.2", "0.2,abc", "0.2,", "   "], ids=["one-cell", "text", "empty", "spaces"]
    )
    def test_csv_malformed_row_raises(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"# dt=0.1\nt_s,value\n0,0.5\n0.1,0.25\n{row}\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)
        assert main(["allan", "--input", str(path), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("command", ["allan", "asd"])
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_non_finite_dt_exits_with_error(self, tmp_path, capsys, command, fmt):
        path = tmp_path / f"nan_dt.{fmt}"
        if fmt == "csv":
            path.write_text("# dt=nan\nt_s,value\n0,0.5\n1,0.25\n2,0.75\n3,0.5\n")
        else:
            path.write_bytes(b"WFTRACE1 dt=nan n=4\n" + np.zeros(4).tobytes())
        out = tmp_path / "o"
        assert main([command, "--input", str(path), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (out / f"{command}.csv").exists()

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        trace = PhaseTrace(rng.normal(size=1000), 1e-4)
        path = tmp_path / "trace.bin"
        write_trace_bin(path, trace)
        back = read_trace_bin(path)
        assert np.array_equal(back.samples, trace.samples)
        assert back.dt == trace.dt

    def test_binary_magic_checked(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a trace")
        with pytest.raises(ValueError):
            read_trace_bin(path)

    @pytest.mark.parametrize(
        "header,payload_bytes",
        [
            (b" n=2\n", 16),
            (b" dt=0.1\n", 16),
            (b" dt=0.1 n=-1\n", 16),
            (b" dt=0.1 n=2\n", 24),
            (b" dt=0.1 n=2\n", 15),
        ],
        ids=["no-dt", "no-n", "negative-n", "long-payload", "short-payload"],
    )
    def test_binary_header_checked(self, tmp_path, header, payload_bytes):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WFTRACE1" + header + bytes(payload_bytes))
        with pytest.raises(ValueError):
            read_trace_bin(path)
        assert main(["allan", "--input", str(path), "--out", str(tmp_path / "o")]) == 1


def percent_rows(t, v) -> bytes:
    """The ``%`` rendering the vectorized trace formatter must reproduce."""
    cells = np.column_stack((t, v)).ravel().tolist()
    return (("%.17g,%.17g\n" * len(t)) % tuple(cells)).encode()


def assert_rows_match(values):
    """Both columns, one of them reversed, render exactly as ``%`` does."""
    t = np.asarray(values, dtype=np.float64)
    v = t[::-1].copy()
    assert _g17_rows(t, v) == percent_rows(t, v)


def ulp_neighbours(x: float, steps: int) -> list[float]:
    out = [x]
    up = down = x
    for _ in range(steps):
        up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
        out += [float(up), float(down)]
    return out


ANY_DOUBLE = st.floats(allow_nan=False, width=64)
FAST_RANGE = st.floats(min_value=1e-250, max_value=1e250) | st.floats(
    min_value=-1e250, max_value=-1e-250
)
# doubles just below 10**k whose 17-digit rounding carries to exactly 10**k
CARRIES = [(-243, 1e-243), (-79, 1e-79), (-14, 1e-14), (98, 1e98)]


class TestTraceFormatter:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(ANY_DOUBLE | FAST_RANGE, ANY_DOUBLE | FAST_RANGE), max_size=30))
    def test_arbitrary_columns_match_percent(self, rows):
        cells = np.array(rows, dtype=np.float64).reshape(-1, 2)
        t, v = cells[:, 0].copy(), cells[:, 1].copy()
        assert _g17_rows(t, v) == percent_rows(t, v)

    def test_random_bits_and_magnitudes_match_percent(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(np.float64)
        magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, 40_000)
        signs = rng.choice([-1.0, 1.0], 40_000)
        assert_rows_match(np.concatenate([bits, magnitudes * signs]))

    @pytest.mark.parametrize("switch", [1e-5, 1e-4, 1e16, 1e17])
    def test_notation_switches(self, switch):
        values = ulp_neighbours(switch, 40)
        values += [switch * f for f in (0.99999999999999989, 1.0000000000000002, 0.5, 9.5)]
        assert_rows_match(values + [-x for x in values])

    def test_powers_of_ten_and_their_neighbours(self):
        values = []
        for k in range(-330, 309):
            values += ulp_neighbours(float(Fraction(10) ** k), 2)
        assert_rows_match(values + [-x for x in values])

    def test_rounding_carries_into_next_decade(self):
        for k, x in CARRIES:
            assert Fraction(x) < Fraction(10) ** k
            assert "%.17g" % x == f"1e{k:+03d}"
        values = [x for _, x in CARRIES] + [np.nextafter(1.0, 0.0), np.nextafter(10.0, 0.0)]
        assert_rows_match(values + [-x for x in values])

    def test_exact_decimal_ties(self):
        # 18 significant digits ending in 5: the 17-digit rounding is a tie
        # that CPython breaks to even, in either direction
        whole = np.arange(1_000_000_000_000_000, 1_000_000_000_000_400, dtype=np.int64)
        ties = np.concatenate([whole + 0.25, whole + 0.75, [1234567890123456.75]])
        assert "%.17g" % 1234567890123456.75 == "1234567890123456.8"
        assert_rows_match(np.concatenate([ties, -ties]))

    @pytest.mark.parametrize(
        "n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]
    )
    @pytest.mark.parametrize("zeros", [0.0, 0.5, 1.0])
    def test_block_edges(self, tmp_path, n, zeros):
        # zero cells fall back: none, about half, or every row of each block
        rng = np.random.default_rng(n)
        samples = rng.normal(0.0, 0.3, n)
        samples[rng.random(n) < zeros] = 0.0
        trace = SimpleNamespace(samples=samples, dt=1e-4)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        assert path.read_bytes() == reference_trace_csv(trace).encode()

    def test_default_lock_trace_rarely_falls_back(self, tmp_path, monkeypatch):
        config = load_config()
        trace = simulate_lock(
            float(config["lock.duration_s"]),
            float(config["lock.dt_s"]),
            config.pi_fast(),
            config.actuator(),
            replace(config.noise_model(seed=0), box_closed=True),
        )
        fallback_rows = []
        percent_rows_of = wfhsim.io._percent_rows

        def counting(cells):
            fallback_rows.extend(cells.tolist())
            return percent_rows_of(cells)

        monkeypatch.setattr(wfhsim.io, "_percent_rows", counting)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        assert (len(trace), trace.dt) == (600_000, 1e-4)
        assert fallback_rows[0][0] == 0.0  # the t = 0 row
        assert len(fallback_rows) <= 3


class TestConfig:
    def test_defaults_load(self):
        config = load_config()
        assert config["constellation.m"] == 4
        assert config["receiver.lo_amplitude"] == pytest.approx(3.53)
        assert config["sweep.visibilities"] == (1.0, 0.845)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("receiver.typo = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_user_file_overrides_defaults(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("receiver.visibility = 0.845\n# comment\n")
        config = load_config(f)
        assert config["receiver.visibility"] == 0.845

    def test_explicit_overrides_win(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("montecarlo.shots = 5\n")
        config = load_config(f, overrides={"montecarlo.shots": "7"})
        assert config["montecarlo.shots"] == 7

    def test_invalid_value_reports_key(self):
        for key, value in [
            ("constellation.m", "four"),
            ("channel.loss_db_stop", "inf"),
            ("lock.duration_s", "inf"),
            ("lock.duration_s", "nan"),
            ("sweep.visibilities", "1.0, nan"),
        ]:
            with pytest.raises(ConfigError, match=f"invalid value for {key}"):
                load_config(overrides={key: value})

    def test_non_finite_value_exits_with_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["sweep-kgr", "--set", "channel.loss_db_stop=inf", "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: invalid value for channel.loss_db_stop")
        assert not out.exists()

    def test_defaults_set_exactly_the_known_keys(self):
        assert set(parse_config_text(_defaults_text())) == set(KEY_PARSERS)

    @pytest.mark.parametrize("key", ["lock.ki_slow", "constellation.phi0"])
    def test_deleted_keys_rejected(self, key):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(overrides={key: "0.5"})
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(f"{key} = 0.5\n")

    def test_loss_grid(self):
        config = load_config(overrides={
            "channel.loss_db_start": "0",
            "channel.loss_db_stop": "1",
            "channel.loss_db_step": "0.25",
        })
        assert config.loss_grid() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_empty_grid_rejected_at_load(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"channel.loss_db_step": "-1"})

    @pytest.mark.parametrize(
        "stop,step,n",
        [("1.0", "0.6", 2), ("1.0", "0.5", 3), ("0.3", "0.1", 4), ("0.29", "0.1", 3)],
    )
    def test_loss_grid_ends_at_or_below_stop(self, stop, step, n):
        config = load_config(
            overrides={"channel.loss_db_stop": stop, "channel.loss_db_step": step}
        )
        grid = config.loss_grid()
        assert len(grid) == n
        # the last point is stop up to rounding, and the next one lies beyond it
        assert grid[-1] <= float(stop) + 1e-12
        assert grid[-1] + float(step) > float(stop)

    def test_shipped_loss_grids_unchanged(self):
        assert load_config().loss_grid() == [0.25 * i for i in range(41)]
        one_db = load_config(overrides={"channel.loss_db_step": "1.0"})
        assert one_db.loss_grid() == [float(i) for i in range(11)]

    @pytest.mark.parametrize("m", ["0", "-4"])
    def test_allan_min_m_below_one_rejected(self, m):
        # doubling from m <= 0 never passes allan_max_m
        with pytest.raises(ConfigError, match="allan_min_m"):
            load_config(overrides={"lock.allan_min_m": m})

    def test_repetitions_above_shots_rejected(self):
        with pytest.raises(ConfigError, match="montecarlo.repetitions"):
            load_config(overrides={"montecarlo.shots": "4", "montecarlo.repetitions": "5"})
        load_config(overrides={"montecarlo.shots": "4", "montecarlo.repetitions": "4"})

    @pytest.mark.parametrize("segment_s", ["0.00004", "0.0001", "60.001"])
    def test_asd_segment_outside_trace_rejected(self, segment_s):
        # dt = 1e-4 s and a 60 s trace: a segment needs 2 to 600000 samples
        with pytest.raises(ConfigError, match="asd_segment_s"):
            load_config(overrides={"lock.asd_segment_s": segment_s})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"lock.duration_s": "1"},  # 10000 samples; the default ladder tops out at m = 65536
            {"lock.duration_s": "0.0128", "lock.allan_max_m": "64", "lock.asd_segment_s": "0.001"},
        ],
        ids=["default-ladder", "2m-equals-n"],
    )
    def test_allan_time_outside_trace_rejected(self, overrides):
        with pytest.raises(ConfigError, match="allan_max_m"):
            load_config(overrides=overrides)

    def test_allan_time_inside_trace_accepted(self):
        # 129 samples hold m = 64, the top of the 64..64 ladder
        load_config(
            overrides={"lock.duration_s": "0.0129", "lock.allan_max_m": "64", "lock.asd_segment_s": "0.001"}
        )

    @pytest.mark.parametrize("segment_s", ["0.0002", "60.0"])
    def test_asd_segment_limits_accepted(self, segment_s):
        load_config(overrides={"lock.asd_segment_s": segment_s})

    @pytest.mark.parametrize(
        "key,value,section",
        [
            ("receiver.visibility", "1.5", "receiver"),
            ("constellation.m", "1", "constellation"),
            ("montecarlo.crosstalk_prob", "1.0", "montecarlo"),
            ("lock.noise_white_rms", "-0.1", "lock"),
            ("lock.asd_overlap", "0.95", "lock"),
            ("sweep.visibilities", "1.0, 1.2", "sweep"),
        ],
    )
    def test_module_invariants_checked_at_load(self, key, value, section):
        with pytest.raises(ConfigError, match=section):
            load_config(overrides={key: value})

    def test_auto_phi0(self):
        # orders 2 and 4 read the sweep keys; every other order takes pi/(2M)
        config = load_config()
        assert config.sweep_phi0(8) is None
        assert build_psk(8, 1.0, config.sweep_phi0(8)).phi0 == pytest.approx(math.pi / 16)
        assert config.sweep_phi0(4) == pytest.approx(math.pi / 8)
        config2 = load_config(overrides={"sweep.qpsk_phi0": "0.5"})
        assert config2.sweep_phi0(4) == 0.5

    def test_format_validation(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"output.format": "xml"})
