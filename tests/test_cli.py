import hashlib
import math
import os
import shlex
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from uqsim import cli, harness
from uqsim.cli import SETTINGS, build_experiment_config, build_parser, load_config_file, main
from uqsim.engine import TransportKind
from uqsim.harness import (
    CSV_COLUMNS,
    FIGURE_SPECS,
    MAX_DESTINATIONS,
    SWEEP_AXES,
    ExperimentConfig,
    run_sweep,
    sweep_rows,
    write_figure_csv,
)
from uqsim.messages import MAX_SIZE_BYTES, dump_trace, parse_trace_record
from uqsim.traffic import (
    MAX_MESSAGE_COUNT,
    TrafficConfig,
    derive_seed,
    generate_schedule,
)


def run_cli(args):
    return main(args)


def test_run_prints_summary(capsys):
    rc = run_cli(["run", "--protocol", "udp", "--seed", "7", "--messages", "200"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "messages_sent: 200" in out
    assert "messages_delivered: 200" in out


def test_run_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "row.csv"
    rc = run_cli(
        ["run", "--protocol", "tcp", "--seed", "7", "--messages", "100", "--out", str(out_path)]
    )
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert lines[1].startswith("tcp,one_to_one,512,")


def test_print_config_lists_settings(capsys):
    rc = run_cli(["run", "--print-config", "--seed", "3", "--packet-size", "256"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "packet_size_bytes=256" in out
    assert "seed=3" in out
    assert "derived_cell_seed=" in out
    assert "schedule=poisson" in out


def test_config_file_applies_and_flags_override(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text(
        "# comment line\n"
        "packet_size_bytes = 256\n"
        "receiver_delay_s = 0.05\n"
        "schedule = uniform\n"
    )
    rc = run_cli(
        ["run", "--print-config", "--config", str(config), "--packet-size", "128"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "packet_size_bytes=128" in out  # flag wins
    assert "receiver_delay_s=0.05" in out  # file applies
    assert "schedule=uniform" in out


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("warp_factor = 9\n")
    rc = run_cli(["run", "--config", str(config)])
    assert rc == 1
    assert "unknown setting" in capsys.readouterr().err


def test_load_config_file_parses_types(tmp_path):
    config = tmp_path / "ok.conf"
    config.write_text("window_size = 2\nloss_prob = 0.25\nprotocol = tcp_uqa\n")
    settings = load_config_file(str(config))
    assert settings == {"window_size": 2, "loss_prob": 0.25, "protocol": "tcp_uqa"}


def test_invalid_flag_value_exits_nonzero(capsys):
    rc = run_cli(["run", "--protocol", "bogus"])
    assert_clean_rejection(rc, capsys.readouterr().err, "--protocol")


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["run", "--window", "2.5"], "--window"),
        (["run", "--messages", "1e3"], "--messages"),
        (["run", "--topology", "ring"], "--topology"),
        (["run", "--bogus"], "--bogus"),
        (["replay"], "--trace"),
        (["sweep", "--jobs", "x"], "--jobs"),
        (["bogus"], "bogus"),
    ],
)
def test_bad_flags_are_rejected_as_config_lines_are(capsys, argv, needle):
    # Each printed a usage block and exited 2; a bad config line exits 1.
    rc = run_cli(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_clean_rejection(rc, captured.err, needle)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["run", "--help"])
    assert excinfo.value.code == 0
    assert "--window" in capsys.readouterr().out


def test_model_flags_cast_as_their_settings():
    args = build_parser().parse_args([
        "run", "--seed", "3", "--loss", "0", "--window", "2", "--queue-variant", "keyed",
        "--schedule", "uniform", "--protocol", "tcp", "--topology", "one_to_one",
        "--packet-size", "8", "--receiver-delay", "0", "--messages", "5", "--duration", "9",
    ])
    flagged = {name: getattr(args, name) for name in SETTINGS if getattr(args, name, None) is not None}
    assert len(flagged) == 11
    assert {name: type(value) for name, value in flagged.items()} == {
        name: SETTINGS[name][0] for name in flagged
    }


def test_invalid_model_value_reports_error(capsys):
    rc = run_cli(["run", "--protocol", "udp", "--loss", "1.5"])
    assert rc == 1
    assert "loss_prob" in capsys.readouterr().err


def test_sweep_writes_all_csvs(tmp_path, capsys):
    out = tmp_path / "res.csv"
    rc = run_cli(["sweep", "--seed", "5", "--jobs", "2", "--out", str(out)])
    assert rc == 0
    results = out.read_text().splitlines()
    assert results[0] == ",".join(CSV_COLUMNS)
    assert len(results) == 1 + 96
    agg = (tmp_path / "res_aggregate.csv").read_text().splitlines()
    assert len(agg) == 1 + 32
    dest = (tmp_path / "res_destinations.csv").read_text().splitlines()
    assert len(dest) == 1 + 48 + 48 * 4
    figures = sorted(p.name for p in tmp_path.glob("res_figure_*.csv"))
    assert figures == [f"res_figure_{i:02d}.csv" for i in range(6, 14)]
    for name in figures:
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "receiver_delay_s,tcp,udp,tcp_uqa,udp_uqa"
        assert len(lines) == 1 + 4
    wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    assert len(wrote) == 3 + len(FIGURE_SPECS)


def test_sweep_figures_are_the_tables_of_its_own_rows(tmp_path, capsys, monkeypatch):
    # A 16-cell, 20-message matrix stands in for the default sweep.
    small = run_sweep(
        master_seed=5,
        base=ExperimentConfig(protocol=TransportKind.TCP, message_count=20),
        packet_sizes=(32, 256),
        receiver_delays=(0.0, 0.05),
    )
    monkeypatch.setattr(cli, "run_sweep", lambda **kwargs: small)
    assert run_cli(["sweep", "--out", str(tmp_path / "res.csv")]) == 0
    rows = sweep_rows(small)
    for figure in sorted(FIGURE_SPECS):
        expected = tmp_path / f"expected_{figure:02d}.csv"
        write_figure_csv(str(expected), rows, figure)
        written = tmp_path / f"res_figure_{figure:02d}.csv"
        assert written.read_bytes() == expected.read_bytes()


def test_replay_coalesces_statuses(tmp_path, capsys, make_msg):
    trace = tmp_path / "trace.csv"
    records = [
        (0.0, make_msg(sender=1, kind="S")),
        (0.1, make_msg(sender=2, kind="C")),
        (0.2, make_msg(sender=2, kind="S")),
        (0.3, make_msg(sender=2, kind="S")),
    ]
    dump_trace(str(trace), records)
    rc = run_cli(["replay", "--trace", str(trace), "--queue-variant", "uqa"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "final_queue_length: 3" in out
    assert "replaced: 1" in out
    record_lines = [line for line in out.splitlines() if "," in line]
    parsed = [parse_trace_record(line) for line in record_lines]
    assert [(m.sender, m.kind.value, m.seq) for _, m in parsed] == [
        (1, "S", 1),
        (2, "C", 1),
        (2, "S", 3),
    ]


def test_replay_fifo_keeps_everything(tmp_path, capsys, make_msg):
    trace = tmp_path / "trace.csv"
    dump_trace(
        str(trace),
        [(0.1 * i, make_msg(sender=0, kind="S")) for i in range(5)],
    )
    rc = run_cli(["replay", "--trace", str(trace), "--queue-variant", "fifo"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "final_queue_length: 5" in out
    assert "replaced: 0" in out


def test_replay_keyed_variant(tmp_path, capsys, make_msg):
    trace = tmp_path / "trace.csv"
    records = [
        (0.0, make_msg(sender=1, kind="S")),
        (0.1, make_msg(sender=2, kind="C")),
        (0.2, make_msg(sender=1, kind="S")),  # replaces the head status
    ]
    dump_trace(str(trace), records)
    rc = run_cli(["replay", "--trace", str(trace), "--queue-variant", "keyed"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "final_queue_length: 2" in out
    assert "replaced: 1" in out


def test_replay_with_receiver_drains(tmp_path, capsys, make_msg):
    trace = tmp_path / "trace.csv"
    dump_trace(
        str(trace),
        [(0.05 * i, make_msg(sender=0, kind="S")) for i in range(10)],
    )
    rc = run_cli(
        ["replay", "--trace", str(trace), "--queue-variant", "uqa", "--receiver-delay", "0.1"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "final_queue_length: 0" in out
    assert "dequeued:" in out


def test_replay_missing_trace(tmp_path, capsys):
    rc = run_cli(["replay", "--trace", str(tmp_path / "nope.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# SHA-256 of `uqsim replay --queue-variant keyed` stdout on the trace that
# multi_sender_trace writes. Any change to keyed coalescing moves them.
KEYED_REPLAY_SHA256 = {
    "drained": "67d00b9c27c3a34c018bb28caef884d38cd39841833a7cf5adf19651a0c81c12",
    "queued": "bef010fe44ffd411cef71c6957e466f9fbf40360697d362b94e2cda207e0ed8a",
}


def multi_sender_trace(path):
    """16 senders x 100 messages, Poisson over 9 s, merged in send order."""
    records = []
    for sender in range(16):
        records += generate_schedule(
            TrafficConfig(
                message_count=100,
                packet_size_bytes=64,
                run_duration_s=10.0,
                seed=derive_seed("keyed-replay-pin", sender),
                sender=sender,
                schedule="poisson",
            )
        )
    records.sort(key=lambda rec: rec[0])
    dump_trace(str(path), records)


@pytest.mark.parametrize(
    "case, extra",
    [("drained", ["--receiver-delay", "0.05"]), ("queued", [])],
)
def test_replay_keyed_multi_sender_output_is_pinned(tmp_path, capsys, case, extra):
    trace = tmp_path / "trace.csv"
    multi_sender_trace(trace)
    rc = run_cli(["replay", "--trace", str(trace), "--queue-variant", "keyed", *extra])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == KEYED_REPLAY_SHA256[case]


@pytest.mark.parametrize("extra", [["--receiver-delay", "0.05"], []], ids=["drained", "queued"])
def test_replay_reads_a_reversed_trace_like_a_sorted_one(tmp_path, capsys, extra):
    sorted_trace, reversed_trace = tmp_path / "sorted.csv", tmp_path / "reversed.csv"
    multi_sender_trace(sorted_trace)
    lines = sorted_trace.read_text().splitlines()
    assert len({line.split(",")[0] for line in lines}) == len(lines)  # no ties
    reversed_trace.write_text("\n".join(reversed(lines)) + "\n")
    outputs = []
    for trace in (sorted_trace, reversed_trace):
        assert run_cli(["replay", "--trace", str(trace), "--queue-variant", "keyed", *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("senders", [(2, 1), (1, 2)])
def test_replay_keeps_file_order_among_equal_send_times(tmp_path, capsys, senders):
    trace = tmp_path / "trace.csv"
    first, second = senders
    trace.write_text(f"0.7,3,1,C,8\n0.5,{first},1,C,8\n0.5,{second},1,E,8\n")
    assert run_cli(["replay", "--trace", str(trace), "--queue-variant", "fifo"]) == 0
    queued = [line for line in capsys.readouterr().out.splitlines() if "," in line]
    assert [line.split(",")[1] for line in queued] == [str(first), str(second), "3"]


def assert_clean_rejection(rc, err, needle):
    assert rc == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert needle in lines[0]


FLOAT_SETTINGS = [name for name, (caster, _) in SETTINGS.items() if caster is float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", FLOAT_SETTINGS)
def test_run_rejects_non_finite_setting(tmp_path, capsys, name, value):
    config = tmp_path / "run.conf"
    config.write_text(f"{name} = {value}\n")
    rc = run_cli(["run", "--config", str(config)])
    assert_clean_rejection(rc, capsys.readouterr().err, name)


@pytest.mark.parametrize("name", ["packet_size_bytes", "ack_size_bytes"])
def test_run_rejects_size_above_ceiling(tmp_path, capsys, name):
    # 10**310 bytes used to end in an OverflowError traceback: its bit count
    # is not a float. The ceiling itself is accepted.
    config = tmp_path / "run.conf"
    for size, rc_wanted in ((MAX_SIZE_BYTES, 0), (MAX_SIZE_BYTES + 1, 1), (10**310, 1)):
        config.write_text(f"{name} = {size}\nprotocol = tcp\n")
        rc = run_cli(["run", "--print-config", "--config", str(config)])
        captured = capsys.readouterr()
        if rc_wanted == 0:
            assert rc == 0 and f"{name}={size}" in captured.out
        else:
            assert_clean_rejection(rc, captured.err, name)


def test_run_rejects_message_count_above_ceiling_before_generating():
    # Unchecked, this count builds a schedule until the process is killed.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    child = subprocess.run(
        [sys.executable, "-m", "uqsim", "run", "--messages", "100000000000000000000",
         "--duration", "1"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert child.stdout == ""
    assert_clean_rejection(child.returncode, child.stderr, "message_count")


def test_message_count_ceiling_is_inclusive(capsys):
    ceiling = str(MAX_MESSAGE_COUNT)
    assert run_cli(["run", "--print-config", "--messages", ceiling]) == 0
    assert f"message_count={ceiling}" in capsys.readouterr().out
    rc = run_cli(["run", "--print-config", "--messages", str(MAX_MESSAGE_COUNT + 1)])
    assert_clean_rejection(rc, capsys.readouterr().err, "message_count")


def refuse_to_connect(*args, **kwargs):
    raise AssertionError("build_connection must not be called")


def test_run_rejects_destinations_above_ceiling_before_connecting(tmp_path, capsys, monkeypatch):
    # Unchecked, this count builds connections until the process is killed.
    monkeypatch.setattr(harness, "build_connection", refuse_to_connect)
    config = tmp_path / "run.conf"
    config.write_text("n_destinations = 100000000000\n")
    rc = run_cli(["run", "--topology", "one_to_many", "--messages", "1", "--config", str(config)])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_clean_rejection(rc, captured.err, "n_destinations")


def refuse_to_draw(*args, **kwargs):
    raise AssertionError("draw_schedule must not be called")


def test_run_rejects_cell_above_message_budget_before_drawing(tmp_path, capsys, monkeypatch):
    # Each destination was within its own ceiling, so this cell drew 10^9
    # messages until it ran out of memory.
    monkeypatch.setattr(harness, "draw_schedule", refuse_to_draw)
    config = tmp_path / "run.conf"
    config.write_text("n_destinations = 1000\n")
    rc = run_cli([
        "run", "--protocol", "udp", "--topology", "one_to_many", "--messages", "1000000",
        "--config", str(config),
    ])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_clean_rejection(rc, captured.err, "message_count * n_destinations")


def test_message_budget_is_per_cell_and_inclusive():
    cfg = ExperimentConfig(protocol=TransportKind.UDP, topology="one_to_many")
    cfg.n_destinations = 1000
    cfg.message_count = MAX_MESSAGE_COUNT // 1000
    cfg.validate()
    cfg.message_count += 1
    with pytest.raises(ValueError, match="n_destinations"):
        cfg.validate()


def test_sweep_rejects_one_to_many_cells_above_message_budget(tmp_path, capsys, monkeypatch):
    # The one-to-one cells of this config are valid; its 4-destination cells
    # are not, and used to fail only once every one-to-one group had run.
    monkeypatch.setattr(cli, "run_sweep", refuse_to_sweep)
    monkeypatch.setattr(harness, "draw_schedule", refuse_to_draw)
    config = tmp_path / "sweep.conf"
    config.write_text("message_count = 300000\n")
    rc = run_cli(["sweep", "--config", str(config), "--out", str(tmp_path / "res.csv")])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_clean_rejection(rc, captured.err, "message_count * n_destinations")


def test_destination_ceiling_is_inclusive():
    # An empty cell: the per-cell message budget does not bind, the ceiling does.
    cfg = ExperimentConfig(protocol=TransportKind.TCP, topology="one_to_many", message_count=0)
    cfg.n_destinations = MAX_DESTINATIONS
    cfg.validate()
    cfg.n_destinations = MAX_DESTINATIONS + 1
    with pytest.raises(ValueError, match="n_destinations"):
        cfg.validate()


@pytest.mark.parametrize("fraction", ["1.0", repr(1 - 298e-9 / 20), repr(1 - 300e-9 / 20)])
def test_poisson_window_up_to_the_run_end_sends_every_message(tmp_path, capsys, fraction):
    # Sends drawn past the window end used to be clamped to it 1 ns apart; at
    # 1.0, 30 of them landed after the run ended and were never sent.
    config = tmp_path / "run.conf"
    config.write_text(f"send_window_fraction = {fraction}\n")
    rc = run_cli([
        "run", "--protocol", "udp", "--messages", "300", "--duration", "20", "--seed", "3",
        "--config", str(config),
    ])
    assert rc == 0
    assert "messages_sent: 300\n" in capsys.readouterr().out


@pytest.mark.parametrize("rto", ["1e-06", "1e-05"])
def test_timeout_below_the_round_trip_backs_off_and_delivers(tmp_path, capsys, rto):
    # A fixed timeout below the round trip retransmitted every packet on every
    # expiry: at 1e-6 the run did not finish in 60 s, at 1e-5 it delivered 1
    # of 20. With backoff each message is retransmitted at most about
    # log2(duration / rto_s) + 1 times.
    config = tmp_path / "run.conf"
    config.write_text(f"rto_s = {rto}\n")
    rc = run_cli([
        "run", "--protocol", "tcp", "--messages", "20", "--duration", "5", "--config", str(config),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "messages_sent: 20\n" in out
    assert "messages_delivered: 20\n" in out
    cfg = ExperimentConfig(
        protocol=TransportKind.TCP, message_count=20, run_duration_s=5.0, rto_s=float(rto)
    )
    report = harness.run_experiment(cfg).report
    assert 0 < report.retransmissions <= 20 * (math.log2(5.0 / float(rto)) + 1)


@pytest.mark.parametrize("rto", ["1e-300", "5e-324"])
def test_run_rejects_timeout_below_the_clock_resolution(tmp_path, capsys, rto):
    # Where now + rto_s == now, every doubled timeout fired at the same
    # instant: at these values a 6-message run retransmitted about 6,000
    # times and delivered 5 of 6.
    config = tmp_path / "run.conf"
    config.write_text(f"rto_s = {rto}\n")
    rc = run_cli([
        "run", "--protocol", "tcp", "--messages", "6", "--duration", "20", "--config", str(config),
    ])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_clean_rejection(rc, captured.err, "rto_s")


def test_timeout_of_one_ulp_at_the_horizon_is_accepted_and_delivers(tmp_path, capsys):
    rto = math.ulp(20.0)
    config = tmp_path / "run.conf"
    config.write_text(f"rto_s = {rto!r}\n")
    rc = run_cli([
        "run", "--protocol", "tcp", "--messages", "6", "--duration", "20", "--config", str(config),
    ])
    assert rc == 0
    assert "messages_delivered: 6\n" in capsys.readouterr().out
    cfg = ExperimentConfig(
        protocol=TransportKind.TCP, message_count=6, run_duration_s=20.0, rto_s=rto
    )
    report = harness.run_experiment(cfg).report
    assert report.messages_delivered == 6
    assert 0 < report.retransmissions <= 6 * (math.log2(20.0 / rto) + 1)


def test_run_rejects_duration_whose_queue_statistics_overflow(capsys):
    # The queue-length integral overflowed to inf, and the summary ended in an
    # OverflowError traceback from format_number after 12 lines.
    rc = run_cli(
        ["run", "--duration", "1.7e308", "--receiver-delay", "1e306", "--messages", "1000"]
    )
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_clean_rejection(rc, captured.err, "run_duration_s")


def test_run_prints_the_finite_mean_of_throughputs_near_the_float_maximum(tmp_path, capsys):
    # At the largest bandwidth each destination's client throughput is near
    # the float maximum; their plain sum overflows, and the cell mean printed inf.
    config = tmp_path / "run.conf"
    config.write_text(f"bandwidth_bps = {sys.float_info.max!r}\ntopology = one_to_many\n")
    rc = run_cli(["run", "--protocol", "udp", "--messages", "1", "--config", str(config)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "avg_client_throughput_bps: 1.79769e+308\n" in out
    assert "messages_delivered: 1\n" in out


def test_lossy_tcp_duration_is_bounded_by_timer_expiries(tmp_path, capsys, monkeypatch):
    # After the backoff cap a connection whose data is all lost fires one
    # expiry per 60 s to the end of the run: 145,034 retransmissions at 1e7 s,
    # so 1e10 s ran for minutes.
    config = tmp_path / "run.conf"
    config.write_text("loss_prob = 1.0\n")
    argv = ["run", "--protocol", "tcp", "--messages", "1", "--config", str(config)]
    with monkeypatch.context() as patch:
        patch.setattr(harness, "draw_schedule", refuse_to_draw)
        rc = run_cli(argv + ["--duration", "1e8"])
        captured = capsys.readouterr()
    assert captured.out == ""
    assert_clean_rejection(rc, captured.err, "run_duration_s")
    assert run_cli(argv + ["--duration", "1e7"]) == 0
    assert "messages_delivered: 0\n" in capsys.readouterr().out


def test_timer_expiry_budget_is_inclusive_and_spares_lossless_and_datagram_cells():
    cfg = ExperimentConfig(
        protocol=TransportKind.TCP_UQA, topology="one_to_many", message_count=1, loss_prob=0.5
    )
    cfg.run_duration_s = MAX_MESSAGE_COUNT * 60.0 / cfg.destinations
    cfg.validate()
    cfg.rto_s = 120.0  # the backoff cap is max(60 s, rto_s)
    cfg.run_duration_s *= 2
    cfg.validate()
    cfg.run_duration_s *= 1.5
    with pytest.raises(ValueError, match="run_duration_s"):
        cfg.validate()
    replace(cfg, loss_prob=0.0).validate()
    replace(cfg, protocol=TransportKind.UDP_UQA).validate()


def test_replay_rejects_non_finite_send_time(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("0.000000000,1,1,S,64\nnan,1,2,S,64\n")
    rc = run_cli(["replay", "--trace", str(trace), "--queue-variant", "keyed"])
    assert_clean_rejection(rc, capsys.readouterr().err, "send time")


def test_replay_rejects_non_finite_receiver_delay(tmp_path, capsys, make_msg):
    trace = tmp_path / "trace.csv"
    dump_trace(str(trace), [(0.0, make_msg(sender=1, kind="S"))])
    rc = run_cli(
        ["replay", "--trace", str(trace), "--queue-variant", "keyed", "--receiver-delay", "nan"]
    )
    assert_clean_rejection(rc, capsys.readouterr().err, "receiver_delay_s")


@pytest.mark.parametrize("delay", ["-0.1", "-inf"])
def test_replay_rejects_negative_receiver_delay(tmp_path, capsys, make_msg, delay):
    # Receiver no longer validates its delay; replay is the one caller whose
    # delay ExperimentConfig.validate never sees.
    trace = tmp_path / "trace.csv"
    dump_trace(str(trace), [(0.1 * i, make_msg(sender=1, kind="S")) for i in range(3)])
    rc = run_cli(["replay", "--trace", str(trace), f"--receiver-delay={delay}"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_clean_rejection(rc, captured.err, "receiver_delay_s")


@pytest.mark.parametrize("delay", ["1e308", "8e306"])
def test_replay_rejects_receiver_delay_whose_drain_overflows(tmp_path, capsys, make_msg, delay):
    # 1e308 makes the drain horizon inf; 8e306 keeps it finite, but the
    # length integral over 20 messages would still overflow.
    trace = tmp_path / "trace.csv"
    dump_trace(str(trace), [(0.1 * i, make_msg(sender=i % 3, kind="S")) for i in range(20)])
    rc = run_cli(
        ["replay", "--trace", str(trace), "--queue-variant", "uqa", "--receiver-delay", delay]
    )
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_clean_rejection(rc, captured.err, "--receiver-delay")


def test_replay_rejects_fill_only_horizon_that_overflows(tmp_path, capsys):
    # Without a delay the horizon is the last send time; three messages held
    # until 1.7e308 would make the length integral inf.
    trace = tmp_path / "trace.csv"
    trace.write_text("0,0,1,C,8\n0,0,2,C,8\n1.7e308,0,3,C,8\n")
    rc = run_cli(["replay", "--trace", str(trace), "--queue-variant", "fifo"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_clean_rejection(rc, captured.err, "last send time")


def test_replay_with_zero_delay_blames_the_last_send_time(tmp_path, capsys):
    # A zero delay adds nothing to the horizon: the last send time overflows it.
    trace = tmp_path / "trace.csv"
    trace.write_text("0,0,1,S,8\n1e308,1,1,S,8\n")
    rc = run_cli(["replay", "--trace", str(trace), "--receiver-delay", "0"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_clean_rejection(
        rc, captured.err, "last send time 1e+308 plus --receiver-delay 0.0 per message"
    )


@pytest.mark.parametrize("case", ["queued", "drained"])
def test_replay_rejects_negative_send_time(tmp_path, capsys, case):
    trace = tmp_path / "trace.csv"
    trace.write_text("0.5,1,1,S,64\n-1.0,1,2,S,64\n0.7,1,3,S,64\n")
    extra = ["--receiver-delay", "0.05"] if case == "drained" else []
    rc = run_cli(["replay", "--trace", str(trace), "--queue-variant", "uqa", *extra])
    assert_clean_rejection(rc, capsys.readouterr().err, "send time")


def refuse_to_sweep(*args, **kwargs):
    raise AssertionError("run_sweep must not be called")


@pytest.mark.parametrize(
    "line",
    ["protocol = tcp", "topology = one_to_many", "packet_size_bytes = 32", "receiver_delay_s = nan"],
)
def test_sweep_rejects_matrix_axis_in_config(tmp_path, capsys, monkeypatch, line):
    monkeypatch.setattr(cli, "run_sweep", refuse_to_sweep)
    config = tmp_path / "sweep.conf"
    config.write_text(line + "\n")
    rc = run_cli(["sweep", "--config", str(config), "--out", str(tmp_path / "res.csv")])
    assert_clean_rejection(rc, capsys.readouterr().err, line.split(" = ")[0])


def test_sweep_print_config_omits_matrix_axes(capsys):
    rc = run_cli(["sweep", "--print-config"])
    out = capsys.readouterr().out
    assert rc == 0
    listed = {line.split("=", 1)[0] for line in out.splitlines()}
    assert listed.isdisjoint(SWEEP_AXES)
    assert listed == (set(SETTINGS) - set(SWEEP_AXES)) | {"jobs", "out"}


def test_sweep_into_missing_directory_fails_before_running(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_sweep", refuse_to_sweep)
    rc = run_cli(["sweep", "--out", str(tmp_path / "absent" / "res.csv")])
    assert_clean_rejection(rc, capsys.readouterr().err, "absent")


# `uqsim run --print-config` at defaults, as printed before SETTINGS was
# derived from the config dataclasses (less the removed uqa_receiver_busy_s).
DEFAULT_RUN_CONFIG = """\
ack_size_bytes=40
bandwidth_bps=1000000.0
derived_cell_seed=2616431056626070054
loss_prob=0.0
message_count=1000
n_destinations=4
p_status=0.7
packet_size_bytes=512
propagation_delay_s=0.01
protocol=udp
queue_variant=tail
receiver_delay_s=0.0
rto_s=1.0
run_duration_s=None
schedule=poisson
seed=20100
send_window_fraction=0.9
topology=one_to_one
udp_app_per_msg_s=0.002
uqa_update_cost_s=0.001
window_size=4
"""


def test_run_print_config_at_defaults_is_pinned(capsys):
    assert run_cli(["run", "--print-config"]) == 0
    assert capsys.readouterr().out == DEFAULT_RUN_CONFIG


def test_setting_defaults_are_the_dataclass_defaults():
    derived = 2616431056626070054
    defaults = {name: default for name, (_, default) in SETTINGS.items()}
    config = build_experiment_config(defaults, derived)
    assert config == ExperimentConfig(protocol=TransportKind.UDP, seed=derived)
    assert set(SETTINGS) == {f.name for f in fields(ExperimentConfig)}


@pytest.mark.parametrize(
    "command, line",
    [("run", "window_size = 0"), ("sweep", "window_size = 0"), ("run", "protocol = bogus")],
)
def test_print_config_rejects_invalid_setting(tmp_path, capsys, command, line):
    config = tmp_path / "bad.conf"
    config.write_text(line + "\n")
    rc = run_cli([command, "--config", str(config), "--print-config"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_clean_rejection(rc, captured.err, line.split(" = ")[0])


def test_removed_receiver_busy_setting_is_unknown(tmp_path, capsys):
    assert len(SETTINGS) == 20
    config = tmp_path / "old.conf"
    config.write_text("uqa_receiver_busy_s = 0.0\n")
    rc = run_cli(["run", "--config", str(config)])
    assert_clean_rejection(rc, capsys.readouterr().err, "uqa_receiver_busy_s")


def refuse_to_run(*args, **kwargs):
    raise AssertionError("run_experiment must not be called")


def test_run_into_missing_directory_fails_before_running(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", refuse_to_run)
    out = tmp_path / "missing" / "row.csv"
    rc = run_cli(["run", "--messages", "50", "--out", str(out)])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_clean_rejection(rc, captured.err, "missing")


def test_run_into_a_directory_fails_before_running(tmp_path, capsys, monkeypatch):
    # The summary printed in full before writing the row failed with EISDIR.
    monkeypatch.setattr(cli, "run_experiment", refuse_to_run)
    rc = run_cli(["run", "--messages", "50", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_clean_rejection(rc, captured.err, f"output path {tmp_path} is a directory")


@pytest.mark.parametrize("taken", ["res.csv", "res_aggregate.csv", "res_figure_13.csv"])
def test_sweep_onto_a_directory_fails_before_running(tmp_path, capsys, monkeypatch, taken):
    # With the last figure's path a directory, all 96 cells ran and 10 files
    # were written before the sweep failed.
    monkeypatch.setattr(cli, "run_sweep", refuse_to_sweep)
    (tmp_path / taken).mkdir()
    rc = run_cli(["sweep", "--out", str(tmp_path / "res.csv")])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_clean_rejection(rc, captured.err, f"{tmp_path / taken} is a directory")
    assert [path.name for path in tmp_path.iterdir()] == [taken]


def test_a_bad_protocol_names_the_choices(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("protocol = bogus\n")
    rc = run_cli(["run", "--config", str(config)])
    assert_clean_rejection(rc, capsys.readouterr().err, "protocol must be one of "
                           "('tcp', 'udp', 'tcp_uqa', 'udp_uqa'), got 'bogus'")


@pytest.mark.parametrize("extra", [["--jobs", "0"], ["--jobs", "-3", "--print-config"]])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, monkeypatch, extra):
    monkeypatch.setattr(cli, "run_sweep", refuse_to_sweep)
    rc = run_cli(["sweep", "--out", str(tmp_path / "res.csv"), *extra])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_clean_rejection(rc, captured.err, "jobs")


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_commands_parse():
    commands = [
        line for line in README.read_text(encoding="utf-8").splitlines()
        if line.startswith("uqsim ")
    ]
    assert commands
    for line in commands:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except (SystemExit, ValueError):
            pytest.fail(f"README command does not parse: {line}")
