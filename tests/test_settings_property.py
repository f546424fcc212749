"""Settings at the edges of their types, one or two at a time, near a small
valid cell: ``uqsim run`` rejects each point with one ``error:`` line, or it
exits 0 and every message the cell sent and did not account for is still in
transport. The names come from ``cli.SETTINGS``, so a new setting is covered
without editing this file."""

import contextlib
import io
import math
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsim import cli, harness
from uqsim.engine import TcpConnection, TransportKind, UdpSender
from uqsim.harness import MAX_DESTINATIONS, TOPOLOGIES, run_experiment
from uqsim.messages import MAX_SIZE_BYTES
from uqsim.traffic import MAX_MESSAGE_COUNT

FLOAT_EDGES = (0.0, 1.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, sys.float_info.max)
CEILINGS = (MAX_MESSAGE_COUNT, MAX_DESTINATIONS, MAX_SIZE_BYTES)
INT_EDGES = (0, 1, -1, *(ceiling + step for ceiling in CEILINGS for step in (-1, 0, 1)))
# A valid cell this large runs for seconds, so its point is only validated
# (--print-config); test_cli runs the ceiling cells themselves.
HEAVY = 10_000


def edges(name):
    caster, default = cli.SETTINGS[name]
    if caster is float:
        return (*FLOAT_EDGES, default)
    if caster is int:
        return (*INT_EDGES, default)
    return (default, "")


@st.composite
def points(draw):
    point = {name: default for name, (_, default) in cli.SETTINGS.items()}
    point.update(
        protocol=draw(st.sampled_from([kind.value for kind in TransportKind])),
        topology=draw(st.sampled_from(TOPOLOGIES)),
        message_count=draw(st.integers(0, 6)),
        run_duration_s=20.0,
    )
    moved = draw(st.lists(st.sampled_from(sorted(cli.SETTINGS)), min_size=1, max_size=2, unique=True))
    for name in moved:
        point[name] = draw(st.sampled_from(edges(name)))
    return point


def run_cli(point, print_config):
    """``uqsim run --config F`` on the point: (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cell.conf")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in point.items() if v is not None)
        argv = ["run", "--config", path] + (["--print-config"] if print_config else [])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def residuals_and_transport(config):
    """Per destination of one run of ``config``: (conservation residual,
    messages still in its transport at run end).

    TCP holds every seq it assigned and has not handed to the receiver;
    UDP holds the datagrams that arrive after the run end.
    """
    senders, arrivals = [], {}
    build, submit = harness.build_connection, UdpSender.submit

    def keep(*args):
        senders.append(build(*args))
        return senders[-1]

    def recording(self, msg, now):
        at = submit(self, msg, now)
        if at is not None:
            arrivals.setdefault(self, []).append(at)
        return at

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "build_connection", keep)
        mp.setattr(UdpSender, "submit", recording)
        reports = run_experiment(config).per_destination
    for report, sender in zip(reports, senders, strict=True):
        if isinstance(sender, TcpConnection):
            held = sender.collector.messages_sent - sender.receiver.queue.inserted
        else:
            held = sum(at > config.duration_s for at in arrivals.get(sender, ()))
        yield report.conservation_residual(), held


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(points())
def test_setting_edges_are_rejected_cleanly_or_conserve(point):
    heavy = max(point["message_count"], point["n_destinations"]) > HEAVY
    rc, out, err = run_cli(point, print_config=heavy)
    if rc != 0:
        lines = err.splitlines()
        assert rc == 1 and out == "", (rc, out, err)
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        return
    if heavy:
        return
    config = cli.build_experiment_config(point)
    for residual, held in residuals_and_transport(config):
        assert residual == held
