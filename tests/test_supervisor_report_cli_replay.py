"""Tests for the supervisor report and the CLI replay command."""

import io
import re

from repro.api import OpenFlags
from repro.basefs.hooks import HookPoints
from repro.core.supervisor import RAEConfig, RAEEvent, RAEFilesystem
from repro.errors import KernelBug
from repro.tools import main as tools_main
from tests.conftest import formatted_device


def test_supervisor_report_mentions_recoveries(hooks):
    def bug(point, ctx):
        if "boom" in str(ctx.get("name", "")):
            raise KernelBug("report test bug")

    hooks.register("dir.insert", bug)
    fs = RAEFilesystem(formatted_device(), RAEConfig(), hooks=hooks)
    fs.mkdir("/fine")
    fs.mkdir("/boom")
    text = fs.report()
    assert "1 recoveries" in text or "recoveries" in text
    assert "report test bug" in text
    assert "detections by kind: bug=1" in text


def test_supervisor_report_prices_each_recovery_per_replayed_op(hooks):
    def bug(point, ctx):
        if "boom" in str(ctx.get("name", "")):
            raise KernelBug("priced bug")

    hooks.register("dir.insert", bug)
    fs = RAEFilesystem(formatted_device(), RAEConfig(), hooks=hooks)
    for name in ("a", "b", "c"):
        fs.mkdir(f"/{name}")
    fs.mkdir("/boom")
    (event,) = fs.stats.events
    assert event.replayed_ops == 4  # the window and the in-flight mkdir
    # A recovery with nothing to replay (an error met outside any op,
    # empty window) has no unit price to show.
    fs.stats.events.append(RAEEvent(seq=None, detected="priced bug, idle", replayed_ops=0,
                                    total_seconds=0.0021, discrepancies=0))
    priced, idle = [line for line in fs.report().splitlines() if "priced bug" in line]
    shown = re.search(r"replayed 4 ops in (\d+\.\d) ms \((\d+) µs/op\)$", priced)
    assert shown, priced
    assert int(shown.group(2)) == round(event.total_seconds * 1e6 / 4)
    assert idle.endswith("replayed 0 ops in 2.1 ms")


def test_supervisor_report_clean_run():
    fs = RAEFilesystem(formatted_device(), RAEConfig())
    fs.mkdir("/a")
    text = fs.report()
    assert "0 recoveries" in text


def test_cli_replay_workflow(tmp_path, capsys, seq):
    """Full §4.3 loop through the CLI: record on a base, write the trace
    and image, replay via `repro.tools replay`, expect agreement; then
    tamper and expect a reported discrepancy."""
    from repro.api import op
    from repro.basefs.filesystem import BaseFilesystem
    from repro.blockdev.device import FileBlockDevice
    from repro.core.oplog import OpLog
    from repro.workloads.trace import dump_trace

    image = str(tmp_path / "w.img")
    tools_main(["mkfs", image, "--blocks", "4096"])
    device = FileBlockDevice(image, block_count=4096)
    base = BaseFilesystem(device)
    log = OpLog()
    operations = [
        op("mkdir", path="/w"),
        op("open", path="/w/f", flags=int(OpenFlags.CREAT)),
        op("write", fd=3, data=b"traceable"),
        op("close", fd=3),
    ]
    for operation in operations:
        s = seq()
        log.record(s, operation, operation.apply(base, opseq=s))
    # The trace replays against the PRE-window image: unmount a clean
    # copy is wrong here — instead, keep the image at mkfs state by not
    # committing, and just close the device.
    device.close()

    trace_path = tmp_path / "window.jsonl"
    with open(trace_path, "w") as stream:
        dump_trace(log.entries, stream)

    assert tools_main(["replay", image, str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "no discrepancies" in out

    # Tamper with the recorded write length and replay again.
    lines = trace_path.read_text().splitlines()
    lines[2] = lines[2].replace('"value": 9', '"value": 5')
    trace_path.write_text("\n".join(lines) + "\n")
    assert tools_main(["replay", image, str(trace_path)]) == 1
    out = capsys.readouterr().out
    assert "DISCREPANCY" in out
