#!/usr/bin/env python3
"""Prints the event order of a Chrome trace written by fcc-opt or fcc-batch.

    trace_order.py TRACE.json

One line per event, in file order: name, cat, args.unit and args.function,
tab-separated (a missing label prints as empty). Timestamps, durations and
track ids are dropped, so for a one-job run the output depends only on what
was compiled, in which order, and which probes fired. Exits 1 when the file
is not a trace object whose traceEvents are complete ("ph":"X") events with
integer ts/dur/tid.
"""

import json
import sys


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: trace_order.py TRACE.json")
    with open(sys.argv[1], encoding="utf-8") as f:
        trace = json.load(f)
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        sys.exit("no traceEvents list")
    lines = []
    for event in events:
        if event.get("ph") != "X" or not all(
            isinstance(event.get(key), int) for key in ("ts", "dur", "tid")
        ):
            sys.exit("not a complete event: %r" % (event,))
        args = event.get("args", {})
        lines.append("\t".join([event["name"], event["cat"],
                                args.get("unit", ""),
                                args.get("function", "")]))
    sys.stdout.write("".join(line + "\n" for line in lines))


if __name__ == "__main__":
    main()
