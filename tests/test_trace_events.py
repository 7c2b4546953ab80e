"""Guard: simnet.EVENTS names exactly the events the program writes.

read_trace rejects a record whose event EVENTS does not list, so an event
that src/ writes but the table lacks would make that run's trace file
unreadable, and a table entry nothing writes is dead format. Some events
(client_resubmit, deliver_parked, auth_reject) are written by no Tier-1
run, so the guard reads the source: an AST scan of every call to
`<...>.trace.add(time, event, ...)` and `EndpointBase._trace(event, ...)`
under src/geobft, which also checks each call's data keywords against the
event's keys.
"""
import ast
from pathlib import Path

import geobft
from geobft.simnet import EVENTS

SRC = Path(geobft.__file__).resolve().parent
# TraceLog.add's parameters other than the record's data keys
_HEAD = {"time", "event", "src", "dst", "kind", "digest"}


def trace_calls(source: str):
    """(event node, data keywords, enclosing function) of each trace call:
    `x.trace.add(time, event, ...)` and `x._trace(event, ...)`."""
    found = []

    def visit(node, func_name):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else func_name
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                f = child.func
                event = None
                if f.attr == "add" and isinstance(f.value, ast.Attribute) \
                        and f.value.attr == "trace" and len(child.args) > 1:
                    event = child.args[1]
                elif f.attr == "_trace" and child.args:
                    event = child.args[0]
                if event is not None:
                    keys = {kw.arg for kw in child.keywords} - _HEAD - {None}
                    found.append((event, keys, name))
            visit(child, name)

    visit(ast.parse(source), None)
    return found


def scan():
    literal, forwarded = {}, []
    for path in sorted(SRC.rglob("*.py")):
        where = str(path.relative_to(SRC))
        for event, keys, func in trace_calls(path.read_text()):
            if isinstance(event, ast.Constant) and isinstance(event.value, str):
                literal.setdefault(event.value, []).append((f"{where}:{event.lineno}", keys))
            else:
                forwarded.append(f"{where}:{func}")
    return literal, forwarded


def test_trace_calls_are_found():
    source = "\n".join([
        "def f(self, sim):",
        "    self.sim.trace.add(sim.now, 'meta', '-', kind='k', seed=1)",
        "    self._trace('win_move', sc=1, start=2)",
        "    self.trace.add(0.0, name)",
        "    table.add(0.0, 'not_a_trace')",
    ])
    calls = trace_calls(source)
    assert [(getattr(e, "value", None), keys, fn) for e, keys, fn in calls] == [
        ("meta", {"seed"}, "f"), ("win_move", {"sc", "start"}, "f"), (None, set(), "f")]


def test_every_written_event_is_in_the_table_and_every_entry_is_written():
    literal, forwarded = scan()
    # the one call that does not name its event forwards _trace's argument
    assert forwarded == ["irmc/base.py:_trace"]
    assert sorted(set(literal) - set(EVENTS)) == []
    assert sorted(set(EVENTS) - set(literal)) == []


def test_every_written_data_key_is_in_its_events_entry():
    literal, _ = scan()
    extra = [f"{site}: {event} writes {sorted(keys - set(EVENTS[event]))}"
             for event, sites in literal.items() if event in EVENTS
             for site, keys in sites if not keys <= set(EVENTS[event])]
    assert extra == []
