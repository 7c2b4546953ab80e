"""Guard: the audit tests reach every failing verdict in audit.py.

Each `return Verdict(name, False, ...)` in audit.py is a rule the oracle
can break on. A return that no test reaches could be dead or wrong and
nobody would see it. The guard runs tests/test_audit.py in a fresh
interpreter under a stdlib `sys.settrace` function that follows audit.py's
frames only, and fails naming each such return that no line event hit.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import geobft.audit

ROOT = Path(__file__).resolve().parent.parent
AUDIT = Path(geobft.audit.__file__).resolve()

# The child runs the audit tests and prints, as its last line, pytest's
# exit code and the audit.py lines that ran. It traces each test's call but
# not its fixtures, and no simulation: those reach no audit.py line and
# would only make the trace slow.
_CHILD = """
import json, sys
import pytest
from geobft.simnet import Simulator

path, reached = sys.argv[1], set()
run_until = Simulator.run_until


def untraced_run_until(sim, t_end):
    tracer = sys.gettrace()
    sys.settrace(None)
    try:
        run_until(sim, t_end)
    finally:
        sys.settrace(tracer)


Simulator.run_until = untraced_run_until


def lines(frame, event, arg):
    if event == "line":
        reached.add(frame.f_lineno)
    return lines


def calls(frame, event, arg):
    return lines if frame.f_code.co_filename == path else None


class Traced:
    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        sys.settrace(calls)
        try:
            yield
        finally:
            sys.settrace(None)


code = pytest.main(["-q", "-p", "no:cacheprovider", "tests/test_audit.py"],
                   plugins=[Traced()])
print(json.dumps({"exit": int(code), "reached": sorted(reached)}))
"""


def failing_verdict_returns(source: str) -> list:
    """The line of each `return Verdict(name, False, ...)` in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        call = node.value if isinstance(node, ast.Return) else None
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "Verdict" and len(call.args) > 1
                and isinstance(call.args[1], ast.Constant) and call.args[1].value is False):
            found.append(node.lineno)
    return sorted(found)


def test_failing_verdict_returns_are_found():
    source = "\n".join([
        "def f(x):",
        "    if x:",
        "        return Verdict('a', False,",
        "                       'detail')",
        "    return Verdict('a', True, 'ok')",
        "def g(ok):",
        "    return Verdict('b', ok)",
    ])
    assert failing_verdict_returns(source) == [3]
    # audit.py has one for each rule it can break on: 25 when this was written
    assert len(failing_verdict_returns(AUDIT.read_text())) >= 25


def test_every_failing_verdict_is_reached_by_the_audit_tests():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(AUDIT)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit"] == 0, proc.stdout[-3000:]
    reached = set(result["reached"])
    text = AUDIT.read_text()
    source_lines = text.splitlines()
    missed = [f"audit.py:{n}: {source_lines[n - 1].strip()}"
              for n in failing_verdict_returns(text) if n not in reached]
    assert missed == []
