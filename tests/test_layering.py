"""The module layering: messages below trace below engine.

Each of the three imports first in a fresh interpreter, so no edit can
bring back an import cycle that an earlier import in the same process
would hide.  engine re-exports the message types and the trace format
as the very objects, so code that imports them from engine (the CLI,
verify, perfbench) keeps working.
"""
import os
import subprocess
import sys

import pytest

from radio_gather import engine, messages, trace

SRC = os.path.dirname(os.path.dirname(os.path.abspath(engine.__file__)))

REEXPORTS = [
    (messages, ["Bounded", "DuplexMode", "FireAndForward", "Message", "Unbounded", "mask_bits"]),
    (trace, ["LABEL_LIMIT", "READ_SCHEMAS", "TRACE_SCHEMA", "StepRecord", "Trace",
             "message_from_json", "message_to_json"]),
]


@pytest.mark.parametrize("module", ["radio_gather.messages", "radio_gather.trace",
                                    "radio_gather.engine"])
def test_module_imports_first_in_a_fresh_interpreter(module):
    code = f"import sys; sys.path.insert(0, {SRC!r}); import {module}"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module,name", [(module, name) for module, names in REEXPORTS
                                         for name in names],
                         ids=lambda x: getattr(x, "__name__", x))
def test_engine_reexports_the_very_object(module, name):
    assert getattr(engine, name) is getattr(module, name)
