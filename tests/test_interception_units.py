"""Unit tests for the interception data types."""

from repro.runtime.interception import ReadyTask, RetryFetch
from repro.runtime.message import Message
from repro.runtime.chare import Chare
from repro.runtime.entry import entry


class Target(Chare):
    @entry
    def go(self):
        pass


class TestReadyTask:
    def test_wraps_message_and_task(self):
        chare = Target()
        msg = Message(0, chare, Target._entry_specs["go"])
        ready = ReadyTask(msg, task="the-task")
        assert ready.message is msg
        assert ready.task == "the-task"
        assert "go" in repr(ready)


class TestRetryFetch:
    def test_is_stateless_marker(self):
        assert not RetryFetch.__slots__
        assert repr(RetryFetch()) == "<RetryFetch>"
