"""Span recording: parents, self time, and restoring what was patched."""

from __future__ import annotations

import time

from perfbench.spans import SpanRecorder


class Layer:
    def outer(self) -> str:
        time.sleep(0.002)
        return self.inner() + self.inner()

    def inner(self) -> str:
        time.sleep(0.003)
        return "x"

    @classmethod
    def build(cls) -> str:
        return cls.__name__


def test_self_time_excludes_child_spans(tmp_path):
    original_outer, original_build = Layer.outer, Layer.__dict__["build"]
    with SpanRecorder() as spans:
        spans.patch(Layer, "outer", "outer")
        spans.patch(Layer, "inner", "inner")
        spans.patch(Layer, "build", "build")
        assert Layer().outer() == "xx"
        assert Layer.build() == "Layer"
    assert Layer.outer is original_outer
    assert Layer.__dict__["build"] is original_build

    table = spans.table()
    assert table["outer"]["calls"] == 1 and table["inner"]["calls"] == 2
    assert table["build"]["calls"] == 1
    outer, inner = table["outer"], table["inner"]
    assert inner["self_s"] == inner["total_s"] >= 0.006
    assert abs(outer["self_s"] - (outer["total_s"] - inner["total_s"])) < 1e-9
    assert 0.002 <= outer["self_s"] < outer["total_s"]
    assert list(spans.parent) == [-1, 0, 0, -1]

    path = tmp_path / "spans.tsv"
    spans.write(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "name\tstart\tend\tparent"
    assert [line.split("\t")[0] for line in lines[1:]] == ["outer", "inner", "inner", "build"]
