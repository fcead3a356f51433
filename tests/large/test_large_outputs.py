"""The largest ``srs`` outputs, byte for byte: the ``ade`` layouts past the
golden corpus, and the JSON round trip of a dense minimal system."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from seeded import seeded_gnp
from symprs.cli import _json_text, main
from symprs.graph import graph_to_json
from symprs.srs import srs_from_json, srs_to_json

pytestmark = pytest.mark.trusted_constructors


def _stdout(argv: list[str]) -> str:
    """The stdout of ``srs`` on argv, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"srs {' '.join(argv)} exited {code}"
    return out.getvalue()


def test_largest_cli_outputs_stay_byte_identical():
    # srs ade A 2048, and D 2047 for the odd-D layout
    for family, rank, size, want in [
        ("A", 2048, 8549398, "f38c0e33854bd580c5ba18359ce00a05a7f972ccf8520f049c93e371a06b7304"),
        ("D", 2047, 8541167, "dc4a356070f5fb61c39e89f54205301fcd790c0338a6a7fa3e1e8d2b1ea341a6"),
    ]:
        out = _stdout(["ade", "--family", family, "--rank", str(rank)]).encode()
        digest = hashlib.sha256(out).hexdigest()
        assert (len(out), digest) == (size, want), f"ade {family} {rank}: {len(out)} bytes, sha256 {digest}"


def test_srs_json_round_trip_stays_byte_exact_at_dense_size(tmp_path):
    # srs minimal on a G(160, 1/2)
    g, _ = seeded_gnp(160)
    path = tmp_path / "g160.json"
    path.write_text(json.dumps(graph_to_json(g)))
    out = _stdout(["minimal", "--graph", str(path)])
    again = _json_text(srs_to_json(srs_from_json(json.loads(out)))) + "\n"
    assert again == out, "srs minimal on G(160, 1/2): the JSON round trip changed the bytes"
