"""Byte-stable outputs over the whole catalog, pinned by sha256.

The verify report and the JSON and OBJ exports are part of the behaviour
contract: a change that only reorganises how positions or metrics are
computed must leave every byte alone.  The digests were recorded from
commit be9e3fe, before the embedder's metrics were vectorised.
"""

import hashlib

from sphtile import catalog, cli, embedder

REPORT_SHA256 = "859bf3f2c46cc96f3e1c9afb7720a42748871f4a211a79fc91771ce3ac1dc26e"
JSON_SHA256 = "537491b868c189725ce50fdd528a9269a26b46bf13b9d55ea7a98ef88dba9694"
OBJ_SHA256 = "2753608f4e7a3a381eb63a1f03a6d0f1e3b2689fcd981448370b1f8d99e9f029"


def test_verify_all_report_bytes(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert cli.main(["verify", "--all", "--report", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_SHA256


def test_catalog_export_bytes():
    json_hash, obj_hash = hashlib.sha256(), hashlib.sha256()
    for name in catalog.all_entries():
        t = catalog.make(name)
        emb = embedder.realize(t.map, t.angles)
        json_hash.update(embedder.export_json(t.map, t.angles, emb, name=name))
        obj_hash.update(embedder.export_obj(t.map, emb, arc_steps=16, include_faces=True))
    assert json_hash.hexdigest() == JSON_SHA256
    assert obj_hash.hexdigest() == OBJ_SHA256
