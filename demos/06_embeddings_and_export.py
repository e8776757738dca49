"""Unit-sphere embeddings: realizing, verifying and exporting tilings.

The embedder seeds one face at the north pole and propagates the rest
rigidly; because the tilings are rigid, the propagation doubles as a
numerical proof that the angle data is consistent.  Exports: wireframe OBJ
with great-circle arcs, and a deterministic JSON interchange format.
"""

import math
import os
import tempfile

import numpy as np

from sphtile import catalog as cat
from sphtile import embedder as em

PI = math.pi

print("== realizing the snub dodecahedron (92 faces) ==")
t = cat.make("sD")
emb = em.realize(t.map, t.angles)
print(f"  closure error: {emb.closure_error:.2e}")
print(f"  worst edge-length error: {emb.edge_error:.2e}")
print(f"  worst interior-angle error: {emb.angle_error:.2e}")
print(f"  total area - 4 pi: {em.total_area(t.map, emb) - 4 * PI:.2e}")

print()
print("== a concave face realizes too ==")
t = cat.make("J5")
emb = em.realize(t.map, t.angles)
decagon = cat.faces_of_size(t.map, 10)[0]
area = em.face_area(t.map, emb, decagon)
print(f"  J5's decagon area: {area:.6f} (more than a hemisphere: {area > 2 * PI})")

print()
print("== hemisphere faces sit on great circles ==")
t = cat.make("J1")
emb = em.realize(t.map, t.angles)
square = cat.faces_of_size(t.map, 4)[0]
pts = emb.points[list(t.map.face_vertex_cycle(square))]
print(f"  J1 square co-planarity (smallest singular value): "
      f"{np.linalg.svd(pts)[1][2]:.2e}")

print()
print("== exports ==")
out = os.path.join(tempfile.gettempdir(), "eD.obj")
t = cat.make("eD")
emb = em.realize(t.map, t.angles)
with open(out, "wb") as fh:
    fh.write(em.export_obj(t.map, emb, arc_steps=12))
print(f"  wrote {out} ({os.path.getsize(out)} bytes)")

blob = em.export_json(t.map, t.angles, emb, name="eD")
name, t2, assign2, positions = em.load_json(blob)
from sphtile import tilemap
print(f"  JSON round trip: name={name}, isomorphic={tilemap.isomorphic(t.map, t2)}")
