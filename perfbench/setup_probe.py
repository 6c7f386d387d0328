"""Set-up cost as a user pays it: import trussmerge, parse one edge list.

Run in a fresh interpreter: ``python3 setup_probe.py SRC_DIR EDGE_FILE``.
Prints one JSON object with the import, parse and total seconds.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import trussmerge  # noqa: E402
from trussmerge.graph import Graph  # noqa: E402

imported = time.perf_counter()
with open(sys.argv[2], encoding="utf-8") as fh:
    Graph.from_edge_list(fh)
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "parse_s": done - imported, "setup_s": done - start}))
