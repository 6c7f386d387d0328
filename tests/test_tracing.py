"""The benchmark's span recorder still finds and spans every layer it patches.

``perfbench/tracing.py`` replaces functions by the names their callers look
up. A rename or a moved call in the package would silently drop a layer
from the per-layer record, so this runs the recorder as the benchmark does.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np

from trussmerge import baselines, candidates, cli, metrics, search
from trussmerge.decomposition import TrussView

from test_cli import graph_a_file, maximize_args  # noqa: F401  (fixture)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# (owner, name) pairs the recorder replaces, where it looks them up
PATCHED = [(cli, "main"), (search, "adaptive_search"), (metrics, "adaptive_search"),
           (baselines, "_baseline_loop"), (baselines, "_rd_candidates"),
           (search, "find_iom_candidates"), (search, "find_iim_candidates"),
           (search, "prune_outside_maximal"), (TrussView, "compute"),
           (TrussView, "truss_size_after_merge"), (candidates.ScoringContext, "phse_edges"),
           (candidates, "_iim_score"), (np.linalg, "eigvalsh")]
PATCHED += [(mod, name) for mod in (cli, search, baselines)
            for name in ("build_round_state", "truss_decompose")]


def load_recorder():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.Recorder()


def test_recorder_spans_each_loop_once_and_uninstalls(graph_a_file, tmp_path):
    before = [vars(owner)[name] for owner, name in PATCHED]
    rec = load_recorder()
    rec.install()
    try:
        assert all(vars(o)[n] is not f for (o, n), f in zip(PATCHED, before))
        for pass_id, (method, loop) in enumerate([("BM", "trussmerge.search.adaptive_search"),
                                                  ("RD", "trussmerge.baselines._baseline_loop")]):
            rec.pass_id = pass_id
            out = tmp_path / f"{method}.json"
            assert cli.main(maximize_args(graph_a_file, str(out), method=method)) == 0
            plan = json.loads(out.read_text())["plan"]
            # a skipped round still builds its state before finding no candidates
            executed = len(plan["rounds"]) + (plan["skipped_rounds"] > 0)
            spans = [s for s in rec.spans if s[5] == pass_id]
            assert [s[0] for s in spans if s[1] == "search.loop"] == [loop]
            groups = Counter(s[1] for s in spans)
            # round 0 computes the view; later round-state builds carry it
            assert groups["search.state"] == executed and groups["decomposition.view"] == 1
            layers = rec.pass_metrics(pass_id, 1.0)
            assert layers["search.state_calls"] == executed and layers["decomposition.view_calls"] == 1
            assert layers["search.rounds"] == 2
            # one eval span per candidate, stopped early or not; the commit reuses the winner's
            assert layers["decomposition.eval_calls"] == sum(r["evaluated"] for r in plan["rounds"]) > 0
            if method == "BM":
                assert groups["candidates.iom"] == groups["candidates.iim"] == executed
            else:
                assert groups["baselines.rd_candidates"] == executed
    finally:
        rec.uninstall()
    assert all(vars(o)[n] is f for (o, n), f in zip(PATCHED, before))
