"""Tests for the communication-correctness analyzer (``repro.check``).

Covers the three passes on clean inputs (every diagnostic list empty on
real plans of a tiny workload, trace validation of full DES runs) and on
the seeded known-bad fixtures the issue demands: a deliberately cyclic
wait-for graph, a tag duplicated across overlapping liveness windows, a
tree with an orphaned rank, and an unseeded random construction -- each
yielding exactly one diagnostic with a stable code.
"""

import numpy as np
import pytest

from repro.check import (
    CODE_DESCRIPTIONS,
    Diagnostic,
    HBGraph,
    build_hb_model,
    check_deadlock_freedom,
    diagnose_graph,
    lint_source,
    lint_tree,
    liveness_windows,
    validate_trace,
    verify_plans,
)
from repro.cli import main
from repro.comm import build_tree
from repro.comm.collectives import VecBroadcast
from repro.comm.trees import CommTree, compiled_tree
from repro.core import ProcessorGrid, SimulatedPSelInv, iter_plans
from repro.core.plan import BlockInfo, CollectiveSpec, SupernodePlan
from repro.simulate import Machine, Network, NetworkConfig
from repro.sparse import analyze
from repro.workloads import grid_laplacian_2d


@pytest.fixture(scope="module")
def problem():
    return analyze(
        grid_laplacian_2d(10, 10, rng=np.random.default_rng(0)), ordering="nd"
    )


@pytest.fixture(scope="module")
def grid():
    return ProcessorGrid(3, 3)


@pytest.fixture(scope="module")
def plans(problem, grid):
    return list(iter_plans(problem.struct, grid))


def _plan(k, *, blocks=(), diag_bcast=None, col_bcasts=(), row_reduces=(),
          cross_sends=(), cross_backs=(), col_reduce=None, diag_owner=0):
    """Minimal hand-rolled SupernodePlan for known-bad fixtures."""
    return SupernodePlan(
        k=k,
        width=2,
        blocks=list(blocks),
        diag_owner=diag_owner,
        diag_bcast=diag_bcast,
        cross_sends=list(cross_sends),
        col_bcasts=list(col_bcasts),
        row_reduces=list(row_reduces),
        col_reduce=col_reduce,
        cross_backs=list(cross_backs),
    )


def _bcast(key, root=0, parts=(0, 1, 2), nbytes=64):
    return CollectiveSpec(
        kind="diag-bcast", key=key, root=root,
        participants=tuple(parts), nbytes=nbytes,
    )


class TestPlanLintClean:
    @pytest.mark.parametrize("scheme", ["flat", "binary", "shifted"])
    def test_real_plans_verify_clean(self, plans, grid, scheme):
        assert verify_plans(plans, grid, scheme, seed=7) == []


class TestPlanLintKnownBad:
    def test_root_not_participant(self, grid):
        bad = _plan(0, diag_bcast=_bcast(("db", 0), root=5, parts=(0, 1)))
        diags = verify_plans([bad], grid, "flat", check_trees=False)
        assert [d.code for d in diags] == ["PLAN001"]

    def test_duplicate_participants(self, grid):
        bad = _plan(0, diag_bcast=_bcast(("db", 0), parts=(0, 1, 1)))
        diags = verify_plans([bad], grid, "flat", check_trees=False)
        assert [d.code for d in diags] == ["PLAN002"]

    def test_off_grid_participant(self, grid):
        bad = _plan(0, diag_bcast=_bcast(("db", 0), parts=(0, 1, 99)))
        diags = verify_plans([bad], grid, "flat", check_trees=False)
        assert [d.code for d in diags] == ["PLAN003"]
        assert "99" in diags[0].message

    def test_nonpositive_payload(self, grid):
        bad = _plan(0, diag_bcast=_bcast(("db", 0), nbytes=0))
        diags = verify_plans([bad], grid, "flat", check_trees=False)
        assert [d.code for d in diags] == ["PLAN006"]

    def test_duplicated_tag_overlapping_windows(self, grid):
        # Supernode 2 depends on supernode 3, so their liveness windows
        # overlap; both carry a collective tagged ("db", 3).
        p3 = _plan(3, diag_bcast=_bcast(("db", 3)))
        p2 = _plan(
            2,
            blocks=[BlockInfo(snode=3, nrows=1)],
            diag_bcast=_bcast(("db", 3)),
        )
        diags = verify_plans([p3, p2], grid, "flat", check_trees=False)
        assert [d.code for d in diags] == ["PLAN004"]
        assert "('db', 3)" in diags[0].subject

    def test_duplicated_tag_disjoint_windows_is_clean(self, grid):
        # Independent supernodes 0 and 3 of a 4-supernode plan retire in
        # provably disjoint windows, so tag reuse is legal.
        ps = [
            _plan(3, diag_bcast=_bcast(("db", 3))),
            _plan(2, diag_bcast=_bcast(("db", 2))),
            _plan(1, diag_bcast=_bcast(("db", 1))),
            _plan(0, diag_bcast=_bcast(("db", 3))),
        ]
        assert verify_plans(ps, grid, "flat", check_trees=False) == []

    def test_payload_mismatch_between_sides(self, grid):
        cb = CollectiveSpec(
            kind="col-bcast", key=("cb", 0, 1), root=0,
            participants=(0, 1), nbytes=64,
        )
        rr = CollectiveSpec(
            kind="row-reduce", key=("rr", 0, 1), root=0,
            participants=(0, 1), nbytes=128,
        )
        bad = _plan(0, col_bcasts=[cb], row_reduces=[rr])
        diags = verify_plans([bad], grid, "flat", check_trees=False)
        assert [d.code for d in diags] == ["PLAN007"]


class TestTreeLint:
    def test_orphaned_rank_exactly_one_diagnostic(self):
        tree = CommTree(
            root=0,
            order=(0, 1, 2),
            parent={1: 0},
            children={0: (1,), 1: (), 2: ()},
        )
        diag = lint_tree(tree, participants=(0, 1, 2))
        assert diag is not None and diag.code == "PLAN005"
        assert "orphaned" in diag.message and "2" in diag.message

    def test_duplicate_parent_edges(self):
        tree = CommTree(
            root=0,
            order=(0, 1, 2),
            parent={1: 0, 2: 0},
            children={0: (1, 2), 1: (2,), 2: ()},
        )
        diag = lint_tree(tree)
        assert diag is not None and diag.code == "PLAN005"
        assert "duplicate parents" in diag.message

    def test_wrong_span(self):
        tree = build_tree("binary", 0, range(4))
        diag = lint_tree(tree, participants=(0, 1, 2, 3, 4))
        assert diag is not None and "does not span" in diag.message

    @pytest.mark.parametrize(
        "scheme", ["flat", "binary", "binomial", "shifted", "randperm", "hybrid"]
    )
    def test_all_schemes_build_valid_trees(self, scheme):
        for n in (1, 2, 7, 16):
            tree = build_tree(scheme, 3, range(3, 3 + n), seed=11)
            assert lint_tree(tree, participants=range(3, 3 + n)) is None


class TestLivenessWindows:
    def test_ancestors_finish_no_later(self, plans):
        windows = liveness_windows(plans)
        for p in plans:
            lo, hi = windows[p.k]
            assert lo < hi
            for b in p.blocks:  # ancestors cannot outlive their dependents
                assert windows[b.snode][1] <= hi

    def test_release_order_is_descending(self, plans):
        windows = liveness_windows(plans)
        ks = sorted(windows)
        for a, b in zip(ks, ks[1:]):
            assert windows[a][0] > windows[b][0]


class TestHBGraph:
    def test_cyclic_wait_for_graph_one_diagnostic(self):
        g = HBGraph()
        g.add_edge("recv-a", "send-b")
        g.add_edge("send-b", "recv-b")
        g.add_edge("recv-b", "send-a")
        g.add_edge("send-a", "recv-a")  # closes the wait-for cycle
        diags = diagnose_graph(g)
        assert [d.code for d in diags] == ["HB001"]
        assert "deadlock" in diags[0].message

    def test_acyclic_graph_clean(self):
        g = HBGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("a", "c")
        assert diagnose_graph(g) == []

    def test_find_cycle_returns_closed_path(self):
        g = HBGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(3, 1)
        cycle = g.find_cycle()
        assert cycle is not None and cycle[0] == cycle[-1]
        assert set(cycle) == {1, 2, 3}

    @pytest.mark.parametrize("scheme", ["flat", "binary", "shifted"])
    def test_real_plans_deadlock_free(self, plans, grid, scheme):
        assert check_deadlock_freedom(plans, grid, scheme, seed=7) == []

    def test_model_has_messages_and_edges(self, plans, grid):
        model = build_hb_model(plans, grid, "shifted", seed=7)
        assert len(model.messages) > 0
        assert model.graph.edge_count() > len(model.messages)


class TestTraceValidation:
    @pytest.fixture(scope="class")
    def traced(self, problem, grid, plans):
        out = {}
        for scheme in ("flat", "binary", "shifted"):
            log = []
            SimulatedPSelInv(
                problem.struct, grid, scheme, seed=7, plans=plans,
                event_log=log,
            ).run()
            model = build_hb_model(plans, grid, scheme, seed=7)
            out[scheme] = (log, model)
        return out

    @pytest.mark.parametrize("scheme", ["flat", "binary", "shifted"])
    def test_full_des_trace_is_hb_consistent(self, traced, scheme):
        log, model = traced[scheme]
        assert len(log) > 0
        assert validate_trace(log, model) == []

    def test_lost_message_detected(self, traced):
        log, model = traced["shifted"]
        victim = next(ev for ev in log if ev.kind == "send" and ev.src != ev.dst)
        key = (victim.tag, victim.src, victim.dst)
        tampered = [
            ev for ev in log if (ev.tag, ev.src, ev.dst) != key
        ]
        diags = validate_trace(tampered, model)
        assert [d.code for d in diags] == ["HB005"]

    def test_unplanned_message_detected(self, traced):
        log, model = traced["shifted"]
        bogus = log[0]._replace(
            kind="send", tag=("zz", 10**6), src=0, dst=1, nbytes=8
        )
        diags = validate_trace([*log, bogus], model)
        assert [d.code for d in diags] == ["HB002"]
        assert "absent from the static plan" in diags[0].message

    def test_clock_inversion_detected(self, traced):
        log, model = traced["shifted"]
        idx, victim = next(
            (i, ev) for i, ev in enumerate(log)
            if ev.kind == "deliver" and ev.src != ev.dst and ev.time > 0
        )
        tampered = list(log)
        tampered[idx] = victim._replace(time=-1.0)
        diags = validate_trace(tampered, model)
        assert "HB003" in {d.code for d in diags}

    def test_size_mismatch_detected(self, traced):
        log, model = traced["shifted"]
        idx, victim = next(
            (i, ev) for i, ev in enumerate(log) if ev.kind == "send"
        )
        tampered = list(log)
        tampered[idx] = victim._replace(nbytes=victim.nbytes + 1)
        diags = validate_trace(tampered, model)
        assert "HB002" in {d.code for d in diags}


class TestDeterminismLintKnownBad:
    def test_unseeded_default_rng_exactly_one_diagnostic(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        diags = lint_source(src, "fixture.py")
        assert [d.code for d in diags] == ["DET005"]
        assert diags[0].subject == "fixture.py:2"

    def test_stdlib_global_random(self):
        diags = lint_source("import random\nx = random.random()\n")
        assert [d.code for d in diags] == ["DET001"]

    def test_from_import_alias_resolved(self):
        diags = lint_source("from random import randint as ri\nx = ri(0, 9)\n")
        assert [d.code for d in diags] == ["DET001"]

    def test_legacy_numpy_random(self):
        diags = lint_source("import numpy as np\nx = np.random.rand(3)\n")
        assert [d.code for d in diags] == ["DET002"]

    def test_wall_clock_read(self):
        diags = lint_source("import time\nt = time.time()\n")
        assert [d.code for d in diags] == ["DET003"]

    def test_id_in_dict_key(self):
        diags = lint_source("d = {id(obj): 1}\n")
        assert [d.code for d in diags] == ["DET003"]

    def test_set_iteration(self):
        diags = lint_source("for x in {1, 2, 3}:\n    pass\n")
        assert [d.code for d in diags] == ["DET004"]

    def test_tuple_of_set(self):
        diags = lint_source("t = tuple({1, 2})\n")
        assert [d.code for d in diags] == ["DET004"]

    def test_float_accumulation_into_counter(self):
        diags = lint_source("count = 0\ncount += total / 8\n")
        assert [d.code for d in diags] == ["DET006"]

    def test_clean_idioms_not_flagged(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(42)\n"
            "order = sorted({3, 1, 2})\n"
            "for x in sorted({1, 2}):\n    pass\n"
            "gen = np.random.Generator(np.random.PCG64(7))\n"
        )
        assert lint_source(src) == []

    def test_allow_pragma_suppresses_named_rule(self):
        src = "import time\nt = time.time()  # det: allow(DET003)\n"
        assert lint_source(src) == []

    def test_allow_pragma_bare_suppresses_all(self):
        src = "import time\nt = time.time()  # det: allow\n"
        assert lint_source(src) == []

    def test_allow_pragma_wrong_code_does_not_suppress(self):
        src = "import time\nt = time.time()  # det: allow(DET001)\n"
        assert [d.code for d in lint_source(src)] == ["DET003"]

    def test_allow_pragma_only_covers_its_own_line(self):
        src = (
            "import time\n"
            "a = time.time()  # det: allow(DET003)\n"
            "b = time.time()\n"
        )
        diags = lint_source(src, "fixture.py")
        assert [d.subject for d in diags] == ["fixture.py:3"]


class TestDiagnostics:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("XYZ999", "s", "m")

    def test_every_code_documented(self):
        for code in CODE_DESCRIPTIONS:
            assert code[:-3] in ("PLAN", "HB", "DET")


class TestCommTreeValidation:
    def test_duplicate_participants_rejected(self):
        with pytest.raises(ValueError, match="duplicate participants"):
            CommTree(
                root=0, order=(0, 1, 1), parent={1: 0}, children={0: (1, 1)}
            )

    def test_root_not_in_participants_rejected(self):
        with pytest.raises(ValueError, match="root 5"):
            CommTree(root=5, order=(0, 1), parent={1: 0}, children={0: (1,)})


class TestCollectiveTagHandling:
    def test_double_start_message_includes_tag(self):
        m = Machine(4, Network(4, NetworkConfig()))
        tree = compiled_tree("flat", 0, (0, 1, 2, 3))
        bc = VecBroadcast(m, tree, ("db", 7), 64, "c", lambda c, r, p: None, None)
        bc.start()
        with pytest.raises(RuntimeError, match=r"\('db', 7\)"):
            bc.start()


class TestCheckCLI:
    def test_quick_workload_clean(self, capsys):
        assert main(["check", "--workload", "laplacian", "-g", "3"]) == 0
        out = capsys.readouterr().out
        assert "check: clean" in out
        assert "laplacian/shifted" in out

    def test_codes_listing(self, capsys):
        assert main(["check", "--codes"]) == 0
        out = capsys.readouterr().out
        assert "PLAN004" in out and "HB001" in out and "DET005" in out
