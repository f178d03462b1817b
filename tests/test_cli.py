"""End-to-end command-line tests, including the exit-code contract."""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from nbcomplex import (ExperimentConfig, Graph, SimplicialComplex,
                       betti_field2, bound_comparison, boundary_matrices,
                       chromatic_number_exact, closed_set_stats,
                       complete_graph, cycle_graph,
                       facet_list_text, gnp_sample, graph_homology,
                       kneser_graph, neighborhood_complex, parse_edge_list,
                       parse_facet_list, records_from_csv,
                       records_from_jsonl, run_survey, run_trial,
                       serialize_edge_list)
from nbcomplex import cli
from nbcomplex.cli import main

from test_certificates import mycielski
from test_graphs import reference_gnp
from test_homology import (ORACLE_COMPLEXES, REFERENCE_COMPLEXES,
                           REFERENCE_IDS, all_subsets_betti, own_faces,
                           random_facets, sympy_homology)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# graph generation and the source contract


def test_gen_family_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "complete:4")
    assert code == 0
    assert parse_edge_list(out) == complete_graph(4)


def test_gen_gnp_matches_library_sampler(capsys):
    code, out, _ = run_cli(capsys, "gen", "--gnp", "8", "0.5", "3")
    assert code == 0
    assert parse_edge_list(out) == gnp_sample(8, 0.5, 3)


@pytest.mark.parametrize("n, p, seed", [(70, 0.3, 5), (120, 0.01, 3)])
def test_gen_gnp_past_the_lane_table_prints_the_reference_graph(
        capsys, n, p, seed):
    code, out, _ = run_cli(capsys, "gen", "--gnp", str(n), str(p), str(seed))
    assert code == 0
    assert out == serialize_edge_list(reference_gnp(n, p, seed))


def test_gen_to_file(tmp_path, capsys):
    path = str(tmp_path / "g.txt")
    code, out, _ = run_cli(capsys, "gen", "--family", "cycle:5", "-o", path)
    assert code == 0 and out == ""
    with open(path) as fh:
        assert parse_edge_list(fh.read()).n == 5


def test_exactly_one_graph_source_required(capsys):
    code, _, err = run_cli(capsys, "gen")
    assert code == 1 and "exactly one" in err
    code, _, err = run_cli(capsys, "gen", "--family", "cycle:5",
                           "--gnp", "5", "0.5", "1")
    assert code == 1


def test_gen_bad_gnp_tokens(capsys):
    code, _, err = run_cli(capsys, "gen", "--gnp", "8", "half", "3")
    assert code == 1 and "--gnp" in err


def test_unknown_family_exits_one(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "dodecahedron:1")
    assert code == 1


# ---------------------------------------------------------------------------
# complex and homology


def test_complex_facets(capsys):
    code, out, _ = run_cli(capsys, "complex", "--family", "complete:3")
    assert code == 0
    c = parse_facet_list(out)
    assert c.facets == ((0, 1), (0, 2), (1, 2))


def test_homology_of_a_complete_graph(capsys):
    code, out, _ = run_cli(capsys, "homology", "--family", "complete:4")
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == [0, 0, 1]
    assert payload["torsion"] == [[], [], []]
    assert payload["source"] == "direct"


def test_homology_gf2_only(capsys):
    code, out, _ = run_cli(capsys, "homology", "--family", "complete:4",
                           "--coeff", "f2")
    payload = json.loads(out)
    assert code == 0
    assert payload["betti"] is None
    assert payload["field2"] == [0, 0, 1]


def test_homology_both_coefficient_systems(capsys):
    code, out, _ = run_cli(capsys, "homology", "--family", "cycle:5",
                           "--coeff", "both")
    payload = json.loads(out)
    assert payload["betti"] == [0, 1]
    assert payload["field2"] == [0, 1]


def test_homology_from_facet_file(tmp_path, capsys):
    fpath = str(tmp_path / "facets.txt")
    code, _, _ = run_cli(capsys, "complex", "--family", "complete:4",
                         "-o", fpath)
    assert code == 0
    code, out, _ = run_cli(capsys, "homology", "--facets", fpath)
    payload = json.loads(out)
    assert code == 0
    assert payload["betti"] == [0, 0, 1]
    assert payload["source"] == "facets"


def test_homology_of_facets_with_a_far_label_costs_what_its_facets_do(
        tmp_path, capsys):
    # two edges through the label 10**6 and one apart: the core is two
    # points, and no step may walk the million labels the file skips
    fpath = tmp_path / "facets.txt"
    fpath.write_text("dim 1\n0 1000000\n1 1000000\n2 3\n")
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "homology", "--facets", str(fpath))
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert json.loads(out)["betti"] == [1, 0]


def test_homology_facets_excludes_graph_sources(tmp_path, capsys):
    fpath = str(tmp_path / "facets.txt")
    run_cli(capsys, "complex", "--family", "complete:3", "-o", fpath)
    code, _, err = run_cli(capsys, "homology", "--facets", fpath,
                           "--family", "complete:3")
    assert code == 1 and "replaces" in err


def test_homology_max_dim_truncates(capsys):
    code, out, _ = run_cli(capsys, "homology", "--family", "complete:5",
                           "--max-dim", "1")
    payload = json.loads(out)
    assert payload["betti"] == [0, 0]
    assert payload["truncated"] is True


FACET_CASES = {**ORACLE_COMPLEXES,
               **{f"random{seed}": (7, random_facets(seed))
                  for seed in range(0, 16, 3)}}


@pytest.mark.parametrize("name", sorted(FACET_CASES))
def test_homology_of_facets_matches_the_all_subsets_oracles(tmp_path, capsys,
                                                             name):
    n, facets = FACET_CASES[name]
    c = SimplicialComplex.from_faces(n, facets)
    fpath = tmp_path / "facets.txt"
    fpath.write_text(facet_list_text(c))
    code, out, _ = run_cli(capsys, "homology", "--facets", str(fpath),
                           "--coeff", "both")
    payload = json.loads(out)
    assert code == 0
    betti, torsion = sympy_homology(c)
    assert tuple(payload["betti"]) == betti == all_subsets_betti(c)
    assert tuple(map(tuple, payload["torsion"])) == torsion


# a cone over a pentagon: contractible, and its strong core is one point
CONE_FACETS = "dim 2\n0 1 2\n0 2 3\n0 3 4\n0 4 5\n0 1 5\n"


@pytest.mark.parametrize("coeff", ["z", "f2", "both"])
def test_homology_of_facets_whose_core_is_a_point(tmp_path, capsys, coeff):
    fpath = tmp_path / "cone.txt"
    fpath.write_text(CONE_FACETS)
    code, out, _ = run_cli(capsys, "homology", "--facets", str(fpath),
                           "--max-dim", "1", "--coeff", coeff)
    payload = json.loads(out)
    assert code == 0
    assert payload["source"] == "facets"
    # truncated against the input's dimension 2, not the core's 0
    assert payload["truncated"] is True
    if coeff != "f2":
        assert payload["betti"] == [0, 0]
        assert payload["torsion"] == [[], []]
    if coeff != "z":
        assert payload["field2"] == [0, 0]
    code, out, _ = run_cli(capsys, "homology", "--facets", str(fpath),
                           "--coeff", coeff)
    payload = json.loads(out)
    assert payload["truncated"] is False
    assert len(payload["field2" if coeff == "f2" else "betti"]) == 3


def test_homology_gf2_only_on_a_graph_reports_its_width(capsys):
    # N[K_{3,4}] has dimension 3 but its core is two points
    code, out, _ = run_cli(capsys, "homology", "--family",
                           "complete_bipartite:3,4", "--coeff", "f2")
    payload = json.loads(out)
    assert code == 0
    assert payload == {"betti": None, "torsion": None,
                       "field2": [1, 0, 0, 0], "truncated": False,
                       "source": "direct"}


# --coeff f2 reads the GF(2) Betti numbers off the integer invariant
# factors; the bitset elimination over GF(2) is the independent check.
# Small graphs suffice for the wiring: the two routes' agreement is a
# property test in test_homology.py.
@pytest.mark.parametrize("n, p, seed", [(14, 0.5, 1), (16, 0.5, 2),
                                        (18, 0.6, 3)])
def test_homology_gf2_of_a_graph_matches_the_bitset_elimination(
        capsys, n, p, seed):
    code, out, _ = run_cli(capsys, "homology", "--gnp", str(n), str(p),
                           str(seed), "--coeff", "f2")
    assert code == 0
    data = boundary_matrices(neighborhood_complex(gnp_sample(n, p, seed)))
    assert json.loads(out) == {"betti": None, "torsion": None,
                               "field2": list(betti_field2(data)),
                               "truncated": data.truncated,
                               "source": "direct"}


# RP^2 on six vertices: H~_1 = Z/2, so GF(2) sees classes in dimensions 1
# and 2 that the free ranks over Z do not
RP2_FACETS = ("dim 2\n0 1 4\n0 1 5\n0 2 3\n0 2 5\n0 3 4\n1 2 3\n1 2 4\n"
              "1 3 5\n2 4 5\n3 4 5\n")


def test_homology_gf2_of_a_facet_file_matches_the_bitset_elimination(
        tmp_path, capsys):
    fpath = tmp_path / "rp2.txt"
    fpath.write_text(RP2_FACETS)
    code, out, _ = run_cli(capsys, "homology", "--facets", str(fpath),
                           "--coeff", "f2")
    assert code == 0
    oracle = betti_field2(own_faces(parse_facet_list(RP2_FACETS)))
    assert oracle == (0, 1, 1)
    assert json.loads(out) == {"betti": None, "torsion": None,
                               "field2": list(oracle), "truncated": False,
                               "source": "facets"}


# sha256 of `homology --coeff both` output: "gnp" over 40 seeded G(n, p)
# graphs (n = 6..16) concatenated, the others over one facet file each
HOMOLOGY_GOLDEN = {
    "gnp":
        "e861b9c4efe21d244ded3f91953afde98024c6ef66405edcfc564589740d9dc5",
    "rp2":
        "04b789159c7aaa719fb1d08968a684b9dad11a7d91c1c6d7bd391556848ed9db",
    "suspended-rp2":
        "87120b98e94a0832661d04170843f9f697d3ae1a05fe3a3ab26e1311e469cf94",
    "torus":
        "44f263608d84c34993e171b514cc5f07105fb0626e5ad3eca393ca041895d0ec",
}
GOLDEN_GNP = [(6 + i % 11, (0.3, 0.45, 0.6, 0.75)[i % 4], 500 + i)
              for i in range(40)]


@pytest.mark.parametrize("name", sorted(HOMOLOGY_GOLDEN))
def test_homology_bytes_match_their_golden_digests(tmp_path, capsys, name):
    if name == "gnp":
        calls = [("--gnp", str(n), str(p), str(seed))
                 for n, p, seed in GOLDEN_GNP]
    else:
        n, facets = dict(zip(REFERENCE_IDS, REFERENCE_COMPLEXES))[name]
        fpath = tmp_path / "facets.txt"
        fpath.write_text(facet_list_text(
            SimplicialComplex.from_faces(n, facets)))
        calls = [("--facets", str(fpath))]
    text = ""
    for source in calls:
        code, out, _ = run_cli(capsys, "homology", *source, "--coeff", "both")
        assert code == 0
        text += out
    assert hashlib.sha256(text.encode()).hexdigest() == HOMOLOGY_GOLDEN[name]


def test_survey_trials_and_homology_never_build_frozenset_adjacency(
        monkeypatch, capsys):
    # the runtime paths read Graph.masks; Graph.neighbors is for callers
    def refuse(self, v):
        raise AssertionError("Graph.neighbors called on a runtime path")

    monkeypatch.setattr(Graph, "neighbors", refuse)
    cfg = ExperimentConfig(n=9, p_grid=(0.5,), trials=1, master_seed=3,
                           neighborliness=True, certificates=True,
                           clique_stats=True)
    r = run_trial(cfg, 0, 0)
    assert r.errors == ()
    assert None not in (r.clique_number, r.neighborliness, r.closed_set_count,
                        r.betti, r.certificates)
    code, out, _ = run_cli(capsys, "homology", "--gnp", "12", "0.5", "1",
                           "--coeff", "both")
    assert code == 0 and json.loads(out)["source"] == "direct"


def test_homology_never_reads_facets_as_tuples(monkeypatch, capsys):
    # faces stay bitmasks from the graph's masks to the Smith reduction;
    # SimplicialComplex.facets is a tuple view for callers only
    def refuse(self):
        raise AssertionError("SimplicialComplex.facets read on a runtime path")

    monkeypatch.setattr(SimplicialComplex, "facets", property(refuse))
    k6, _ = graph_homology(complete_graph(6))
    assert k6.betti == (0, 0, 0, 0, 1)
    sampled, _ = graph_homology(gnp_sample(11, 0.5, 7))
    assert sampled.field2 is not None
    cfg = ExperimentConfig(n=9, p_grid=(0.5,), trials=1, master_seed=3,
                           neighborliness=True, certificates=True,
                           clique_stats=True)
    r = run_trial(cfg, 0, 0)
    assert r.errors == ()
    assert None not in (r.clique_number, r.neighborliness, r.closed_set_count,
                        r.betti, r.certificates)
    code, out, _ = run_cli(capsys, "homology", "--gnp", "12", "0.45", "3",
                           "--coeff", "both")
    assert code == 0 and json.loads(out)["source"] == "direct"


# ---------------------------------------------------------------------------
# retract and certificates


def test_retract_reports_poset_and_order_complex(capsys):
    code, out, _ = run_cli(capsys, "retract", "--family", "complete:3")
    payload = json.loads(out)
    assert code == 0
    assert payload["poset"]["height"] == 1
    assert len(payload["poset"]["elements"]) == 6
    assert payload["retract"]["dimension"] == 1
    assert payload["retract"]["facet_count"] == 6


# sha256 of `retract` output, taken from the frozenset construction with its
# pairwise Hasse scan
RETRACT_GOLDEN = {
    "--family complete:3":
        "71657e6e505019018089805e08397f14935eb0f9296bb2345e166a6e409c5b29",
    "--family complete:5":
        "2980c5fd471b3da63efb7207a34b5c02c02d563cf5464edc72920cb8ddb26c62",
    "--family cycle:7":
        "d437be6c65b5f2f5c1695f97094ea0205c0224ecc2c78b9af368a7690bdf52bb",
    "--family complete_bipartite:3,4":
        "bbf4ea6c2f77f005cdcbbfabf6b63df6dbc8276a60857623cd90f5ddb03b8224",
    "--family kneser:2,1":
        "ed023a7be41f8a28497f0f7b7bbdecb1223aa611a37549c16b66775c6dc210b2",
    "--family xn:3":
        "4fe5e44e2060db249dd6e354eb0a3fe5c8fc88dd3b8b1b8f049b1224f0f10086",
    "--gnp 10 0.5 1":
        "453923c49431418061bcefabebbd2bf9ff9466e22c6e8e6010d4e5c2422d0a21",
    "--gnp 12 0.5 1":
        "4224776fbd7418481c066e247975c1e2b382801228e3d5465a53e5232aac1908",
    "--gnp 14 0.5 1":
        "5479e048ab1c9bd97a8928b1e5faf3c4b5fd255375805f95e1ebcf2681c60235",
    "--gnp 16 0.5 1":
        "268634a361bcbae955d4cb2e2a55efe5a75532936d737321018afd3f85b41f87",
}


@pytest.mark.parametrize("source", sorted(RETRACT_GOLDEN))
def test_retract_bytes_match_their_golden_digests(capsys, source):
    code, out, _ = run_cli(capsys, "retract", *source.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RETRACT_GOLDEN[source]


# sha256 of the exit code, stdout and stderr of each call, concatenated
# over the sources, taken while certify and chromatic enumerated the
# maximal cliques; path:70 passes the 64-vertex clique cap
CLIQUE_SOURCES = ["--family complete:5", "--family cycle:5",
                  "--family kneser:2,1", "--family xn:3",
                  "--family complete_bipartite:3,4", "--family path:6",
                  "--gnp 8 0.5 0", "--gnp 12 0.3 0", "--gnp 14 0.4 3",
                  "--gnp 16 0.2 5", "--family path:70"]
CLIQUE_GOLDEN = {
    "certify": (
        CLIQUE_SOURCES + ["--gnp 20 0.3 6", "--gnp 30 0.2 3",
                          "--gnp 40 0.1 4", "--gnp 40 0.8 4",
                          "--gnp 64 0.1 1"],
        "b788a7ff16652888c2c94497afbb776818a8ff3b46dbda1c8eab26d931c5ef29"),
    "chromatic": (
        CLIQUE_SOURCES,
        "a1b0b74f6c1cd473edd059ba94c742ae8e36d30ae77c2fdbbf653bf20b02fc52"),
    "chromatic --format csv": (
        CLIQUE_SOURCES,
        "9ea471e74547e2800e458086e99d131698b059b0dd0c869791aa5a2d26522e92"),
}


@pytest.mark.parametrize("command", sorted(CLIQUE_GOLDEN))
def test_clique_command_bytes_match_their_golden_digests(capsys, command):
    sources, digest = CLIQUE_GOLDEN[command]
    text = ""
    for source in sources:
        code, out, err = run_cli(capsys, *command.split(), *source.split())
        text += f"{code}\n{out}{err}"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of the exit code, stdout and stderr of `chromatic` on seeded
# G(n, p) graphs whose greedy coloring uses more colors than the clique
# number, so the exact search backtracks; taken from the search on
# frozenset adjacency and color dicts
CHROMATIC_GNP = [(12, 0.5, 11), (12, 0.5, 13), (12, 0.6, 1), (12, 0.6, 3),
                 (12, 0.7, 1), (12, 0.7, 19), (14, 0.5, 0), (14, 0.5, 7),
                 (14, 0.6, 0), (14, 0.6, 1), (14, 0.7, 0), (14, 0.7, 2),
                 (16, 0.5, 1), (16, 0.5, 2), (16, 0.6, 0), (16, 0.6, 2),
                 (16, 0.7, 2), (16, 0.7, 3), (18, 0.5, 0), (18, 0.5, 1),
                 (18, 0.6, 0), (18, 0.6, 1), (18, 0.7, 0), (18, 0.7, 2),
                 (20, 0.5, 0), (20, 0.6, 0), (20, 0.7, 5)]
CHROMATIC_GOLDEN = \
    "74a05bafe9b38729cc6bd43dd59b8300e280eec5f2765e264bca90a4a4befac8"


def test_chromatic_bytes_of_backtracking_graphs_match_their_golden_digest(
        capsys):
    text = ""
    for n, p, seed in CHROMATIC_GNP:
        code, out, err = run_cli(capsys, "chromatic", "--gnp", str(n), str(p),
                                 str(seed))
        text += f"{code}\n{out}{err}"
    assert hashlib.sha256(text.encode()).hexdigest() == CHROMATIC_GOLDEN


def test_chromatic_layer_never_builds_frozenset_adjacency(monkeypatch,
                                                          capsys):
    # color classes are vertex bitmasks over Graph.masks
    def refuse(self, v):
        raise AssertionError("Graph.neighbors called on a runtime path")

    monkeypatch.setattr(Graph, "neighbors", refuse)
    assert chromatic_number_exact(mycielski(cycle_graph(5))) == 4
    assert chromatic_number_exact(kneser_graph(2, 1)) == 3
    assert [chromatic_number_exact(gnp_sample(n, p, seed))
            for n, p, seed in CHROMATIC_GNP[:6]] == [5, 4, 5, 4, 7, 5]
    r = bound_comparison(gnp_sample(12, 0.5, 11))
    assert (r.chromatic_number, r.clique_number, r.missing) == (5, 4, ())
    source = ("--gnp", "14", "0.6", "0")
    code, out, _ = run_cli(capsys, "chromatic", *source)
    assert code == 0 and json.loads(out)["chromatic_number"] == 5
    code, out, _ = run_cli(capsys, "chromatic", *source, "--format", "csv")
    assert code == 0 and out.splitlines()[1].split(",")[2] == "5"
    code, out, _ = run_cli(capsys, "certify", "--gnp", "12", "0.3", "0")
    assert code == 0 and json.loads(out)["count"] > 0


def test_retract_runs_above_sixteen_vertices(capsys):
    code, out, _ = run_cli(capsys, "retract", "--gnp", "18", "0.5", "1")
    assert code == 0
    poset = json.loads(out)["poset"]
    assert (len(poset["elements"]), poset["height"]) == \
        closed_set_stats(gnp_sample(18, 0.5, 1))


def test_certify_complete_graph(capsys):
    code, out, _ = run_cli(capsys, "certify", "--family", "complete:4")
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 1
    assert payload["best_sphere_dim"] == 2
    cert = payload["certificates"][0]
    assert cert["clique"] == [0, 1, 2, 3] and cert["validated"] is True


def test_certify_five_cycle_finds_nothing(capsys):
    code, out, _ = run_cli(capsys, "certify", "--family", "cycle:5")
    payload = json.loads(out)
    assert payload["count"] == 0
    assert payload["best_sphere_dim"] is None


# ---------------------------------------------------------------------------
# chromatic comparison


def test_chromatic_json(capsys):
    code, out, _ = run_cli(capsys, "chromatic", "--family", "cycle:5")
    payload = json.loads(out)
    assert code == 0
    assert payload["chromatic_number"] == 3
    assert payload["clique_number"] == 2
    assert payload["neighborliness_bound"] == 2
    assert payload["missing"] == []


def test_chromatic_csv(capsys):
    code, out, _ = run_cli(capsys, "chromatic", "--family", "cycle:5",
                           "--format", "csv")
    lines = out.strip().split("\n")
    assert code == 0 and len(lines) == 2
    assert lines[0].startswith("n,edges,chromatic_number")


def test_chromatic_cap_shows_up_as_missing_not_failure(capsys):
    code, out, _ = run_cli(capsys, "chromatic", "--family", "cycle:9",
                           "--vertex-cap", "5")
    payload = json.loads(out)
    assert code == 0
    assert payload["chromatic_number"] is None
    assert "chromatic_number" in payload["missing"]


# ---------------------------------------------------------------------------
# bounds modes


def test_bounds_neighborly_value(capsys):
    code, out, _ = run_cli(capsys, "bounds", "neighborly", "--n", "100",
                           "--level", "3", "--p", "0.5")
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == pytest.approx(0.3832579418718431)


def test_bounds_biclique_and_extension(capsys):
    code, out, _ = run_cli(capsys, "bounds", "biclique", "--n", "50",
                           "--j", "2", "--k", "3", "--p", "0.3")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(17503.29)
    code, out, _ = run_cli(capsys, "bounds", "extension", "--n", "100",
                           "--p", "0.5", "--k", "4")
    assert json.loads(out)["value"] == pytest.approx(1.5625)


def test_bounds_windows(capsys):
    code, out, _ = run_cli(capsys, "bounds", "nonvanishing-exponent",
                           "--k", "3")
    payload = json.loads(out)
    assert (payload["lower"], payload["upper"]) == ("-1/2", "-1/3")
    code, out, _ = run_cli(capsys, "bounds", "vanishing-dimension",
                           "--n", "1024")
    payload = json.loads(out)
    assert payload["lower"] == pytest.approx(10.0)
    assert payload["upper"] == pytest.approx(40.0)
    code, out, _ = run_cli(capsys, "bounds", "nonvanishing-dimension",
                           "--n", "1024", "--eps", "0.1")
    assert code == 0
    code, out, _ = run_cli(capsys, "bounds", "vanishing-exponent",
                           "--level", "4")
    assert json.loads(out)["lower"] == "-2/3"


def test_bounds_threshold(capsys):
    code, out, _ = run_cli(capsys, "bounds", "threshold", "--family", "xn:3")
    payload = json.loads(out)
    assert code == 0
    assert payload["exponent"] == "-2/3"
    assert payload["density"] == "3/2"
    # a graph that is not strictly balanced is a usage error
    code, _, err = run_cli(capsys, "gen", "--family", "complete:4")
    code, _, err = run_cli(capsys, "bounds", "threshold",
                           "--gnp", "6", "0.0", "1")
    assert code == 1


@pytest.mark.parametrize("before_mode", [True, False],
                         ids=["bounds-o-mode", "bounds-mode-o"])
def test_bounds_output_path_is_written_from_either_position(
        tmp_path, capsys, before_mode):
    path = str(tmp_path / "window.json")
    mode = ("vanishing-exponent", "--level", "2")
    argv = ("bounds", "-o", path, *mode) if before_mode else \
        ("bounds", *mode, "-o", path)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == ""
    _, printed, _ = run_cli(capsys, "bounds", *mode)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == printed


# Per `bounds` mode: valid flags, a missing required flag (or graph source),
# a domain error or a flag of the wrong type, and --help.  The digests are
# sha256 of each call's exit code, stdout and stderr, in order.
BOUNDS_CALLS = {
    "neighborly": [("--n", "100", "--level", "3", "--p", "0.5"),
                   ("--n", "100", "--level", "3"),
                   ("--n", "5", "--level", "9", "--p", "0.5"),
                   ("--n", "100", "--level", "3", "--p", "x"),
                   ("--help",)],
    "biclique": [("--n", "50", "--j", "2", "--k", "3", "--p", "0.3"),
                 ("--n", "50", "--j", "2", "--p", "0.3"),
                 ("--n", "5", "--j", "2", "--k", "9", "--p", "0.3"),
                 ("--help",)],
    "extension": [("--n", "100", "--p", "0.5", "--k", "4"),
                  ("--p", "0.5", "--k", "4"),
                  ("--n", "100", "--p", "1.5", "--k", "4"),
                  ("--help",)],
    "vanishing-dimension": [("--n", "1024"), ("--n", "1024", "--eps", "0.2"),
                            (), ("--n", "1"), ("--help",)],
    "vanishing-exponent": [("--level", "4"), (), ("--level", "-1"),
                           ("--help",)],
    "nonvanishing-dimension": [("--n", "1024", "--eps", "0.1"), (),
                               ("--n", "1024", "--eps", "0.5"), ("--help",)],
    "nonvanishing-exponent": [("--k", "3"), (), ("--k", "2.5"), ("--help",)],
    "threshold": [("--family", "xn:3"), (), ("--gnp", "6", "0.0", "1"),
                  ("--help",)],
}
BOUNDS_GOLDEN = {
    None: "b08de87011e519d0bb8222c0e96a3bd8427781d52b099d8ec663278271baf683",
    "neighborly":
        "52259516786e63c687fc4041557e3257158793c0ab4241d702cf65cecc373cc8",
    "biclique":
        "4aa0650cec54d18a6017ace5f46907c37d9bfe90c5900b82a402f2a496977449",
    "extension":
        "14fc94d809d1a275d524094cfa6e1dfa9350fc0ca175671e05715eb3dd62acf5",
    "vanishing-dimension":
        "8a1f45ca478355c165f757e0c323242dd1e94294d270053478f91ab27fdf10c0",
    "vanishing-exponent":
        "2033f07cab0f98363dcb2dc65465047c43f8b6afd5e480c399563edc3db7920d",
    "nonvanishing-dimension":
        "8ef13c22c51df63772763a44088d4aa6d3b2ffcb7fa67d9d1c5a5354c6889655",
    "nonvanishing-exponent":
        "d80fd712a603be68d3f6b75e10505036702de624bd8185e8c7b986fb9fdfb72f",
    "threshold":
        "1bceac7eaa216a29c0ccdc3819d672bc21f73b9cbf87e2621834d6aecbbc63c9",
}


def cli_outcome(capsys, argv):
    """Exit code, stdout and stderr of one call, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return f"{code}\n{out.out}{out.err}"


@pytest.mark.parametrize("mode", [None, *BOUNDS_CALLS])
def test_bounds_bytes_match_their_golden_digests(monkeypatch, capsys, mode):
    monkeypatch.setenv("COLUMNS", "80")
    if mode is None:
        calls = [("bounds",), ("bounds", "--help"), ("bounds", "no-such-mode")]
    else:
        calls = [("bounds", mode, *flags) for flags in BOUNDS_CALLS[mode]]
    text = "".join(cli_outcome(capsys, argv) for argv in calls)
    assert hashlib.sha256(text.encode()).hexdigest() == BOUNDS_GOLDEN[mode]


# ---------------------------------------------------------------------------
# survey and sweep


def test_survey_stdout_matches_library(capsys):
    code, out, _ = run_cli(capsys, "survey", "--n", "6", "--p", "0.3,0.7",
                           "--trials", "2", "--seed", "5")
    assert code == 0
    cfg = ExperimentConfig(n=6, p_grid=(0.3, 0.7), trials=2, master_seed=5,
                           max_dim=4)
    assert records_from_jsonl(out) == run_survey(cfg)


def test_survey_csv_format(capsys):
    code, out, _ = run_cli(capsys, "survey", "--n", "5", "--p", "0.5",
                           "--trials", "2", "--seed", "1",
                           "--format", "csv")
    assert code == 0
    assert len(records_from_csv(out)) == 2


def test_survey_summary_file_and_silent_stdout(tmp_path, capsys):
    spath = str(tmp_path / "summary.json")
    code, out, _ = run_cli(capsys, "survey", "--n", "6", "--p", "0.4",
                           "--trials", "2", "--seed", "9",
                           "--summary", spath)
    assert code == 0 and out == ""
    with open(spath) as fh:
        summary = json.load(fh)
    assert summary["config"]["n"] == 6
    assert len(summary["per_p"]) == 1


def test_survey_parallel_output_is_identical(tmp_path, capsys):
    paths = []
    for jobs in ("1", "2"):
        path = str(tmp_path / f"records-{jobs}.jsonl")
        code, _, _ = run_cli(capsys, "survey", "--n", "6", "--p", "0.3,0.6",
                             "--trials", "3", "--seed", "21",
                             "--jobs", jobs, "-o", path)
        assert code == 0
        paths.append(path)
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()


def test_survey_feature_selection(capsys):
    code, out, _ = run_cli(capsys, "survey", "--n", "6", "--p", "0.5",
                           "--trials", "1", "--seed", "2",
                           "--features", "homology,cliques")
    assert code == 0
    rec = json.loads(out.strip().split("\n")[0])
    assert rec["clique_number"] is not None
    assert rec["neighborliness"] is None


@pytest.mark.parametrize("features", ["", ",", " , "])
def test_survey_empty_feature_list_turns_every_feature_off(capsys, features):
    # a given list is taken as given, even when it names nothing
    code, out, err = run_cli(capsys, "survey", "--n", "6", "--p", "0.5",
                             "--trials", "2", "--seed", "2",
                             "--features", features)
    assert code == 0 and err == ""
    cfg = ExperimentConfig(n=6, p_grid=(0.5,), trials=2, master_seed=2,
                           homology=False)
    records = records_from_jsonl(out)
    assert records == run_survey(cfg)
    assert all(r.betti is None and r.homology_source is None
               and r.clique_number is None for r in records)


@pytest.mark.parametrize("command", ["survey", "sweep"])
@pytest.mark.parametrize("grid, message", [
    ("x", "bad probability list 'x'"),
    ("0.5,x", "bad probability list '0.5,x'"),
    (",", "empty probability list"),
])
def test_bad_probability_lists_exit_one(capsys, command, grid, message):
    code, out, err = run_cli(capsys, command, "--n", "6", "--p", grid,
                             "--trials", "1", "--seed", "2")
    assert (code, out, err) == (1, "", f"nbcomplex: {message}\n")


def test_survey_unknown_feature(capsys):
    code, _, err = run_cli(capsys, "survey", "--n", "6", "--p", "0.5",
                           "--trials", "1", "--seed", "2",
                           "--features", "speed")
    assert code == 1 and "unknown features" in err


def test_survey_config_validation_maps_to_exit_one(capsys):
    code, _, err = run_cli(capsys, "survey", "--n", "40", "--p", "0.5",
                           "--trials", "1", "--seed", "2")
    assert code == 1 and "homology" in err


def test_survey_rejects_neighborliness_without_vertices(capsys):
    survey = ("survey", "--n", "0", "--p", "0.5", "--trials", "1",
              "--seed", "1", "--features")
    code, _, err = run_cli(capsys, *survey, "neighborliness")
    assert code == 1 and "neighborliness needs at least one vertex" in err
    code, out, _ = run_cli(capsys, *survey, "cliques,certificates,homology")
    assert code == 0 and json.loads(out)["errors"] == []


def test_sweep_summary_to_stdout(capsys, tmp_path):
    rpath = str(tmp_path / "records.jsonl")
    code, out, _ = run_cli(capsys, "sweep", "--n", "6", "--p", "0.0,0.5,1.0",
                           "--trials", "2", "--seed", "3", "--max-dim", "2",
                           "-o", rpath)
    assert code == 0
    summary = json.loads(out)
    assert len(summary["local_maxima"]) == 3
    assert len(records_from_jsonl(open(rpath).read())) == 6


# ---------------------------------------------------------------------------
# exit codes


def test_input_file_is_read_as_an_edge_list(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    path.write_text("# a pentagon\nn 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    for command in ("gen", "homology"):
        code, out, err = run_cli(capsys, command, "-i", str(path))
        assert code == 0 and err == ""
        assert out == run_cli(capsys, command, "--family", "cycle:5")[1]
    path.write_text("n 5\n0 1\n1 7\n")
    code, out, err = run_cli(capsys, "homology", "-i", str(path))
    assert (code, out) == (1, "")
    assert err == "nbcomplex: line 3: edge (1, 7) out of range for n=5\n"


def test_missing_input_file_exits_three(capsys):
    code, _, err = run_cli(capsys, "gen", "-i", "/nonexistent/graph.txt")
    assert code == 3


def test_resource_cap_exits_two(capsys):
    code, _, err = run_cli(capsys, "retract", "--family", "complete:20")
    assert code == 2 and "cap" in err


def test_parser_built_once_gives_fresh_parser_results(capsys):
    calls = (["no-such-command"],
             ["homology", "--family", "cycle:5", "--coeff", "both"],
             ["gen", "--gnp", "8", "0.5", "3"])

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    cli._parser.cache_clear()
    reused = [outcome(argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [1, 0, 0]
    assert json.loads(reused[1][1])["betti"] == [0, 1]
    assert parse_edge_list(reused[2][1]) == gnp_sample(8, 0.5, 3)


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--family", "complete:3", "--coeff", "gf3"])
    assert exc.value.code == 1


def test_bad_output_directory_exits_three(capsys):
    code, _, _ = run_cli(capsys, "gen", "--family", "cycle:5",
                         "-o", "/nonexistent/dir/out.txt")
    assert code == 3
