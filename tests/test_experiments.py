"""Survey harness: configs, trials, aggregation, and record formats."""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from nbcomplex import (certificates, complexes, experiments, graphs,
                       homology)
from nbcomplex import (Caps, ExperimentConfig, FormatError, ParseError,
                       SurveySummary, TrialRecord, aggregate, betti_sweep,
                       clique_number, closed_set_poset,
                       count_strict_local_maxima, find_sphere_certificates,
                       gnp_sample, read_records, records_from_csv,
                       records_from_jsonl, records_to_csv, records_to_jsonl,
                       run_survey, run_trial, write_records)


def tiny_config(**overrides):
    kwargs = dict(n=7, p_grid=(0.2, 0.6), trials=3, master_seed=424242,
                  max_dim=3)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation_errors():
    with pytest.raises(ValueError):
        tiny_config(n=-1)
    with pytest.raises(ValueError):
        tiny_config(p_grid=())
    with pytest.raises(ValueError):
        tiny_config(p_grid=(0.5, 1.2))
    with pytest.raises(ValueError):
        tiny_config(trials=0)
    with pytest.raises(ValueError):
        tiny_config(max_dim=-1)
    with pytest.raises(ValueError):
        tiny_config(n=31)  # homology has no route at this size
    with pytest.raises(ValueError):
        tiny_config(n=14, max_dim=6)  # full homology only up to 12 vertices
    cfg = tiny_config(n=31, homology=False)
    assert cfg.n == 31


def test_config_rejects_neighborliness_without_vertices():
    with pytest.raises(ValueError, match="at least one vertex"):
        tiny_config(n=0, neighborliness=True)
    assert tiny_config(n=0, certificates=True, clique_stats=True).n == 0


def test_config_coerces_grid_to_floats():
    from fractions import Fraction
    cfg = tiny_config(p_grid=(Fraction(1, 2), 0))
    assert cfg.p_grid == (0.5, 0.0)
    assert all(isinstance(p, float) for p in cfg.p_grid)


def test_config_json_dict_is_serializable():
    blob = json.dumps(tiny_config().to_json_dict())
    assert '"n": 7' in blob


# ---------------------------------------------------------------------------
# single trials


def test_run_trial_is_deterministic():
    cfg = tiny_config()
    a = run_trial(cfg, 1, 2)
    b = run_trial(cfg, 1, 2)
    assert a == b  # wall_time_ms is excluded from equality
    assert a.p_index == 1 and a.trial_index == 2
    assert a.p == 0.6


def test_run_trial_seeds_differ_across_indices():
    cfg = tiny_config()
    seeds = {run_trial(cfg, pi, t).seed
             for pi in range(2) for t in range(3)}
    assert len(seeds) == 6


def test_run_trial_populates_requested_features():
    cfg = tiny_config(neighborliness=True, certificates=True,
                      clique_stats=True)
    r = run_trial(cfg, 1, 0)
    assert r.clique_number is not None
    assert r.neighborliness is not None
    assert r.betti is not None
    assert r.certificates is not None
    assert r.homology_source == "direct"
    assert r.errors == ()


def test_run_trial_with_homology_off_leaves_fields_none():
    cfg = tiny_config(homology=False)
    r = run_trial(cfg, 0, 0)
    assert r.betti is None
    assert r.homology_source is None
    assert r.closed_set_count is None
    # connectivity of the complex itself is always recorded
    assert isinstance(r.complex_connected, bool)


def test_run_trial_records_cap_hits_as_errors():
    # caps small enough to fail mid-run but large enough to pass config
    # validation: the poset overflows its element budget, and the strong
    # core, the boundary of a 5-simplex, lists the star's vertices, which
    # the face budget counts
    caps = Caps(poset_elements=2, faces_per_dim=0)
    cfg = tiny_config(p_grid=(0.9,), caps=caps)
    r = run_trial(cfg, 0, 0)
    assert r.errors
    assert any("homology" in e for e in r.errors)
    assert r.betti is None
    assert r.closed_set_count is None


def test_every_capped_step_of_a_trial_records_its_error_in_order():
    caps = Caps(clique_vertices=6, neighborliness_steps=3, poset_elements=2,
                faces_per_dim=0)
    cfg = tiny_config(p_grid=(0.9,), clique_stats=True, certificates=True,
                      neighborliness=True, caps=caps)
    r = run_trial(cfg, 0, 0)
    clique = ("maximal clique enumeration capped at 6 vertices (got 7); "
              "raise vertex_cap to override")
    assert r.errors == (
        f"clique_number: {clique}",
        "neighborliness: neighborliness exceeded work cap 3",
        "closed_set_poset: closed-set family exceeded element cap 2",
        "homology: left-out faces exceeded cap 0 in dimension 0",
        f"certificates: {clique}")
    assert (r.clique_number, r.neighborliness, r.closed_set_count,
            r.retract_dimension, r.homology_source, r.betti, r.torsion_seen,
            r.certificates) == (None,) * 8


def test_a_neighborliness_cap_leaves_the_other_fields():
    cfg = tiny_config(p_grid=(0.9,), neighborliness=True, clique_stats=True,
                      caps=Caps(neighborliness_steps=3))
    r = run_trial(cfg, 0, 0)
    assert r.errors == (
        "neighborliness: neighborliness exceeded work cap 3",)
    assert r.neighborliness is None
    cliques = graphs.maximal_cliques(gnp_sample(7, 0.9, r.seed))
    assert r.clique_number == max(map(len, cliques))
    assert r.betti is not None


def test_trials_do_not_build_the_hasse_diagram(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a survey trial built the closed-set poset")

    # patched where it is defined and where a direct import would bind it
    monkeypatch.setattr(complexes, "closed_set_poset", refuse)
    monkeypatch.setattr(experiments, "closed_set_poset", refuse,
                        raising=False)
    cfg = tiny_config(n=9, p_grid=(0.3, 0.6), trials=4)
    records = run_survey(cfg, jobs=1)
    monkeypatch.undo()
    assert len(records) == 8
    for r in records:
        assert r.errors == ()
        poset = closed_set_poset(gnp_sample(cfg.n, r.p, r.seed))
        assert (r.closed_set_count, r.retract_dimension) == \
            (len(poset.elements), poset.height)


def test_homology_off_trials_do_not_build_the_complex(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a homology-off trial built N[G]")

    # patched where it is defined and wherever a module imported it
    for module in (complexes, homology, experiments):
        monkeypatch.setattr(module, "neighborhood_complex", refuse,
                            raising=False)
    cfg = tiny_config(n=8, p_grid=(0.0, 0.1, 0.25, 0.5, 1.0), trials=6,
                      homology=False, neighborliness=True,
                      certificates=True, clique_stats=True)
    records = run_survey(cfg, jobs=1)
    monkeypatch.undo()
    flags = set()
    for r in records:
        c = complexes.neighborhood_complex(gnp_sample(cfg.n, r.p, r.seed))
        assert r.complex_connected == (c.component_count() <= 1)
        assert r.empty_complex == (c.dimension == -1)
        flags.add((r.complex_connected, r.empty_complex))
    assert flags == {(True, True), (False, False), (True, False)}


def test_a_homology_trial_builds_the_complex_once(monkeypatch):
    calls = []
    build = complexes.neighborhood_complex

    def counted(g):
        calls.append(g)
        return build(g)

    for module in (complexes, homology, experiments):
        monkeypatch.setattr(module, "neighborhood_complex", counted,
                            raising=False)
    r = run_trial(tiny_config(n=8, p_grid=(0.4,), trials=1), 0, 0)
    monkeypatch.undo()
    assert r.betti is not None
    assert len(calls) == 1


def test_a_trial_never_enumerates_maximal_cliques(monkeypatch):
    oracle = graphs.maximal_cliques

    def refuse(*args, **kwargs):
        raise AssertionError("a survey trial enumerated maximal cliques")

    # patched where it is defined and in the modules that used to import it
    monkeypatch.setattr(graphs, "maximal_cliques", refuse)
    for module in (certificates, experiments):
        monkeypatch.setattr(module, "maximal_cliques", refuse, raising=False)
    cfg = tiny_config(n=9, p_grid=(0.3, 0.5, 0.8), trials=4,
                      clique_stats=True, certificates=True,
                      neighborliness=True)
    records = run_survey(cfg)
    monkeypatch.undo()
    for r in records:
        assert r.errors == ()
        g = gnp_sample(cfg.n, r.p, r.seed)
        cliques = oracle(g)
        assert r.clique_number == max(len(c) for c in cliques)
        assert r.certificates == tuple(
            c.sphere_dim
            for c in certificates._certificates_from_cliques(g, cliques))
    assert any(r.certificates for r in records)


def test_clique_cap_errors_keep_their_text_and_order():
    cfg = tiny_config(clique_stats=True, certificates=True,
                      neighborliness=True, caps=Caps(clique_vertices=6))
    r = run_trial(cfg, 0, 0)
    cap = ("maximal clique enumeration capped at 6 vertices (got 7); "
           "raise vertex_cap to override")
    assert r.errors == (f"clique_number: {cap}", f"certificates: {cap}")
    assert r.clique_number is None and r.certificates is None
    assert r.betti is not None and r.neighborliness is not None


def test_homology_trials_above_16_vertices_get_closed_set_fields():
    cfg = tiny_config(n=18, p_grid=(0.5,), trials=2, master_seed=1,
                      max_dim=1)
    for r in run_survey(cfg, jobs=1):
        assert not any(e.startswith("closed_set_poset") for e in r.errors)
        poset = closed_set_poset(gnp_sample(cfg.n, r.p, r.seed))
        assert (r.closed_set_count, r.retract_dimension) == \
            (len(poset.elements), poset.height)


# ---------------------------------------------------------------------------
# whole surveys


def test_survey_order_and_parallel_equivalence():
    cfg = tiny_config()
    serial = run_survey(cfg, jobs=1)
    parallel = run_survey(cfg, jobs=3)
    assert serial == parallel
    assert [(r.p_index, r.trial_index) for r in serial] == \
        [(pi, t) for pi in range(2) for t in range(3)]


def test_survey_clamps_the_worker_count(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for multiprocessing.Pool: records its size, maps
        serially, and starts no process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(experiments, "Pool", RecordingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
    cfg = tiny_config()  # six trials
    serial = run_survey(cfg, jobs=1)
    assert run_survey(cfg, jobs=1000) == serial
    assert run_survey(cfg, jobs=3) == serial
    assert run_survey(replace(cfg, trials=1, p_grid=(0.2,)), jobs=8) == \
        serial[:1]
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    assert run_survey(cfg, jobs=8) == serial
    assert sizes == [4, 3]


def test_survey_rejects_bad_job_count():
    with pytest.raises(ValueError):
        run_survey(tiny_config(), jobs=0)


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_summary_shape():
    cfg = tiny_config(certificates=True)
    records = run_survey(cfg)
    summary = aggregate(records, cfg)
    assert isinstance(summary, SurveySummary)
    assert len(summary.per_p) == 2
    for i, ps in enumerate(summary.per_p):
        assert ps.p_index == i
        assert ps.trials == 3
        assert ps.betti_trials == 3
        assert len(ps.betti_mean) == cfg.max_dim + 1
        assert len(ps.vanishing_freq) == cfg.max_dim + 1
        for k in range(cfg.max_dim + 1):
            assert 0.0 <= ps.vanishing_freq[k] <= 1.0
            assert ps.betti_variance[k] >= 0.0


def test_aggregate_means_match_hand_computation():
    cfg = tiny_config()
    records = run_survey(cfg)
    summary = aggregate(records, cfg)
    zero = [r for r in records if r.p_index == 0]
    for k in range(cfg.max_dim + 1):
        vals = [r.betti[k] for r in zero]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        assert summary.per_p[0].betti_mean[k] == pytest.approx(mean)
        assert summary.per_p[0].betti_variance[k] == pytest.approx(var)
        want_freq = sum(1 for v in vals if v == 0) / len(vals)
        assert summary.per_p[0].vanishing_freq[k] == pytest.approx(want_freq)


def test_aggregate_rejects_mismatched_records():
    cfg = tiny_config()
    records = run_survey(cfg)
    with pytest.raises(ValueError):
        aggregate(records, tiny_config(trials=4))
    with pytest.raises(ValueError):
        aggregate(records[:-1], cfg)


@pytest.mark.parametrize("overrides, message", [
    ({"p_grid": (0.2, 0.7)}, "record/config mismatch at p index 1"),
    ({"max_dim": 2}, "betti width mismatch at p index 0"),
])
def test_aggregate_names_the_grid_point_that_mismatches(overrides, message):
    records = run_survey(tiny_config())
    with pytest.raises(ValueError) as err:
        aggregate(records, tiny_config(**overrides))
    assert str(err.value) == message


def test_aggregate_summary_json_round_trips_through_dumps():
    cfg = tiny_config()
    summary = aggregate(run_survey(cfg), cfg)
    blob = json.dumps(summary.to_json_dict())
    parsed = json.loads(blob)
    assert parsed["config"]["n"] == 7
    assert len(parsed["per_p"]) == 2


# ---------------------------------------------------------------------------
# local maxima counting


@pytest.mark.parametrize("values,count", [
    ([], 0),
    ([3.0], 0),
    ([1.0, 1.0, 1.0], 0),
    ([0.0, 1.0, 0.0], 1),
    ([1.0, 1.0, 0.0], 1),
    ([0.0, 1.0, 1.0, 0.0], 1),   # plateau counts once
    ([1.0, 0.0, 1.0], 2),        # both boundary spikes
    ([0.0, 1.0, 0.0, 2.0, 0.0], 2),
    ([0.0, 1.0, 2.0, 3.0], 1),   # rising tail peaks at the edge
    ([3.0, 2.0, 1.0], 1),
])
def test_count_strict_local_maxima(values, count):
    assert count_strict_local_maxima(values) == count


# ---------------------------------------------------------------------------
# record formats


def test_jsonl_round_trip():
    records = run_survey(tiny_config(certificates=True, clique_stats=True))
    text = records_to_jsonl(records)
    assert len(text.strip().split("\n")) == len(records)
    assert records_from_jsonl(text) == records


def test_jsonl_key_order_is_fixed():
    records = run_survey(tiny_config(trials=1))
    first = json.loads(records_to_jsonl(records).split("\n")[0])
    assert list(first)[:5] == ["trial", "p", "edges", "p_index", "seed"]


def test_jsonl_rejects_unknown_or_missing_keys():
    records = run_survey(tiny_config(trials=1, p_grid=(0.5,)))
    line = records_to_jsonl(records).strip()
    d = json.loads(line)
    d["surprise"] = 1
    with pytest.raises(FormatError):
        records_from_jsonl(json.dumps(d))
    del d["surprise"]
    del d["seed"]
    with pytest.raises(FormatError) as err:
        records_from_jsonl(json.dumps(d) + "\n" + json.dumps(d))
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("text, line, message", [
    ("\n{\n", 2, "bad JSON: Expecting property name enclosed in double "
                 "quotes: line 1 column 2 (char 1)"),
    ("[1, 2]\n", 1, "record line is not an object"),
    ("\n\n7\n", 3, "record line is not an object"),
])
def test_jsonl_reports_lines_that_are_not_records(text, line, message):
    with pytest.raises(FormatError) as err:
        records_from_jsonl(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_parse_and_format_errors_share_the_line_prefix_but_stay_distinct():
    for cls, other in ((ParseError, FormatError), (FormatError, ParseError)):
        at_line, bare = cls("bad", 3), cls("bad")
        assert isinstance(at_line, ValueError)
        assert not isinstance(at_line, other)
        assert (str(at_line), at_line.line) == ("line 3: bad", 3)
        assert (str(bare), bare.line) == ("bad", None)


def test_jsonl_wall_time_never_serialized():
    records = run_survey(tiny_config(trials=1, p_grid=(0.5,)))
    assert "wall_time" not in records_to_jsonl(records)


def test_csv_round_trip():
    records = run_survey(tiny_config(neighborliness=True))
    text = records_to_csv(records)
    back = records_from_csv(text)
    assert back == records


def test_csv_expands_betti_columns():
    records = run_survey(tiny_config(trials=1, p_grid=(0.5,), max_dim=2))
    header = records_to_csv(records).split("\n")[0]
    assert "betti0" in header and "betti2" in header
    assert "betti3" not in header


def test_csv_rejects_mixed_betti_widths():
    a = run_survey(tiny_config(trials=1, p_grid=(0.5,), max_dim=2))
    b = run_survey(tiny_config(trials=1, p_grid=(0.5,), max_dim=3))
    with pytest.raises(ValueError):
        records_to_csv(a + b)


def test_csv_reports_bad_cells_with_line_numbers():
    text = records_to_csv(run_survey(tiny_config(trials=1, p_grid=(0.5,))))
    lines = text.strip().split("\n")
    lines[1] = lines[1].replace(lines[1].split(",")[0], "notanint", 1)
    with pytest.raises(FormatError) as err:
        records_from_csv("\n".join(lines))
    assert "line 2" in str(err.value)
    with pytest.raises(FormatError):
        records_from_csv("not,a,real,header\n")


def test_csv_refuses_an_empty_text_and_short_or_long_rows():
    with pytest.raises(FormatError) as err:
        records_from_csv("")
    assert str(err.value) == "empty CSV" and err.value.line is None
    text = records_to_csv(run_survey(tiny_config(trials=2, p_grid=(0.5,))))
    header, first, second = text.strip().split("\n")
    width = len(header.split(","))
    for row, cells in ((second.rsplit(",", 1)[0], width - 1),
                       (second + ",", width + 1)):
        with pytest.raises(FormatError) as err:
            records_from_csv("\n".join((header, first, row)) + "\n")
        assert err.value.line == 3
        assert str(err.value) == \
            f"line 3: expected {width} cells, got {cells}"


# the clique cap's message contains ';', the CSV list separator
CAPPED_N7 = ExperimentConfig(
    n=7, p_grid=(0.3, 0.5, 0.9), trials=20, master_seed=3, max_dim=3,
    clique_stats=True, certificates=True, neighborliness=True,
    caps=Caps(clique_vertices=6))


def test_csv_round_trips_error_messages_that_contain_semicolons():
    records = run_survey(CAPPED_N7)
    assert all(len(r.errors) == 2 and all(";" in e for e in r.errors)
               for r in records)
    text = records_to_csv(records)
    assert r"(got 7)\; raise" in text
    assert records_from_csv(text) == records


def test_csv_list_cells_escape_backslashes():
    r = replace(run_survey(tiny_config(trials=1, p_grid=(0.5,)))[0],
                errors=("a\\;b", "c\\", ";", ""))
    assert records_from_csv(records_to_csv([r])) == [r]


def test_csv_refuses_a_list_of_one_empty_string():
    # "[]" is the empty list, so ("",) has no cell of its own
    r = replace(run_survey(tiny_config(trials=1, p_grid=(0.5,)))[0],
                errors=("",))
    with pytest.raises(ValueError, match="errors"):
        records_to_csv([r])
    assert records_from_jsonl(records_to_jsonl([r])) == [r]


# sha256 of the JSONL and CSV bytes; a CSV digest of None means the config's
# CSV changed on purpose when list cells began escaping ';'
GOLDEN = {
    "capped_n7": (
        CAPPED_N7,
        "0e886ac46b606f2cce6b9ec859a7b7e9029b8b5ab914ec04bf185d74e063ae8e",
        None),
    "full_n10": (
        ExperimentConfig(n=10, p_grid=(0, .4, .7, 1), trials=30,
                         master_seed=5, max_dim=4, clique_stats=True,
                         certificates=True, neighborliness=True),
        "44274c9c3b76a3016a6d715d0f380309b2b367b891bbd10d80e0ad6748c479dd",
        "b93501c8c50ba3bb218cc3877bbc94b24bb19073f5957138ef9b9b37c892af42"),
    # the face cap counts the cells outside one vertex star, and the star's
    # faces the walk visits in each dimension: at 300 every trial here
    # finishes, at 60 ten of the twenty are capped, each record naming the
    # dimension of the face that passed the cap
    "facecap_n14": (
        ExperimentConfig(n=14, p_grid=(.4, .6), trials=10, master_seed=9,
                         max_dim=2, clique_stats=True,
                         caps=Caps(faces_per_dim=300)),
        "7624d1a9b806afdbb2a11809b02846e4dd712e277b0367fed0de94e885ea9ece",
        "8b7621947b298a912ce76363c34b750b26789cc94fb2a8267629f89a5df5869d"),
    "facecap60_n14": (
        ExperimentConfig(n=14, p_grid=(.4, .6), trials=10, master_seed=9,
                         max_dim=2, clique_stats=True,
                         caps=Caps(faces_per_dim=60)),
        "ce9f4bfe80c3baad7a2ad212f38bb02147f4d74272fc1dba4a76323753d0887b",
        "efafd3eee48ea9bf7d3496b40531ac2fbf4d65b8595fc6baecc8284d412ab461"),
    # trimmed copies of the benchmark's survey configs, and a clique-capped
    # survey, taken while trials still enumerated the maximal cliques
    "features_n30": (
        ExperimentConfig(n=30, p_grid=(.3, .6), trials=30, master_seed=1,
                         homology=False, clique_stats=True,
                         certificates=True, neighborliness=True),
        "6601bd9a9108d10749433f18d156e1b26ffe79508033cf0791458c4646c59055",
        "b8bfe2e2c1b3434cd586fad8ffccf3adda9e89c41cd181c3d9dd2df23b6949a7"),
    "connectivity_n12": (
        ExperimentConfig(n=12, p_grid=(.35, .4), trials=20, master_seed=1,
                         max_dim=3, clique_stats=True, certificates=True),
        "268aa69a33d983573f371b26ef5345d712651f9666c0545b931fd317f074edf3",
        "0feb436cea2064b8f8c0b0564283cccf5e2951fcd741449407f731951b22d6d6"),
    "cliquecap_n9": (
        ExperimentConfig(n=9, p_grid=(.3, .7), trials=5, master_seed=2,
                         max_dim=3, clique_stats=True, certificates=True,
                         neighborliness=True,
                         caps=Caps(clique_vertices=8)),
        "175f93705a201d689025d8ad790b5ffe69480b586120caa9fb3a1cd2e7d324d6",
        "9561600d610108337abac6c31f1d217cd46476bc8552c94337473b1e131373fb"),
    "nohom_n30": (
        ExperimentConfig(n=30, p_grid=(.3, .5), trials=20, master_seed=1,
                         homology=False, clique_stats=True,
                         certificates=True, neighborliness=True),
        "7a726de548191c4c9f596ae2d3b4ea407a63fd751d14760e8a412d118ff67286",
        "e485108f7822010e8fde3b51af8e307968fdd5f15af35b6311fc5e2b37bd61cf"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_record_bytes_match_their_golden_digests(name):
    cfg, jsonl_digest, csv_digest = GOLDEN[name]
    records = run_survey(cfg)

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert digest(records_to_jsonl(records)) == jsonl_digest
    if csv_digest is not None:
        assert digest(records_to_csv(records)) == csv_digest


# one value of the wrong type per field kind, and the kind it breaks
BAD_VALUES = [
    ("trial", "x"),            # int
    ("seed", True),            # int: a bool is not an int
    ("p", "0.5"),              # float
    ("p", 10 ** 400),          # float: an int too large for one
    ("connected", 1),          # bool
    ("connected", None),       # bool: not optional
    ("clique_number", 2.0),    # optional int
    ("torsion_seen", "no"),    # optional bool
    ("homology_source", 7),    # optional str
    ("betti", "12"),           # optional int list
    ("certificates", [1, "2"]),  # optional int list: its elements
    ("errors", "ab"),          # str list
    ("errors", None),          # str list: not optional
]


@pytest.mark.parametrize("key, value", BAD_VALUES)
def test_jsonl_rejects_values_of_the_wrong_type(key, value):
    records = run_survey(tiny_config(trials=1, p_grid=(0.5,)))
    good = json.loads(records_to_jsonl(records))
    bad = dict(good, **{key: value})
    text = json.dumps(good) + "\n" + json.dumps(bad) + "\n"
    with pytest.raises(FormatError) as err:
        records_from_jsonl(text)
    assert "line 2" in str(err.value) and key in str(err.value)


def test_jsonl_takes_an_int_probability_as_a_float():
    records = run_survey(tiny_config(trials=1, p_grid=(1.0,)))
    d = json.loads(records_to_jsonl(records))
    d["p"] = 1
    (back,) = records_from_jsonl(json.dumps(d))
    assert back == records[0] and type(back.p) is float


@pytest.mark.parametrize("column, cell", [
    ("trial", "x"),
    ("p", "0.5.0"),
    ("connected", ""),            # bool is not optional in CSV either
    ("torsion_seen", "yes"),
    ("certificates", "[1;x]"),
    ("errors", ""),
    ("errors", "[a\\]"),          # a dangling escape
])
def test_csv_applies_the_same_checks(column, cell):
    text = records_to_csv(run_survey(tiny_config(trials=1, p_grid=(0.5,),
                                                 certificates=True)))
    header, row = (line.split(",") for line in text.strip().split("\n"))
    row[header.index(column)] = cell
    with pytest.raises(FormatError) as err:
        records_from_csv(",".join(header) + "\n" + ",".join(row) + "\n")
    assert "line 2" in str(err.value) and column in str(err.value)


def test_every_cap_is_read_by_the_package():
    package = Path(experiments.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        read.update(re.findall(r"\bcaps\.(\w+)", path.read_text()))
    assert {f.name for f in fields(Caps)} <= read


def test_write_and_read_files(tmp_path):
    records = run_survey(tiny_config())
    jpath = str(tmp_path / "out.jsonl")
    cpath = str(tmp_path / "out.csv")
    write_records(records, jpath)
    write_records(records, cpath, fmt="csv")
    assert read_records(jpath) == records
    assert read_records(cpath) == records  # format inferred from suffix
    assert read_records(cpath, fmt="csv") == records


def test_unknown_record_formats_are_refused(tmp_path):
    path = str(tmp_path / "out.jsonl")
    with pytest.raises(FormatError) as err:
        write_records(run_survey(tiny_config(trials=1)), path, fmt="xml")
    assert str(err.value) == "unknown format 'xml'; use jsonl or csv"
    assert err.value.line is None and not (tmp_path / "out.jsonl").exists()
    with pytest.raises(FormatError) as err:
        read_records(path, fmt="tsv")
    assert str(err.value) == "unknown format 'tsv'; use jsonl or csv"


def test_write_summary_as_indented_json(tmp_path):
    cfg = tiny_config()
    summary = aggregate(run_survey(cfg), cfg)
    path = str(tmp_path / "summary.json")
    write_records(summary, path)
    with open(path) as fh:
        parsed = json.load(fh)
    assert parsed["config"]["master_seed"] == 424242


# ---------------------------------------------------------------------------
# the sweep entry point


def test_betti_sweep_summary_has_maxima():
    records, summary = betti_sweep(
        n=6, p_grid=(0.0, 0.3, 0.6, 0.9), trials=4, master_seed=11,
        max_dim=2)
    assert len(records) == 16
    assert summary.local_maxima is not None
    assert len(summary.local_maxima) == 3  # one count per dimension
    assert all(count >= 0 for count in summary.local_maxima)
    # p = 0 gives empty graphs: everything vanishes there
    assert summary.per_p[0].betti_mean == (0.0,) * 3


def test_betti_sweep_matches_run_survey():
    cfg = ExperimentConfig(n=6, p_grid=(0.3, 0.6), trials=2,
                           master_seed=77, max_dim=2)
    records, _ = betti_sweep(n=6, p_grid=(0.3, 0.6), trials=2,
                             master_seed=77, max_dim=2)
    assert records == run_survey(cfg)
