"""Scenario file loading: happy paths over the bundled files, then the
validator's error surface one rule at a time."""

from __future__ import annotations

import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest

import infersub
from infersub.errors import ParseError, ValidationError
from infersub.scenario import load_scenario, loads_scenario

SCENARIO_DIR = Path(infersub.__file__).parent / "scenarios"
BUNDLED = ["nwdaf", "oran", "arvr", "nlp", "federation"]


def bundled(name):
    return load_scenario(SCENARIO_DIR / f"{name}.json")


def base_doc():
    return {
        "topology": {
            "nodes": [
                {"node_id": "p", "tier": "device", "cpu_capacity": 4,
                 "mem_mb": 256, "domain_id": "d"},
                {"node_id": "h", "tier": "edge", "cpu_capacity": 8,
                 "mem_mb": 1024, "domain_id": "d"},
                {"node_id": "s", "tier": "edge", "cpu_capacity": 8,
                 "mem_mb": 1024, "domain_id": "d"},
            ],
            "links": [
                {"a": "p", "b": "h", "latency_ms": 1, "bandwidth_kb_per_ms": 100},
                {"a": "h", "b": "s", "latency_ms": 1.5, "bandwidth_kb_per_ms": 100},
            ],
            "brokers": {"d": "h"},
        },
        "models": [
            {
                "model_id": "m",
                "version": 1,
                "task_tag": "telemetry",
                "domain_id": "d",
                "layers": [
                    {"compute_cost": 1, "mem_mb": 8, "selectivity": 0.5},
                    {"compute_cost": 1, "mem_mb": 8, "selectivity": 0.5},
                ],
            }
        ],
        "bindings": {"d/p/x": "p"},
        "subscriptions": [
            {"sub_id": "tap", "subscriber": "s", "kind": "data", "filter": "d/p/x"},
            {"sub_id": "inf", "subscriber": "s", "kind": "inference",
             "model_id": "m", "filter": "d/p/x", "k": 2},
        ],
        "workload": {
            "d/p/x": {"size_bytes": 512, "rate_per_s": 10, "periodic": True,
                      "count": 10}
        },
        "faults": [],
        "objective": {"alpha": 1, "beta": 0.1},
        "sim": {"duration_ms": 2000, "seed": 3},
    }


def loads(doc):
    return loads_scenario(json.dumps(doc))


def rejects(doc, needle):
    with pytest.raises(ValidationError) as err:
        loads(doc)
    assert needle in str(err.value), str(err.value)


# ---------------------------------------------------------------------------
# Happy paths


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_load(name):
    sc = bundled(name)
    assert sc.sim.duration_ms >= 1
    assert sc.topology.nodes
    for dom in sc.topology.domains():
        assert dom in sc.brokers


def test_base_doc_loads_and_keeps_fractions_exact():
    sc = loads(base_doc())
    link = sc.topology.link_between("h", "s")
    assert link.latency_ms == Fraction(3, 2)  # 1.5 survives exactly
    assert sc.objective.beta == Fraction(1, 10)
    assert sc.sim.heartbeat_ms == 50 and sc.sim.heartbeat_misses == 3


def test_objective_defaults_apply():
    doc = base_doc()
    doc["objective"] = {}
    sc = loads(doc)
    assert sc.objective.alpha == 1 and sc.objective.beta == Fraction(1, 10)


# ---------------------------------------------------------------------------
# Structure errors


def test_missing_and_unknown_top_level_keys():
    doc = base_doc()
    del doc["faults"]
    with pytest.raises(ValidationError):
        loads(doc)
    doc = base_doc()
    doc["extras"] = {}
    with pytest.raises(ValidationError):
        loads(doc)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        loads_scenario('{"topology": }')
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("text, line, message", [
    # the same key in two objects is no repeat; the second "b" of one is
    ('{"a": [{"b": 1}, {"b": 2,\n "c": "{\\"b\\": 1}",\n "b": 3}]}',
     3, "duplicate key 'b'"),
    # digits in a string, or in an exponent, are not a long integer literal
    ('{"a": "' + "1" * 5000 + '", "e": 1e5000,\n "n": [-' + "1" * 5000 + ']}',
     2, "number longer than 4300 digits"),
    ('{"a": 1.' + "1" * 5000 + '}', 1, "number longer than 4300 digits"),
], ids=["nested-duplicate-key", "negative-int", "long-fraction"])
def test_a_duplicate_key_or_an_over_long_number_is_a_parse_error(text, line, message):
    with pytest.raises(ParseError) as err:
        loads_scenario(text)
    assert (err.value.line, err.value.message) == (line, message)


def test_booleans_are_not_numbers():
    doc = base_doc()
    doc["topology"]["links"][0]["latency_ms"] = True
    rejects(doc, "latency_ms")


def test_link_endpoint_must_exist():
    doc = base_doc()
    doc["topology"]["links"][0]["a"] = "ghost"
    rejects(doc, "ghost")


def test_broker_must_sit_in_its_domain():
    doc = base_doc()
    doc["topology"]["nodes"][1]["domain_id"] = "other"
    rejects(doc, "broker")


def test_domain_must_start_connected():
    doc = base_doc()
    doc["topology"]["links"] = doc["topology"]["links"][:1]
    rejects(doc, "connected")


# ---------------------------------------------------------------------------
# Subscription errors


def test_duplicate_sub_id():
    doc = base_doc()
    doc["subscriptions"].append(dict(doc["subscriptions"][0]))
    rejects(doc, "duplicate sub id")


def test_error_paths_are_positional():
    doc = base_doc()
    doc["subscriptions"][1]["k"] = 5
    with pytest.raises(ValidationError) as err:
        loads(doc)
    assert "subscriptions[1]" in str(err.value)


def test_data_filter_may_match_nothing_but_inference_may_not():
    doc = base_doc()
    doc["subscriptions"][0]["filter"] = "d/nothing/here"
    loads(doc)  # data sub that never fires is legal
    doc = base_doc()
    doc["subscriptions"][1]["filter"] = "d/nothing/here"
    rejects(doc, "no bound topic matches")


def test_inference_k_bounded_by_layer_count():
    doc = base_doc()
    doc["subscriptions"][1]["k"] = 3
    rejects(doc, "k")


def test_unknown_model():
    doc = base_doc()
    doc["subscriptions"][1]["model_id"] = "nope"
    rejects(doc, "nope")


def test_privacy_split_needs_single_match():
    doc = base_doc()
    doc["bindings"]["d/p2/x"] = "h"
    doc["subscriptions"][1]["filter"] = "d/+/x"
    doc["subscriptions"][1]["privacy_split"] = True
    rejects(doc, "privacy")


def test_trigger_shape_is_checked():
    doc = base_doc()
    doc["subscriptions"][1]["trigger"] = {"kind": "count"}
    with pytest.raises(ValidationError):
        loads(doc)
    doc["subscriptions"][1]["trigger"] = {"kind": "cron", "n": 3}
    with pytest.raises(ValidationError):
        loads(doc)


def test_prefilter_must_name_a_known_predicate():
    doc = base_doc()
    doc["subscriptions"][1]["prefilter"] = {"predicate": "vibes"}
    rejects(doc, "vibes")
    doc["subscriptions"][1]["prefilter"] = {
        "predicate": "threshold", "args": {"cutoff": 2, "index": 0},
    }
    loads(doc)


def test_combine_fn_must_be_known():
    doc = base_doc()
    doc["subscriptions"][1]["combine_fn"] = "xor"
    rejects(doc, "xor")


# ---------------------------------------------------------------------------
# Workload errors


def test_workload_topic_needs_binding():
    doc = base_doc()
    doc["workload"]["d/unbound/x"] = {"size_bytes": 1, "rate_per_s": 1}
    rejects(doc, "unbound")


def test_update_topics_are_strictly_shaped():
    doc = base_doc()
    doc["models"][0]["trainers"] = ["p"]
    doc["models"][0]["params"] = [0, 0]
    doc["bindings"]["_updates/m/p"] = "p"
    doc["workload"]["_updates/m/p"] = {
        "size_bytes": 16, "rate_per_s": 1, "periodic": True,
        "count": 1, "payload": [1, 2],
    }
    loads(doc)  # well-formed

    bad = copy.deepcopy(doc)
    bad["workload"]["_updates/m/p"]["periodic"] = False
    rejects(bad, "periodic")

    bad = copy.deepcopy(doc)
    bad["workload"]["_updates/m/p"]["payload"] = [1, 2, 3]
    rejects(bad, "payload")

    bad = copy.deepcopy(doc)
    bad["bindings"]["_updates/m/h"] = "h"
    bad["workload"]["_updates/m/h"] = dict(bad["workload"]["_updates/m/p"])
    rejects(bad, "trainer")


# ---------------------------------------------------------------------------
# Fault and sim errors


def test_fault_validation():
    doc = base_doc()
    doc["faults"] = [{"at_ms": 10, "kind": "node_melt", "node": "p"}]
    rejects(doc, "kind")
    doc["faults"] = [{"at_ms": 10, "kind": "node_down", "node": "ghost"}]
    rejects(doc, "ghost")
    doc["faults"] = [{"at_ms": -1, "kind": "node_down", "node": "p"}]
    rejects(doc, "at_ms")


def test_sim_validation():
    doc = base_doc()
    doc["sim"]["duration_ms"] = 0
    rejects(doc, "duration")
    doc = base_doc()
    doc["sim"]["seed"] = -1
    rejects(doc, "seed")
    doc = base_doc()
    doc["sim"]["seed"] = 2**64
    rejects(doc, "seed")


def test_objective_rejects_negative_weights():
    doc = base_doc()
    doc["objective"]["alpha"] = -1
    rejects(doc, "alpha")


# ---------------------------------------------------------------------------
# Rules the domain types check, reported at the item's position


MODEL_UPDATE_SUB = {"sub_id": "tap", "subscriber": "s", "kind": "model_update",
                    "model_id": "m", "min_version": -1}


@pytest.mark.parametrize("keys, value, path, field", [
    (("topology", "nodes", 0, "tier"), "fog", "topology.nodes[0]", "tier"),
    (("topology", "nodes", 0, "cpu_capacity"), 0, "topology.nodes[0]", "cpu_capacity"),
    (("topology", "nodes", 0, "mem_mb"), -1, "topology.nodes[0]", "mem_mb"),
    (("topology", "links", 0, "b"), "p", "topology.links[0]", "self"),
    (("topology", "links", 0, "latency_ms"), -1, "topology.links[0]", "latency_ms"),
    (("topology", "links", 0, "bandwidth_kb_per_ms"), 0, "topology.links[0]",
     "bandwidth_kb_per_ms"),
    (("models", 0, "task_tag"), "astrology", "models[0]", "task_tag"),
    (("models", 0, "layers"), [], "models[0]", "layer"),
    (("models", 0, "layers", 0, "compute_cost"), -1, "models[0].layers[0]", "compute_cost"),
    (("models", 0, "layers", 0, "mem_mb"), -1, "models[0].layers[0]", "mem_mb"),
    (("models", 0, "layers", 0, "selectivity"), 0, "models[0].layers[0]", "selectivity"),
    (("subscriptions", 1, "trigger"), {"kind": "count", "n": 0},
     "subscriptions[1].trigger", "n must be >= 1"),
    (("subscriptions", 1, "trigger"), {"kind": "time", "delta_ms": 0},
     "subscriptions[1].trigger", "delta_ms"),
    (("subscriptions", 0), MODEL_UPDATE_SUB, "subscriptions[0]", "min_version"),
    (("workload", "d/p/x", "size_bytes"), 0, "workload.d/p/x", "size_bytes"),
    (("workload", "d/p/x", "rate_per_s"), 0, "workload.d/p/x", "rate_per_s"),
    (("workload", "d/p/x", "start_ms"), -1, "workload.d/p/x", "start_ms"),
    (("objective", "alpha"), -1, "objective", "alpha"),
    (("objective", "beta"), -1, "objective", "beta"),
], ids=[
    "node-tier", "node-cpu", "node-mem", "self-link", "link-latency",
    "link-bandwidth", "task-tag", "no-layers", "layer-cost", "layer-mem",
    "layer-selectivity", "count-window", "time-window", "min-version",
    "size-bytes", "rate", "start-ms", "alpha", "beta",
])
def test_a_domain_rule_is_reported_at_the_items_path(keys, value, path, field):
    """Each range or enum rule a domain type checks when it is built fails
    the load with a ValidationError at the position of the item."""
    doc = base_doc()
    obj = doc
    for key in keys[:-1]:
        obj = obj[key]
    obj[keys[-1]] = value
    with pytest.raises(ValidationError) as err:
        loads(doc)
    assert err.value.path.startswith(path), str(err.value)
    assert field in err.value.rule, str(err.value)
