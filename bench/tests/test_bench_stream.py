"""The serve request stream: deterministic per seed, fixed class mix."""

from collections import Counter
from itertools import islice

import stream


def make_stream(seed, length):
    return list(islice(stream.iter_stream(seed), length))


def test_same_seed_same_stream_other_seed_other_stream():
    assert make_stream(3, 500) == make_stream(3, 500)
    assert make_stream(3, 500) != make_stream(4, 500)


def test_every_block_of_ten_has_the_fixed_class_mix():
    for seed in (0, 1, 7):
        requests = make_stream(seed, 1000)
        assert requests[0].kind == "cold"
        for start in range(0, 1000, 10):
            mix = Counter(r.kind for r in requests[start:start + 10])
            assert mix == {"repeat": 7, "cell": 2, "cold": 1}


def test_dependencies_make_every_class_what_it_claims():
    requests = make_stream(11, 2000)
    bodies = {}
    cold_pairs = {}
    for r in requests:
        pair = (r.body["workload"], r.body["data_scale"])
        if r.kind == "cold":
            assert r.after is None and r.first == r.index
            assert pair not in cold_pairs, "a cold pair must be new"
            cold_pairs[pair] = r
            assert r.body["slo_seconds"] <= stream.COLD_SLO[1]
        elif r.kind == "cell":
            cold = requests[r.after]
            assert cold.kind == "cold" and r.after < r.index
            assert (cold.body["workload"], cold.body["data_scale"]) == pair
            # A looser SLO never walks further than the cold query did,
            # so every candidate it needs is already cached.
            assert r.body["slo_seconds"] >= cold.body["slo_seconds"]
        else:
            assert r.after == r.first < r.index
            assert requests[r.first].body == r.body
        key = tuple(sorted((k, str(v)) for k, v in r.body.items()))
        if r.kind == "repeat":
            assert key in bodies
        else:
            assert key not in bodies, "new queries must be new"
            bodies[key] = r.index


def test_queries_stay_inside_the_service_limits():
    for r in make_stream(5, 300):
        assert r.body["workload"] in stream.WORKLOADS
        assert 0.01 <= r.body["data_scale"] <= 0.1
        assert r.body["nodes_candidates"] == [2, 4, 8]
