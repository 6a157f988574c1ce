"""Tests for DBSCAN clustering over Jaccard distance."""

from repro.dataset import cluster_codes, dbscan, jaccard_distance, shingles
from repro.dataset.cluster import DBSCANResult, tokenize_for_similarity


class TestShingles:
    def test_tokenization(self):
        assert tokenize_for_similarity("assign y = a+b;") == [
            "assign", "y", "=", "a", "+", "b", ";",
        ]

    def test_shingle_count(self):
        s = shingles("a b c d", k=3)  # tokens: a b c d -> 2 shingles
        assert len(s) == 2

    def test_short_input(self):
        assert len(shingles("a", k=3)) == 1
        assert shingles("", k=3) == frozenset()


class TestJaccard:
    def test_identical_zero_distance(self):
        s = shingles("module m; endmodule")
        assert jaccard_distance(s, s) == 0.0

    def test_disjoint_distance_one(self):
        assert jaccard_distance(frozenset({1}), frozenset({2})) == 1.0

    def test_empty_sets(self):
        assert jaccard_distance(frozenset(), frozenset()) == 0.0

    def test_symmetry(self):
        a = shingles("assign y = a & b;")
        b = shingles("assign y = a | b;")
        assert jaccard_distance(a, b) == jaccard_distance(b, a)

    def test_bounded(self):
        a = shingles("assign y = a & b;")
        b = shingles("always @(*) y = a;")
        assert 0.0 <= jaccard_distance(a, b) <= 1.0


CODE_A1 = "module m(input a, output y);\nassign y = a;\nendmodule"
CODE_A2 = "module m(input a, output y);\nassign y = a;\nendmodule\n// extra"
CODE_B = (
    "module counter(input clk, input reset, output reg [7:0] q);\n"
    "always @(posedge clk) begin if (reset) q <= 0; else q <= q + 1; end\n"
    "endmodule"
)


class TestDBSCAN:
    def test_similar_codes_cluster_together(self):
        result = cluster_codes([CODE_A1, CODE_A2, CODE_B], eps=0.4)
        assert result.labels[0] == result.labels[1]
        assert result.labels[2] != result.labels[0]

    def test_noise_points(self):
        result = cluster_codes([CODE_A1, CODE_B], eps=0.1, min_samples=2)
        assert result.labels == [-1, -1]
        assert result.n_clusters == 0

    def test_representatives_cover_all_clusters_and_noise(self):
        result = cluster_codes([CODE_A1, CODE_A2, CODE_B], eps=0.4)
        reps = result.representatives()
        assert 0 in reps  # first of the A-cluster
        assert 2 in reps  # B, noise or own cluster
        assert 1 not in reps  # duplicate of A

    def test_min_samples_one_gives_every_point_a_cluster(self):
        result = cluster_codes([CODE_A1, CODE_B], eps=0.1, min_samples=1)
        assert -1 not in result.labels
        assert result.n_clusters == 2

    def test_empty_input(self):
        result = dbscan([], eps=0.3)
        assert result.labels == []
        assert isinstance(result, DBSCANResult)

    def test_members(self):
        result = cluster_codes([CODE_A1, CODE_A2, CODE_B], eps=0.4)
        assert result.labels[0] == result.labels[1] != result.labels[2]

    def test_transitive_chaining(self):
        # A chain a-b-c where a and c are only close through b.
        a = frozenset(range(0, 10))
        b = frozenset(range(3, 13))
        c = frozenset(range(6, 16))
        result = dbscan([a, b, c], eps=0.65, min_samples=2)
        assert result.labels[0] == result.labels[1] == result.labels[2]
