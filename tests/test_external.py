"""Tests for the semi-external (edges-on-disk) decomposition."""

import numpy as np
import pytest

from repro.core.external import (
    semi_external_coreness,
    write_edge_file,
)
from repro.core.verify import reference_coreness
from repro.generators import (
    complete_graph,
    empty_graph,
    erdos_renyi,
    grid_2d,
    hcns,
    power_law_with_hub,
)


def run_semi_external(graph, tmp_path, **kwargs):
    path = tmp_path / "edges.bin"
    written = write_edge_file(graph, path)
    assert written == graph.num_edges
    return semi_external_coreness(path, graph.n, **kwargs)


class TestCorrectness:
    def test_er(self, tmp_path):
        g = erdos_renyi(300, 7.0, seed=1)
        result = run_semi_external(g, tmp_path)
        assert np.array_equal(result.coreness, reference_coreness(g))

    def test_grid(self, tmp_path):
        g = grid_2d(12, 12)
        result = run_semi_external(g, tmp_path)
        assert np.array_equal(result.coreness, reference_coreness(g))

    def test_hub_graph(self, tmp_path):
        g = power_law_with_hub(800, 4, hub_count=2, hub_degree=200, seed=2)
        result = run_semi_external(g, tmp_path)
        assert np.array_equal(result.coreness, reference_coreness(g))

    def test_hcns(self, tmp_path):
        g = hcns(24)
        result = run_semi_external(g, tmp_path)
        assert np.array_equal(result.coreness, reference_coreness(g))

    def test_clique_converges_in_two_passes(self, tmp_path):
        g = complete_graph(20)
        result = run_semi_external(g, tmp_path)
        # Degree pass + one confirming refinement pass.
        assert result.passes <= 3

    def test_empty_graph(self, tmp_path):
        g = empty_graph(5)
        result = run_semi_external(g, tmp_path)
        assert np.all(result.coreness == 0)


class TestStreamingWriter:
    @pytest.mark.parametrize("chunk_edges", [1, 7, 64, 1 << 16])
    def test_chunked_write_byte_identical(self, tmp_path, chunk_edges):
        """The streaming writer must reproduce the monolithic encoding."""
        from repro.graphs.transform import all_edges

        g = power_law_with_hub(500, 4, hub_count=2, hub_degree=120, seed=5)
        reference = all_edges(g).astype("<i8").tobytes()
        path = tmp_path / "edges.bin"
        written = write_edge_file(g, path, chunk_edges=chunk_edges)
        assert path.read_bytes() == reference
        assert written == g.num_edges

    def test_empty_graph_writes_empty_file(self, tmp_path):
        path = tmp_path / "edges.bin"
        assert write_edge_file(empty_graph(5), path, chunk_edges=3) == 0
        assert path.read_bytes() == b""

    def test_nonpositive_chunk_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_edge_file(erdos_renyi(20, 3.0, seed=6),
                            tmp_path / "edges.bin", chunk_edges=0)


class TestStreaming:
    @pytest.mark.parametrize("chunk_edges", [1, 7, 64])
    def test_small_chunks_agree(self, tmp_path, chunk_edges):
        """Chunk size must not change the answer (pure streaming).

        It also sizes the update's vertex blocks, so small chunks put a
        block boundary after nearly every vertex.
        """
        g = erdos_renyi(200, 6.0, seed=3)
        big = run_semi_external(g, tmp_path, chunk_edges=1 << 16)
        small = run_semi_external(g, tmp_path, chunk_edges=chunk_edges)
        assert np.array_equal(big.coreness, small.coreness)
        assert big.passes == small.passes
        assert big.peak_memory_values == small.peak_memory_values

    def test_pass_limit_raises(self, tmp_path):
        from repro.generators import path_graph

        g = path_graph(200)
        with pytest.raises(RuntimeError):
            run_semi_external(g, tmp_path, max_passes=1)

    def test_corrupt_file_detected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x01" * 24)  # 3 int64s: odd endpoint count
        with pytest.raises(ValueError):
            semi_external_coreness(path, 4)

    def test_negative_n_rejected(self, tmp_path):
        path = tmp_path / "edges.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            semi_external_coreness(path, -1)

    def test_memory_footprint_reported(self, tmp_path):
        g = erdos_renyi(400, 8.0, seed=4)
        result = run_semi_external(g, tmp_path)
        assert result.peak_memory_values > 0
