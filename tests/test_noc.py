"""Tests for the NoC substrate: mesh, X-Y routing, link parameters, contention."""

import pytest
from hypothesis import given, strategies as st

from repro.noc import (
    MeshTopology,
    NocConfig,
    NocContentionModel,
    NodeCoordinate,
    xy_route,
)
from repro.noc.routing import route_links


class TestMeshTopology:
    def test_paper_mesh_is_4x4(self):
        mesh = MeshTopology()
        assert mesh.num_nodes == 16

    def test_node_id_coordinate_roundtrip(self):
        mesh = MeshTopology(4, 4)
        for node_id in range(16):
            assert mesh.node_id(mesh.coordinate(node_id)) == node_id

    def test_corner_has_two_neighbors(self):
        mesh = MeshTopology(4, 4)
        assert len(mesh.neighbors(0)) == 2

    def test_center_has_four_neighbors(self):
        mesh = MeshTopology(4, 4)
        assert len(mesh.neighbors(5)) == 4

    def test_link_count(self):
        # A 4x4 mesh has 2*(3*4 + 4*3) = 48 directed links.
        assert MeshTopology(4, 4).num_links == 48

    def test_hop_distance_is_manhattan(self):
        mesh = MeshTopology(4, 4)
        assert mesh.hop_distance(0, 15) == 6
        assert mesh.hop_distance(5, 6) == 1

    def test_average_hop_distance_positive(self):
        assert 2.0 < MeshTopology(4, 4).average_hop_distance() < 3.0

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ValueError):
            MeshTopology(4, 4).coordinate(16)

    @pytest.mark.parametrize("width, height", [(0, 4), (4, 0)])
    def test_empty_mesh_rejected(self, width, height):
        with pytest.raises(ValueError):
            MeshTopology(width, height)

    def test_rectangular_mesh_is_row_major(self):
        mesh = MeshTopology(3, 2)
        assert mesh.num_nodes == 6
        assert mesh.coordinate(4) == NodeCoordinate(1, 1)
        assert mesh.node_id(NodeCoordinate(2, 1)) == 5
        # 2 rows x 2 horizontal + 3 columns x 1 vertical = 7 links, both directions.
        assert mesh.num_links == 14

    def test_links_are_the_directed_neighbour_pairs(self):
        mesh = MeshTopology(4, 4)
        links = list(mesh.links())
        assert len(links) == len(set(links)) == mesh.num_links
        assert set(links) == {(a, b) for a in range(16) for b in mesh.neighbors(a)}
        assert all((b, a) in set(links) for a, b in links)

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_hop_distance_is_coordinate_manhattan_distance(self, src, dst):
        mesh = MeshTopology(4, 4)
        a, b = mesh.coordinate(src), mesh.coordinate(dst)
        assert mesh.hop_distance(src, dst) == a.manhattan_distance(b) == b.manhattan_distance(a)


class TestXYRouting:
    def test_route_endpoints(self):
        mesh = MeshTopology(4, 4)
        path = xy_route(mesh, 0, 15)
        assert path[0] == 0 and path[-1] == 15

    def test_route_goes_x_first(self):
        mesh = MeshTopology(4, 4)
        path = xy_route(mesh, 0, 15)
        # From (0,0) to (3,3): first three hops move along x.
        assert path[:4] == [0, 1, 2, 3]

    def test_route_length_equals_manhattan_distance(self):
        mesh = MeshTopology(4, 4)
        for src in range(16):
            for dst in range(16):
                assert len(xy_route(mesh, src, dst)) - 1 == mesh.hop_distance(src, dst)

    def test_route_to_self(self):
        mesh = MeshTopology(4, 4)
        assert xy_route(mesh, 5, 5) == [5]

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_consecutive_route_nodes_are_adjacent(self, src, dst):
        mesh = MeshTopology(4, 4)
        path = xy_route(mesh, src, dst)
        for a, b in zip(path, path[1:]):
            assert b in mesh.neighbors(a)

    def test_xy_routing_is_deterministic(self):
        mesh = MeshTopology(4, 4)
        assert xy_route(mesh, 2, 13) == xy_route(mesh, 2, 13)

    def test_route_links_count(self):
        mesh = MeshTopology(4, 4)
        assert len(route_links(mesh, 0, 5)) == mesh.hop_distance(0, 5)


class TestNocConfig:
    def test_config_bandwidth_matches_paper(self):
        config = NocConfig()
        # 256-bit links at 2 GHz -> 64 GB/s per direction, 128 GB/s bidirectional.
        assert config.link_bandwidth_bytes_per_s == pytest.approx(64e9)
        assert config.node_bandwidth_bytes_per_s == pytest.approx(128e9)

    def test_invalid_link_rejected(self):
        with pytest.raises(ValueError):
            NocConfig(link_width_bytes=0)

    @pytest.mark.parametrize("frequency_hz", [0.0, -1.0e9])
    def test_invalid_frequency_rejected(self, frequency_hz):
        with pytest.raises(ValueError):
            NocConfig(frequency_hz=frequency_hz)

    def test_cycle_time_is_inverse_frequency(self):
        assert NocConfig().cycle_time_s == pytest.approx(0.5e-9)
        assert NocConfig(frequency_hz=1.0e9).cycle_time_s == pytest.approx(1.0e-9)

    def test_bandwidth_scales_with_link_width(self):
        config = NocConfig(link_width_bytes=16)
        assert config.link_bandwidth_bytes_per_s == pytest.approx(32e9)
        assert config.node_bandwidth_bytes_per_s == pytest.approx(64e9)


class TestContentionModel:
    def test_link_load_grows_with_active_nodes(self):
        model = NocContentionModel()
        # With X-Y routing and uniform slice-interleaved traffic, the hottest
        # link already carries a full node's worth of flow with two active
        # nodes; adding more nodes never reduces it.
        assert model.max_link_load_factor(16) > model.max_link_load_factor(1)
        assert model.max_link_load_factor(16) >= model.max_link_load_factor(2)

    def test_sustained_bandwidth_never_exceeds_demand(self):
        model = NocContentionModel()
        demand = 10e9
        for nodes in (1, 4, 16):
            assert model.sustained_node_bandwidth(nodes, demand) <= demand * 1.0001

    def test_sustained_bandwidth_decreases_with_nodes_at_high_demand(self):
        model = NocContentionModel()
        demand = 60e9
        assert model.sustained_node_bandwidth(16, demand) < model.sustained_node_bandwidth(1, demand)

    def test_slowdown_at_least_one(self):
        model = NocContentionModel()
        assert model.slowdown(8, 20e9) >= 1.0

    def test_saturation_node_count(self):
        model = NocContentionModel()
        light = model.saturation_node_count(1e9)
        heavy = model.saturation_node_count(50e9)
        assert heavy <= light

    @pytest.mark.parametrize("num_active", [0, 17])
    def test_active_node_count_outside_the_mesh_rejected(self, num_active):
        with pytest.raises(ValueError, match="num_active"):
            NocContentionModel().max_link_load_factor(num_active)

    @pytest.mark.parametrize("kwargs", [
        {"l3_miss_fraction": -0.1},
        {"l3_miss_fraction": 1.5},
        {"protocol_overhead": -0.01},
    ])
    def test_invalid_model_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NocContentionModel(**kwargs)

    def test_non_positive_demand_rejected(self):
        with pytest.raises(ValueError, match="demand"):
            NocContentionModel().sustained_node_bandwidth(4, 0.0)

    def test_light_demand_on_one_node_is_not_slowed(self):
        assert NocContentionModel().slowdown(1, 1e9) == pytest.approx(1.0)

    def test_model_follows_the_configured_mesh(self):
        model = NocContentionModel(config=NocConfig(width=2, height=2))
        assert model.topology.num_nodes == 4
        # A demand the 2x2 mesh always sustains never saturates it.
        assert model.saturation_node_count(1e6) == 5
        with pytest.raises(ValueError):
            model.max_link_load_factor(5)
