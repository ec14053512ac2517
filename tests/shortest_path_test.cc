#include "roadnet/shortest_path.h"

#include <gtest/gtest.h>
#include <set>

#include "roadnet/synthetic_city.h"

namespace start::roadnet {
namespace {

RoadNetwork MakeDiamond() {
  // 0 -> {1, 2} -> 3; weights by segment id (1-based) make 0-1-3 cheaper.
  RoadNetwork net;
  for (int i = 0; i < 4; ++i) {
    RoadSegment s;
    s.length_m = 100;
    s.maxspeed_mps = 10;
    net.AddSegment(s);
  }
  net.AddEdge(0, 1);
  net.AddEdge(0, 2);
  net.AddEdge(1, 3);
  net.AddEdge(2, 3);
  net.Finalize();
  return net;
}

double IdWeight(int64_t segment) { return static_cast<double>(segment) + 1.0; }

TEST(ShortestPathTest, PicksCheaperBranch) {
  const RoadNetwork net = MakeDiamond();
  const auto result = ShortestPath(net, 0, 3, IdWeight);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->path, (std::vector<int64_t>{0, 1, 3}));
  EXPECT_DOUBLE_EQ(result->cost, 1.0 + 2.0 + 4.0);
}

TEST(ShortestPathTest, UnreachableReturnsNullopt) {
  RoadNetwork net;
  net.AddSegment({});
  net.AddSegment({});
  net.Finalize();  // no edges
  EXPECT_FALSE(ShortestPath(net, 0, 1, IdWeight).has_value());
}

TEST(ShortestPathTest, TrivialSelfPath) {
  const RoadNetwork net = MakeDiamond();
  const auto result = ShortestPath(net, 2, 2, IdWeight);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->path, (std::vector<int64_t>{2}));
}

TEST(ShortestPathTest, MatchesBruteForceOnCity) {
  const SyntheticCityConfig config{.grid_width = 4, .grid_height = 4};
  const RoadNetwork net = BuildSyntheticCity(config);
  auto weight = [&](int64_t v) { return net.FreeFlowTravelTime(v); };
  // Bellman-Ford as the brute-force reference from source 0.
  const int64_t n = net.num_segments();
  std::vector<double> dist(static_cast<size_t>(n), 1e18);
  dist[0] = weight(0);
  for (int64_t iter = 0; iter < n; ++iter) {
    bool changed = false;
    for (int64_t u = 0; u < n; ++u) {
      if (dist[static_cast<size_t>(u)] >= 1e18) continue;
      for (const int64_t v : net.OutNeighbors(u)) {
        const double nd = dist[static_cast<size_t>(u)] + weight(v);
        if (nd < dist[static_cast<size_t>(v)] - 1e-9) {
          dist[static_cast<size_t>(v)] = nd;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  for (int64_t target : {n / 3, n / 2, n - 1}) {
    const auto result = ShortestPath(net, 0, target, weight);
    if (dist[static_cast<size_t>(target)] >= 1e18) {
      EXPECT_FALSE(result.has_value());
    } else {
      ASSERT_TRUE(result.has_value()) << "target " << target;
      EXPECT_NEAR(result->cost, dist[static_cast<size_t>(target)], 1e-6);
    }
  }
}

TEST(ShortestPathTest, PathIsConnectedInNetwork) {
  const SyntheticCityConfig config{.grid_width = 5, .grid_height = 5};
  const RoadNetwork net = BuildSyntheticCity(config);
  auto weight = [&](int64_t v) { return net.FreeFlowTravelTime(v); };
  const auto result = ShortestPath(net, 0, net.num_segments() - 1, weight);
  ASSERT_TRUE(result.has_value());
  for (size_t i = 0; i + 1 < result->path.size(); ++i) {
    EXPECT_TRUE(net.HasEdge(result->path[i], result->path[i + 1]));
  }
}

TEST(KspTest, ReturnsSortedDistinctSimplePaths) {
  const SyntheticCityConfig config{.grid_width = 5, .grid_height = 5};
  const RoadNetwork net = BuildSyntheticCity(config);
  auto weight = [&](int64_t v) { return net.FreeFlowTravelTime(v); };
  const auto paths = KShortestPaths(net, 0, net.num_segments() / 2, 5, weight);
  ASSERT_GE(paths.size(), 2u);
  std::set<std::vector<int64_t>> unique;
  for (size_t i = 0; i < paths.size(); ++i) {
    // Sorted by cost.
    if (i > 0) {
      EXPECT_GE(paths[i].cost, paths[i - 1].cost - 1e-9);
    }
    // Distinct.
    EXPECT_TRUE(unique.insert(paths[i].path).second);
    // Simple (loopless).
    std::set<int64_t> nodes(paths[i].path.begin(), paths[i].path.end());
    EXPECT_EQ(nodes.size(), paths[i].path.size());
    // Connected.
    for (size_t j = 0; j + 1 < paths[i].path.size(); ++j) {
      EXPECT_TRUE(net.HasEdge(paths[i].path[j], paths[i].path[j + 1]));
    }
  }
}

TEST(KspTest, FirstPathIsShortest) {
  const RoadNetwork net = MakeDiamond();
  const auto paths = KShortestPaths(net, 0, 3, 3, IdWeight);
  ASSERT_EQ(paths.size(), 2u);  // only two simple paths exist
  EXPECT_EQ(paths[0].path, (std::vector<int64_t>{0, 1, 3}));
  EXPECT_EQ(paths[1].path, (std::vector<int64_t>{0, 2, 3}));
}

TEST(KspTest, EqualCostPathsComeOutInLexicographicOrder) {
  // 0 -> {1, 2, 3} -> 4 under a uniform metric: three simple paths of
  // identical cost. The documented contract pins their order to the node
  // sequence, independent of heap internals or generation order.
  RoadNetwork net;
  for (int i = 0; i < 5; ++i) {
    RoadSegment s;
    s.length_m = 100;
    s.maxspeed_mps = 10;
    net.AddSegment(s);
  }
  for (const int64_t mid : {1, 2, 3}) {
    net.AddEdge(0, mid);
    net.AddEdge(mid, 4);
  }
  net.Finalize();
  auto uniform = [](int64_t) { return 1.0; };
  const auto paths = KShortestPaths(net, 0, 4, 5, uniform);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].path, (std::vector<int64_t>{0, 1, 4}));
  EXPECT_EQ(paths[1].path, (std::vector<int64_t>{0, 2, 4}));
  EXPECT_EQ(paths[2].path, (std::vector<int64_t>{0, 3, 4}));
  for (const auto& p : paths) EXPECT_DOUBLE_EQ(p.cost, 3.0);
}

TEST(DijkstraRouterTest, BitwiseIdenticalToShortestPathAcrossQueries) {
  const SyntheticCityConfig config{.grid_width = 6, .grid_height = 6,
                                   .seed = 11};
  const RoadNetwork net = BuildSyntheticCity(config);
  auto weight = [&](int64_t v) { return net.FreeFlowTravelTime(v); };
  DijkstraRouter router(&net);
  const int64_t n = net.num_segments();
  for (int64_t q = 0; q < 40; ++q) {
    const int64_t src = (q * 7919) % n;
    const int64_t dst = (q * 104729 + 13) % n;
    const auto a = ShortestPath(net, src, dst, weight);
    const auto b = router.Route(src, dst, weight);
    ASSERT_EQ(a.has_value(), b.has_value()) << src << "->" << dst;
    if (!a.has_value()) continue;
    // Bitwise, not approximate: the workspace router must replay the exact
    // float operations of the legacy routine (golden corpora depend on it).
    EXPECT_EQ(a->cost, b->cost) << src << "->" << dst;
    EXPECT_EQ(a->path, b->path) << src << "->" << dst;
  }
}

}  // namespace
}  // namespace start::roadnet
