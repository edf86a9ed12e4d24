// Unit tests for the CSR Graph type and induced subgraphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "scgnn/common/rng.hpp"
#include "scgnn/graph/graph.hpp"

namespace scgnn::graph {
namespace {

Graph path4() {
    // 0-1-2-3 path
    const std::vector<Edge> e{{0, 1}, {1, 2}, {2, 3}};
    return Graph(4, e);
}

TEST(Graph, EmptyGraph) {
    Graph g;
    EXPECT_EQ(g.num_nodes(), 0u);
    EXPECT_EQ(g.num_edges(), 0u);
    EXPECT_EQ(g.average_degree(), 0.0);
    EXPECT_EQ(g.density(), 0.0);
}

TEST(Graph, BasicTopology) {
    const Graph g = path4();
    EXPECT_EQ(g.num_nodes(), 4u);
    EXPECT_EQ(g.num_edges(), 3u);
    EXPECT_EQ(g.degree(0), 1u);
    EXPECT_EQ(g.degree(1), 2u);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 0));  // symmetric
    EXPECT_FALSE(g.has_edge(0, 2));
    EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Graph, NeighborsAreSorted) {
    const std::vector<Edge> e{{2, 0}, {2, 3}, {2, 1}};
    const Graph g(4, e);
    const auto nb = g.neighbors(2);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    EXPECT_EQ(nb.size(), 3u);
}

TEST(Graph, DuplicateAndReversedEdgesMerged) {
    const std::vector<Edge> e{{0, 1}, {1, 0}, {0, 1}};
    const Graph g(2, e);
    EXPECT_EQ(g.num_edges(), 1u);
    EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, SelfLoopRejected) {
    const std::vector<Edge> e{{1, 1}};
    EXPECT_THROW(Graph(2, e), Error);
}

TEST(Graph, OutOfRangeEndpointRejected) {
    const std::vector<Edge> e{{0, 5}};
    EXPECT_THROW(Graph(2, e), Error);
}

TEST(Graph, DegreeQueriesValidate) {
    const Graph g = path4();
    EXPECT_THROW((void)g.degree(4), Error);
    EXPECT_THROW((void)g.neighbors(4), Error);
    EXPECT_THROW((void)g.has_edge(0, 9), Error);
}

TEST(Graph, AverageDegreeAndDensity) {
    const Graph g = path4();
    EXPECT_DOUBLE_EQ(g.average_degree(), 1.5);  // 2*3/4
    EXPECT_DOUBLE_EQ(g.density(), 6.0 / 12.0);
}

TEST(Graph, EdgeListRoundTrip) {
    const Graph g = path4();
    const auto edges = g.edge_list();
    EXPECT_EQ(edges.size(), 3u);
    for (const Edge& e : edges) EXPECT_LT(e.u, e.v);
    const Graph g2(4, edges);
    EXPECT_EQ(g2.num_edges(), g.num_edges());
}

TEST(Graph, IsolatedNodesAllowed) {
    const std::vector<Edge> e{{0, 1}};
    const Graph g(5, e);
    EXPECT_EQ(g.degree(4), 0u);
    EXPECT_EQ(g.neighbors(4).size(), 0u);
}

TEST(InducedSubgraph, KeepsInternalEdgesOnly) {
    // Triangle 0-1-2 plus pendant 3.
    const std::vector<Edge> e{{0, 1}, {1, 2}, {0, 2}, {2, 3}};
    const Graph g(4, e);
    const std::vector<std::uint32_t> nodes{0, 1, 2};
    const auto [sub, mapping] = induced_subgraph(g, nodes);
    EXPECT_EQ(sub.num_nodes(), 3u);
    EXPECT_EQ(sub.num_edges(), 3u);
    EXPECT_EQ(mapping, nodes);
}

TEST(InducedSubgraph, DeduplicatesAndSortsInput) {
    const std::vector<Edge> e{{0, 1}, {1, 2}};
    const Graph g(3, e);
    const std::vector<std::uint32_t> nodes{2, 0, 2, 1};
    const auto [sub, mapping] = induced_subgraph(g, nodes);
    EXPECT_EQ(mapping, (std::vector<std::uint32_t>{0, 1, 2}));
    EXPECT_EQ(sub.num_edges(), 2u);
}

TEST(InducedSubgraph, EmptySelection) {
    const Graph g = path4();
    const auto [sub, mapping] = induced_subgraph(g, {});
    EXPECT_EQ(sub.num_nodes(), 0u);
    EXPECT_TRUE(mapping.empty());
}

TEST(InducedSubgraph, LocalIdsMatchMapping) {
    const std::vector<Edge> e{{1, 3}};
    const Graph g(4, e);
    const std::vector<std::uint32_t> nodes{1, 3};
    const auto [sub, mapping] = induced_subgraph(g, nodes);
    EXPECT_TRUE(sub.has_edge(0, 1));
    EXPECT_EQ(mapping[0], 1u);
    EXPECT_EQ(mapping[1], 3u);
}

TEST(Graph, CsrMatchesSetReferenceOnDuplicatedAndReversedEdges) {
    // Every edge appears up to three times, in either orientation; the CSR
    // must list each row's neighbours once, ascending.
    Rng rng(5);
    const std::uint32_t n = 50;
    std::vector<Edge> edges;
    std::set<std::pair<std::uint32_t, std::uint32_t>> want;
    for (int i = 0; i < 300; ++i) {
        const auto u = static_cast<std::uint32_t>(rng.uniform_u64(n));
        const auto v = static_cast<std::uint32_t>(rng.uniform_u64(n));
        if (u == v) continue;
        const auto copies = 1 + rng.uniform_u64(3);
        for (std::uint64_t c = 0; c < copies; ++c)
            edges.push_back(rng.bernoulli(0.5) ? Edge{u, v} : Edge{v, u});
        want.insert({u, v});
        want.insert({v, u});
    }
    const Graph g(n, edges);
    EXPECT_EQ(g.num_edges(), want.size() / 2);
    for (std::uint32_t u = 0; u < n; ++u) {
        std::vector<std::uint32_t> row;
        for (auto it = want.lower_bound({u, 0}); it != want.end() && it->first == u;
             ++it)
            row.push_back(it->second);
        const auto nb = g.neighbors(u);
        EXPECT_EQ(std::vector<std::uint32_t>(nb.begin(), nb.end()), row)
            << "row " << u;
    }
}

} // namespace
} // namespace scgnn::graph
