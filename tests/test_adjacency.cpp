// Regression guards for the self-loop semantics of normalized_adjacency:
// the kSum branch historically omitted the self-loop that the symmetric
// and row-mean branches add. That asymmetry is now an explicit, documented
// SelfLoop parameter whose kAuto default preserves each norm's historical
// behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "scgnn/common/rng.hpp"
#include "scgnn/gnn/adjacency.hpp"
#include "scgnn/graph/generators.hpp"

namespace scgnn::gnn {
namespace {

graph::Graph path3() {
    // 0 - 1 - 2
    const graph::Edge edges[] = {{0, 1}, {1, 2}};
    return graph::Graph(3, edges);
}

graph::Graph random_graph(std::uint32_t n, std::uint64_t m,
                          std::uint64_t seed) {
    Rng rng(seed);
    return graph::erdos_renyi(n, m, rng);
}

TEST(Adjacency, SumOmitsSelfLoopByDefault) {
    const graph::Graph g = path3();
    const auto a = normalized_adjacency(g, AdjNorm::kSum);
    for (std::uint32_t u = 0; u < 3; ++u) EXPECT_EQ(a.coeff(u, u), 0.0f);
    EXPECT_EQ(a.coeff(0, 1), 1.0f);
    EXPECT_EQ(a.coeff(1, 0), 1.0f);
    EXPECT_EQ(a.nnz(), 4u);  // the raw adjacency, nothing more
}

TEST(Adjacency, SumWithForcedSelfLoopAddsUnitDiagonal) {
    const graph::Graph g = path3();
    const auto a = normalized_adjacency(g, AdjNorm::kSum, SelfLoop::kAdd);
    for (std::uint32_t u = 0; u < 3; ++u) EXPECT_EQ(a.coeff(u, u), 1.0f);
    EXPECT_EQ(a.nnz(), 7u);
}

TEST(Adjacency, AutoMatchesExplicitAddForSymmetricAndRowMean) {
    const graph::Graph g = random_graph(40, 90, 11);
    for (const AdjNorm norm : {AdjNorm::kSymmetric, AdjNorm::kRowMean}) {
        const auto auto_a = normalized_adjacency(g, norm);
        const auto add_a = normalized_adjacency(g, norm, SelfLoop::kAdd);
        ASSERT_EQ(auto_a.nnz(), add_a.nnz());
        for (std::uint32_t u = 0; u < g.num_nodes(); ++u) {
            EXPECT_GT(auto_a.coeff(u, u), 0.0f);
            EXPECT_EQ(auto_a.coeff(u, u), add_a.coeff(u, u));
        }
    }
}

TEST(Adjacency, SymmetricWithoutSelfLoopExcludesDiagonal) {
    const graph::Graph g = path3();
    const auto a = normalized_adjacency(g, AdjNorm::kSymmetric, SelfLoop::kNone);
    for (std::uint32_t u = 0; u < 3; ++u) EXPECT_EQ(a.coeff(u, u), 0.0f);
    // Degrees now exclude the self edge: weight(0,1) = 1/sqrt(1*2).
    EXPECT_NEAR(a.coeff(0, 1), 1.0f / std::sqrt(2.0f), 1e-6f);
}

TEST(Adjacency, RowMeanRowsSumToOneWithAndWithoutSelfLoop) {
    const graph::Graph g = random_graph(30, 60, 5);
    for (const SelfLoop self : {SelfLoop::kAuto, SelfLoop::kNone}) {
        const auto a = normalized_adjacency(g, AdjNorm::kRowMean, self);
        for (std::uint32_t u = 0; u < g.num_nodes(); ++u) {
            if (g.degree(u) == 0 && self == SelfLoop::kNone) continue;
            double row_sum = 0.0;
            for (const float v : a.row_vals(u)) row_sum += v;
            EXPECT_NEAR(row_sum, 1.0, 1e-5);
        }
    }
}

/// The historical triplet assembly: self-loop first, then the neighbours,
/// so most rows arrive out of order and the triplet constructor sorts.
tensor::SparseMatrix triplet_reference(const graph::Graph& g, AdjNorm norm,
                                       SelfLoop self) {
    const std::uint32_t n = g.num_nodes();
    const bool with_self = self == SelfLoop::kAdd ||
                           (self == SelfLoop::kAuto && norm != AdjNorm::kSum);
    std::vector<double> deg(n);
    for (std::uint32_t u = 0; u < n; ++u)
        deg[u] = static_cast<double>(g.degree(u)) + (with_self ? 1.0 : 0.0);
    auto weight = [&](std::uint32_t r, std::uint32_t c) -> float {
        if (norm == AdjNorm::kSum) return 1.0f;
        if (norm == AdjNorm::kSymmetric)
            return static_cast<float>(1.0 / std::sqrt(deg[r] * deg[c]));
        return static_cast<float>(1.0 / deg[r]);
    };
    std::vector<tensor::Triplet> trips;
    for (std::uint32_t u = 0; u < n; ++u) {
        if (with_self) trips.push_back({u, u, weight(u, u)});
        for (std::uint32_t v : g.neighbors(u)) trips.push_back({u, v, weight(u, v)});
    }
    return tensor::SparseMatrix(n, n, std::move(trips));
}

TEST(Adjacency, InOrderAssemblyMatchesTripletReferenceBitwise) {
    // An isolated node (the last one) and a hub keep both self-loop
    // placements — first in the row and between neighbours — covered.
    graph::Graph g = random_graph(60, 240, 11);
    std::vector<graph::Edge> edges = g.edge_list();
    for (std::uint32_t v = 1; v < 60; v += 3) edges.push_back({0, v});
    g = graph::Graph(61, edges);
    for (const AdjNorm norm :
         {AdjNorm::kSymmetric, AdjNorm::kRowMean, AdjNorm::kSum}) {
        for (const SelfLoop self :
             {SelfLoop::kAuto, SelfLoop::kAdd, SelfLoop::kNone}) {
            const tensor::SparseMatrix got = normalized_adjacency(g, norm, self);
            const tensor::SparseMatrix want = triplet_reference(g, norm, self);
            const auto label = ::testing::Message()
                               << "norm " << static_cast<int>(norm)
                               << " self " << static_cast<int>(self);
            ASSERT_EQ(got.rows(), want.rows()) << label;
            ASSERT_TRUE(std::ranges::equal(got.row_ptr(), want.row_ptr()))
                << label;
            ASSERT_TRUE(std::ranges::equal(got.col_idx(), want.col_idx()))
                << label;
            ASSERT_EQ(got.nnz(), want.nnz()) << label;
            for (std::size_t i = 0; i < got.nnz(); ++i)
                ASSERT_EQ(std::bit_cast<std::uint32_t>(got.values()[i]),
                          std::bit_cast<std::uint32_t>(want.values()[i]))
                    << label << " nonzero " << i;
        }
    }
}

} // namespace
} // namespace scgnn::gnn
