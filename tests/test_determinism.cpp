// End-to-end determinism and headline-shape regression guards: the whole
// pipeline must be bit-reproducible given its seeds, and the paper's
// headline claims (orders of magnitude, who wins) must keep holding at
// test scale so refactors cannot silently regress the reproduction.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "scgnn/common/parallel.hpp"
#include "scgnn/core/framework.hpp"
#include "scgnn/core/semantic_compressor.hpp"
#include "scgnn/dist/factory.hpp"
#include "scgnn/obs/obs.hpp"

namespace scgnn::core {
namespace {

PipelineConfig cfg_for(const graph::Dataset& d) {
    PipelineConfig cfg;
    cfg.num_parts = 4;
    cfg.model.in_dim = static_cast<std::uint32_t>(d.features.cols());
    cfg.model.hidden_dim = 32;
    cfg.model.out_dim = d.num_classes;
    cfg.train.epochs = 10;
    cfg.method.semantic.grouping.kmeans_k = 12;
    return cfg;
}

TEST(Determinism, IdenticalSeedsIdenticalPipeline) {
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kYelpSim, 0.15, 7);
    const PipelineConfig cfg = cfg_for(d);
    const PipelineResult a = run_pipeline(d, cfg);
    const PipelineResult b = run_pipeline(d, cfg);
    EXPECT_EQ(a.train.test_accuracy, b.train.test_accuracy);
    EXPECT_EQ(a.train.final_loss, b.train.final_loss);
    EXPECT_EQ(a.train.mean_comm_mb, b.train.mean_comm_mb);
    EXPECT_EQ(a.wire_rows, b.wire_rows);
    EXPECT_EQ(a.num_groups, b.num_groups);
    ASSERT_EQ(a.train.epoch_metrics.size(), b.train.epoch_metrics.size());
    for (std::size_t e = 0; e < a.train.epoch_metrics.size(); ++e)
        EXPECT_EQ(a.train.epoch_metrics[e].loss,
                  b.train.epoch_metrics[e].loss);
}

TEST(Determinism, ThreadCountDoesNotChangeAnyResult) {
    // The threading substrate's core promise: every parallelised kernel
    // (dense matmuls, SpMM, k-means grouping, the per-partition
    // distributed loops) decomposes work identically at every pool width,
    // so the whole pipeline is bitwise reproducible at 1, 2 and 4 threads.
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kYelpSim, 0.15, 7);
    PipelineConfig cfg = cfg_for(d);
    cfg.train.epochs = 6;

    auto run_at = [&](unsigned threads) {
        ThreadCountGuard guard(threads);
        return run_pipeline(d, cfg);
    };
    const PipelineResult base = run_at(1);
    for (const unsigned threads : {2u, 4u}) {
        const PipelineResult r = run_at(threads);
        EXPECT_EQ(base.train.final_loss, r.train.final_loss);
        EXPECT_EQ(base.train.test_accuracy, r.train.test_accuracy);
        EXPECT_EQ(base.train.mean_comm_mb, r.train.mean_comm_mb);
        EXPECT_EQ(base.compression_ratio, r.compression_ratio);
        EXPECT_EQ(base.wire_rows, r.wire_rows);
        EXPECT_EQ(base.num_groups, r.num_groups);
        ASSERT_EQ(base.train.epoch_metrics.size(),
                  r.train.epoch_metrics.size());
        for (std::size_t e = 0; e < base.train.epoch_metrics.size(); ++e)
            EXPECT_EQ(base.train.epoch_metrics[e].loss,
                      r.train.epoch_metrics[e].loss);
    }
}

/// Every bit of every plan's grouping, plus the fused forward rows and
/// their byte cost, rendered as one comparable string.
std::string render_setup(const dist::DistContext& ctx,
                         dist::BoundaryCompressor& comp,
                         const SemanticCompressor* sc) {
    std::string out;
    auto put = [&](std::uint64_t v) { out += std::to_string(v) + ","; };
    auto put_f = [&](float v) { put(std::bit_cast<std::uint32_t>(v)); };
    if (sc != nullptr) {
        put(sc->total_wire_rows());
        for (std::size_t pi = 0; pi < ctx.plans().size(); ++pi) {
            const Grouping& g = sc->grouping(pi);
            put(g.chosen_k);
            for (const SemanticGroup& grp : g.groups) {
                put(static_cast<std::uint64_t>(grp.origin));
                put(grp.edges);
                for (auto m : grp.members) put(m);
                for (auto v : grp.sinks) put(v);
                for (float w : grp.out_weights) put_f(w);
                for (float w : grp.in_weights) put_f(w);
                out += ";";
            }
            for (auto r : g.raw_rows) put(r);
            for (auto r : g.group_of_row) put(static_cast<std::uint64_t>(r));
            out += "|";
        }
    }
    Rng rng(3);
    tensor::Matrix dst;
    comp.begin_epoch(0);
    for (std::size_t pi = 0; pi < ctx.plans().size(); ++pi) {
        const tensor::Matrix src =
            tensor::Matrix::randn(ctx.plans()[pi].num_rows(), 4, rng);
        put(comp.forward_rows(ctx, pi, 0, src, dst));
        for (std::size_t i = 0; i < dst.size(); ++i) put_f(dst.data()[i]);
    }
    return out;
}

TEST(Determinism, PlanParallelGroupingIsThreadCountInvariant) {
    // setup() builds the per-plan groupings in parallel across plans; the
    // per-plan seeds and the inline nesting of the k-means kernels must
    // make the result the serial one at any pool width — for the bare
    // compressor, after a rate-driven regroup, and inside an ef+ stack.
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kRedditSim, 0.1, 3);
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kEdgeCut, d.graph, 6, 5);
    const dist::DistContext ctx(d, parts, gnn::AdjNorm::kSymmetric);
    ASSERT_GT(ctx.plans().size(), 8u);

    auto run_at = [&](unsigned threads) {
        ThreadCountGuard guard(threads);
        std::vector<std::string> r;
        SemanticCompressor sc({.grouping = {.kmeans_k = 6}});
        sc.setup(ctx);
        r.push_back(render_setup(ctx, sc, &sc));
        sc.apply_rate(0.6);
        r.push_back(render_setup(ctx, sc, &sc));
        dist::CompressorOptions opts;
        opts.semantic.grouping.kmeans_k = 6;
        const auto ef = dist::make_compressor("ef+ours", opts);
        ef->setup(ctx);
        r.push_back(render_setup(ctx, *ef, nullptr));
        return r;
    };
    const std::vector<std::string> serial = run_at(1);
    const std::vector<std::string> wide = run_at(4);
    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_TRUE(serial[i] == wide[i]) << "stage " << i;
}

TEST(Determinism, ObservabilityDoesNotPerturbResults) {
    // The obs subsystem only *reads* timestamps and *counts* — it must
    // never leak into the numerics. Training with SCGNN_OBS-style
    // collection on has to be bitwise identical to training with it off.
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kYelpSim, 0.15, 7);
    PipelineConfig cfg = cfg_for(d);
    cfg.train.epochs = 6;

    const bool was_enabled = obs::enabled();
    obs::set_enabled(false);
    const PipelineResult off = run_pipeline(d, cfg);
    obs::set_enabled(true);
    obs::reset();
    const PipelineResult on = run_pipeline(d, cfg);
    obs::reset();
    obs::set_enabled(was_enabled);

    EXPECT_EQ(off.train.final_loss, on.train.final_loss);
    EXPECT_EQ(off.train.test_accuracy, on.train.test_accuracy);
    EXPECT_EQ(off.train.val_accuracy, on.train.val_accuracy);
    EXPECT_EQ(off.train.train_accuracy, on.train.train_accuracy);
    EXPECT_EQ(off.train.mean_comm_mb, on.train.mean_comm_mb);
    EXPECT_EQ(off.compression_ratio, on.compression_ratio);
    EXPECT_EQ(off.wire_rows, on.wire_rows);
    EXPECT_EQ(off.num_groups, on.num_groups);
    ASSERT_EQ(off.train.epoch_metrics.size(), on.train.epoch_metrics.size());
    for (std::size_t e = 0; e < off.train.epoch_metrics.size(); ++e) {
        EXPECT_EQ(off.train.epoch_metrics[e].loss,
                  on.train.epoch_metrics[e].loss);
        EXPECT_EQ(off.train.epoch_metrics[e].comm_mb,
                  on.train.epoch_metrics[e].comm_mb);
        EXPECT_EQ(off.train.epoch_metrics[e].comm_ms,
                  on.train.epoch_metrics[e].comm_ms);
    }
}

TEST(Determinism, DifferentPartitionSeedChangesLayoutNotLearnability) {
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kYelpSim, 0.15, 7);
    PipelineConfig cfg = cfg_for(d);
    const PipelineResult a = run_pipeline(d, cfg);
    cfg.partition_seed = 12345;
    const PipelineResult b = run_pipeline(d, cfg);
    EXPECT_NE(a.cross_edges, b.cross_edges);  // layout differs
    EXPECT_NEAR(a.train.test_accuracy, b.train.test_accuracy, 0.1);
}

TEST(HeadlineShape, DenseGraphCompressionIsOrdersOfMagnitude) {
    // Fig. 9's Reddit row at test scale: semantic compression on the dense
    // preset must stay > 30x (full scale reaches 100-200x).
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kRedditSim, 0.15, 3);
    PipelineConfig cfg = cfg_for(d);
    cfg.method.semantic.grouping.kmeans_k = 20;
    const PipelineResult res = run_pipeline(d, cfg);
    EXPECT_GT(res.compression_ratio, 30.0);
}

TEST(HeadlineShape, CompressionGrowsWithDensity) {
    // Fig. 12(a): the dense preset compresses far better than the sparse
    // one under identical settings.
    PipelineConfig cfg;
    auto ratio = [&](graph::DatasetPreset p) {
        const graph::Dataset d = graph::make_dataset(p, 0.15, 3);
        cfg = cfg_for(d);
        return run_pipeline(d, cfg).compression_ratio;
    };
    EXPECT_GT(ratio(graph::DatasetPreset::kRedditSim),
              4.0 * ratio(graph::DatasetPreset::kPubMedSim));
}

TEST(HeadlineShape, SemanticVolumeBeatsEveryBaselineOnDenseGraphs) {
    // Fig. 9, condensed: at the baselines' paper operating points, ours
    // moves the least data on the dense preset.
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kRedditSim, 0.15, 3);
    PipelineConfig cfg = cfg_for(d);
    cfg.train.epochs = 4;

    auto volume = [&](Method m) {
        cfg.method.method = m;
        cfg.method.sampling.rate = 0.1;
        cfg.method.quant.bits = 8;
        cfg.method.delay.period = 4;
        cfg.method.semantic.grouping.kmeans_k = 20;
        return run_pipeline(d, cfg).train.mean_comm_mb;
    };
    const double ours = volume(Method::kSemantic);
    EXPECT_LT(ours, volume(Method::kSampling));
    EXPECT_LT(ours, volume(Method::kQuant));
    EXPECT_LT(ours, volume(Method::kDelay));
    EXPECT_LT(ours, volume(Method::kVanilla) / 30.0);
}

TEST(HeadlineShape, AccuracyPreservedUnderSemanticCompression) {
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kOgbnProductsSim, 0.2, 5);
    PipelineConfig cfg = cfg_for(d);
    cfg.train.epochs = 25;
    cfg.method.method = Method::kVanilla;
    const double vanilla_acc = run_pipeline(d, cfg).train.test_accuracy;
    cfg.method.method = Method::kSemantic;
    const double ours_acc = run_pipeline(d, cfg).train.test_accuracy;
    EXPECT_GT(ours_acc, vanilla_acc - 0.03);
}

TEST(HeadlineShape, M2MFamilyDominatesCrossTraffic) {
    // Fig. 2(d): the M2M family (M2M+O2M+M2O) carries almost everything.
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kRedditSim, 0.15, 3);
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, 4, 3);
    const auto mix = graph::connection_mix(d.graph, parts.part_of, 4);
    EXPECT_GT(1.0 - mix.fraction(graph::ConnectionType::kO2O), 0.95);
}

} // namespace
} // namespace scgnn::core
