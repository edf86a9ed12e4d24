// The Scenario API contract (runtime/scenario.hpp): the single
// validation pass of build(), the training dispatch equivalence that
// makes Scenario::for_training a drop-in for the deprecated
// dist::train_distributed, the sampled-training workload, and the
// serving workload's determinism and caching/batching behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "scgnn/common/parallel.hpp"
#include "scgnn/dist/factory.hpp"
#include "scgnn/obs/alloc.hpp"
#include "scgnn/partition/partition.hpp"
#include "scgnn/runtime/scenario.hpp"

namespace scgnn::runtime {
namespace {

graph::Dataset tiny_data(std::uint64_t seed = 5) {
    return graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.1, seed);
}

ScenarioConfig base_cfg(const graph::Dataset& d, ScenarioMode mode) {
    ScenarioConfig cfg;
    cfg.mode = mode;
    cfg.pipeline.num_parts = 4;
    cfg.pipeline.model.in_dim =
        static_cast<std::uint32_t>(d.features.cols());
    cfg.pipeline.model.hidden_dim = 16;
    cfg.pipeline.model.out_dim = d.num_classes;
    cfg.pipeline.train.epochs = 3;
    cfg.pipeline.method.method = core::Method::kSemantic;
    cfg.sampler.batch_size = 48;
    cfg.sampler.fanout = {5, 4};
    cfg.serve.queries = 400;
    cfg.serve.qps = 4000.0;
    return cfg;
}

std::string g17(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

TEST(ScenarioBuild, ModeNamesRoundTrip) {
    for (const ScenarioMode m :
         {ScenarioMode::kTrain, ScenarioMode::kSampleTrain,
          ScenarioMode::kServe}) {
        ScenarioMode back;
        ASSERT_TRUE(parse_mode(mode_name(m), back));
        EXPECT_EQ(back, m);
    }
    ScenarioMode out;
    EXPECT_FALSE(parse_mode("inference", out));
}

TEST(ScenarioBuild, ValidatesOnce) {
    const graph::Dataset d = tiny_data();
    // Valid configs build in every mode.
    for (const ScenarioMode m :
         {ScenarioMode::kTrain, ScenarioMode::kSampleTrain,
          ScenarioMode::kServe})
        EXPECT_NO_THROW((void)Scenario::build(base_cfg(d, m)));

    ScenarioConfig bad = base_cfg(d, ScenarioMode::kTrain);
    bad.pipeline.num_parts = 0;
    EXPECT_THROW((void)Scenario::build(bad), Error);
    // Every mode builds a DistContext, which needs two partitions.
    for (const ScenarioMode m :
         {ScenarioMode::kTrain, ScenarioMode::kSampleTrain,
          ScenarioMode::kServe}) {
        bad = base_cfg(d, m);
        bad.pipeline.num_parts = 1;
        EXPECT_THROW((void)Scenario::build(bad), Error);
        bad = base_cfg(d, m);
        bad.pipeline.model.num_layers = 0;
        EXPECT_THROW((void)Scenario::build(bad), Error);
    }
    bad = base_cfg(d, ScenarioMode::kTrain);
    bad.pipeline.train.epochs = 0;
    EXPECT_THROW((void)Scenario::build(bad), Error);

    // Sampler invariants only bite in sample-train mode.
    bad = base_cfg(d, ScenarioMode::kSampleTrain);
    bad.sampler.fanout.clear();
    EXPECT_THROW((void)Scenario::build(bad), Error);
    bad.mode = ScenarioMode::kTrain;
    EXPECT_NO_THROW((void)Scenario::build(bad));
    bad = base_cfg(d, ScenarioMode::kSampleTrain);
    bad.sampler.batch_size = 0;
    EXPECT_THROW((void)Scenario::build(bad), Error);
    bad = base_cfg(d, ScenarioMode::kSampleTrain);
    bad.pipeline.train.membership.events = {
        {MembershipEventKind::kLeave, 1, 1}};
    EXPECT_THROW((void)Scenario::build(bad), Error);

    // Serve invariants.
    bad = base_cfg(d, ScenarioMode::kServe);
    bad.serve.qps = 0.0;
    EXPECT_THROW((void)Scenario::build(bad), Error);
    bad = base_cfg(d, ScenarioMode::kServe);
    bad.serve.batch_max = 0;
    EXPECT_THROW((void)Scenario::build(bad), Error);
}

TEST(ScenarioBuild, ServeInheritsTrainingSideKnobs) {
    const graph::Dataset d = tiny_data();
    ScenarioConfig cfg = base_cfg(d, ScenarioMode::kServe);
    cfg.pipeline.train.comm.cost.latency_s = 0.125;
    cfg.pipeline.method.semantic.grouping.kmeans_k = 7;
    const Scenario s = Scenario::build(cfg);
    EXPECT_DOUBLE_EQ(s.config().serve.cost.latency_s, 0.125);
    EXPECT_EQ(s.config().serve.compressor.grouping.kmeans_k, 7u);
}

TEST(ScenarioTrain, ForTrainingMatchesDeprecatedEntryPoint) {
    const graph::Dataset d = tiny_data();
    const partition::Partitioning parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, 4, 5);
    gnn::GnnConfig mc;
    mc.in_dim = static_cast<std::uint32_t>(d.features.cols());
    mc.hidden_dim = 16;
    mc.out_dim = d.num_classes;
    dist::DistTrainConfig cfg;
    cfg.epochs = 3;

    auto comp_a = dist::make_compressor("ours");
    const dist::DistTrainResult via_scenario =
        Scenario::for_training(cfg).train(d, parts, mc, *comp_a);
    auto comp_b = dist::make_compressor("ours");
    const dist::DistTrainResult via_detail =
        dist::detail::train_full(d, parts, mc, cfg, *comp_b);

    ASSERT_EQ(via_scenario.epoch_metrics.size(),
              via_detail.epoch_metrics.size());
    for (std::size_t e = 0; e < via_scenario.epoch_metrics.size(); ++e)
        EXPECT_EQ(via_scenario.epoch_metrics[e].loss,
                  via_detail.epoch_metrics[e].loss);  // bitwise
    EXPECT_EQ(via_scenario.test_accuracy, via_detail.test_accuracy);
    EXPECT_EQ(via_scenario.mean_comm_mb, via_detail.mean_comm_mb);
}

TEST(ScenarioSampleTrain, RunsAndReportsSamplingStats) {
    const graph::Dataset d = tiny_data();
    const Scenario s =
        Scenario::build(base_cfg(d, ScenarioMode::kSampleTrain));
    const ScenarioResult r = s.run(d);
    ASSERT_EQ(r.pipeline.train.epoch_metrics.size(), 3u);
    for (const dist::EpochMetrics& m : r.pipeline.train.epoch_metrics)
        EXPECT_TRUE(std::isfinite(m.loss));
    const dist::SampleStats& smp = r.pipeline.train.sampling;
    EXPECT_GT(smp.batches, 0u);
    EXPECT_GT(smp.mean_batch_nodes, 0.0);
    EXPECT_GT(smp.requested_rows, 0u);
    EXPECT_GT(smp.request_bytes, 0u);
    // The sampled path still pays for its requests on the wire.
    EXPECT_GT(r.pipeline.train.mean_comm_mb, 0.0);
    // Semantic statistics come from the same fill as the full-batch path.
    EXPECT_GT(r.pipeline.cross_edges, 0u);
    EXPECT_GE(r.pipeline.compression_ratio, 1.0);
}

TEST(ScenarioSampleTrain, BitwiseReproducibleAcrossThreadCounts) {
    const graph::Dataset d = tiny_data();
    auto run_at = [&](unsigned threads) {
        ThreadCountGuard guard(threads);
        const Scenario s =
            Scenario::build(base_cfg(d, ScenarioMode::kSampleTrain));
        const ScenarioResult r = s.run(d);
        std::ostringstream o;
        for (const dist::EpochMetrics& m : r.pipeline.train.epoch_metrics)
            o << g17(m.loss) << ",";
        o << g17(r.pipeline.train.test_accuracy) << ","
          << r.pipeline.train.sampling.requested_rows << ","
          << r.pipeline.train.sampling.request_bytes;
        return o.str();
    };
    EXPECT_EQ(run_at(1), run_at(4));
}

std::string render_serve(const ServeResult& s) {
    std::ostringstream o;
    o << s.queries << "," << s.batches << "," << g17(s.mean_batch) << ","
      << g17(s.p50_ms) << "," << g17(s.p99_ms) << "," << g17(s.p999_ms)
      << "," << g17(s.mean_ms) << "," << s.cache_hits << ","
      << s.cache_misses << "," << g17(s.halo_mb);
    return o.str();
}

TEST(ScenarioServe, DeterministicAndWellFormed) {
    const graph::Dataset d = tiny_data();
    const Scenario s = Scenario::build(base_cfg(d, ScenarioMode::kServe));
    const ServeResult a = s.run(d).serve;
    const ServeResult b = s.run(d).serve;
    EXPECT_EQ(render_serve(a), render_serve(b));
    EXPECT_EQ(a.queries, 400u);
    EXPECT_GE(a.batches, 1u);
    EXPECT_LE(a.batches, a.queries);
    EXPECT_GE(a.mean_batch, 1.0);
    // Quantiles ordered and inside the histogram range.
    EXPECT_LE(a.p50_ms, a.p99_ms);
    EXPECT_LE(a.p99_ms, a.p999_ms);
    // The binned quantile may overshoot the exact max by at most one bin
    // width (the documented interpolation bias).
    const double bin_ms =
        s.config().serve.hist_max_ms / s.config().serve.hist_bins;
    EXPECT_LE(a.p999_ms, a.max_ms + bin_ms);
    EXPECT_GT(a.p50_ms, 0.0);
    EXPECT_GT(a.hit_rate, 0.0);  // warm cache pays off within 400 queries
    EXPECT_EQ(a.cache_hits + a.cache_misses > 0,
              true);
    EXPECT_EQ(a.clamped, 0u);  // every latency inside the histogram
}

TEST(ScenarioServe, OverloadReportsClampedLatencies) {
    // Far more arrivals than the devices can serve: queues build until
    // latencies pass the histogram ceiling, whose top bin then holds them.
    const graph::Dataset d = tiny_data();
    ScenarioConfig cfg = base_cfg(d, ScenarioMode::kServe);
    cfg.serve.qps = 1e6;
    cfg.serve.queries = 2000;
    cfg.serve.hist_max_ms = 5.0;
    cfg.serve.hist_bins = 256;
    const ServeResult r = Scenario::build(cfg).run(d).serve;
    EXPECT_GT(r.clamped, 0u);
    EXPECT_LE(r.clamped, r.queries);
    EXPECT_GT(r.max_ms, cfg.serve.hist_max_ms);
    EXPECT_LE(r.p99_ms, cfg.serve.hist_max_ms);  // a lower bound only
}

TEST(ScenarioServe, AllocationsDoNotGrowWithStreamLength) {
    // Two runs differing only in stream length allocate equally often:
    // per-run set-up (query lists, unit tables, stamp arrays) is sized up
    // front and the batch loop itself never touches the heap.
    ThreadCountGuard guard(1);
    const graph::Dataset d = tiny_data();
    const partition::Partitioning parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, 4, 5);
    auto allocs_of_run = [&](std::uint32_t queries) {
        ServeConfig cfg = base_cfg(d, ScenarioMode::kServe).serve;
        cfg.queries = queries;
        const InferenceServer server(d, parts, cfg);
        obs::reset_alloc_stats();
        obs::set_alloc_tracking(true);
        const ServeResult r = server.run();
        obs::set_alloc_tracking(false);
        EXPECT_EQ(r.queries, queries);
        return obs::alloc_stats().count;
    };
    const std::uint64_t short_run = allocs_of_run(500);
    const std::uint64_t long_run = allocs_of_run(2000);
    EXPECT_GT(short_run, 0u);
    EXPECT_EQ(short_run, long_run);
    obs::reset_alloc_stats();
}

TEST(ScenarioServe, CacheReducesFetchVolume) {
    const graph::Dataset d = tiny_data();
    ScenarioConfig cfg = base_cfg(d, ScenarioMode::kServe);
    const ServeResult cached = Scenario::build(cfg).run(d).serve;
    cfg.serve.halo_cache = false;
    const ServeResult naive = Scenario::build(cfg).run(d).serve;
    EXPECT_EQ(naive.cache_hits, 0u);
    EXPECT_DOUBLE_EQ(naive.hit_rate, 0.0);
    EXPECT_LT(cached.halo_mb, naive.halo_mb);
    EXPECT_GT(cached.hit_rate, 0.0);
}

TEST(ScenarioServe, TrainingDispatchThrows) {
    const graph::Dataset d = tiny_data();
    const partition::Partitioning parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, 4, 5);
    gnn::GnnConfig mc;
    mc.in_dim = static_cast<std::uint32_t>(d.features.cols());
    mc.out_dim = d.num_classes;
    auto comp = dist::make_compressor("vanilla");
    const Scenario s = Scenario::build(base_cfg(d, ScenarioMode::kServe));
    EXPECT_THROW((void)s.train(d, parts, mc, *comp), Error);
}

} // namespace
} // namespace scgnn::runtime
