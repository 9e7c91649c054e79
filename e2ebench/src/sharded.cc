// sharded-mix: the dlplus-d4 relation behind a 4-shard hyperplane
// ShardedDualLayerIndex. A single client mixes plain top-k, constrained
// top-k over seeded boxes, a small share of diversified top-k, and
// small batches.

#include <algorithm>
#include <optional>

#include "common/parallel_for.h"
#include "inputs.h"
#include "scenarios/constrained.h"
#include "scenarios/diversified.h"
#include "shard/sharded_index.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr std::size_t kTuples = 100000;
constexpr std::size_t kDim = 4;
constexpr std::size_t kShards = 4;
constexpr std::size_t kPlain = 300;
constexpr std::size_t kConstrained = 30;
constexpr std::size_t kDiversified = 6;
constexpr std::size_t kBatches = 4;
constexpr std::size_t kBatchSize = 32;
constexpr double kBoxSide = 0.4;
constexpr std::size_t kDiversifiedK = 10;
// Doubles the certified pool two or three times at this size.
constexpr double kLambda = 0.05;
constexpr std::size_t kSampleStride = 10;

enum class Kind { kPlain, kConstrained, kDiversified, kBatch };

struct Op {
  Kind kind = Kind::kPlain;
  std::size_t index = 0;
};

}  // namespace

Result RunSharded(const Args& args) {
  // Same data stream as dlplus-d4: the same relation for the same seed.
  Rng data_rng(DeriveSeed(args.seed, 1));
  const drli::PointSet points = Anticorrelated(kTuples, kDim, data_rng);
  const oracle::Table table = TableOf(points);

  Rng query_rng(DeriveSeed(args.seed, 3));
  auto make_query = [&](std::size_t i) {
    drli::TopKQuery q;
    q.weights = SimplexWeights(kDim, query_rng);
    q.k = i % 2 == 0 ? 10 : 100;
    return q;
  };
  std::vector<drli::TopKQuery> plain;
  for (std::size_t i = 0; i < kPlain; ++i) plain.push_back(make_query(i));
  std::vector<drli::ConstrainedQuery> constrained;
  for (std::size_t i = 0; i < kConstrained; ++i) {
    drli::ConstrainedQuery q;
    q.weights = SimplexWeights(kDim, query_rng);
    q.k = i % 2 == 0 ? 10 : 100;
    q.box = RandomBox(kDim, kBoxSide, query_rng);
    constrained.push_back(q);
  }
  std::vector<drli::DiversifiedQuery> diversified;
  for (std::size_t i = 0; i < kDiversified; ++i) {
    drli::DiversifiedQuery q;
    q.weights = SimplexWeights(kDim, query_rng);
    q.k = kDiversifiedK;
    q.lambda = kLambda;
    diversified.push_back(q);
  }
  std::vector<std::vector<drli::TopKQuery>> batches(kBatches);
  for (auto& batch : batches) {
    for (std::size_t i = 0; i < kBatchSize; ++i) batch.push_back(make_query(i));
  }
  std::vector<Op> round;
  for (std::size_t i = 0; i < kPlain; ++i) round.push_back({Kind::kPlain, i});
  for (std::size_t i = 0; i < kConstrained; ++i) {
    round.push_back({Kind::kConstrained, i});
  }
  for (std::size_t i = 0; i < kDiversified; ++i) {
    round.push_back({Kind::kDiversified, i});
  }
  for (std::size_t i = 0; i < kBatches; ++i) round.push_back({Kind::kBatch, i});
  Shuffle(round, query_rng);
  const std::size_t sample_offset = query_rng.Below(kSampleStride);

  // Set-up: partition and the parallel per-shard DL+ builds.
  drli::PointSet build_input = points;
  drli::ShardedBuildOptions options;
  options.num_shards = kShards;
  options.partitioner = drli::ShardPartitioner::kHyperplane;
  options.shard_options.build_zero_layer = true;
  trace::SetEnabled(args.trace);
  const std::int64_t setup_start = trace::NowNs();
  std::optional<drli::ShardedDualLayerIndex> index;
  {
    trace::Op setup("setup");
    trace::Scope span("shard.Build");
    index.emplace(
        drli::ShardedDualLayerIndex::Build(std::move(build_input), options));
  }
  const double setup_s =
      static_cast<double>(trace::NowNs() - setup_start) * 1e-9;
  trace::SetEnabled(false);

  const std::size_t workers =
      std::min(drli::ParallelThreadCount(), kBatchSize);
  Failures failures;
  Latencies lat;
  std::uint64_t counted_queries = 0;
  std::uint64_t counted_tuples = 0;
  auto count = [&](bool counted, std::size_t tuples) {
    if (!counted) return;
    ++counted_queries;
    counted_tuples += tuples;
  };
  auto elapsed_us = [](std::int64_t start) {
    return static_cast<double>(trace::NowNs() - start) * 1e-3;
  };

  auto run = [&](const Op& op, bool measured, bool counted, bool check) {
    switch (op.kind) {
      case Kind::kPlain: {
        const drli::TopKQuery& q = plain[op.index];
        trace::Op span_op("op.query");
        const std::int64_t start = trace::NowNs();
        drli::TopKResult r;
        {
          trace::Scope span("shard.Query");
          r = index->Query(q);
          span.Counts(r.stats.tuples_evaluated, r.stats.shards_touched);
        }
        if (measured) lat.query_us.push_back(elapsed_us(start));
        count(counted, r.stats.tuples_evaluated);
        failures.Check(CheckPlainShape(r, q.k, kTuples, kTuples), "query");
        if (check) {
          failures.Check(oracle::CheckTopK(table, q.weights.data(), q.k,
                                           nullptr, ItemsOf(r)),
                         "query oracle");
        }
        break;
      }
      case Kind::kConstrained: {
        const drli::ConstrainedQuery& q = constrained[op.index];
        trace::Op span_op("op.constrained");
        const std::int64_t start = trace::NowNs();
        drli::TopKResult r;
        {
          trace::Scope span("scenarios.ConstrainedTopK");
          r = drli::ConstrainedTopK(*index, q);
          span.Counts(r.stats.tuples_evaluated, r.stats.boxes_pruned);
        }
        if (measured) lat.query_us.push_back(elapsed_us(start));
        count(counted, r.stats.tuples_evaluated);
        failures.Check(CheckConstrainedShape(r, q.k, kTuples), "constrained");
        if (check) {
          const oracle::Box box = BoxOf(q.box);
          failures.Check(oracle::CheckTopK(table, q.weights.data(), q.k, &box,
                                           ItemsOf(r)),
                         "constrained oracle");
        }
        break;
      }
      case Kind::kDiversified: {
        const drli::DiversifiedQuery& q = diversified[op.index];
        trace::Op span_op("op.diversified");
        const std::int64_t start = trace::NowNs();
        drli::DiversifiedResult r;
        {
          trace::Scope span("scenarios.DiversifiedTopK");
          r = drli::DiversifiedTopK(*index, points, q);
          span.Counts(r.stats.tuples_evaluated, r.pool_size);
        }
        if (measured) lat.query_us.push_back(elapsed_us(start));
        count(counted, r.stats.tuples_evaluated);
        if (!r.complete() || r.certified_prefix != r.picks.size()) {
          failures.Fail("diversified: incomplete answer " + r.error);
        } else if (r.stats.tuples_evaluated < r.picks.size()) {
          failures.Fail("diversified: fewer tuples evaluated than picked");
        }
        if (check) {
          failures.Check(oracle::CheckDiversified(table, q.weights.data(), q.k,
                                                  q.lambda, PicksOf(r)),
                         "diversified oracle");
        }
        break;
      }
      case Kind::kBatch: {
        const auto& batch = batches[op.index];
        trace::Op span_op("op.batch");
        const std::int64_t start = trace::NowNs();
        std::vector<drli::TopKResult> rs;
        {
          trace::Scope span("shard.QueryBatch");
          rs = index->QueryBatch(batch);
          double query_s = 0.0;
          for (const auto& r : rs) query_s += r.stats.elapsed_seconds;
          span.Counts(0, static_cast<std::uint64_t>(query_s * 1e9));
        }
        if (measured) lat.batch_us.push_back(elapsed_us(start));
        for (std::size_t j = 0; j < batch.size(); ++j) {
          count(counted, rs[j].stats.tuples_evaluated);
          failures.Check(CheckPlainShape(rs[j], batch[j].k, kTuples, kTuples),
                         "batch");
          if (check) {
            failures.Check(oracle::CheckTopK(table, batch[j].weights.data(),
                                             batch[j].k, nullptr,
                                             ItemsOf(rs[j])),
                           "batch oracle");
          }
        }
        break;
      }
    }
  };

  RoundLoop loop(args);
  while (loop.Begin()) {
    for (std::size_t i = 0; i < round.size(); ++i) {
      // Every constrained, diversified and batch operation is in the
      // sample; plain queries every kSampleStride-th.
      const bool check =
          loop.warmup() && (round[i].kind != Kind::kPlain ||
                            i % kSampleStride == sample_offset);
      run(round[i], loop.measured(), loop.counted(), check);
    }
    loop.End(round.size());
  }
  // The sample again on the warm index, one operation of each kind
  // after the stream.
  for (const Kind kind : {Kind::kPlain, Kind::kConstrained,
                          Kind::kDiversified, Kind::kBatch}) {
    run({kind, 0}, false, false, true);
  }

  Result result;
  result.attempted = loop.round() * round.size();
  result.failed = failures.count();
  const double tuples_per_query =
      static_cast<double>(counted_tuples) / static_cast<double>(counted_queries);
  const auto stats = FinishRun(args, loop, lat, 1, setup_s,
                               tuples_per_query, &result);
  if (!args.trace) return result;
  auto& m = result.metrics;
  const drli::ShardedBuildStats& build = index->build_stats();
  m["shard.partition_s"] = build.partition_seconds;
  m["shard.build_wall_s"] = build.build_wall_seconds;
  m["shard.build_cpu_s"] = build.build_cpu_seconds;
  const trace::NameStats& q = trace::Find(stats, "shard.Query");
  const double queries = static_cast<double>(q.count);
  m["shard.query_us"] = q.median_us;
  m["shard.shards_touched_per_query"] = static_cast<double>(q.count_b) / queries;
  m["shard.tuples_per_query"] = static_cast<double>(q.count_a) / queries;
  m["shard.ns_per_tuple"] = q.total_s * 1e9 / static_cast<double>(q.count_a);
  const trace::NameStats& b = trace::Find(stats, "shard.QueryBatch");
  m["shard.batch_efficiency"] = static_cast<double>(b.count_b) * 1e-9 /
                                (b.total_s * static_cast<double>(workers));
  const trace::NameStats& c = trace::Find(stats, "scenarios.ConstrainedTopK");
  m["scenarios.constrained_us"] = c.median_us;
  m["scenarios.constrained_tuples_per_query"] =
      static_cast<double>(c.count_a) / static_cast<double>(c.count);
  m["scenarios.boxes_pruned_per_query"] =
      static_cast<double>(c.count_b) / static_cast<double>(c.count);
  const trace::NameStats& d = trace::Find(stats, "scenarios.DiversifiedTopK");
  m["scenarios.diversified_us"] = d.median_us;
  m["scenarios.diversified_tuples_per_query"] =
      static_cast<double>(d.count_a) / static_cast<double>(d.count);
  m["scenarios.diversified_pool_size"] =
      static_cast<double>(d.count_b) / static_cast<double>(d.count);
  m["scenarios.pool_yield"] =
      static_cast<double>(d.count_b) / static_cast<double>(d.count_a);
  return result;
}

}  // namespace e2e
