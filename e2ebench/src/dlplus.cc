// dlplus-d4: one flat DL+ index (zero layer on) over anticorrelated 4-d
// tuples. A single client sends top-k queries and small QueryBatch
// calls. No shard, run merge or wire is on the path.

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common/parallel_for.h"
#include "core/dual_layer.h"
#include "inputs.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr std::size_t kTuples = 100000;
constexpr std::size_t kDim = 4;
constexpr std::size_t kSingles = 4000;
constexpr std::size_t kBatches = 32;
constexpr std::size_t kBatchSize = 64;
// Oracle sample: every kSampleStride-th operation of the round.
constexpr std::size_t kSampleStride = 40;

struct Op {
  bool batch = false;
  std::size_t index = 0;
};

drli::TopKQuery MakeQuery(std::size_t i, Rng& rng) {
  drli::TopKQuery q;
  q.weights = SimplexWeights(kDim, rng);
  q.k = i % 2 == 0 ? 10 : 100;
  return q;
}

}  // namespace

Result RunDlplus(const Args& args) {
  Rng data_rng(DeriveSeed(args.seed, 1));
  const drli::PointSet points = Anticorrelated(kTuples, kDim, data_rng);
  const oracle::Table table = TableOf(points);

  Rng query_rng(DeriveSeed(args.seed, 2));
  std::vector<drli::TopKQuery> singles;
  for (std::size_t i = 0; i < kSingles; ++i) {
    singles.push_back(MakeQuery(i, query_rng));
  }
  std::vector<std::vector<drli::TopKQuery>> batches(kBatches);
  for (auto& batch : batches) {
    for (std::size_t i = 0; i < kBatchSize; ++i) {
      batch.push_back(MakeQuery(i, query_rng));
    }
  }
  std::vector<Op> round;
  for (std::size_t i = 0; i < kSingles; ++i) round.push_back({false, i});
  for (std::size_t i = 0; i < kBatches; ++i) round.push_back({true, i});
  Shuffle(round, query_rng);
  const std::size_t sample_offset = query_rng.Below(kSampleStride);

  // Set-up: the DL+ build.
  drli::PointSet build_input = points;
  drli::DualLayerOptions options;
  options.build_zero_layer = true;
  trace::SetEnabled(args.trace);
  const std::int64_t setup_start = trace::NowNs();
  std::optional<drli::DualLayerIndex> index;
  {
    trace::Op setup("setup");
    trace::Scope span("core.Build");
    index.emplace(drli::DualLayerIndex::Build(std::move(build_input), options));
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

  auto run_single = [&](const drli::TopKQuery& q, bool measured, bool counted,
                        bool check) {
    trace::Op op("op.query");
    const std::int64_t start = trace::NowNs();
    drli::TopKResult r;
    {
      trace::Scope span("core.Query");
      r = index->Query(q);
      span.Counts(r.stats.tuples_evaluated);
    }
    const std::int64_t end = trace::NowNs();
    if (measured) lat.query_us.push_back(static_cast<double>(end - start) * 1e-3);
    if (counted) {
      ++counted_queries;
      counted_tuples += r.stats.tuples_evaluated;
    }
    failures.Check(CheckPlainShape(r, q.k, kTuples, kTuples), "query");
    if (check) {
      failures.Check(oracle::CheckTopK(table, q.weights.data(), q.k, nullptr,
                                       ItemsOf(r)),
                     "query oracle");
    }
  };
  auto run_batch = [&](const std::vector<drli::TopKQuery>& batch,
                       bool measured, bool counted, bool check) {
    trace::Op op("op.batch");
    const std::int64_t start = trace::NowNs();
    std::vector<drli::TopKResult> rs;
    {
      trace::Scope span("core.QueryBatch");
      rs = index->QueryBatch(batch);
      // count_a: tuples evaluated; count_b: per-query seconds summed, ns.
      std::uint64_t tuples = 0;
      double query_s = 0.0;
      for (const auto& r : rs) {
        tuples += r.stats.tuples_evaluated;
        query_s += r.stats.elapsed_seconds;
      }
      span.Counts(tuples, static_cast<std::uint64_t>(query_s * 1e9));
    }
    const std::int64_t end = trace::NowNs();
    if (measured) lat.batch_us.push_back(static_cast<double>(end - start) * 1e-3);
    for (std::size_t j = 0; j < batch.size(); ++j) {
      if (counted) {
        ++counted_queries;
        counted_tuples += rs[j].stats.tuples_evaluated;
      }
      failures.Check(CheckPlainShape(rs[j], batch[j].k, kTuples, kTuples),
                     "batch");
      if (check) {
        failures.Check(oracle::CheckTopK(table, batch[j].weights.data(),
                                         batch[j].k, nullptr, ItemsOf(rs[j])),
                       "batch oracle");
      }
    }
  };

  RoundLoop loop(args);
  while (loop.Begin()) {
    for (std::size_t i = 0; i < round.size(); ++i) {
      const bool check = loop.warmup() && i % kSampleStride == sample_offset;
      if (round[i].batch) {
        run_batch(batches[round[i].index], loop.measured(), loop.counted(),
                  check);
      } else {
        run_single(singles[round[i].index], loop.measured(), loop.counted(),
                   check);
      }
    }
    loop.End(round.size());
  }
  // The same sample again, on the warm index after the stream.
  for (std::size_t i = sample_offset; i < round.size(); i += kSampleStride) {
    if (round[i].batch) {
      run_batch(batches[round[i].index], false, false, true);
    } else {
      run_single(singles[round[i].index], false, false, true);
    }
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
  const drli::DualLayerBuildStats& build = index->build_stats();
  m["core.build_s"] = trace::Find(stats, "core.Build").total_s;
  m["core.build.skyline_s"] = build.skyline_seconds;
  m["core.build.fine_peel_s"] = build.fine_peel_seconds;
  m["core.build.coarse_edge_s"] = build.coarse_edge_seconds;
  m["core.build.zero_layer_s"] = build.zero_layer_seconds;
  m["core.build.finalize_s"] = build.finalize_seconds;
  m["core.build.eds_lp_calls"] = static_cast<double>(build.eds_lp_calls);
  m["core.build.coarse_pairs_tested"] =
      static_cast<double>(build.coarse_pairs_tested);
  const trace::NameStats& q = trace::Find(stats, "core.Query");
  m["core.query_us"] = q.median_us;
  m["core.tuples_per_query"] =
      static_cast<double>(q.count_a) / static_cast<double>(q.count);
  m["core.ns_per_tuple"] = q.total_s * 1e9 / static_cast<double>(q.count_a);
  const trace::NameStats& b = trace::Find(stats, "core.QueryBatch");
  m["core.batch_wall_us"] = b.median_us;
  m["core.batch_query_sum_us"] =
      static_cast<double>(b.count_b) * 1e-3 / static_cast<double>(b.count);
  m["core.batch_efficiency"] = static_cast<double>(b.count_b) * 1e-9 /
                               (b.total_s * static_cast<double>(workers));
  return result;
}

}  // namespace e2e
