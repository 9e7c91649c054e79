// tiered-rw: a TieredDualLayerIndex (default options) bulk-started with
// anticorrelated 4-d tuples, then a seeded stream of about 80% queries,
// 15% inserts and 5% erases of live ids (ids the stream inserted), plus
// small batches. The benchmark keeps a live-id mirror of the relation for
// the oracle.

#include <algorithm>
#include <optional>

#include "common/parallel_for.h"
#include "core/tiered_index.h"
#include "inputs.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr std::size_t kInitial = 50000;
constexpr std::size_t kDim = 4;
constexpr std::size_t kQueries = 640;
constexpr std::size_t kInserts = 120;
constexpr std::size_t kErases = 40;
constexpr std::size_t kBatches = 10;
constexpr std::size_t kBatchSize = 16;
constexpr std::size_t kSampleStride = 8;

enum class Kind { kQuery, kInsert, kErase, kBatch };

struct Op {
  Kind kind = Kind::kQuery;
  std::size_t index = 0;
};

}  // namespace

Result RunTiered(const Args& args) {
  Rng data_rng(DeriveSeed(args.seed, 4));
  const drli::PointSet initial = Anticorrelated(kInitial, kDim, data_rng);
  oracle::Table mirror = TableOf(initial);

  Rng query_rng(DeriveSeed(args.seed, 5));
  auto make_query = [&](std::size_t i) {
    drli::TopKQuery q;
    q.weights = SimplexWeights(kDim, query_rng);
    q.k = i % 2 == 0 ? 10 : 100;
    return q;
  };
  std::vector<drli::TopKQuery> queries;
  for (std::size_t i = 0; i < kQueries; ++i) queries.push_back(make_query(i));
  std::vector<std::vector<drli::TopKQuery>> batches(kBatches);
  for (auto& batch : batches) {
    for (std::size_t i = 0; i < kBatchSize; ++i) batch.push_back(make_query(i));
  }
  std::vector<Op> round;
  for (std::size_t i = 0; i < kQueries; ++i) round.push_back({Kind::kQuery, i});
  for (std::size_t i = 0; i < kInserts; ++i) round.push_back({Kind::kInsert, i});
  for (std::size_t i = 0; i < kErases; ++i) round.push_back({Kind::kErase, i});
  for (std::size_t i = 0; i < kBatches; ++i) round.push_back({Kind::kBatch, i});
  Shuffle(round, query_rng);
  // Erases take ids the stream inserted. Where the shuffle puts an erase
  // before any insert it could take, swap it with the next insert, so no
  // erase ever waits on the bulk-started ids.
  std::size_t pending = 0;
  for (std::size_t i = 0; i < round.size(); ++i) {
    if (round[i].kind == Kind::kErase && pending == 0) {
      std::size_t j = i + 1;
      while (round[j].kind != Kind::kInsert) ++j;
      std::swap(round[i], round[j]);
    }
    if (round[i].kind == Kind::kInsert) ++pending;
    if (round[i].kind == Kind::kErase) --pending;
  }
  const std::size_t sample_offset = query_rng.Below(kSampleStride);
  // Inserted tuples and erase targets come from their own streams, drawn
  // as the stream runs; both are fixed by the seed.
  Rng insert_rng(DeriveSeed(args.seed, 6));
  Rng erase_rng(DeriveSeed(args.seed, 7));
  Failures failures;

  // Set-up: the bulk start builds one run over the initial tuples.
  drli::PointSet build_input = initial;
  trace::SetEnabled(args.trace);
  const std::int64_t setup_start = trace::NowNs();
  std::optional<drli::TieredDualLayerIndex> index;
  {
    trace::Op setup("setup");
    trace::Scope span("tiered.Build");
    index.emplace(std::move(build_input));
  }
  const double setup_s =
      static_cast<double>(trace::NowNs() - setup_start) * 1e-9;
  trace::SetEnabled(false);

  const std::size_t workers =
      std::min(drli::ParallelThreadCount(), kBatchSize);
  Latencies lat;
  std::uint64_t counted_queries = 0;
  std::uint64_t counted_tuples = 0;
  std::uint64_t inserted = 0;
  std::uint64_t erased = 0;
  // Ids inserted by the stream and still live: the erase candidates.
  // Stream deletes churn recent data, whose tombstones compaction clears,
  // so the bulk run gathers no tombstones and the per-round cost does not
  // grow with the length of the run.
  std::vector<drli::TupleId> erasable;
  auto elapsed_us = [](std::int64_t start) {
    return static_cast<double>(trace::NowNs() - start) * 1e-3;
  };
  auto check_query = [&](const drli::TopKQuery& q, const drli::TopKResult& r,
                         const char* what) {
    failures.Check(oracle::CheckTopK(mirror, q.weights.data(), q.k, nullptr,
                                     ItemsOf(r)),
                   what);
  };

  auto run = [&](const Op& op, bool measured, bool counted, bool check) {
    switch (op.kind) {
      case Kind::kQuery: {
        const drli::TopKQuery& q = queries[op.index];
        trace::Op span_op("op.query");
        const std::int64_t start = trace::NowNs();
        drli::TopKResult r;
        {
          trace::Scope span("tiered.Query");
          r = index->Query(q);
          span.Counts(r.stats.tuples_evaluated, r.stats.runs_opened);
        }
        if (measured) lat.query_us.push_back(elapsed_us(start));
        if (counted) {
          ++counted_queries;
          counted_tuples += r.stats.tuples_evaluated;
        }
        failures.Check(CheckPlainShape(r, q.k, mirror.live_count(),
                                       mirror.rows()),
                       "query");
        if (check) check_query(q, r, "query oracle");
        break;
      }
      case Kind::kInsert: {
        const drli::Point tuple = AnticorrelatedTuple(kDim, insert_rng);
        trace::Op span_op("op.insert");
        drli::TupleId id;
        {
          trace::Scope span("tiered.Insert");
          id = index->Insert(tuple);
        }
        ++inserted;
        if (id != mirror.Append(tuple.data())) {
          failures.Fail("insert: id " + std::to_string(id) +
                        " is not the next id");
        }
        erasable.push_back(id);
        break;
      }
      case Kind::kErase: {
        // Never empty: the round order puts an insert before each erase.
        const std::size_t pick = erase_rng.Below(erasable.size());
        const drli::TupleId id = erasable[pick];
        erasable[pick] = erasable.back();
        erasable.pop_back();
        trace::Op span_op("op.erase");
        bool ok;
        {
          trace::Scope span("tiered.Erase");
          ok = index->Erase(id);
        }
        ++erased;
        mirror.Erase(id);
        if (!ok) failures.Fail("erase: live id " + std::to_string(id) + " refused");
        break;
      }
      case Kind::kBatch: {
        const auto& batch = batches[op.index];
        trace::Op span_op("op.batch");
        const std::int64_t start = trace::NowNs();
        std::vector<drli::TopKResult> rs;
        {
          trace::Scope span("tiered.QueryBatch");
          rs = index->QueryBatch(batch);
          double query_s = 0.0;
          for (const auto& r : rs) query_s += r.stats.elapsed_seconds;
          span.Counts(0, static_cast<std::uint64_t>(query_s * 1e9));
        }
        if (measured) lat.batch_us.push_back(elapsed_us(start));
        for (std::size_t j = 0; j < batch.size(); ++j) {
          if (counted) {
            ++counted_queries;
            counted_tuples += rs[j].stats.tuples_evaluated;
          }
          failures.Check(CheckPlainShape(rs[j], batch[j].k,
                                         mirror.live_count(), mirror.rows()),
                         "batch");
          if (check) check_query(batch[j], rs[j], "batch oracle");
        }
        break;
      }
    }
  };
  // Between rounds, untimed: one query against the oracle and the live
  // count against the mirror.
  auto check_state = [&](std::size_t round_index) {
    const drli::TopKQuery& q = queries[round_index % kQueries];
    check_query(q, index->Query(q), "between-round oracle");
    if (index->size() != mirror.live_count()) {
      failures.Fail("size " + std::to_string(index->size()) + ", mirror " +
                    std::to_string(mirror.live_count()));
    }
  };

  RoundLoop loop(args);
  while (loop.Begin()) {
    for (std::size_t i = 0; i < round.size(); ++i) {
      const bool check =
          loop.warmup() && (round[i].kind == Kind::kBatch ||
                            i % kSampleStride == sample_offset);
      run(round[i], loop.measured(), loop.counted(), check);
    }
    loop.End(round.size());
    check_state(loop.round());
  }
  const std::uint64_t expected_size = kInitial + inserted - erased;
  if (index->size() != expected_size) {
    failures.Fail("size after the stream " + std::to_string(index->size()) +
                  ", expected " + std::to_string(expected_size));
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
  const trace::NameStats& ins = trace::Find(stats, "tiered.Insert");
  m["tiered.insert_us"] = ins.median_us;
  m["tiered.insert_max_ms"] = ins.max_us * 1e-3;
  m["tiered.erase_us"] = trace::Find(stats, "tiered.Erase").median_us;
  m["tiered.seals"] = static_cast<double>(index->seal_count());
  m["tiered.compactions"] = static_cast<double>(index->compaction_count());
  m["tiered.runs_at_end"] = static_cast<double>(index->num_runs());
  const trace::NameStats& q = trace::Find(stats, "tiered.Query");
  m["tiered.query_us"] = q.median_us;
  m["tiered.runs_opened_per_query"] =
      static_cast<double>(q.count_b) / static_cast<double>(q.count);
  m["tiered.ns_per_tuple"] = q.total_s * 1e9 / static_cast<double>(q.count_a);
  const trace::NameStats& b = trace::Find(stats, "tiered.QueryBatch");
  m["tiered.batch_efficiency"] = static_cast<double>(b.count_b) * 1e-9 /
                                 (b.total_s * static_cast<double>(workers));
  return result;
}

}  // namespace e2e
