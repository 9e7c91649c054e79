// served: a v2 DL+ snapshot of anticorrelated 3-d tuples published into
// a serving directory and served by an in-process TopKServer (one event
// loop, two workers) to two closed-loop DrliClient connections that send
// single queries and small batch frames.

#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>
#include <unistd.h>

#include "core/dual_layer.h"
#include "core/serialization.h"
#include "inputs.h"
#include "server/client.h"
#include "server/server.h"
#include "server/serving_engine.h"
#include "workloads.h"

namespace e2e {
namespace {

namespace wire = drli::wire;

constexpr std::size_t kTuples = 20000;
constexpr std::size_t kDim = 3;
constexpr std::size_t kClients = 2;
// Per client and round.
constexpr std::size_t kSingles = 3000;
constexpr std::size_t kBatches = 48;
constexpr std::size_t kBatchSize = 16;
constexpr std::size_t kSampleStride = 50;

struct Op {
  bool batch = false;
  std::size_t index = 0;
};

// One closed-loop client: its connection, its fixed operation list, and
// what it measured.
struct Client {
  drli::server::DrliClient conn;
  std::vector<wire::WireQuery> singles;
  std::vector<std::vector<wire::WireQuery>> batches;
  std::vector<Op> round;
  Latencies lat;
  std::uint64_t counted_queries = 0;
  std::uint64_t counted_tuples = 0;
  std::uint64_t sent_queries = 0;  // as the server counts them
};

wire::WireQuery MakeQuery(std::size_t i, Rng& rng) {
  wire::WireQuery q;
  q.scenario = wire::Scenario::kPlain;
  q.weights = SimplexWeights(kDim, rng);
  q.k = i % 2 == 0 ? 10 : 100;
  return q;
}

drli::TopKQuery ToTopK(const wire::WireQuery& q) {
  drli::TopKQuery t;
  t.weights = q.weights;
  t.k = q.k;
  return t;
}

}  // namespace

Result RunServed(const Args& args) {
  Rng data_rng(DeriveSeed(args.seed, 8));
  const drli::PointSet points = Anticorrelated(kTuples, kDim, data_rng);
  const oracle::Table table = TableOf(points);

  Rng query_rng(DeriveSeed(args.seed, 9));
  std::vector<Client> clients(kClients);
  for (Client& c : clients) {
    for (std::size_t i = 0; i < kSingles; ++i) {
      c.singles.push_back(MakeQuery(i, query_rng));
    }
    c.batches.resize(kBatches);
    for (auto& batch : c.batches) {
      for (std::size_t i = 0; i < kBatchSize; ++i) {
        batch.push_back(MakeQuery(i, query_rng));
      }
    }
    for (std::size_t i = 0; i < kSingles; ++i) c.round.push_back({false, i});
    for (std::size_t i = 0; i < kBatches; ++i) c.round.push_back({true, i});
    Shuffle(c.round, query_rng);
  }
  const std::size_t sample_offset = query_rng.Below(kSampleStride);

  Result result;
  const std::string dir =
      args.workdir + "/served-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  if (!MakeDirs(dir)) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    result.failed = 1;
    return result;
  }
  const std::string snapshot = "gen-1.v2";
  const std::string path = dir + "/" + snapshot;

  // Set-up: build, save a v2 snapshot, publish it, start the server
  // (which mmap-loads the published generation).
  drli::PointSet build_input = points;
  drli::DualLayerOptions options;
  options.build_zero_layer = true;
  drli::server::ServerOptions server_options;
  server_options.num_loops = 1;
  server_options.num_workers = 2;
  drli::server::TopKServer server;
  Failures failures;
  trace::SetEnabled(args.trace);
  const std::int64_t setup_start = trace::NowNs();
  {
    trace::Op setup("setup");
    std::optional<drli::DualLayerIndex> built;
    {
      trace::Scope span("core.Build");
      built.emplace(drli::DualLayerIndex::Build(std::move(build_input), options));
    }
    drli::Status status;
    {
      trace::Scope span("storage.Save");
      status = drli::SaveDualLayerIndex(*built, path);
    }
    if (status.ok()) {
      trace::Scope span("server.Publish");
      status = drli::server::PublishSnapshot(dir, snapshot);
    }
    if (status.ok()) {
      trace::Scope span("server.Start");
      status = server.Start(dir, server_options);
    }
    if (!status.ok()) {
      failures.Fail("set-up: " + status.ToString());
      result.failed = failures.count();
      std::filesystem::remove_all(dir);
      return result;
    }
  }
  const double setup_s =
      static_cast<double>(trace::NowNs() - setup_start) * 1e-9;

  // The same snapshot mmap-loaded in-process: checked against the
  // oracle, and the in-process side of the wire comparison.
  std::optional<drli::DualLayerIndex> engine;
  {
    trace::Op load_op("load");
    trace::Scope span("storage.Load");
    auto loaded = drli::LoadDualLayerIndex(path);
    if (loaded.ok()) {
      engine.emplace(std::move(loaded).value());
    } else {
      failures.Fail("load: " + loaded.status().ToString());
    }
  }
  trace::SetEnabled(false);
  const double snapshot_bytes =
      static_cast<double>(std::filesystem::file_size(path));

  for (Client& c : clients) {
    const drli::Status status = c.conn.Connect("127.0.0.1", server.port());
    if (!status.ok()) failures.Fail("connect: " + status.ToString());
  }
  if (failures.count() > 0 || !engine.has_value()) {
    server.Shutdown();
    std::filesystem::remove_all(dir);
    result.failed = failures.count();
    return result;
  }
  auto health = [&]() -> std::uint64_t {
    auto h = clients[0].conn.Health();
    if (!h.ok()) {
      failures.Fail("health: " + h.status().ToString());
      return 0;
    }
    return h.value().queries_served;
  };
  const std::uint64_t served_before = health();

  auto check_wire = [&](const wire::WireQuery& q, const wire::WireResult& r,
                        const char* what) {
    failures.Check(oracle::CheckTopK(table, q.weights.data(), q.k, nullptr,
                                     ItemsOf(r)),
                   what);
  };
  auto run = [&](Client& c, const Op& op, bool measured, bool counted,
                 bool check) {
    if (!op.batch) {
      const wire::WireQuery& q = c.singles[op.index];
      trace::Op span_op("op.query");
      const std::int64_t start = trace::NowNs();
      drli::StatusOr<wire::WireResult> r = drli::Status::Internal("unsent");
      {
        trace::Scope span("client.Query");
        r = c.conn.Query(q);
      }
      const std::int64_t end = trace::NowNs();
      c.sent_queries += 1;
      if (!r.ok()) {
        failures.Fail("query: " + r.status().ToString());
        return;
      }
      if (measured) c.lat.query_us.push_back(static_cast<double>(end - start) * 1e-3);
      if (counted) {
        ++c.counted_queries;
        c.counted_tuples += r.value().tuples_evaluated;
      }
      failures.Check(CheckWireShape(r.value(), q.k, kTuples, kTuples), "query");
      if (check) check_wire(q, r.value(), "query oracle");
      return;
    }
    const auto& batch = c.batches[op.index];
    trace::Op span_op("op.batch");
    const std::int64_t start = trace::NowNs();
    drli::StatusOr<std::vector<wire::WireResult>> rs =
        drli::Status::Internal("unsent");
    {
      trace::Scope span("client.Batch");
      rs = c.conn.Batch(batch);
    }
    const std::int64_t end = trace::NowNs();
    c.sent_queries += batch.size();
    if (!rs.ok() || rs.value().size() != batch.size()) {
      failures.Fail("batch: " + rs.status().ToString());
      return;
    }
    if (measured) c.lat.batch_us.push_back(static_cast<double>(end - start) * 1e-3);
    for (std::size_t j = 0; j < batch.size(); ++j) {
      const wire::WireResult& r = rs.value()[j];
      if (counted) {
        ++c.counted_queries;
        c.counted_tuples += r.tuples_evaluated;
      }
      failures.Check(CheckWireShape(r, batch[j].k, kTuples, kTuples), "batch");
      if (check) check_wire(batch[j], r, "batch oracle");
    }
  };

  RoundLoop loop(args);
  while (loop.Begin()) {
    const bool warmup = loop.warmup();
    const bool measured = loop.measured();
    const bool counted = loop.counted();
    std::vector<std::thread> threads;
    for (Client& c : clients) {
      threads.emplace_back([&, warmup, measured, counted] {
        for (std::size_t i = 0; i < c.round.size(); ++i) {
          run(c, c.round[i], measured, counted,
              warmup && i % kSampleStride == sample_offset);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    loop.End(kClients * clients[0].round.size());
  }
  const std::uint64_t served_after = health();
  std::uint64_t sent = 0;
  for (const Client& c : clients) sent += c.sent_queries;
  if (served_after - served_before != sent) {
    failures.Fail("server counted " +
                  std::to_string(served_after - served_before) +
                  " queries served, the clients sent " + std::to_string(sent));
  }
  const drli::server::ServerCounters counters = server.counters();
  if (counters.queries_shed != 0) {
    failures.Fail(std::to_string(counters.queries_shed) + " queries shed");
  }
  // The oracle sample once more over the wire after the stream, and on
  // the in-process mmap-loaded snapshot.
  for (std::size_t i = sample_offset; i < clients[0].round.size();
       i += kSampleStride) {
    run(clients[0], clients[0].round[i], false, false, true);
  }
  for (std::size_t i = sample_offset; i < kSingles; i += kSampleStride) {
    const wire::WireQuery& q = clients[0].singles[i];
    const drli::TopKResult r = engine->Query(ToTopK(q));
    failures.Check(CheckPlainShape(r, q.k, kTuples, kTuples), "mmap query");
    failures.Check(oracle::CheckTopK(table, q.weights.data(), q.k, nullptr,
                                     ItemsOf(r)),
                   "mmap query oracle");
  }

  // In-process engine side of the wire comparison: the same queries
  // and batches on the same snapshot, outside the stream.
  if (args.trace) {
    trace::SetEnabled(true);
    for (const Client& c : clients) {
      for (const wire::WireQuery& q : c.singles) {
        const drli::TopKQuery t = ToTopK(q);
        trace::Op op("compare.query");
        trace::Scope span("engine.Query");
        engine->Query(t);
      }
      for (const auto& batch : c.batches) {
        std::vector<drli::TopKQuery> ts;
        for (const wire::WireQuery& q : batch) ts.push_back(ToTopK(q));
        trace::Op op("compare.batch");
        trace::Scope span("engine.QueryBatch");
        engine->QueryBatch(ts);
      }
    }
    trace::SetEnabled(false);
  }

  for (Client& c : clients) c.conn.Close();
  server.Shutdown();
  engine.reset();
  std::filesystem::remove_all(dir);

  Latencies lat;
  std::uint64_t counted_queries = 0;
  std::uint64_t counted_tuples = 0;
  for (const Client& c : clients) {
    lat.Merge(c.lat);
    counted_queries += c.counted_queries;
    counted_tuples += c.counted_tuples;
  }
  result.attempted = loop.round() * kClients * clients[0].round.size();
  result.failed = failures.count();
  const double tuples_per_query =
      static_cast<double>(counted_tuples) / static_cast<double>(counted_queries);
  const auto stats = FinishRun(args, loop, lat, kClients, setup_s,
                               tuples_per_query, &result);
  if (!args.trace) return result;
  auto& m = result.metrics;
  m["storage.save_s"] = trace::Find(stats, "storage.Save").total_s;
  m["storage.snapshot_bytes"] = snapshot_bytes;
  m["storage.load_s"] = trace::Find(stats, "storage.Load").total_s;
  m["server.start_s"] = trace::Find(stats, "server.Start").total_s;
  const double roundtrip = trace::Find(stats, "client.Query").median_us;
  const double engine_us = trace::Find(stats, "engine.Query").median_us;
  m["server.roundtrip_us"] = roundtrip;
  m["server.engine_us"] = engine_us;
  m["server.wire_us"] = roundtrip - engine_us;
  m["server.batch_roundtrip_us"] = trace::Find(stats, "client.Batch").median_us;
  m["server.batch_engine_us"] =
      trace::Find(stats, "engine.QueryBatch").median_us;
  m["server.queries_served"] =
      static_cast<double>(served_after - served_before);
  if (roundtrip < engine_us) {
    std::fprintf(stderr, "warning: wire round trip below the engine time\n");
  }
  return result;
}

}  // namespace e2e
