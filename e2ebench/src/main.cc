// drli_e2ebench: one workload of the end-to-end benchmark per process.
//
//   drli_e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   drli_e2ebench --self-test
//
// Prints progress and the traced breakdown on stderr, and as the last
// line of stdout one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status 0 when every operation succeeded and every checked answer
// matched the oracle, 1 otherwise, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.h"

namespace e2e {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports untraced (the ones
// BENCHMARK.json gates).
const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"tuples_per_query", "tuples"},
      {"peak_rss_mib", "MiB"},
  };
  return kMetrics;
}

// The per-layer metrics every workload reports traced; a workload whose
// stream does not reach a layer reports 0 for that layer's metrics.
const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      // core build (dlplus-d4)
      {"core.build_s", "s"},
      {"core.build.skyline_s", "s"},
      {"core.build.fine_peel_s", "s"},
      {"core.build.coarse_edge_s", "s"},
      {"core.build.zero_layer_s", "s"},
      {"core.build.finalize_s", "s"},
      {"core.build.eds_lp_calls", "count"},
      {"core.build.coarse_pairs_tested", "count"},
      // core query and batch (dlplus-d4)
      {"core.query_us", "us"},
      {"core.tuples_per_query", "tuples"},
      {"core.ns_per_tuple", "ns"},
      {"core.batch_wall_us", "us"},
      {"core.batch_query_sum_us", "us"},
      {"core.batch_efficiency", "ratio"},
      // shard (sharded-mix)
      {"shard.partition_s", "s"},
      {"shard.build_wall_s", "s"},
      {"shard.build_cpu_s", "s"},
      {"shard.query_us", "us"},
      {"shard.shards_touched_per_query", "count"},
      {"shard.tuples_per_query", "tuples"},
      {"shard.ns_per_tuple", "ns"},
      {"shard.batch_efficiency", "ratio"},
      // scenarios (sharded-mix)
      {"scenarios.constrained_us", "us"},
      {"scenarios.constrained_tuples_per_query", "tuples"},
      {"scenarios.boxes_pruned_per_query", "count"},
      {"scenarios.diversified_us", "us"},
      {"scenarios.diversified_tuples_per_query", "tuples"},
      {"scenarios.diversified_pool_size", "tuples"},
      {"scenarios.pool_yield", "ratio"},
      // tiered (tiered-rw)
      {"tiered.insert_us", "us"},
      {"tiered.insert_max_ms", "ms"},
      {"tiered.erase_us", "us"},
      {"tiered.seals", "count"},
      {"tiered.compactions", "count"},
      {"tiered.runs_at_end", "count"},
      {"tiered.query_us", "us"},
      {"tiered.runs_opened_per_query", "count"},
      {"tiered.ns_per_tuple", "ns"},
      {"tiered.batch_efficiency", "ratio"},
      // storage and server (served)
      {"storage.save_s", "s"},
      {"storage.snapshot_bytes", "bytes"},
      {"storage.load_s", "s"},
      {"server.start_s", "s"},
      {"server.roundtrip_us", "us"},
      {"server.engine_us", "us"},
      {"server.wire_us", "us"},
      {"server.batch_roundtrip_us", "us"},
      {"server.batch_engine_us", "us"},
      {"server.queries_served", "count"},
      // the stream's timings, from the untraced rounds (every workload)
      {"stream.ops_per_s", "ops/s"},
      {"stream.query_p50_us", "us"},
      {"stream.query_p99_us", "us"},
      {"stream.batch_p50_us", "us"},
      {"stream.tuples_per_query", "tuples"},
      // the traced run itself (every workload)
      {"trace.traced_ops_per_s", "ops/s"},
      {"trace.overhead_ops_per_s", "ops/s"},
      {"trace.op_span_share", "ratio"},
      {"trace.spans", "count"},
  };
  return kMetrics;
}

int Usage() {
  std::fprintf(stderr,
               "usage: drli_e2ebench --workload dlplus-d4|sharded-mix|"
               "tiered-rw|served --seed N --seconds S --trace 0|1\n"
               "       drli_e2ebench --self-test\n");
  return 2;
}

void PrintResult(const Result& result, bool trace) {
  const bool correct = result.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const auto& specs = trace ? PerLayerMetrics() : EndToEndMetrics();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = result.metrics.find(specs[i].name);
    double value = it == result.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "warning: %s is not finite\n", specs[i].name);
      value = 0.0;
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args args;
  bool self_test = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage();
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return Usage();
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      args.trace = value[0] == '1';
    } else {
      return Usage();
    }
  }

  // The oracle proves itself on every run, before any timing.
  const std::string oracle_problems = RunOracleSelfTest();
  if (!oracle_problems.empty()) {
    std::fprintf(stderr, "oracle self-test FAILED:\n%s", oracle_problems.c_str());
    return 1;
  }
  if (self_test) {
    std::fprintf(stderr, "oracle self-test passed\n");
    return 0;
  }
  if (!have_seed) return Usage();
  if (!MakeDirs(args.workdir)) {
    std::fprintf(stderr, "cannot create %s\n", args.workdir.c_str());
    return 2;
  }

  Result result;
  if (args.workload == "dlplus-d4") {
    result = RunDlplus(args);
  } else if (args.workload == "sharded-mix") {
    result = RunSharded(args);
  } else if (args.workload == "tiered-rw") {
    result = RunTiered(args);
  } else if (args.workload == "served") {
    result = RunServed(args);
  } else {
    return Usage();
  }
  std::fprintf(stderr, "%s seed %llu: attempted %llu, failed %llu\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed));
  PrintResult(result, args.trace);
  return result.failed == 0 && result.attempted > 0 ? 0 : 1;
}
