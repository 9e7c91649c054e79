// Shared pieces of the four workloads: arguments, the round loop that
// paces a closed-loop stream, latency and rate summaries, answer-shape
// checks, and the adaptors from library answers to the oracle's items.

#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/point.h"
#include "oracle.h"
#include "scenarios/diversified.h"
#include "scenarios/scenario_box.h"
#include "server/protocol.h"
#include "topk/query.h"
#include "trace.h"

namespace e2e {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory for snapshots and trace files, relative to the checkout.
  std::string workdir = ".bench_build/run";
};

// What a workload hands back: operation counts and metric values by
// name (end-to-end names untraced, per-layer names traced).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
};

// Counts failed operations; prints the first few reasons to stderr.
// Safe to call from several client threads.
class Failures {
 public:
  void Fail(const std::string& what);
  // Fails when `problem` is non-empty.
  void Check(const std::string& problem, const char* op) {
    if (!problem.empty()) Fail(std::string(op) + ": " + problem);
  }
  std::uint64_t count() const { return count_.load(); }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::mutex print_mu_;
};

// Paces the stream in rounds, each the same fixed list of operations
// (tiered-rw draws fresh writes per round, in a fixed make-up).
//  * Round 0 warms caches and scratches and runs the oracle sample; it
//    is not timed.
//  * Rounds 1.. are timed. The stream stops after the first round that
//    ends once `seconds` of timed rounds have passed, and never before
//    kMinRounds rounds, so every run attempts whole rounds.
//  * Rounds [0, kCountedRounds) feed the exact counters
//    (tuples_per_query), which therefore repeat for a fixed seed.
//  * With tracing, odd timed rounds record spans and even ones do not;
//    the two rate medians give the tracing overhead.
//  * Peak RSS is read at the end of the last counted round, so it does
//    not depend on how many rounds fit in `seconds`.
class RoundLoop {
 public:
  static constexpr std::size_t kMinRounds = 16;
  static constexpr std::size_t kCountedRounds = 16;
  static_assert(kCountedRounds <= kMinRounds,
                "every run completes the counted rounds");

  explicit RoundLoop(const Args& args) : args_(args) {}

  // Starts the next round; false when the stream is over.
  bool Begin();
  // Ends the current round, which completed `ops` operations.
  void End(std::size_t ops);

  std::size_t round() const { return round_; }
  bool warmup() const { return round_ == 0; }
  bool timed() const { return round_ > 0; }
  bool counted() const { return round_ < kCountedRounds; }
  bool traced() const { return args_.trace && round_ % 2 == 1; }
  // Timed and untraced: the rounds end-to-end latencies come from.
  bool measured() const { return timed() && !traced(); }

  const std::vector<double>& untraced_rates() const { return untraced_rates_; }
  const std::vector<double>& traced_rates() const { return traced_rates_; }
  double traced_wall_s() const { return traced_wall_s_; }
  double peak_rss_mib() const { return peak_rss_mib_; }

 private:
  const Args& args_;
  std::size_t round_ = 0;
  bool started_ = false;
  std::int64_t round_start_ns_ = 0;
  std::int64_t timed_start_ns_ = 0;
  std::vector<double> untraced_rates_;
  std::vector<double> traced_rates_;
  double traced_wall_s_ = 0.0;
  double peak_rss_mib_ = 0.0;
};

// Latency samples of measured rounds, in microseconds.
struct Latencies {
  std::vector<double> query_us;
  std::vector<double> batch_us;
  void Merge(const Latencies& other);
};

double Median(std::vector<double> values);
// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);
double PeakRssMib();

// Ends a run and fills its metrics; returns the span summary (empty
// when untraced).
//  * Untraced: the gated end-to-end metrics -- setup_s, tuples_per_query
//    (the exact count over the counted rounds) and peak_rss_mib (VmHWM
//    at the end of the counted rounds). The
//    stream's timings (ops_per_s, query p50 and p99, batch p50) go to
//    stderr as one "ungated:" JSON line: on a shared host they do not
//    repeat closely enough to gate on (see e2ebench/README.md).
//  * Traced: collects every span, writes them to
//    <workdir>/trace-<workload>-<seed>.tsv, prints the self time per
//    span name to stderr, and fills the stream.* metrics (the same
//    timings, from the untraced rounds, and tuples_per_query, which must
//    equal the untraced one) and the trace.* metrics: the rate of the
//    traced rounds, the overhead against the untraced ones, and the
//    share of the traced rounds' wall clock that top-level operation
//    spans (names starting "op.") cover, per client stream.
std::vector<trace::NameStats> FinishRun(const Args& args,
                                        const RoundLoop& loop,
                                        const Latencies& lat,
                                        std::size_t client_streams,
                                        double setup_s,
                                        double tuples_per_query,
                                        Result* result);

// Shape of a plain answer: complete, min(k, live) items in strict
// (score, id) order, and tuples evaluated within [|items|, rows].
std::string CheckPlainShape(const drli::TopKResult& r, std::size_t k,
                            std::size_t live, std::size_t rows);
// A constrained answer: as above, but at most k items.
std::string CheckConstrainedShape(const drli::TopKResult& r, std::size_t k,
                                  std::size_t rows);
// A wire reply to a plain query.
std::string CheckWireShape(const drli::wire::WireResult& r,
                           std::size_t k, std::size_t live,
                           std::size_t rows);

std::vector<oracle::Item> ItemsOf(const drli::TopKResult& r);
std::vector<oracle::Item> ItemsOf(const drli::wire::WireResult& r);
std::vector<oracle::Item> PicksOf(const drli::DiversifiedResult& r);
oracle::Box BoxOf(const drli::AttributeBox& box);
oracle::Table TableOf(const drli::PointSet& points);

// Creates `dir` (and parents); false on failure.
bool MakeDirs(const std::string& dir);

}  // namespace e2e

#endif  // E2EBENCH_COMMON_H_
