#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace e2e {

void Failures::Fail(const std::string& what) {
  const std::uint64_t n = count_.fetch_add(1) + 1;
  if (n <= 10) {
    std::lock_guard<std::mutex> lock(print_mu_);
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

bool RoundLoop::Begin() {
  const std::int64_t now = trace::NowNs();
  if (started_) {
    ++round_;
    if (round_ == 1) timed_start_ns_ = now;
    const double timed_s = static_cast<double>(now - timed_start_ns_) * 1e-9;
    if (round_ >= kMinRounds && timed_s >= args_.seconds) return false;
  }
  started_ = true;
  trace::SetEnabled(traced());
  round_start_ns_ = trace::NowNs();
  return true;
}

void RoundLoop::End(std::size_t ops) {
  const double wall = static_cast<double>(trace::NowNs() - round_start_ns_) * 1e-9;
  trace::SetEnabled(false);
  if (round_ + 1 == kCountedRounds) peak_rss_mib_ = PeakRssMib();
  if (!timed()) return;
  const double rate = static_cast<double>(ops) / wall;
  if (traced()) {
    traced_rates_.push_back(rate);
    traced_wall_s_ += wall;
  } else {
    untraced_rates_.push_back(rate);
  }
}

void Latencies::Merge(const Latencies& other) {
  query_us.insert(query_us.end(), other.query_us.begin(), other.query_us.end());
  batch_us.insert(batch_us.end(), other.batch_us.begin(), other.batch_us.end());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::vector<trace::NameStats> FinishRun(const Args& args,
                                        const RoundLoop& loop,
                                        const Latencies& lat,
                                        std::size_t client_streams,
                                        double setup_s,
                                        double tuples_per_query,
                                        Result* result) {
  auto& m = result->metrics;
  const std::vector<double>& rates = loop.untraced_rates();
  const double ops_per_s = Median(rates);
  const double query_p50_us = Median(lat.query_us);
  const double query_p99_us = Percentile(lat.query_us, 0.99);
  const double batch_p50_us = Median(lat.batch_us);
  std::fprintf(stderr,
               "samples: %zu rounds (ops/s p10 %.1f, p90 %.1f), %zu queries, "
               "%zu batches\n",
               rates.size(), Percentile(rates, 0.1), Percentile(rates, 0.9),
               lat.query_us.size(), lat.batch_us.size());
  if (!args.trace) {
    m["setup_s"] = setup_s;
    m["tuples_per_query"] = tuples_per_query;
    m["peak_rss_mib"] = loop.peak_rss_mib();
    std::fprintf(stderr,
                 "ungated: {\"ops_per_s\": %.17g, \"query_p50_us\": %.17g, "
                 "\"query_p99_us\": %.17g, \"batch_p50_us\": %.17g}\n",
                 ops_per_s, query_p50_us, query_p99_us, batch_p50_us);
    return {};
  }
  m["stream.ops_per_s"] = ops_per_s;
  m["stream.query_p50_us"] = query_p50_us;
  m["stream.query_p99_us"] = query_p99_us;
  m["stream.batch_p50_us"] = batch_p50_us;
  m["stream.tuples_per_query"] = tuples_per_query;

  const std::vector<trace::Span> spans = trace::Collect();
  const std::vector<trace::NameStats> stats = trace::Summarize(spans);
  const std::string path = args.workdir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".tsv";
  if (!trace::WriteSpans(spans, path)) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
  std::fprintf(stderr, "%-28s %9s %11s %11s %11s\n", "span", "count",
               "total_ms", "self_ms", "median_us");
  for (const trace::NameStats& n : stats) {
    std::fprintf(stderr, "%-28s %9zu %11.2f %11.2f %11.2f\n", n.name.c_str(),
                 n.count, n.total_s * 1e3, n.self_s * 1e3, n.median_us);
  }
  const double traced = Median(loop.traced_rates());
  m["trace.traced_ops_per_s"] = traced;
  m["trace.overhead_ops_per_s"] = ops_per_s - traced;
  double op_s = 0.0;
  std::size_t span_count = 0;
  for (const trace::NameStats& n : stats) {
    span_count += n.count;
    if (n.name.rfind("op.", 0) == 0) op_s += n.total_s;
  }
  m["trace.op_span_share"] =
      op_s / (loop.traced_wall_s() * static_cast<double>(client_streams));
  m["trace.spans"] = static_cast<double>(span_count);
  return stats;
}

namespace {

std::string CheckOrder(const std::vector<drli::ScoredTuple>& items) {
  for (std::size_t i = 1; i < items.size(); ++i) {
    const auto& a = items[i - 1];
    const auto& b = items[i];
    if (!(a.score < b.score || (a.score == b.score && a.id < b.id))) {
      return "items out of (score, id) order at " + std::to_string(i);
    }
  }
  return "";
}

std::string CheckCost(std::size_t items, std::size_t evaluated,
                      std::size_t rows) {
  if (evaluated < items || evaluated > rows) {
    return "tuples_evaluated " + std::to_string(evaluated) + " outside [" +
           std::to_string(items) + ", " + std::to_string(rows) + "]";
  }
  return "";
}

}  // namespace

std::string CheckPlainShape(const drli::TopKResult& r, std::size_t k,
                            std::size_t live, std::size_t rows) {
  if (!r.complete()) {
    return std::string("termination ") + drli::TerminationName(r.termination) +
           " " + r.error;
  }
  if (r.items.size() != std::min(k, live)) {
    return std::to_string(r.items.size()) + " items, expected " +
           std::to_string(std::min(k, live));
  }
  std::string problem = CheckOrder(r.items);
  if (problem.empty()) {
    problem = CheckCost(r.items.size(), r.stats.tuples_evaluated, rows);
  }
  return problem;
}

std::string CheckConstrainedShape(const drli::TopKResult& r, std::size_t k,
                                  std::size_t rows) {
  if (!r.complete()) {
    return std::string("termination ") + drli::TerminationName(r.termination) +
           " " + r.error;
  }
  if (r.items.size() > k) return "more than k items";
  std::string problem = CheckOrder(r.items);
  if (problem.empty()) {
    problem = CheckCost(r.items.size(), r.stats.tuples_evaluated, rows);
  }
  return problem;
}

std::string CheckWireShape(const drli::wire::WireResult& r,
                           std::size_t k, std::size_t live,
                           std::size_t rows) {
  if (r.status != drli::wire::ReplyStatus::kOk) {
    return std::string("reply ") +
           drli::wire::ReplyStatusName(r.status) + " " + r.message;
  }
  if (r.termination != static_cast<std::uint8_t>(drli::Termination::kComplete)) {
    return "incomplete reply, termination " + std::to_string(r.termination);
  }
  if (r.items.size() != std::min(k, live)) {
    return std::to_string(r.items.size()) + " items, expected " +
           std::to_string(std::min(k, live));
  }
  for (std::size_t i = 1; i < r.items.size(); ++i) {
    const auto& a = r.items[i - 1];
    const auto& b = r.items[i];
    if (!(a.score < b.score || (a.score == b.score && a.id < b.id))) {
      return "items out of (score, id) order at " + std::to_string(i);
    }
  }
  return CheckCost(r.items.size(), r.tuples_evaluated, rows);
}

std::vector<oracle::Item> ItemsOf(const drli::TopKResult& r) {
  std::vector<oracle::Item> items;
  for (const auto& t : r.items) items.push_back({t.id, t.score});
  return items;
}

std::vector<oracle::Item> ItemsOf(const drli::wire::WireResult& r) {
  std::vector<oracle::Item> items;
  for (const auto& t : r.items) items.push_back({t.id, t.score});
  return items;
}

std::vector<oracle::Item> PicksOf(const drli::DiversifiedResult& r) {
  std::vector<oracle::Item> picks;
  for (const auto& p : r.picks) picks.push_back({p.id, p.score});
  return picks;
}

oracle::Box BoxOf(const drli::AttributeBox& box) {
  return oracle::Box{box.lo, box.hi};
}

oracle::Table TableOf(const drli::PointSet& points) {
  oracle::Table table(points.dim());
  for (std::size_t i = 0; i < points.size(); ++i) {
    table.Append(points[i].data());
  }
  return table;
}

bool MakeDirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return !ec;
}

}  // namespace e2e
