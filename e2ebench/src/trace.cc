#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace e2e::trace {
namespace {

struct ThreadSpans {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::int32_t current = -1;
  std::uint64_t op = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_op{1};

std::mutex g_mu;  // guards g_threads
std::vector<std::unique_ptr<ThreadSpans>> g_threads;

ThreadSpans& Local() {
  // Owned by g_threads so the spans outlive the recording thread.
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    local = g_threads.back().get();
    local->thread = static_cast<std::uint32_t>(g_threads.size() - 1);
    local->spans.reserve(1 << 16);
  }
  return *local;
}

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char* name, bool top_level) {
  if (!Enabled()) return;
  ThreadSpans& t = Local();
  if (top_level) {
    t.op = g_next_op.fetch_add(1, std::memory_order_relaxed);
    t.current = -1;
  }
  Span span;
  span.name = name;
  span.op = t.op;
  span.parent = t.current;
  span.thread = t.thread;
  index_ = static_cast<std::int32_t>(t.spans.size());
  t.spans.push_back(span);
  t.current = index_;
  t.spans.back().start_ns = NowNs();
}

Scope::~Scope() {
  if (index_ < 0) return;
  const std::int64_t end = NowNs();
  ThreadSpans& t = Local();
  Span& span = t.spans[index_];
  span.end_ns = end;
  t.current = span.parent;
}

void Scope::Counts(std::uint64_t a, std::uint64_t b) {
  if (index_ < 0) return;
  Span& span = Local().spans[index_];
  span.count_a = a;
  span.count_b = b;
}

std::vector<Span> Collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> all;
  for (const auto& t : g_threads) {
    all.insert(all.end(), t->spans.begin(), t->spans.end());
  }
  return all;
}

std::vector<NameStats> Summarize(const std::vector<Span>& spans) {
  // Parents are indexes into their own thread's spans; map each
  // (thread, local index) to its position in `spans`.
  std::vector<std::size_t> first_of_thread;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i == 0 || spans[i].thread != spans[i - 1].thread) {
      if (first_of_thread.size() <= spans[i].thread) {
        first_of_thread.resize(spans[i].thread + 1, 0);
      }
      first_of_thread[spans[i].thread] = i;
    }
  }
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    child_s[first_of_thread[s.thread] + s.parent] +=
        static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  std::map<std::string, NameStats> by_name;
  std::map<std::string, std::vector<double>> durations;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    NameStats& n = by_name[s.name];
    n.name = s.name;
    ++n.count;
    n.total_s += d;
    n.self_s += d - child_s[i];
    n.count_a += s.count_a;
    n.count_b += s.count_b;
    durations[s.name].push_back(d);
  }
  std::vector<NameStats> out;
  for (auto& [name, n] : by_name) {
    std::vector<double>& d = durations[name];
    std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
    n.median_us = d[d.size() / 2] * 1e6;
    n.max_us = *std::max_element(d.begin(), d.end()) * 1e6;
    out.push_back(n);
  }
  return out;
}

const NameStats& Find(const std::vector<NameStats>& stats,
                      const std::string& name) {
  static const NameStats kNone;
  for (const NameStats& n : stats) {
    if (n.name == name) return n;
  }
  return kNone;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\top\tparent\tname\tstart_ns\tend_ns\tcount_a\tcount_b\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%u\t%llu\t%d\t%s\t%lld\t%lld\t%llu\t%llu\n", s.thread,
                 static_cast<unsigned long long>(s.op), s.parent, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.count_a),
                 static_cast<unsigned long long>(s.count_b));
  }
  return std::fclose(f) == 0;
}

}  // namespace e2e::trace
