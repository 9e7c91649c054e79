// Span recording for the traced mode. Spans are taken only in the
// benchmark's own code, around each call into a library layer, and kept
// in per-thread memory until the run ends. A disabled tracer costs one
// relaxed load per scope.
//
// Every stream operation opens one top-level span (trace::Op); the layer
// calls it makes nest inside it (trace::Scope) and share its operation
// id. A span may carry two counts measured at the same boundary
// (tuples evaluated, shards touched, ...).

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2e::trace {

struct Span {
  const char* name = nullptr;  // string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t op = 0;    // operation id shared by one operation's spans
  std::int32_t parent = -1;  // index in the same thread's spans; -1 = top
  std::uint32_t thread = 0;
  std::uint64_t count_a = 0;
  std::uint64_t count_b = 0;
};

std::int64_t NowNs();

void SetEnabled(bool enabled);
bool Enabled();

// A span around one call into a layer, or (top_level) around one whole
// stream operation, which starts a new operation id.
class Scope {
 public:
  explicit Scope(const char* name, bool top_level = false);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void Counts(std::uint64_t a, std::uint64_t b = 0);

 private:
  std::int32_t index_ = -1;  // -1 = not recording
};

class Op : public Scope {
 public:
  explicit Op(const char* name) : Scope(name, /*top_level=*/true) {}
};

// Every recorded span of every thread. Call once recording threads
// have finished.
std::vector<Span> Collect();

// Per span name: how many, total, median and longest duration, total
// self time (duration minus the part covered by child spans), and the
// summed counts.
struct NameStats {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;
  double median_us = 0.0;
  double max_us = 0.0;
  double self_s = 0.0;
  std::uint64_t count_a = 0;
  std::uint64_t count_b = 0;
};
std::vector<NameStats> Summarize(const std::vector<Span>& spans);
// The entry for `name`; an all-zero entry when no such span was taken.
const NameStats& Find(const std::vector<NameStats>& stats,
                      const std::string& name);

// Writes spans as tab-separated rows (one header line) to `path`.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace e2e::trace

#endif  // E2EBENCH_TRACE_H_
