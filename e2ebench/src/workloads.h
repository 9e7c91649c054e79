// The four workloads. Each builds its system from seeded inputs, runs a
// closed-loop stream through the library's public entry points, checks
// the answers, and returns the end-to-end metrics (untraced) or the
// per-layer metrics (traced). The make-up of each is documented in
// e2ebench/README.md.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <string>

#include "common.h"

namespace e2e {

Result RunDlplus(const Args& args);
Result RunSharded(const Args& args);
Result RunTiered(const Args& args);
Result RunServed(const Args& args);

// Checks the oracle against answers from a small index and corrupted
// copies of them; "" on success.
std::string RunOracleSelfTest();

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
