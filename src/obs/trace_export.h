#ifndef COMPLYDB_OBS_TRACE_EXPORT_H_
#define COMPLYDB_OBS_TRACE_EXPORT_H_

// Chrome/Perfetto `trace_event` JSON export of the span ring, loadable in
// chrome://tracing or ui.perfetto.dev.
//
// Spans become "X" (complete) events on one process track (pid 1), one
// thread track per engine thread, all on the monotonic timebase.

#include <string>
#include <vector>

#include "common/status.h"
#include "obs/span.h"

namespace complydb {
namespace obs {

/// Renders the given spans as a Chrome trace_event JSON document
/// ({"traceEvents": [...], ...}).
std::string ChromeTraceJson(const std::vector<Span>& spans);

/// Snapshot of the global span ring, rendered as above.
std::string ChromeTraceJson();

/// Writes ChromeTraceJson() to `path` (shell `trace export`, bench
/// `--trace-json`).
Status WriteChromeTraceFile(const std::string& path);

}  // namespace obs
}  // namespace complydb

#endif  // COMPLYDB_OBS_TRACE_EXPORT_H_
