#include "obs/trace_export.h"

#include <cstdio>

namespace complydb {
namespace obs {

namespace {
constexpr int kSpanPid = 1;  // the one process track (monotonic timebase)

void AppendU64(std::string* out, uint64_t v) { *out += std::to_string(v); }

void AppendMeta(std::string* out, const char* name) {
  *out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
  AppendU64(out, kSpanPid);
  *out += ",\"tid\":0,\"args\":{\"name\":\"";
  *out += name;
  *out += "\"}}";
}

void AppendSpan(std::string* out, const Span& s) {
  *out += "{\"name\":\"";
  *out += SpanKindName(s.kind);
  if (s.kind == SpanKind::kAuditPhase) {
    *out += ".";
    *out += AuditPhaseName(static_cast<AuditPhase>(s.arg));
  }
  *out += "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":";
  AppendU64(out, s.start_us);
  *out += ",\"dur\":";
  AppendU64(out, s.end_us >= s.start_us ? s.end_us - s.start_us : 0);
  *out += ",\"pid\":";
  AppendU64(out, kSpanPid);
  *out += ",\"tid\":";
  AppendU64(out, s.tid);
  *out += ",\"args\":{\"causal\":";
  AppendU64(out, s.causal);
  *out += ",\"arg\":";
  AppendU64(out, s.arg);
  *out += ",\"seq\":";
  AppendU64(out, s.seq);
  *out += "}}";
}
}  // namespace

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  AppendMeta(&out, "complydb spans (monotonic us)");
  for (const Span& s : spans) {
    out += ",";
    AppendSpan(&out, s);
  }
  out += "]}\n";
  return out;
}

std::string ChromeTraceJson() {
  return ChromeTraceJson(SpanRing::Global().Snapshot());
}

Status WriteChromeTraceFile(const std::string& path) {
  std::string json = ChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("trace json open " + path);
  size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (n != json.size()) return Status::IOError("trace json write " + path);
  return Status::OK();
}

}  // namespace obs
}  // namespace complydb
