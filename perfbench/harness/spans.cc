#include "spans.h"

#include <chrono>
#include <cmath>
#include <fstream>

#include "src/common/stopwatch.h"

namespace perfbench {

namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             swope::SteadyNow().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder() : origin_ns_(SteadyNs()) {}

int64_t SpanRecorder::NowNs() const { return SteadyNs() - origin_ns_; }

int64_t SpanRecorder::Begin(const std::string& name, int64_t parent,
                            int64_t op, bool side) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.op = op;
  span.side = side;
  span.start_ns = NowNs();
  span.end_ns = span.start_ns;
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::End(int64_t span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

int64_t SpanRecorder::AddDerived(const std::string& name, int64_t parent,
                                 double ms, double offset_ms) {
  const Span& outer = spans_[static_cast<size_t>(parent)];
  Span span;
  span.name = name;
  span.parent = parent;
  span.op = outer.op;
  span.side = outer.side;
  span.derived = true;
  span.start_ns = outer.start_ns + std::llround(offset_ms * 1e6);
  span.end_ns = span.start_ns + std::llround(ms * 1e6);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

double SpanRecorder::DurationMs(int64_t span) const {
  const Span& s = spans_[static_cast<size_t>(span)];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

std::vector<double> SpanRecorder::SelfMs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = DurationMs(static_cast<int64_t>(i));
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          DurationMs(static_cast<int64_t>(i));
    }
  }
  return self;
}

std::map<std::string, double> SpanRecorder::SelfMsByName() const {
  const std::vector<double> self = SelfMs();
  std::map<std::string, double> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].op < 0 || spans_[i].side) continue;
    totals[spans_[i].name] += self[i];
  }
  return totals;
}

swope::Status SpanRecorder::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return swope::Status::IOError("cannot write " + path);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"op\":" << span.op
        << ",\"derived\":" << (span.derived ? "true" : "false")
        << ",\"side\":" << (span.side ? "true" : "false") << "}\n";
  }
  out.close();
  if (!out) return swope::Status::IOError("short write to " + path);
  return swope::Status::OK();
}

}  // namespace perfbench
