// In-memory span recorder for the traced run.
//
// The harness opens a span around each call it makes into a layer's
// public function (HandleRequestLine, QueryEngine::Ingest, ...), and
// adds derived spans for what the engine reports about its own inside
// (the profile=1 wall time and stage breakdown). A span's self time is
// its duration minus its children's durations. Spans stay in memory
// until Write(), so recording costs two clock reads and a push_back.

#ifndef SWOPE_PERFBENCH_HARNESS_SPANS_H_
#define SWOPE_PERFBENCH_HARNESS_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace perfbench {

struct Span {
  std::string name;
  /// Nanoseconds since the recorder was created.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span, or -1 for a root.
  int64_t parent = -1;
  /// Op the span belongs to (-1: set-up).
  int64_t op = -1;
  /// True for durations the engine reported (profile), placed inside
  /// their parent rather than clocked by the harness.
  bool derived = false;
  /// True for measurements the harness makes beside an op (on a copy
  /// or after the fact); they are not part of the op's latency.
  bool side = false;
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Reserves room for `spans` spans, so that no span recorded inside a
  /// timed op has to grow the buffer.
  void Reserve(size_t spans) { spans_.reserve(spans); }

  /// Opens a clocked span; returns its index.
  int64_t Begin(const std::string& name, int64_t parent, int64_t op,
                bool side = false);
  void End(int64_t span);

  /// Adds a span of `ms` reported by the engine, starting at its
  /// parent's start plus `offset_ms`.
  int64_t AddDerived(const std::string& name, int64_t parent, double ms,
                     double offset_ms = 0.0);

  const std::vector<Span>& spans() const { return spans_; }
  double DurationMs(int64_t span) const;
  /// Duration minus the summed durations of direct children.
  std::vector<double> SelfMs() const;

  /// Total self time per span name over the spans of ops (side and
  /// set-up spans excluded).
  std::map<std::string, double> SelfMsByName() const;

  /// One JSON object per line: name, start/end ns, parent, op, flags.
  swope::Status Write(const std::string& path) const;

 private:
  int64_t NowNs() const;

  int64_t origin_ns_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // SWOPE_PERFBENCH_HARNESS_SPANS_H_
