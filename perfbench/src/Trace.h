//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracer: spans recorded by the benchmark's own code
/// around each call into a compiler layer. Spans stay in memory (name,
/// start, end, parent, request id) and are written once at exit as
/// Chrome trace-event JSON, which Perfetto and chrome://tracing load.
///
/// One Tracer per recording thread; parents are tracked with a stack, so
/// a span opened inside another becomes its child.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "Harness.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint32_t NameId = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  /// Index of the enclosing span in the same Tracer, or -1 for a root.
  int32_t Parent = -1;
  uint32_t Req = 0;
  uint32_t Tid = 0;
};

class Tracer {
public:
  explicit Tracer(uint32_t Tid = 0) : Tid(Tid) {}

  /// Nanoseconds on the tracer clock (steady_clock, shared epoch).
  static int64_t nowNs();
  static int64_t toNs(Clock::time_point T);

  uint32_t nameId(const std::string &Name);
  const std::string &name(uint32_t Id) const { return Names[Id]; }

  /// Opens a span as a child of the innermost open span.
  int32_t begin(uint32_t NameId, uint32_t Req);
  void end(int32_t Idx);
  /// Records a finished span with explicit times under \p Parent.
  int32_t add(uint32_t NameId, int64_t StartNs, int64_t EndNs,
              int32_t Parent, uint32_t Req);

  const std::vector<Span> &spans() const { return Spans; }
  const std::vector<std::string> &names() const { return Names; }

private:
  uint32_t Tid;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
  std::vector<std::string> Names;
  std::map<std::string, uint32_t> NameIds;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, uint32_t NameId, uint32_t Req)
      : T(T), Idx(T ? T->begin(NameId, Req) : -1) {}
  ~ScopedSpan() {
    if (T)
      T->end(Idx);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer *T;
  int32_t Idx;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
std::vector<int64_t> selfTimesNs(const std::vector<Span> &Spans);

/// Per-request totals of one span name: for every request id that has a
/// span named \p NameId, the summed duration in milliseconds.
std::map<uint32_t, double> perRequestMs(const std::vector<Span> &Spans,
                                        uint32_t NameId);

/// Writes the spans of every tracer as Chrome trace-event JSON
/// ("X" complete events, microsecond timestamps) with \p Metadata
/// (a JSON object body, without braces) under "otherData".
bool writeChromeTrace(const std::string &Path,
                      const std::vector<const Tracer *> &Tracers,
                      const std::string &Metadata);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
