//===- perfbench/Tracer.h - In-memory spans for the traced run ----*- C++ -*-===//
//
// Part of the warp-swp benchmark. See README.md in this directory.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single-threaded span recorder that times calls into the library from
/// outside. Spans carry a name, start and end (steady clock), the span
/// that encloses them, and the program or request id they belong to.
/// Every span is folded into a per-name self-time total as it closes a
/// pass; the first spans recorded are also kept for a Chrome trace-event
/// file that Perfetto loads.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_PERFBENCH_TRACER_H
#define SWP_PERFBENCH_TRACER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

class Tracer {
public:
  struct Span {
    const char *Name = nullptr; ///< Static string: the layer and call.
    int64_t StartNs = 0;        ///< Relative to the tracer's epoch.
    int64_t EndNs = -1;         ///< -1 while open.
    int32_t Parent = -1;        ///< Index in the pass's span list.
    uint64_t Id = 0;            ///< Program index or request id.
    bool Detached = false;      ///< Overlaps its siblings (a request).
  };

  /// Keeps at most \p MaxKept spans for the trace file; self time is
  /// accumulated over every span regardless.
  explicit Tracer(size_t MaxKept = 200000);

  /// Opens a span nested in the innermost open span and returns its
  /// handle.
  int begin(const char *Name, uint64_t Id);
  /// Closes span \p H (which need not be the innermost one: concurrent
  /// requests close out of order).
  void end(int H);
  /// Opens a span whose parent is the innermost open span but which does
  /// not itself become the parent of later spans (an in-flight request
  /// that overlaps its siblings).
  int beginDetached(const char *Name, uint64_t Id);

  /// RAII wrapper; a null tracer records nothing.
  class Scope {
  public:
    Scope(Tracer *T, const char *Name, uint64_t Id)
        : T(T), H(T ? T->begin(Name, Id) : -1) {}
    ~Scope() {
      if (T)
        T->end(H);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T;
    int H;
  };

  /// Closes the current pass: computes every span's self time (its
  /// duration minus the union of its children's intervals), adds it to
  /// the per-name totals of this pass, and moves the spans to the kept
  /// list while room remains. Returns the pass's self time per name, in
  /// seconds.
  std::map<std::string, double> finishPass();

  /// Writes every kept span as Chrome trace-event JSON.
  bool writeChromeTrace(const std::string &Path,
                        const std::string &ProcessName) const;

  size_t keptSpans() const { return Kept.size(); }
  uint64_t droppedSpans() const { return Dropped; }

private:
  int64_t nowNs() const;

  Clock::time_point Epoch;
  size_t MaxKept;
  std::vector<Span> Pass;  ///< Spans of the pass in progress.
  std::vector<int> Open;   ///< Stack of open nesting spans.
  std::vector<Span> Kept;  ///< Parents re-indexed into Kept.
  uint64_t Dropped = 0;
};

} // namespace perfbench

#endif // SWP_PERFBENCH_TRACER_H
