#ifndef LAKEBENCH_TRACE_H_
#define LAKEBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lakebench {

/// Nanoseconds on the steady clock since an arbitrary process-wide epoch.
int64_t NowNs();

/// In-memory span recorder for the traced run. When disabled (the default,
/// and every end-to-end run), `Span` does one relaxed load and nothing else.
///
/// A span has a name, a start, an end and a parent; the spans of one
/// benchmark operation share the operation id set by `OpScope`. Spans are
/// buffered per thread and written out by `WriteSpans` when the run ends;
/// every span, kept or not, also folds into per-name totals (`Totals`).
class Tracer {
 public:
  struct Record {
    uint64_t op = 0;
    uint32_t id = 0;
    uint32_t parent = 0;
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  struct Total {
    int64_t count = 0;
    int64_t sum_ns = 0;
  };

  static void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Adds a finished span to the calling thread's buffer.
  static void Add(const Record& record);

  /// Per-name span count and summed duration over every thread.
  static std::map<std::string, Total> Totals();

  /// Writes the kept spans as CSV (`op,id,parent,name,start_ns,end_ns`) to
  /// `path`; returns the number written, or -1 when the file cannot be
  /// opened.
  static int64_t WriteSpans(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

/// Marks the calling thread as working on benchmark operation `op` until
/// the scope ends; spans opened meanwhile carry that id.
class OpScope {
 public:
  explicit OpScope(uint64_t op);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  uint64_t saved_op_;
};

/// Times the enclosing scope as one span named `name` (a string literal),
/// parented to the innermost span open on this thread.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::Record record_;
  bool active_ = false;
};

/// Latency samples of one operation class.
class Samples {
 public:
  void Add(int64_t ns) { ns_.push_back(ns); }
  size_t size() const { return ns_.size(); }
  /// The `q`-quantile (0..1) by linear interpolation between closest
  /// ranks, in nanoseconds; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<int64_t> ns_;
};

}  // namespace lakebench

#endif  // LAKEBENCH_TRACE_H_
