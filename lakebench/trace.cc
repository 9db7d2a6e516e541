#include "trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace lakebench {

namespace {

/// Spans kept per thread for the span file; later spans still count in the
/// per-name totals. Bounds the traced run's memory to a few tens of MiB.
constexpr size_t kKeptSpansPerThread = 200000;

struct ThreadBuffer {
  std::vector<Tracer::Record> kept;
  int64_t dropped = 0;
  std::unordered_map<const char*, Tracer::Total> totals;
};

std::mutex& BuffersMutex() {
  static std::mutex mu;
  return mu;
}

// guarded by BuffersMutex(); buffers outlive the threads that filled them.
std::vector<std::unique_ptr<ThreadBuffer>>& Buffers() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard<std::mutex> lock(BuffersMutex());
    Buffers().push_back(std::make_unique<ThreadBuffer>());
    return Buffers().back().get();
  }();
  return *buffer;
}

std::atomic<uint32_t> next_span_id{1};
thread_local uint64_t current_op = 0;
thread_local uint32_t current_span = 0;

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void Tracer::Add(const Record& record) {
  ThreadBuffer& buffer = LocalBuffer();
  Total& total = buffer.totals[record.name];
  ++total.count;
  total.sum_ns += record.end_ns - record.start_ns;
  if (buffer.kept.size() < kKeptSpansPerThread) {
    buffer.kept.push_back(record);
  } else {
    ++buffer.dropped;
  }
}

std::map<std::string, Tracer::Total> Tracer::Totals() {
  std::map<std::string, Total> out;
  std::lock_guard<std::mutex> lock(BuffersMutex());
  for (const auto& buffer : Buffers()) {
    for (const auto& [name, total] : buffer->totals) {
      Total& merged = out[name];
      merged.count += total.count;
      merged.sum_ns += total.sum_ns;
    }
  }
  return out;
}

int64_t Tracer::WriteSpans(const std::string& path) {
  std::ofstream out(path);
  if (!out) return -1;
  out << "op,id,parent,name,start_ns,end_ns\n";
  int64_t written = 0;
  int64_t dropped = 0;
  std::lock_guard<std::mutex> lock(BuffersMutex());
  for (const auto& buffer : Buffers()) {
    for (const Record& r : buffer->kept) {
      out << r.op << ',' << r.id << ',' << r.parent << ',' << r.name << ','
          << r.start_ns << ',' << r.end_ns << '\n';
      ++written;
    }
    dropped += buffer->dropped;
  }
  // A trailer row so a reader knows whether the file holds every span.
  out << "0,0,0,dropped_spans," << dropped << ",0\n";
  return written;
}

OpScope::OpScope(uint64_t op) : saved_op_(current_op) { current_op = op; }

OpScope::~OpScope() { current_op = saved_op_; }

Span::Span(const char* name) {
  if (!Tracer::enabled()) return;
  active_ = true;
  record_.op = current_op;
  record_.id = next_span_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = current_span;
  record_.name = name;
  current_span = record_.id;
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = NowNs();
  current_span = record_.parent;
  Tracer::Add(record_);
}

double Samples::Quantile(double q) const {
  if (ns_.empty()) return 0;
  std::vector<int64_t> sorted = ns_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1 - frac) +
         static_cast<double>(sorted[hi]) * frac;
}

}  // namespace lakebench
