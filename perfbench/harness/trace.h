// In-memory span and counter sink for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around each call it
// makes into a library layer (graph, model, engine, serving, algo,
// diffusion). Each span carries its name, start and end (steady clock,
// nanoseconds since the tracer was made), the index of the span that was
// open when it began (its parent, -1 at top level) and the op id it
// belongs to (-1 for set-up, probes and other work outside the op
// stream). Counters are recorded at the same call boundaries. Nothing is
// written until the run ends (WriteJson), so the only cost inside the
// measured region is a clock read and a vector push per span.
//
// A disabled tracer records nothing: Begin returns -1 and End/Count are
// no-ops, which is how the untraced end-to-end runs use the same code.

#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(NowNanos()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index.
  int Begin(const std::string& name, int64_t op) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, NowNanos() - origin_, 0, parent, op});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Closes span `id` (which must be the innermost open span). `op`
  /// re-tags the span when its op id is only known at the end (a served
  /// request's id arrives with its reply).
  void End(int id, int64_t op = kKeepOp) {
    if (id < 0) return;
    Record& span = spans_[static_cast<std::size_t>(id)];
    span.end = NowNanos() - origin_;
    if (op != kKeepOp) span.op = op;
    open_.pop_back();
  }

  void Count(int64_t op, const std::string& name, double value) {
    if (enabled_) counters_.push_back({op, name, value});
  }

  /// Scoped span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, int64_t op)
        : tracer_(tracer), id_(tracer.Begin(name, op)) {}
    ~Scope() { tracer_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Writes `"spans": [...], "counters": [...]` (no surrounding braces).
  void WriteJson(std::FILE* out) const {
    std::fprintf(out, "\"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& s = spans_[i];
      std::fprintf(out, "%s\n  [\"%s\", %lld, %lld, %d, %lld]", i ? "," : "",
                   s.name.c_str(), static_cast<long long>(s.start),
                   static_cast<long long>(s.end), s.parent,
                   static_cast<long long>(s.op));
    }
    std::fprintf(out, "],\n\"counters\": [");
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      const Counter& c = counters_[i];
      std::fprintf(out, "%s\n  [%lld, \"%s\", %.17g]", i ? "," : "",
                   static_cast<long long>(c.op), c.name.c_str(), c.value);
    }
    std::fprintf(out, "]");
  }

 private:
  static constexpr int64_t kKeepOp = std::numeric_limits<int64_t>::min();

  struct Record {
    std::string name;
    int64_t start;
    int64_t end;
    int parent;
    int64_t op;
  };
  struct Counter {
    int64_t op;
    std::string name;
    double value;
  };

  bool enabled_;
  int64_t origin_;
  std::vector<Record> spans_;
  std::vector<int> open_;
  std::vector<Counter> counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
