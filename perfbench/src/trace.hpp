// Span recorder and sample statistics for the end-to-end benchmark.
//
// The traced run wraps every call the benchmark makes into a layer of
// the monitor in a span: layer name, start, end, the enclosing span and
// an id shared by every span of one report. Spans live in per-thread
// buffers and are written out once, after the run. Per-report calls are
// sampled 1-in-kSampleEvery so two clock reads do not dominate a
// sub-microsecond call; per-call layers (publish, build, localize) are
// always recorded.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Layers a span can name. The order fixes the names in kLayerNames.
enum class Layer : std::uint16_t {
  kRound,         // benchmark phase step (a parent span)
  kInject,        // dataplane: Network::inject
  kOracleWalk,    // benchmark oracle: logical_walk (not a program layer)
  kEncode,        // wire: encode_report
  kChannel,       // channel: ReportChannel::send_bytes
  kDecode,        // wire: decode_report
  kSubmit,        // parallel_server lanes: submit_datagram
  kDrain,         // parallel_server lanes: drain
  kOffer,         // ingest: ReportIngest::offer
  kProcess,       // ingest: ReportIngest::process
  kVerifyScalar,  // verifier: verify_epoch_aware
  kVerifyBatch,   // verifier: verify_epoch_aware_batch
  kRuleEvent,     // controller: add_rule / delete_rule (+ subscribers)
  kPublish,       // parallel_server: publish
  kTransfer,      // flow: ConfigTransferProvider construction
  kBuild,         // path_builder: PathTableBuilder::build
  kIncremental,   // incremental: IncrementalUpdater::apply
  kLocalize,      // localizer: ParallelServer::localize
  kSync,          // parallel_server: construction + sync
  kCount
};

inline constexpr const char* kLayerNames[] = {
    "round",   "dataplane.inject", "oracle.walk",      "wire.encode",
    "channel.send", "wire.decode", "lanes.submit",     "lanes.drain",
    "ingest.offer", "ingest.process", "verify.scalar", "verify.batch",
    "controller.event", "publish.call", "flow.transfer", "path_builder.build",
    "incremental.apply", "localize", "setup.sync"};
static_assert(sizeof(kLayerNames) / sizeof(kLayerNames[0]) ==
              static_cast<std::size_t>(Layer::kCount));

/// Per-report calls are traced for one report in this many.
inline constexpr std::uint64_t kSampleEvery = 16;

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t report = 0;  ///< shared by every span of one report (0 = none)
  Layer layer = Layer::kRound;
  std::uint32_t items = 1;   ///< reports or events the call handled
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// One thread's span buffer. Not synchronized: each thread that records
/// owns its own Tracer; the buffers are merged after the threads joined.
class Tracer {
 public:
  Tracer(bool on, std::uint32_t thread_tag)
      : on_(on), next_id_((thread_tag << 28) + 1) {}

  [[nodiscard]] bool on() const { return on_; }
  /// True for the reports whose per-report calls get spans.
  [[nodiscard]] bool sampled(std::uint64_t report) const {
    return on_ && report % kSampleEvery == 0;
  }

  /// Opens a span; returns its index in the buffer (or SIZE_MAX when off).
  std::size_t begin(Layer layer, std::uint64_t report = 0,
                    std::uint32_t items = 1) {
    if (!on_) return SIZE_MAX;
    Span s;
    s.id = next_id_++;
    s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    s.report = report;
    s.layer = layer;
    s.items = items;
    spans_.push_back(s);
    open_.push_back(spans_.size() - 1);
    spans_.back().t0 = now_ns();
    return spans_.size() - 1;
  }
  void end(std::size_t idx, std::uint32_t items = 0) {
    if (idx == SIZE_MAX) return;
    const std::int64_t t = now_ns();
    spans_[idx].t1 = t;
    if (items != 0) spans_[idx].items = items;
    if (!open_.empty() && open_.back() == idx) open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::uint32_t next_id_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span over one call.
class Scoped {
 public:
  Scoped(Tracer& t, Layer layer, std::uint64_t report = 0,
         std::uint32_t items = 1)
      : t_(t), idx_(t.begin(layer, report, items)) {}
  ~Scoped() { t_.end(idx_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
  std::size_t idx_;
};

/// Self time per layer: a span's duration minus the time its child
/// spans cover. `self_ns[layer]` holds one entry per span, `items[layer]`
/// the summed item counts.
struct LayerTimes {
  std::vector<std::vector<double>> self_ns;
  std::vector<double> total_self_ns;
  std::vector<double> items;

  [[nodiscard]] double per_item_ns(Layer l) const {
    const auto i = static_cast<std::size_t>(l);
    return items[i] > 0 ? total_self_ns[i] / items[i] : 0.0;
  }
};

LayerTimes self_times(const std::vector<Span>& spans);

/// Writes the spans as JSON lines; returns false on I/O failure.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

// -- sample statistics ------------------------------------------------------

/// Nearest-rank percentile q in [0, 1] of `v` (sorted in place).
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[rank - 1];
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

/// True when percentile q has at least ten samples beyond it — the
/// condition for reporting a tail at all.
inline bool tail_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace perfbench
