// End-to-end benchmark of the VeriDP monitor.
//
//   veridp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file>]
//
// One process runs one workload through the monitor's public API:
//
//   report path   Network::inject (Algorithm-1 sampling and tagging) ->
//                 wire::encode_report -> ReportChannel -> submit_datagram
//                 (decode, dedup, admission) -> workers (snapshot load,
//                 batched verify, memo) -> drain; the same datagrams
//                 through Server + ReportIngest on one thread
//   control path  Controller::add_rule/delete_rule -> ParallelServer::
//                 publish (transfer predicates, Algorithm-2 build in a
//                 fresh arena, snapshot flip)
//   failure path  take_failures -> ParallelServer::localize (Algorithm 4)
//
// Threads: the control thread (main) publishes, issues rule events,
// localizes and runs the sequential monitor; one producer thread submits
// datagrams; the parallel monitor runs kWorkers workers. 1 + 1 + kWorkers
// stays within the 4 cores the figures were taken on.
//
// Verdicts are checked against an oracle the monitor does not compute
// (scenario.hpp): a report whose real path equals the intended path must
// pass; one whose path differs must fail unless it is the §6.3 false
// negative; off-epoch reports may be stale but never wrongly failed.
// Every failed verdict and every verdict of an untimed sequential pass
// is checked one by one, the timed passes by their totals
// (perfbench/README.md). The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The exit code is 0 only when every check held.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "controller/controller.hpp"
#include "dataplane/wire.hpp"
#include "scenario.hpp"
#include "trace.hpp"
#include "veridp/incremental.hpp"
#include "veridp/ingest.hpp"
#include "veridp/parallel_server.hpp"
#include "veridp/path_builder.hpp"
#include "veridp/report_batch.hpp"
#include "veridp/server.hpp"

namespace perfbench {
namespace {

using veridp::IngestHealth;
using veridp::ParallelHealth;
using veridp::ParallelServer;
using veridp::ReportChannel;
using veridp::ReportIngest;
using veridp::Server;
using veridp::Verdict;
using Datagram = std::vector<std::uint8_t>;

/// One worker. On the shared 4-vCPU host the figures come from, two
/// workers beside the producer and a publishing control thread left the
/// host no slack: internet2_churn's verify_rate swung between 0.46 and
/// 1.08 M reports/s over four seeds (steal 560-2700 ticks a run), against
/// 0.82-0.90 M/s with one worker (steal 450-840 ticks), which is as fast.
constexpr unsigned kWorkers = 1;
constexpr unsigned kBusyThreads = kWorkers + 2;  // + producer + control
constexpr std::size_t kQueueCapacity = 16384;
constexpr std::size_t kHighWatermark = 12288;
/// The producer holds the total backlog at or below this, checked every
/// kDepthCheckEvery submissions, so no lane reaches its watermark
/// (kHighWatermark / kWorkers) and nothing is shed.
constexpr std::size_t kDepthLimit = 4096;
constexpr std::size_t kDepthCheckEvery = 32;
constexpr std::size_t kSnapshotRing = 2;
constexpr std::size_t kLocalizePerDrain = 128;
/// Failures both monitors retain: more than any phase produces, so every
/// failed verdict is class-checked before it could be evicted.
constexpr std::size_t kFailureKeep = 1 << 16;
constexpr std::size_t kMinLocalizeSamples = 1000;
constexpr std::size_t kSeqChunk = 1024;  // offers per process() call
constexpr std::size_t kPublishTemplates = 8;
/// Open-loop window length. The windows alternate with the closed-loop
/// rounds.
constexpr double kWindowSeconds = 0.1;
/// Set-up timing: at least WorkloadSpec::setup_reps set-ups and
/// kSetupSeconds before the run, then the set-ups that fit
/// kSetupPerRound in each closed-loop round, so cheap set-ups sample the
/// host over the whole run.
constexpr double kSetupSeconds = 1.0;
constexpr double kSetupPerRound = 0.05;
constexpr double kWarmSeconds = 1.0;

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

const std::int64_t kProcessStart = now_ns();

/// Progress on stderr, so stdout keeps only the result lines.
void progress(const char* what) {
  std::fprintf(stderr, "[%7.2f s] %s\n", seconds_since(kProcessStart), what);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// Keeps kBusyThreads threads spinning for kWarmSeconds. On the virtual
/// machine the figures come from, a process started after the machine
/// idled for a minute ran its churn rounds at a third of the usual rate
/// from start to end (the same seed ran at full rate in the next
/// process); one second of every processor busy before the run removed
/// that.
void warm_cpus() {
  std::atomic<bool> stop{false};
  std::vector<std::thread> spinners;
  for (unsigned i = 0; i < kBusyThreads; ++i)
    spinners.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmSeconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : spinners) t.join();
}

/// Runs posted jobs on one dedicated thread (the producer).
class JobThread {
 public:
  JobThread() : th_([this] { loop(); }) {}
  ~JobThread() {
    {
      veridp::MutexLock lk(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    th_.join();
  }
  JobThread(const JobThread&) = delete;
  JobThread& operator=(const JobThread&) = delete;

  void post(std::function<void()> job) {
    veridp::MutexLock lk(mu_);
    job_ = std::move(job);
    pending_ = true;
    done_ = false;
    cv_.notify_all();
  }
  void wait() {
    veridp::MutexLock lk(mu_);
    while (!done_) cv_.wait(lk);
  }
  bool done() {
    veridp::MutexLock lk(mu_);
    return done_;
  }

 private:
  void loop() {
    for (;;) {
      std::function<void()> job;
      {
        veridp::MutexLock lk(mu_);
        while (!pending_ && !quit_) cv_.wait(lk);
        if (!pending_) return;
        job = std::move(job_);
        pending_ = false;
      }
      job();
      {
        veridp::MutexLock lk(mu_);
        done_ = true;
      }
      cv_.notify_all();
    }
  }

  veridp::Mutex mu_{"perfbench::JobThread::mu"};
  veridp::CondVar cv_;
  std::function<void()> job_;
  bool pending_ = false;
  bool done_ = true;
  bool quit_ = false;
  std::thread th_;
};

/// What the oracle expects of one stream once the channel delivered it.
struct Expect {
  std::uint64_t delivered = 0;  ///< datagrams offered to a monitor
  std::uint64_t verified = 0;   ///< distinct intact reports
  std::uint64_t pass = 0;       ///< ... of class kPass
  std::uint64_t fail = 0;       ///< ... of class kFail
  std::uint64_t fn = 0;         ///< ... of class kFalseNegative
  std::uint64_t corrupt = 0;    ///< corrupted datagrams delivered
  std::uint64_t dup = 0;        ///< intact duplicate datagrams delivered

  void count(Cls c) {
    ++verified;
    if (c == Cls::kPass) ++pass;
    else if (c == Cls::kFail) ++fail;
    else ++fn;
  }
};

struct Stream {
  std::vector<Datagram> dgrams;
  Expect exp;
  std::vector<std::size_t> seg_start;  ///< churn: first datagram of chunk j
  /// Trace id of the first datagram; datagram i carries first_id + i
  /// unless a lossy channel reordered the stream (then ids are omitted).
  std::uint64_t first_id = 0;
  bool reordered = false;
};

/// Verdict totals of one monitor over one stream.
struct Totals {
  std::uint64_t received = 0, passed = 0, failed = 0, stale = 0, shed = 0,
                quarantined = 0, deduped = 0, in_queue = 0;
};

Totals delta(const ParallelHealth& a, const ParallelHealth& b) {
  return {b.received - a.received, b.passed - a.passed, b.failed - a.failed,
          b.stale - a.stale,       b.shed - a.shed,
          b.quarantined - a.quarantined, b.deduped - a.deduped, b.in_queue};
}

Totals delta(const IngestHealth& a, const IngestHealth& b) {
  return {b.received - a.received, b.passed - a.passed, b.failed - a.failed,
          b.stale - a.stale,       b.shed - a.shed,
          b.quarantined - a.quarantined, b.deduped - a.deduped, b.in_queue};
}

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args),
        spec_(spec),
        rng_(args.seed * 0x9E3779B97F4A7C15ULL + 17),
        ctl_tr_(args.trace, 1),
        prod_tr_(args.trace, 2) {}

  int run();

 private:
  // -- set-up ---------------------------------------------------------------
  void build_inputs();
  void time_setup(int min_reps, double budget_s);
  void start_monitors();

  // -- phases ---------------------------------------------------------------
  void warmup_round();
  void steady_round();
  void open_loop_window(double seconds);
  void publication(double budget_s);

  // -- helpers --------------------------------------------------------------
  Stream prepare(const Pool& pool, bool through_channel);
  double parallel_pass(const Stream& st);
  void run_churn_events(const Stream& st);
  double sequential_pass(const Stream& st, bool check_each);
  void check_stream(const char* who, const Totals& t, const Expect& e,
                    bool exact);
  void localize_failures(std::uint64_t failed);
  bool verdict_agrees(const TagReport& r, const Verdict& v, bool stale_ok);
  void check_seq_failures(std::uint64_t failed);
  void localize_one(const TagReport& rep, bool keep);
  void feed_incremental();
  void traced_layers();
  void issue_timed(std::size_t t, bool add);
  void publish_timed(const std::vector<std::int64_t>& issued_at);
  std::size_t submit_paced(std::uint32_t epoch, double rate, double budget_s,
                           bool drain_each, std::vector<float>* latency_us,
                           Expect* exp, const std::atomic<bool>* stop,
                           std::size_t* first_pass);
  void replay_sequential(std::size_t first_pass, std::size_t count,
                         const Expect& exp, bool exact);

  void breach(std::uint64_t n, const std::string& what) {
    if (n == 0) return;
    failed_ += n;
    if (notes_.size() < 20) notes_.push_back(what);
  }
  void violate(const std::string& what) {
    correct_ = false;
    if (notes_.size() < 20) notes_.push_back(what);
  }

  int emit();

  Args args_;
  WorkloadSpec spec_;
  veridp::Rng rng_;
  Tracer ctl_tr_;
  Tracer prod_tr_;

  Deployment dep_;
  std::vector<FaultSite> faults_;
  std::vector<RuleTemplate> tpl_;
  std::vector<RuleId> live_;
  std::size_t next_event_ = 0;  ///< position in the template cycle
  Pool base_pool_;
  Pool churn_pool_;
  std::unique_ptr<Stamper> stamper_;
  std::unique_ptr<ReportChannel> channel_;
  std::uint64_t report_ids_ = 1;  ///< trace ids of stamped reports

  std::unique_ptr<ParallelServer> ps_;
  std::unique_ptr<Server> seq_;
  std::unique_ptr<ReportIngest> ingest_;
  std::unique_ptr<JobThread> producer_;
  std::atomic<std::size_t> progress_{0};

  // Incremental-updater shadow of the rule events (traced runs only).
  bool fragment_ = false;
  veridp::HeaderSpace inc_space_;
  std::unique_ptr<veridp::IncrementalUpdater> updater_;
  std::vector<veridp::RuleEvent> recorded_;
  std::vector<double> inc_touched_;

  // Samples.
  std::vector<double> setup_s_;
  std::vector<double> par_rate_;
  std::vector<double> seq_rate_;
  std::vector<float> verdict_us_;      ///< every open-loop report
  std::vector<double> window_p99_us_;  ///< per open-loop window
  std::vector<double> window_max_us_;
  std::vector<double> lateness_us_;
  std::vector<double> localize_us_;
  std::vector<double> candidates_;
  std::uint64_t recovered_ = 0;
  std::vector<TagReport> retained_failures_;
  std::vector<double> publish_ms_;
  std::vector<double> drain_us_;
  std::uint64_t events_ = 0;
  std::uint64_t fn_seen_ = 0;

  // Traced build figures.
  double build_paths_ = 0;
  double bdd_nodes_ = 0;

  // Operations.
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> notes_;
};

void Bench::build_inputs() {
  dep_ = make_deployment(spec_);
  progress("deployment ready");
  const veridp::Topology& topo = *dep_.topo;
  tpl_ = make_templates(*dep_.ctl,
                        spec_.churn ? spec_.churn_templates : kPublishTemplates,
                        rng_);
  live_.assign(tpl_.size(), veridp::kNoRule);
  progress("templates ready");
  stamper_ = std::make_unique<Stamper>(topo.num_switches());

  // Base pool: the workload's traffic through the faulted data plane at
  // the base config.
  {
    const auto flows = make_flows(spec_, topo, spec_.pool_size, rng_);
    faults_ = pick_faults(dep_, flows, spec_, rng_);
    Network net(topo);
    dep_.ctl->deploy(net);
    apply_faults(net, faults_);
    sample_into(base_pool_, net, *dep_.ctl, flows, 0, ctl_tr_, report_ids_);
    report_ids_ += flows.size();
    base_pool_.index(topo.num_switches());
  }
  if (spec_.churn) {
    // Churn pool: a shadow controller replays one template cycle; after
    // event j its network (which mirrors every event, faults kept)
    // samples chunk j, stamped j + 1 epochs past the cycle's start.
    Controller shadow = *dep_.ctl;
    Network net(topo);
    shadow.deploy(net);
    apply_faults(net, faults_);
    shadow.subscribe([&net](const veridp::RuleEvent& ev) {
      veridp::FlowTable& t = net.at(ev.sw).config().table;
      if (ev.kind == veridp::RuleEvent::Kind::kAdd)
        t.add(ev.rule);
      else
        t.remove(ev.rule.id);
    });
    std::vector<RuleId> live(tpl_.size(), veridp::kNoRule);
    const std::size_t n = cycle_length(tpl_.size());
    for (std::size_t j = 0; j < n; ++j) {
      const auto [t, add] = cycle_event(tpl_.size(), j);
      issue_event(shadow, tpl_, live, t, add);
      // A third of each chunk targets the template just touched, so
      // reports in flight across its update really change path.
      auto flows = make_flows(spec_, topo, spec_.churn_chunk * 2 / 3, rng_);
      const auto hot = flows_into(topo, tpl_[t].prefix,
                                  spec_.churn_chunk - flows.size(), rng_);
      flows.insert(flows.end(), hot.begin(), hot.end());
      sample_into(churn_pool_, net, shadow, flows,
                  static_cast<std::uint32_t>(j + 1), ctl_tr_, report_ids_);
      report_ids_ += flows.size();
    }
    churn_pool_.index(topo.num_switches());
  }

  if (spec_.lossy_channel) {
    veridp::ChannelConfig cc = spec_.channel;
    cc.seed = args_.seed ^ 0xC4A77E1ULL;
    cc.history_limit = 0;
    channel_ = std::make_unique<ReportChannel>(cc);
  }

  // The §4.4 fragment (no ACLs, dst-prefix rules only) admits an
  // incremental updater beside the snapshot publisher.
  fragment_ = true;
  for (const veridp::SwitchConfig& c : dep_.ctl->logical_configs()) {
    fragment_ = fragment_ && c.in_acls.empty() && c.out_acls.empty();
    for (const veridp::FlowRule& r : c.table.rules())
      fragment_ = fragment_ && r.match.is_dst_prefix_only();
  }
}

void Bench::time_setup(int min_reps, double budget_s) {
  // Set-ups until min_reps are done and the next one (at the median time
  // so far) would overrun budget_s. Each monitors a fresh copy of the
  // configured controller, so no server outlives the controller it
  // subscribed to.
  veridp::ParallelConfig cfg;
  cfg.workers = kWorkers;
  const std::int64_t start = now_ns();
  for (int i = 0; i < min_reps || (!setup_s_.empty() &&
                                   seconds_since(start) + median(setup_s_) <=
                                       budget_s);
       ++i) {
    Controller c = *dep_.ctl;
    const std::int64_t t0 = now_ns();
    const std::size_t sp = ctl_tr_.begin(Layer::kSync);
    ParallelServer ps(c, cfg);
    ps.enable_epoch_checking(kSnapshotRing);
    ps.sync();
    ctl_tr_.end(sp);
    setup_s_.push_back(seconds_since(t0));
  }
}

void Bench::start_monitors() {
  Controller& ctl = *dep_.ctl;
  veridp::ParallelConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_capacity = kQueueCapacity;
  cfg.high_watermark = kHighWatermark;
  cfg.failure_keep = kFailureKeep;
  ps_ = std::make_unique<ParallelServer>(ctl, cfg);
  ps_->enable_epoch_checking(kSnapshotRing);
  ps_->sync();
  seq_ = std::make_unique<Server>(ctl, Server::Mode::kFullRebuild);
  seq_->enable_epoch_checking(kSnapshotRing);
  seq_->sync();
  veridp::IngestConfig icfg;
  icfg.capacity = 4 * kSeqChunk;
  icfg.high_watermark = 3 * kSeqChunk;
  icfg.failure_keep = kFailureKeep;
  ingest_ = std::make_unique<ReportIngest>(*seq_, icfg);
  if (args_.trace && fragment_) {
    updater_ = std::make_unique<veridp::IncrementalUpdater>(inc_space_,
                                                            *dep_.topo);
    updater_->initialize(ctl.logical_configs());
    ctl.subscribe([this](const veridp::RuleEvent& ev) {
      recorded_.push_back(ev);
    });
  }
  producer_ = std::make_unique<JobThread>();
  ps_->start();
}

Stream Bench::prepare(const Pool& pool, bool through_channel) {
  Stream st;
  const std::size_t pass = stamper_->begin_pass(pool, dep_.ctl->epoch());
  st.dgrams.reserve(pool.reports.size() + pool.reports.size() / 16);
  st.first_id = report_ids_;
  for (const PoolReport& pr : pool.reports) {
    const std::uint64_t id = report_ids_++;
    const TagReport rep = stamper_->stamp(pass, pr);
    while (st.seg_start.size() < pr.rel_epoch)
      st.seg_start.push_back(st.dgrams.size());
    const std::size_t se =
        ctl_tr_.sampled(id) ? ctl_tr_.begin(Layer::kEncode, id) : SIZE_MAX;
    Datagram bytes = veridp::wire::encode_report(rep);
    ctl_tr_.end(se);
    if (!through_channel) {
      st.dgrams.push_back(std::move(bytes));
      st.exp.count(pr.cls);
      continue;
    }
    const veridp::ChannelStats before = channel_->stats();
    const std::size_t sc =
        ctl_tr_.sampled(id) ? ctl_tr_.begin(Layer::kChannel, id) : SIZE_MAX;
    channel_->send_bytes(std::move(bytes), rep.outport.sw, rep.seq);
    ctl_tr_.end(sc);
    const veridp::ChannelStats& after = channel_->stats();
    const bool dropped = after.dropped != before.dropped;
    const bool corrupted = after.corrupted != before.corrupted;
    const bool dup = after.duplicated != before.duplicated;
    if (dropped) continue;
    if (corrupted) {
      st.exp.corrupt += dup ? 2 : 1;
      continue;
    }
    if (dup) ++st.exp.dup;
    st.exp.count(pr.cls);
    while (auto d = channel_->deliver()) st.dgrams.push_back(std::move(*d));
  }
  if (through_channel) {
    for (Datagram& d : channel_->drain_all()) st.dgrams.push_back(std::move(d));
  }
  st.exp.delivered = st.dgrams.size();
  st.reordered = through_channel;
  return st;
}

double Bench::parallel_pass(const Stream& st) {
  double wall = 0;
  progress_.store(0, std::memory_order_relaxed);
  producer_->post([this, &st, &wall] {
    const std::size_t round = prod_tr_.begin(Layer::kRound);
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < st.dgrams.size(); ++i) {
      if (i % kDepthCheckEvery == 0) {
        while (ps_->queue_depth() > kDepthLimit) std::this_thread::yield();
        progress_.store(i, std::memory_order_release);
      }
      const std::uint64_t id = st.first_id + i;
      const std::size_t s =
          prod_tr_.sampled(id)
              ? prod_tr_.begin(Layer::kSubmit, st.reordered ? 0 : id)
              : SIZE_MAX;
      ps_->submit_datagram(st.dgrams[i]);
      prod_tr_.end(s);
    }
    progress_.store(st.dgrams.size(), std::memory_order_release);
    const std::int64_t td = now_ns();
    const std::size_t sd = prod_tr_.begin(Layer::kDrain);
    ps_->drain();
    prod_tr_.end(sd);
    const std::int64_t t1 = now_ns();
    drain_us_.push_back(static_cast<double>(t1 - td) * 1e-3);
    prod_tr_.end(round, static_cast<std::uint32_t>(st.dgrams.size()));
    wall = static_cast<double>(t1 - t0) * 1e-9;
  });
  if (spec_.churn && !st.seg_start.empty())
    run_churn_events(st);
  producer_->wait();
  attempted_ += st.dgrams.size();
  return wall;
}

void Bench::issue_timed(std::size_t t, bool add) {
  Scoped sp(ctl_tr_, Layer::kRuleEvent);
  issue_event(*dep_.ctl, tpl_, live_, t, add);
}

void Bench::publish_timed(const std::vector<std::int64_t>& issued_at) {
  {
    Scoped sp(ctl_tr_, Layer::kPublish);
    ps_->publish();
  }
  const std::int64_t t1 = now_ns();
  for (const std::int64_t t0 : issued_at) {
    publish_ms_.push_back(static_cast<double>(t1 - t0) * 1e-6);
    ++attempted_;
    ++events_;
  }
  if (ps_->snapshot()->epoch != dep_.ctl->epoch())
    breach(issued_at.size(), "publish left the served snapshot behind");
}

void Bench::run_churn_events(const Stream& st) {
  // Event j is issued once the producer reaches chunk j (the data plane
  // samples under config j right after the switches took event j). The
  // snapshot is published lazily: each publish() absorbs every event
  // issued since the previous one, so reports may race ahead of the
  // served table and be judged by the ahead-of-table rule.
  const std::size_t n = cycle_length(tpl_.size());
  std::vector<std::int64_t> pending;
  std::size_t j = 0;
  while (j < n || !pending.empty()) {
    const bool producer_done = producer_->done();
    if (j < n && (producer_done || j >= st.seg_start.size() ||
                  progress_.load(std::memory_order_acquire) >=
                      st.seg_start[j])) {
      const auto [t, add] = cycle_event(tpl_.size(), j);
      pending.push_back(now_ns());
      issue_timed(t, add);
      ++j;
      continue;
    }
    if (!pending.empty()) {
      publish_timed(pending);
      pending.clear();
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

bool Bench::verdict_agrees(const TagReport& r, const Verdict& v,
                           bool stale_ok) {
  const Pool* pool = nullptr;
  const PoolReport* pr = stamper_->lookup(r.outport.sw, r.seq, &pool);
  if (pr == nullptr) return false;
  if (stale_ok && v.status == veridp::VerifyStatus::kStaleEpoch) return true;
  if (pr->cls == Cls::kFalseNegative && v.ok()) ++fn_seen_;
  return pr->cls == Cls::kFail ? v.failed() : v.ok();
}

void Bench::check_seq_failures(std::uint64_t failed) {
  // The newest `failed` retained failures are this pass's: each must be
  // a report whose real path left the intended one.
  const std::deque<TagReport>& kept = ingest_->recent_failures();
  if (failed > kept.size()) {
    violate("sequential failures evicted before their class check");
    return;
  }
  for (std::size_t i = kept.size() - failed; i < kept.size(); ++i) {
    const Pool* pool = nullptr;
    const PoolReport* pr =
        stamper_->lookup(kept[i].outport.sw, kept[i].seq, &pool);
    if (pr == nullptr || pr->cls != Cls::kFail)
      breach(1, "false positive: a consistent report failed verification");
  }
}

double Bench::sequential_pass(const Stream& st, bool check_each) {
  if (check_each) {
    ingest_->set_verdict_sink([this](const TagReport& r, const Verdict& v) {
      if (!verdict_agrees(r, v, false))
        breach(1, "sequential verdict disagrees with the oracle");
    });
  }
  const std::uint64_t failed0 = ingest_->health().failed;
  const std::size_t round = ctl_tr_.begin(Layer::kRound);
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < st.dgrams.size(); i += kSeqChunk) {
    const std::size_t hi = std::min(st.dgrams.size(), i + kSeqChunk);
    for (std::size_t k = i; k < hi; ++k) {
      const std::uint64_t id = st.first_id + k;
      const std::size_t s =
          ctl_tr_.sampled(id)
              ? ctl_tr_.begin(Layer::kOffer, st.reordered ? 0 : id)
              : SIZE_MAX;
      ingest_->offer(st.dgrams[k]);
      ctl_tr_.end(s);
    }
    const std::size_t sp = ctl_tr_.begin(Layer::kProcess);
    const std::size_t n = ingest_->process();
    ctl_tr_.end(sp, static_cast<std::uint32_t>(n == 0 ? 1 : n));
  }
  const double wall = seconds_since(t0);
  ctl_tr_.end(round, static_cast<std::uint32_t>(st.dgrams.size()));
  if (check_each) ingest_->set_verdict_sink({});
  check_seq_failures(ingest_->health().failed - failed0);
  attempted_ += st.dgrams.size();
  return wall;
}

void Bench::check_stream(const char* who, const Totals& t, const Expect& e,
                         bool exact) {
  const std::string w = who;
  // Conservation after drain: every datagram in exactly one bucket.
  if (t.in_queue != 0 ||
      t.received != t.passed + t.failed + t.stale + t.shed + t.quarantined +
                        t.deduped)
    violate(w + ": conservation violated");
  if (t.received != e.delivered) violate(w + ": received != delivered");
  // The channel's own account of what it delivered.
  if (t.quarantined != e.corrupt)
    violate(w + ": quarantined != corrupted datagrams delivered");
  if (t.deduped != e.dup)
    violate(w + ": deduped != duplicated datagrams delivered");
  // Shed or lost reports are monitor failures.
  breach(t.shed, w + ": reports shed");
  const std::uint64_t verified = t.passed + t.failed + t.stale;
  if (verified < e.verified) breach(e.verified - verified, w + ": reports lost");
  if (exact) {
    const std::uint64_t want_pass = e.pass + e.fn;
    breach(t.stale, w + ": stale verdicts on a current-epoch stream");
    breach(t.passed > want_pass ? t.passed - want_pass : want_pass - t.passed,
           w + ": passed count disagrees with the oracle");
    breach(t.failed > e.fail ? t.failed - e.fail : e.fail - t.failed,
           w + ": failed count disagrees with the oracle");
  } else {
    // Off-epoch reports may turn stale, never into a wrong verdict.
    if (t.passed > e.pass + e.fn)
      breach(t.passed - e.pass - e.fn, w + ": more passes than passable reports");
    if (t.failed > e.fail)
      breach(t.failed - e.fail, w + ": more failures than faulty reports");
  }
}

void Bench::localize_one(const TagReport& rep, bool keep) {
  const Pool* pool = nullptr;
  const PoolReport* pr = stamper_->lookup(rep.outport.sw, rep.seq, &pool);
  ++attempted_;
  if (pr == nullptr) {
    breach(1, "retained failure the stream never sent");
    return;
  }
  if (pr->cls != Cls::kFail) {
    breach(1, "false positive: a consistent report failed verification");
    return;
  }
  veridp::LocalizeResult res;
  const std::int64_t t0 = now_ns();
  {
    Scoped sp(ctl_tr_, Layer::kLocalize);
    res = ps_->localize(rep);
  }
  localize_us_.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  candidates_.push_back(static_cast<double>(res.candidates.size()));
  if (res.recovered(pool->real_paths[pr->real])) ++recovered_;
  // Algorithm-4 properties of every candidate.
  bool ok = true;
  for (const veridp::Candidate& c : res.candidates) {
    if (c.path.empty()) {
      ok = false;
      break;
    }
    const Hop& first = c.path.front();
    const Hop& last = c.path.back();
    ok = ok && first.sw == rep.inport.sw && first.in == rep.inport.port;
    ok = ok && last.sw == rep.outport.sw && last.out == rep.outport.port;
    bool blamed_on_path = false;
    for (const Hop& h : c.path) {
      ok = ok && rep.tag.may_contain(h);
      blamed_on_path = blamed_on_path || h.sw == c.deviating_switch;
    }
    ok = ok && blamed_on_path;
  }
  if (!ok) breach(1, "localization candidate breaks an Algorithm-4 property");
  if (keep && retained_failures_.size() < kLocalizePerDrain)
    retained_failures_.push_back(rep);
}

void Bench::localize_failures(std::uint64_t failed) {
  // Every failed verdict of the phase is retained (kFailureKeep), so each
  // is class-checked; the first kLocalizePerDrain are also localized.
  const std::vector<TagReport> failures = ps_->take_failures();
  if (failures.size() != failed)
    violate("parallel failures retained != failed verdicts");
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i < kLocalizePerDrain) {
      localize_one(failures[i], true);
    } else {
      const Pool* pool = nullptr;
      const PoolReport* pr =
          stamper_->lookup(failures[i].outport.sw, failures[i].seq, &pool);
      if (pr == nullptr || pr->cls != Cls::kFail)
        breach(1, "false positive: a consistent report failed verification");
    }
  }
}

void Bench::feed_incremental() {
  if (!updater_) return;
  for (const veridp::RuleEvent& ev : recorded_) {
    veridp::IncrementalUpdater::UpdateStats s;
    {
      Scoped sp(ctl_tr_, Layer::kIncremental);
      s = updater_->apply(ev);
    }
    inc_touched_.push_back(static_cast<double>(s.nodes_touched));
  }
  recorded_.clear();
}

void Bench::warmup_round() {
  // One quiescent pass over the base pool: per-report oracle check on the
  // sequential monitor, and equal totals from both monitors.
  Stream st = prepare(base_pool_, channel_ != nullptr);
  const ParallelHealth p0 = ps_->health();
  parallel_pass(st);
  const Totals pt = delta(p0, ps_->health());
  check_stream("parallel warm-up", pt, st.exp, true);
  localize_failures(pt.failed);
  const IngestHealth s0 = ingest_->health();
  sequential_pass(st, true);
  const Totals stt = delta(s0, ingest_->health());
  check_stream("sequential warm-up", stt, st.exp, true);
  if (pt.passed != stt.passed || pt.failed != stt.failed ||
      pt.stale != stt.stale)
    violate("sequential and parallel totals differ on the warm-up stream");
}

void Bench::steady_round() {
  const bool churn = spec_.churn;
  Stream st = prepare(churn ? churn_pool_ : base_pool_, channel_ != nullptr);
  const ParallelHealth p0 = ps_->health();
  const double pw = parallel_pass(st);
  const Totals pt = delta(p0, ps_->health());
  par_rate_.push_back(static_cast<double>(pt.passed + pt.failed + pt.stale) /
                      pw);
  check_stream("parallel", pt, st.exp, !churn);
  localize_failures(pt.failed);
  feed_incremental();
  // The sequential monitor rebuilds lazily on its first verify after
  // rule events; absorb that before its timed pass.
  (void)seq_->table();
  const IngestHealth s0 = ingest_->health();
  const double sw = sequential_pass(st, false);
  const Totals stt = delta(s0, ingest_->health());
  seq_rate_.push_back(static_cast<double>(stt.passed + stt.failed + stt.stale) /
                      sw);
  check_stream("sequential", stt, st.exp, !churn);
  if (!churn && (pt.passed != stt.passed || pt.failed != stt.failed ||
                 pt.stale != stt.stale))
    violate("sequential and parallel totals differ on one stream");
}

std::size_t Bench::submit_paced(std::uint32_t epoch, double rate,
                                double budget_s, bool drain_each,
                                std::vector<float>* latency_us, Expect* exp,
                                const std::atomic<bool>* stop,
                                std::size_t* first_pass) {
  // Open loop: report k is due at k / rate after the start, whatever the
  // monitor does. The generator sleeps until the next report is due,
  // submits every report due by then and (drain_each) waits for their
  // verdicts; each report is charged from its own due time to the end of
  // the drain() that covers it. Reports falling due while a drain runs
  // wait in the generator and are charged that wait too.
  const Pool& pool = base_pool_;
  const double ns_per_report = 1e9 / rate;
  const auto budget = static_cast<std::size_t>(budget_s * rate);
  std::size_t pass = stamper_->begin_pass(pool, epoch);
  *first_pass = pass;
  std::size_t i = 0;
  std::size_t k = 0;
  const std::int64_t t0 = now_ns();
  const auto due_ns = [&](std::size_t n) {
    return static_cast<std::int64_t>(static_cast<double>(n) * ns_per_report);
  };
  for (;;) {
    if (stop != nullptr ? stop->load(std::memory_order_acquire) : k >= budget)
      break;
    std::int64_t now = now_ns() - t0;
    if (now < due_ns(k)) {
      // Sleep, not spin: a spinning generator is what the host's
      // scheduler preempts for whole slices.
      std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns(k) - now));
      now = now_ns() - t0;
    }
    auto hi =
        static_cast<std::size_t>(static_cast<double>(now) / ns_per_report) + 1;
    if (stop == nullptr) hi = std::min(hi, budget);
    if (drain_each)
      lateness_us_.push_back(static_cast<double>(now - due_ns(k)) * 1e-3);
    const std::size_t lo = k;
    for (; k < hi; ++k) {
      if (k % kDepthCheckEvery == 0)
        while (ps_->queue_depth() > kDepthLimit) std::this_thread::yield();
      const PoolReport& pr = pool.reports[i];
      const std::uint64_t id = k + 1;
      const bool traced = prod_tr_.sampled(id);
      const TagReport rep = stamper_->stamp(pass, pr);
      const std::size_t se =
          traced ? prod_tr_.begin(Layer::kEncode, id) : SIZE_MAX;
      const Datagram d = veridp::wire::encode_report(rep);
      prod_tr_.end(se);
      const std::size_t ss =
          traced ? prod_tr_.begin(Layer::kSubmit, id) : SIZE_MAX;
      ps_->submit_datagram(d);
      prod_tr_.end(ss);
      exp->count(pr.cls);
      if (++i == pool.reports.size()) {
        pass = stamper_->begin_pass(pool, epoch);
        i = 0;
      }
    }
    if (drain_each) {
      ps_->drain();
      const std::int64_t done = now_ns() - t0;
      for (std::size_t n = lo; n < k; ++n)
        latency_us->push_back(
            static_cast<float>(static_cast<double>(done - due_ns(n)) * 1e-3));
    }
  }
  ps_->drain();
  stamper_->end_pass(pass, i);
  exp->delivered = k;
  return k;
}

void Bench::open_loop_window(double seconds) {
  Expect exp;
  const ParallelHealth p0 = ps_->health();
  std::size_t sent = 0;
  std::size_t first_pass = 0;
  std::vector<float> lat;
  const std::uint32_t epoch = dep_.ctl->epoch();
  producer_->post([this, epoch, seconds, &exp, &sent, &lat, &first_pass] {
    sent = submit_paced(epoch, spec_.offered_rate, seconds, true, &lat, &exp,
                        nullptr, &first_pass);
  });
  producer_->wait();
  attempted_ += sent;
  const Totals t = delta(p0, ps_->health());
  check_stream("open loop", t, exp, true);
  localize_failures(t.failed);
  replay_sequential(first_pass, sent, exp, true);
  if (lat.empty()) return;
  verdict_us_.insert(verdict_us_.end(), lat.begin(), lat.end());
  std::vector<double> w(lat.begin(), lat.end());
  window_p99_us_.push_back(percentile(w, 0.99));
  window_max_us_.push_back(w.back());
}

void Bench::publication(double budget_s) {
  // Rule events, each published at once, while the producer keeps a
  // paced report stream flowing.
  Expect exp;
  std::atomic<bool> stop{false};
  std::size_t sent = 0;
  const ParallelHealth p0 = ps_->health();
  std::size_t first_pass = 0;
  const std::uint32_t epoch = dep_.ctl->epoch();
  producer_->post([this, epoch, &exp, &stop, &sent, &first_pass] {
    sent = submit_paced(epoch, spec_.background_rate, 0, false, nullptr, &exp,
                        &stop, &first_pass);
  });
  const std::int64_t t0 = now_ns();
  int n = 0;
  while (n < spec_.min_publish_events || seconds_since(t0) < budget_s) {
    const auto [t, add] = cycle_event(tpl_.size(), next_event_);
    next_event_ = (next_event_ + 1) % cycle_length(tpl_.size());
    const std::vector<std::int64_t> issued{now_ns()};
    issue_timed(t, add);
    publish_timed(issued);
    ++n;
  }
  stop.store(true, std::memory_order_release);
  producer_->wait();
  attempted_ += sent;
  const Totals t = delta(p0, ps_->health());
  check_stream("publication", t, exp, false);
  localize_failures(t.failed);
  feed_incremental();
  replay_sequential(first_pass, sent, exp, false);
}

void Bench::replay_sequential(std::size_t first_pass, std::size_t count,
                              const Expect& exp, bool exact) {
  // The sequential monitor is fed every report the parallel one saw
  // (untimed), so both follow the same per-switch sequences and the
  // sequential loss estimate counts only what the channel lost.
  // Every verdict is checked against its report's class; off-epoch
  // reports (publication) may be stale.
  ingest_->set_verdict_sink([this, exact](const TagReport& r,
                                          const Verdict& v) {
    if (!verdict_agrees(r, v, !exact))
      breach(1, "sequential verdict disagrees with the oracle");
  });
  const IngestHealth s0 = ingest_->health();
  const std::size_t n = base_pool_.reports.size();
  for (std::size_t j = 0; j < count; ++j) {
    const TagReport rep =
        stamper_->stamp(first_pass + j / n, base_pool_.reports[j % n]);
    ingest_->offer(veridp::wire::encode_report(rep));
    if ((j + 1) % kSeqChunk == 0) ingest_->process();
  }
  ingest_->process();
  ingest_->set_verdict_sink({});
  attempted_ += count;
  check_stream(exact ? "sequential open loop" : "sequential publication",
               delta(s0, ingest_->health()), exp, exact);
}

void Bench::traced_layers() {
  const veridp::Topology& topo = *dep_.topo;
  const Controller& ctl = *dep_.ctl;
  {
    veridp::HeaderSpace space;
    std::unique_ptr<veridp::ConfigTransferProvider> prov;
    {
      Scoped sp(ctl_tr_, Layer::kTransfer);
      prov = std::make_unique<veridp::ConfigTransferProvider>(
          space, topo, ctl.logical_configs());
    }
    veridp::PathTableBuilder builder(space, topo, *prov);
    veridp::PathTable table;
    {
      Scoped sp(ctl_tr_, Layer::kBuild);
      table = builder.build();
    }
    build_paths_ = static_cast<double>(table.stats().num_paths);
    bdd_nodes_ = static_cast<double>(space.manager().node_count());
  }
  // Scalar and batched verify over the served snapshot, memo on, on one
  // pass of the base pool stamped at the current epoch (wire decode
  // timed on the way).
  const std::size_t pass = stamper_->begin_pass(base_pool_, ctl.epoch());
  std::vector<TagReport> reps;
  reps.reserve(base_pool_.reports.size());
  for (std::size_t i = 0; i < base_pool_.reports.size(); ++i) {
    const Datagram d = veridp::wire::encode_report(
        stamper_->stamp(pass, base_pool_.reports[i]));
    const std::size_t s = ctl_tr_.sampled(i + 1)
                              ? ctl_tr_.begin(Layer::kDecode, i + 1)
                              : SIZE_MAX;
    auto r = veridp::wire::decode_report(d);
    ctl_tr_.end(s);
    if (r) reps.push_back(*r);
  }
  const std::shared_ptr<const veridp::EpochSnapshot> snap = ps_->snapshot();
  const veridp::EpochTables tables = snap->view();
  {
    veridp::VerifyMemo memo;
    std::uint64_t ok = 0;
    Scoped sp(ctl_tr_, Layer::kVerifyScalar, 0,
              static_cast<std::uint32_t>(reps.size()));
    for (const TagReport& r : reps)
      ok += veridp::verify_epoch_aware(r, tables, &memo).ok() ? 1 : 0;
    if (ok == 0 && !reps.empty()) violate("scalar verify passed nothing");
  }
  {
    veridp::VerifyMemo memo;
    const std::size_t bs = veridp::autotuned_batch_size();
    veridp::ReportBatch soa;
    soa.reserve(bs);
    std::vector<Verdict> out(bs);
    Scoped sp(ctl_tr_, Layer::kVerifyBatch, 0,
              static_cast<std::uint32_t>(reps.size()));
    for (std::size_t i = 0; i < reps.size(); i += bs) {
      const std::size_t m = std::min(bs, reps.size() - i);
      soa.clear();
      for (std::size_t k = 0; k < m; ++k) soa.push(reps[i + k]);
      veridp::verify_epoch_aware_batch(soa, 0, m, tables, &memo, out.data());
    }
  }
}

int Bench::run() {
  const std::int64_t run_t0 = now_ns();
  warm_cpus();
  progress("building inputs");
  build_inputs();
  progress("timing set-up");
  time_setup(spec_.setup_reps, kSetupSeconds);
  start_monitors();
  progress("warm-up stream");
  warmup_round();
  // Closed-loop rounds and open-loop windows alternate, so both sample
  // the host over the whole run and a burst of preemption moves one
  // window, not the figure.
  const double r = args_.seconds;
  progress("steady rounds and open-loop windows");
  const std::int64_t t0 = now_ns();
  while (par_rate_.size() < 3 || seconds_since(t0) < 0.7 * r) {
    time_setup(0, kSetupPerRound);
    steady_round();
    open_loop_window(kWindowSeconds);
  }
  progress("publication");
  publication(0.30 * r);
  progress("done");
  // Tail percentiles need ten samples beyond them: top the localization
  // sample up by re-running retained failures when faults were rare.
  for (std::size_t i = 0; localize_us_.size() < kMinLocalizeSamples &&
                          !retained_failures_.empty();
       ++i)
    localize_one(retained_failures_[i % retained_failures_.size()], false);
  if (args_.trace) traced_layers();
  ps_->stop();
  std::printf("run: workload %s seed %" PRIu64 " wall %.1f s, %u busy threads "
              "(%u workers)\n",
              spec_.name.c_str(), args_.seed, seconds_since(run_t0),
              kBusyThreads, kWorkers);
  return emit();
}

// -- output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(),
                std::isfinite(ms[i].value) ? ms[i].value : 0.0,
                ms[i].unit.c_str());
  std::printf("}}\n");
}

int Bench::emit() {
  if (window_p99_us_.empty()) violate("no open-loop window completed");
  if (localize_us_.empty()) violate("no failure was localized");
  if (publish_ms_.empty()) violate("no rule event was published");

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  // Verdict latency over every open-loop report, pooled. It is a traced
  // (per-layer) figure, not an end-to-end one: at the open loop's low
  // load the worker parks between bursts, and waking it on a shared
  // virtual machine costs from tens of microseconds to milliseconds
  // depending on the neighbours, so the same code read 30 us to 1 ms.
  std::vector<double> lat(verdict_us_.begin(), verdict_us_.end());
  const double p50 = percentile(lat, 0.50);
  const double p99 = tail_supported(lat.size(), 0.99) ? percentile(lat, 0.99)
                                                      : std::nan("");
  if (std::isnan(p99)) violate("fewer than 1000 open-loop verdict samples");
  std::vector<double> late = lateness_us_;
  const double late50 = percentile(late, 0.50);
  const double late99 = tail_supported(late.size(), 0.99)
                            ? percentile(late, 0.99)
                            : (late.empty() ? 0.0 : late.back());

  const std::vector<Metric> e2e = {
      {"setup_s", median(setup_s_), "s"},
      {"verify_rate", median(par_rate_), "reports/s"},
      {"seq_verify_rate", median(seq_rate_), "reports/s"},
      {"publish_p50_ms", median(publish_ms_), "ms"},
      {"rss_mb", rss_mb, "MiB"},
  };

  const ParallelHealth ph = ps_->health();
  const IngestHealth ih = ingest_->health();
  const veridp::ScalTotals wt = ps_->profiler().totals();
  veridp::ChannelStats cs;
  if (channel_) cs = channel_->stats();

  std::printf(
      "counts: rounds %zu, verdict samples %zu in %zu windows "
      "(generator late p50 %.1f us, p99 %.1f us, offered %.0f reports/s), "
      "localizations %zu (p50 %.2f us), publishes %" PRIu64
      ", false negatives seen "
      "%" PRIu64 "\n",
      par_rate_.size(), lat.size(), window_p99_us_.size(), late50, late99,
      spec_.offered_rate, localize_us_.size(), median(localize_us_), events_,
      fn_seen_);
  std::vector<double> longest = window_max_us_;
  const double longest50 = percentile(longest, 0.5);  // sorts `longest`
  std::printf("open loop: verdict p50 %.1f us, p99 %.1f us; median window "
              "p99 %.1f us, max %.1f us; slowest verdict per window median "
              "%.1f us, max %.1f us\n",
              p50, p99, median(window_p99_us_),
              window_p99_us_.empty() ? 0.0
                                     : *std::max_element(window_p99_us_.begin(),
                                                         window_p99_us_.end()),
              longest50, longest.empty() ? 0.0 : longest.back());
  std::printf("pool: %zu reports (%zu pass, %zu fail, %zu false-negative), "
              "%zu switch faults\n",
              base_pool_.reports.size(), base_pool_.n_pass, base_pool_.n_fail,
              base_pool_.n_fn, faults_.size());
  for (const std::string& n : notes_) std::printf("check: %s\n", n.c_str());

  if (!args_.trace) {
    print_json(correct_, attempted_, failed_, e2e);
    return correct_ && failed_ == 0 ? 0 : 1;
  }

  // Traced run: the end-to-end figures go to a summary line (the tracing
  // overhead is their difference from an untraced run); the result
  // carries the per-layer metrics.
  std::printf("traced end-to-end:");
  for (const Metric& m : e2e)
    std::printf(" %s=%.6g%s", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("\n");

  std::vector<Span> spans = ctl_tr_.spans();
  spans.insert(spans.end(), prod_tr_.spans().begin(), prod_tr_.spans().end());
  const LayerTimes lt = self_times(spans);
  const auto p50_of = [&lt](Layer l, double scale) {
    std::vector<double> v = lt.self_ns[static_cast<std::size_t>(l)];
    return percentile(v, 0.5) * scale;
  };
  std::vector<double> loc = localize_us_;
  const double loc_p99 = tail_supported(loc.size(), 0.99)
                             ? percentile(loc, 0.99)
                             : std::nan("");
  if (std::isnan(loc_p99)) violate("fewer than 1000 localization samples");
  const double verified = static_cast<double>(ph.verified);

  const std::vector<Metric> layers = {
      {"open_loop.verdict_p50_us", p50, "us"},
      {"open_loop.verdict_p99_us", p99, "us"},
      {"controller.event_us", p50_of(Layer::kRuleEvent, 1e-3), "us"},
      {"flow.transfer_ms", p50_of(Layer::kTransfer, 1e-6), "ms"},
      {"path_builder.build_ms", p50_of(Layer::kBuild, 1e-6), "ms"},
      {"path_builder.paths", build_paths_, "count"},
      {"bdd.nodes", bdd_nodes_, "count"},
      {"incremental.apply_us", p50_of(Layer::kIncremental, 1e-3), "us"},
      {"incremental.nodes_touched", mean(inc_touched_), "count"},
      {"publish.call_ms", p50_of(Layer::kPublish, 1e-6), "ms"},
      {"publish.snapshots", static_cast<double>(ps_->snapshots_published()),
       "count"},
      {"dataplane.inject_ns", lt.per_item_ns(Layer::kInject), "ns"},
      {"wire.encode_ns", lt.per_item_ns(Layer::kEncode), "ns"},
      {"wire.decode_ns", lt.per_item_ns(Layer::kDecode), "ns"},
      {"channel.duplicated", static_cast<double>(cs.duplicated), "count"},
      {"channel.reordered", static_cast<double>(cs.reordered), "count"},
      {"channel.corrupted", static_cast<double>(cs.corrupted), "count"},
      {"channel.dropped", static_cast<double>(cs.dropped), "count"},
      {"ingest.offer_ns", lt.per_item_ns(Layer::kOffer), "ns"},
      {"ingest.process_ns", lt.per_item_ns(Layer::kProcess), "ns"},
      {"ingest.deduped", static_cast<double>(ih.deduped), "count"},
      {"ingest.quarantined", static_cast<double>(ih.quarantined), "count"},
      {"ingest.lost_estimate", static_cast<double>(ih.lost_estimate), "count"},
      {"lanes.submit_ns", lt.per_item_ns(Layer::kSubmit), "ns"},
      {"lanes.drain_us", median(drain_us_), "us"},
      {"verify.scalar_ns", lt.per_item_ns(Layer::kVerifyScalar), "ns"},
      {"verify.batch_ns", lt.per_item_ns(Layer::kVerifyBatch), "ns"},
      {"verify.memo_hit_rate",
       verified > 0 ? static_cast<double>(ph.memo_hits) / verified : 0.0,
       "ratio"},
      {"verify.stale_share",
       verified > 0 ? static_cast<double>(ph.stale) / verified : 0.0, "ratio"},
      {"workers.busy_ms", static_cast<double>(wt.busy_ns) * 1e-6, "ms"},
      {"workers.queue_wait_ms", static_cast<double>(wt.queue_wait_ns) * 1e-6,
       "ms"},
      {"workers.cpu_ms", static_cast<double>(wt.cpu_ns) * 1e-6, "ms"},
      {"workers.batch_occupancy", wt.batch_occupancy(), "reports"},
      {"workers.snapshot_loads", static_cast<double>(wt.snapshot_loads),
       "count"},
      {"localize.p50_us", median(localize_us_), "us"},
      {"localize.p99_us", loc_p99, "us"},
      {"localize.candidates", mean(candidates_), "count"},
      {"localize.recovered_share",
       localize_us_.empty() ? 0.0
                            : static_cast<double>(recovered_) /
                                  static_cast<double>(localize_us_.size()),
       "ratio"},
  };
  if (!args_.trace_out.empty() && !write_spans(args_.trace_out, spans))
    violate("could not write the span file");
  std::printf("spans: %zu recorded%s%s\n", spans.size(),
              args_.trace_out.empty() ? "" : ", written to ",
              args_.trace_out.c_str());
  print_json(correct_, attempted_, failed_, layers);
  return correct_ && failed_ == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: veridp_perfbench --workload <stanford_miss|"
                 "fattree_hot|internet2_churn> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  bool ok = false;
  const perfbench::WorkloadSpec spec = perfbench::spec_for(args.workload, &ok);
  if (!ok) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  perfbench::Bench bench(args, spec);
  return bench.run();
}
