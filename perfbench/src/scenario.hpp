// Workload inputs for the end-to-end benchmark: deployments, fault
// placement, report pools with their oracle classes, rule-event
// templates and the seq/epoch stamping that turns one pool into many
// distinct report streams.
//
// The oracle lives here and never asks the verifier: a report's class
// comes from comparing the simulated data plane's real path
// (ForwardResult::path) with logical_walk over the logical config the
// report was sampled under.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "controller/controller.hpp"
#include "dataplane/network.hpp"
#include "trace.hpp"
#include "veridp/channel.hpp"
#include "veridp/workload.hpp"

namespace perfbench {

using veridp::Controller;
using veridp::Hop;
using veridp::Network;
using veridp::PortKey;
using veridp::Prefix;
using veridp::RuleId;
using veridp::SwitchId;
using veridp::TagReport;

/// How a report must be judged.
enum class Cls : std::uint8_t {
  kPass,           ///< real path == intended path: must verify kOk
  kFail,           ///< paths differ: must fail (or be stale off-epoch)
  kFalseNegative,  ///< paths differ, same exit, equal Bloom tags (§6.3)
};

struct WorkloadSpec {
  std::string name;
  enum class Topo { kStanford, kFatTree, kInternet2 } topo;
  std::size_t pool_size = 0;       ///< base pool reports (one stream)
  bool zipf = false;               ///< Zipf flows + destinations (hot set)
  std::size_t zipf_universe = 0;   ///< distinct flows in the hot set
  double zipf_s = 1.0;             ///< Zipf exponent over flow ranks
  double fault_share = 0;          ///< most reports the faults affect
  std::size_t faults_per_switch = 0;
  bool lossy_channel = false;
  veridp::ChannelConfig channel;
  bool churn = false;              ///< rule churn beside the report stream
  std::size_t churn_templates = 0; ///< rules per churn cycle (2 events each)
  std::size_t churn_chunk = 0;     ///< reports sampled after each event
  double offered_rate = 0;         ///< open-loop reports/s
  double background_rate = 0;      ///< reports/s beside publication
  int setup_reps = 0;              ///< timed ParallelServer::sync() calls
  int min_publish_events = 0;
};

WorkloadSpec spec_for(const std::string& name, bool* ok);

/// Topology + controller with the workload's base policy installed. The
/// controller has no subscribers; copies of it are independent configs.
struct Deployment {
  std::unique_ptr<veridp::Topology> topo;
  std::unique_ptr<Controller> ctl;
};

Deployment make_deployment(const WorkloadSpec& spec);

/// A switch fault, re-applicable to any network deployed from the base
/// config (rule ids are stable there).
struct FaultSite {
  SwitchId sw;
  RuleId rule;
  bool blackhole;
  veridp::PortId port;  ///< new output port when !blackhole
};

std::vector<FaultSite> pick_faults(
    const Deployment& d, const std::vector<veridp::workload::Flow>& flows,
    const WorkloadSpec& spec, veridp::Rng& rng);
void apply_faults(Network& net, const std::vector<FaultSite>& faults);

/// A dst-prefix rule the control thread adds and later deletes (the
/// Fig-14 update shape; priority = prefix length keeps it in the §4.4
/// fragment).
struct RuleTemplate {
  SwitchId sw;
  Prefix prefix;
  veridp::Action action;
};

std::vector<RuleTemplate> make_templates(const Controller& ctl,
                                         std::size_t count, veridp::Rng& rng);

/// Event j of a churn cycle over `n` templates: add t0, add t1, del t0,
/// add t2, del t1, ..., del t(n-1). Returns {template, is_add}. The cycle
/// leaves the config as it found it.
std::pair<std::size_t, bool> cycle_event(std::size_t n, std::size_t j);
inline std::size_t cycle_length(std::size_t n) { return 2 * n; }

/// Issues one template event at `ctl`; `live[t]` holds the id of template
/// t's installed rule.
void issue_event(Controller& ctl, const std::vector<RuleTemplate>& tpl,
                 std::vector<RuleId>& live, std::size_t t, bool add);

struct PoolReport {
  TagReport rep;                  ///< seq as sampled; epoch unused
  std::uint32_t rel_epoch = 0;    ///< rule events applied before sampling
  Cls cls = Cls::kPass;
  std::uint32_t real = UINT32_MAX;  ///< index into Pool::real_paths
};

/// Reports sampled from one network. Within a switch the seqs run
/// 1..span[sw] in pool order, so consecutive passes over the pool with
/// shifted seqs form one gap-free per-switch sequence.
struct Pool {
  std::vector<PoolReport> reports;
  std::vector<std::vector<Hop>> real_paths;  ///< kFail / kFalseNegative only
  std::vector<std::uint32_t> span;           ///< per switch: max seq
  std::vector<std::vector<std::uint32_t>> by_seq;  ///< [sw][seq-1] -> index
  std::size_t n_pass = 0, n_fail = 0, n_fn = 0;

  void index(std::size_t num_switches);
};

/// The flows a workload samples.
std::vector<veridp::workload::Flow> make_flows(const WorkloadSpec& spec,
                                               const veridp::Topology& topo,
                                               std::size_t n,
                                               veridp::Rng& rng);

/// Flows whose destinations fall inside `prefix`.
std::vector<veridp::workload::Flow> flows_into(const veridp::Topology& topo,
                                               const Prefix& prefix,
                                               std::size_t n,
                                               veridp::Rng& rng);

/// Injects every flow (Algorithm-1 sampling and tagging in `net`),
/// classifies each report against logical_walk over `ctl` and appends
/// it to `pool`. Reports with ids `report_base + i` are traced.
void sample_into(Pool& pool, Network& net, const Controller& ctl,
                 const std::vector<veridp::workload::Flow>& flows,
                 std::uint32_t rel_epoch, Tracer& tr,
                 std::uint64_t report_base);

/// Assigns each pass over a pool its per-switch seq offsets and epoch
/// base, and maps a (switch, seq) back to the pool report it came from.
class Stamper {
 public:
  explicit Stamper(std::size_t num_switches) : offset_(num_switches, 0) {}

  /// Starts a pass; returns its id.
  std::size_t begin_pass(const Pool& pool, std::uint32_t epoch_base);
  /// Ends the latest pass after its first `used` reports, handing the
  /// seqs of the unused rest to the next pass (no gap in any switch's
  /// sequence).
  void end_pass(std::size_t pass, std::size_t used);

  [[nodiscard]] TagReport stamp(std::size_t pass, const PoolReport& r) const {
    const Pass& p = passes_[pass];
    TagReport t = r.rep;
    t.seq += p.offset[r.rep.outport.sw];
    t.epoch = p.epoch_base + r.rel_epoch;
    return t;
  }

  /// The pool report a stamped report came from (nullptr if none); sets
  /// `*pool` to its pool.
  [[nodiscard]] const PoolReport* lookup(SwitchId sw, std::uint32_t seq,
                                         const Pool** pool) const;

 private:
  struct Pass {
    const Pool* pool;
    std::vector<std::uint32_t> offset;
    std::uint32_t epoch_base;
  };
  std::vector<std::uint32_t> offset_;
  std::vector<Pass> passes_;
};

}  // namespace perfbench
