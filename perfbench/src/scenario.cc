#include "scenario.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "controller/routing.hpp"
#include "dataplane/fault.hpp"
#include "flow/walk.hpp"
#include "topo/generators.hpp"

namespace perfbench {

using veridp::Action;
using veridp::Match;
using veridp::Rng;
using veridp::Topology;
using veridp::workload::Flow;

WorkloadSpec spec_for(const std::string& name, bool* ok) {
  WorkloadSpec s;
  s.name = name;
  *ok = true;
  if (name == "stanford_miss") {
    s.topo = WorkloadSpec::Topo::kStanford;
    s.pool_size = 100000;
    s.fault_share = 0.03;
    s.faults_per_switch = 2;
    s.offered_rate = 125000;
    s.background_rate = 50000;
    s.setup_reps = 5;
    s.min_publish_events = 4;
  } else if (name == "fattree_hot") {
    s.topo = WorkloadSpec::Topo::kFatTree;
    s.pool_size = 200000;
    s.zipf = true;
    s.zipf_universe = 6000;
    s.zipf_s = 1.1;
    s.fault_share = 0.03;
    s.faults_per_switch = 1;
    s.lossy_channel = true;
    s.channel.drop_rate = 0.01;
    s.channel.dup_rate = 0.02;
    s.channel.reorder_rate = 0.02;
    s.channel.corrupt_rate = 0.005;
    s.offered_rate = 100000;
    s.background_rate = 50000;
    s.setup_reps = 15;
    s.min_publish_events = 20;
  } else if (name == "internet2_churn") {
    s.topo = WorkloadSpec::Topo::kInternet2;
    s.pool_size = 32000;
    s.fault_share = 0.03;
    s.faults_per_switch = 4;
    s.churn = true;
    s.churn_templates = 16;
    s.churn_chunk = 2000;
    s.offered_rate = 100000;
    s.background_rate = 50000;
    s.setup_reps = 7;
    s.min_publish_events = 10;
  } else {
    *ok = false;
  }
  return s;
}

Deployment make_deployment(const WorkloadSpec& spec) {
  // The same base configs as bench/bench_common.hpp builds them: fixed
  // generator seeds, so every run monitors the same network and only
  // the traffic, faults and churn depend on the run's seed.
  Deployment d;
  switch (spec.topo) {
    case WorkloadSpec::Topo::kStanford:
      d.topo = std::make_unique<Topology>(veridp::stanford_like(14, 5));
      break;
    case WorkloadSpec::Topo::kFatTree:
      d.topo = std::make_unique<Topology>(veridp::fat_tree(8));
      break;
    case WorkloadSpec::Topo::kInternet2:
      d.topo = std::make_unique<Topology>(veridp::internet2_like(20));
      break;
  }
  d.ctl = std::make_unique<Controller>(*d.topo);
  veridp::routing::install_shortest_paths(*d.ctl);
  if (spec.topo == WorkloadSpec::Topo::kStanford) {
    Rng rng(1001);
    veridp::workload::add_specific_rules(*d.ctl, rng, 6000);
    veridp::workload::add_edge_acls(*d.ctl, rng, 80);
  } else if (spec.topo == WorkloadSpec::Topo::kInternet2) {
    Rng rng(1002);
    veridp::workload::add_specific_rules(*d.ctl, rng, 6000);
  }
  return d;
}

std::vector<FaultSite> pick_faults(const Deployment& d,
                                   const std::vector<Flow>& flows,
                                   const WorkloadSpec& spec, Rng& rng) {
  // Count how many of the workload's reports each rule carries (the
  // rules on their intended paths). Then fault faults_per_switch rules
  // at every switch, each carrying at least one report and at most an
  // equal part of fault_share. Every fault is exercised, and since
  // every switch gets the same number of faults (alternately rewired and
  // blackholed), the failing share and the mix of localization work are
  // alike from seed to seed.
  const Controller& ctl = *d.ctl;
  struct Use {
    SwitchId sw;
    veridp::PortId out;
    std::size_t count;
  };
  std::unordered_map<RuleId, Use> use;
  std::unordered_map<veridp::PacketHeader, std::vector<RuleId>> rules_of;
  for (const Flow& f : flows) {
    auto [it, fresh] = rules_of.try_emplace(f.header);
    if (fresh) {
      for (const Hop& hop : veridp::logical_walk(
               ctl.topology(), ctl.logical_configs(), f.entry, f.header)) {
        const veridp::FlowRule* r =
            ctl.logical(hop.sw).table.lookup(f.header, hop.in);
        if (r == nullptr) continue;
        it->second.push_back(r->id);
        use.try_emplace(r->id, Use{hop.sw, r->action.out, 0});
      }
    }
    for (const RuleId id : it->second) ++use.at(id).count;
  }
  const std::size_t switches = d.topo->num_switches();
  const double cap = spec.fault_share * static_cast<double>(flows.size()) /
                     static_cast<double>(switches * spec.faults_per_switch);
  std::vector<std::vector<RuleId>> cand(switches);
  for (const auto& [id, u] : use)
    if (static_cast<double>(u.count) <= cap) cand[u.sw].push_back(id);
  std::vector<FaultSite> out;
  for (SwitchId sw = 0; sw < switches; ++sw) {
    // The rules nearest half the cap, drawn among twice as many as are
    // needed: faults of alike weight, so no single fault's localization
    // cost dominates the mix.
    std::vector<RuleId>& c = cand[sw];
    const auto off = [&](RuleId id) {
      return std::abs(static_cast<double>(use.at(id).count) - cap / 2);
    };
    std::sort(c.begin(), c.end(), [&](RuleId a, RuleId b) {
      return off(a) != off(b) ? off(a) < off(b) : a < b;
    });
    c.resize(std::min(c.size(), 2 * spec.faults_per_switch));
    std::shuffle(c.begin(), c.end(), rng.engine());
    for (std::size_t k = 0; k < c.size() && k < spec.faults_per_switch; ++k) {
      const Use& u = use.at(c[k]);
      FaultSite site{sw, c[k], out.size() % 2 == 1, veridp::kDropPort};
      if (!site.blackhole) {
        const veridp::PortId ports = d.topo->num_ports(sw);
        veridp::PortId p = static_cast<veridp::PortId>(1 + rng.index(ports));
        if (p == u.out) p = p == 1 ? 2 : p - 1;
        site.port = p;
      }
      out.push_back(site);
    }
  }
  return out;
}

void apply_faults(Network& net, const std::vector<FaultSite>& faults) {
  veridp::FaultInjector inj(net);
  for (const FaultSite& f : faults) {
    if (f.blackhole)
      inj.replace_with_drop(f.sw, f.rule);
    else
      inj.rewrite_rule_output(f.sw, f.rule, f.port);
  }
}

std::vector<RuleTemplate> make_templates(const Controller& ctl,
                                         std::size_t count, Rng& rng) {
  const Topology& topo = ctl.topology();
  const auto& subnets = topo.subnets();
  std::vector<RuleTemplate> out;
  std::unordered_set<std::uint64_t> used;
  while (out.size() < count) {
    const auto& [egress, subnet] = subnets[rng.index(subnets.size())];
    Prefix sub;
    if (subnet.len < 28) {
      // A more-specific prefix inside the subnet: it takes over part of
      // the subnet's traffic.
      const auto lo = static_cast<std::uint8_t>(std::max(22, subnet.len + 1));
      const auto len = static_cast<std::uint8_t>(rng.uniform(lo, 28));
      const auto bits =
          static_cast<std::uint32_t>(rng.uniform(0, 0xffffffffULL));
      sub = Prefix{subnet.addr | (bits & ~Prefix::mask(subnet.len)), len};
    } else {
      // Host-sized subnets (fat tree): a covering prefix, shadowed by the
      // host routes — a real rule event that moves no traffic.
      if (subnet.len <= 28) continue;
      sub = Prefix{subnet.addr, static_cast<std::uint8_t>(
                                    rng.uniform(28, subnet.len - 1))};
    }
    const std::uint8_t len = sub.len;
    RuleTemplate t{egress.sw, sub, Action::drop()};
    if (out.size() % 2 == 1) {
      // A forwarding rule toward the subnet from a random switch.
      t.sw = static_cast<SwitchId>(rng.index(topo.num_switches()));
      if (t.sw == egress.sw) {
        t.action = Action::output(egress.port);
      } else {
        const auto hops = veridp::routing::bfs_next_hops(topo, egress.sw);
        const auto it = hops.find(t.sw);
        if (it == hops.end()) continue;
        t.action = Action::output(it->second);
      }
    }
    const std::uint64_t key = (static_cast<std::uint64_t>(t.sw) << 40) |
                              (static_cast<std::uint64_t>(len) << 32) |
                              sub.addr;
    bool clash = used.contains(key);
    for (const veridp::FlowRule& r : ctl.logical(t.sw).table.rules())
      clash = clash || r.match.dst == sub;
    if (clash) continue;
    used.insert(key);
    out.push_back(t);
  }
  return out;
}

std::pair<std::size_t, bool> cycle_event(std::size_t n, std::size_t j) {
  if (j == 0) return {0, true};
  if (j + 1 == cycle_length(n)) return {n - 1, false};
  if (j % 2 == 1) return {(j + 1) / 2, true};
  return {j / 2 - 1, false};
}

void issue_event(Controller& ctl, const std::vector<RuleTemplate>& tpl,
                 std::vector<RuleId>& live, std::size_t t, bool add) {
  const RuleTemplate& r = tpl[t];
  if (add) {
    live[t] = ctl.add_rule(r.sw, r.prefix.len, Match::dst_prefix(r.prefix),
                           r.action);
  } else {
    ctl.delete_rule(r.sw, live[t]);
    live[t] = veridp::kNoRule;
  }
}

void Pool::index(std::size_t num_switches) {
  span.assign(num_switches, 0);
  for (const PoolReport& r : reports)
    span[r.rep.outport.sw] = std::max(span[r.rep.outport.sw], r.rep.seq);
  by_seq.assign(num_switches, {});
  for (std::size_t s = 0; s < num_switches; ++s)
    by_seq[s].assign(span[s], UINT32_MAX);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const TagReport& t = reports[i].rep;
    by_seq[t.outport.sw][t.seq - 1] = static_cast<std::uint32_t>(i);
  }
}

namespace {

veridp::PacketHeader random_header(Rng& rng, const Prefix& src,
                                   const Prefix& dst) {
  const auto host = [&rng](const Prefix& p) {
    const std::uint32_t span = p.len >= 31 ? 0 : (~Prefix::mask(p.len)) - 1;
    return veridp::Ipv4{
        p.addr + (span == 0 ? 0
                            : static_cast<std::uint32_t>(rng.uniform(1, span)))};
  };
  veridp::PacketHeader h;
  h.src_ip = host(src);
  h.dst_ip = host(dst);
  h.proto = rng.chance(0.8) ? veridp::kProtoTcp : veridp::kProtoUdp;
  h.src_port = static_cast<std::uint16_t>(rng.uniform(1024, 65535));
  h.dst_port = static_cast<std::uint16_t>(rng.uniform(1, 8192));
  return h;
}

/// Cumulative Zipf(s) weights over ranks 1..n.
std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = acc;
  }
  for (double& c : cdf) c /= acc;
  return cdf;
}

std::size_t draw(const std::vector<double>& cdf, Rng& rng) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.real());
  return it == cdf.end() ? cdf.size() - 1
                         : static_cast<std::size_t>(it - cdf.begin());
}

}  // namespace

std::vector<Flow> make_flows(const WorkloadSpec& spec, const Topology& topo,
                             std::size_t n, Rng& rng) {
  if (!spec.zipf) return veridp::workload::random_flows(topo, rng, n);
  // Hot set: destinations ranked by a fixed shuffle and drawn Zipf(1),
  // so a few exit switches report most traffic; flows drawn Zipf(s)
  // over their ranks, so a few flows are sampled again and again.
  const auto& subnets = topo.subnets();
  std::vector<std::size_t> rank(subnets.size());
  for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
  // The hot destinations are the same for every seed: which switches
  // report most (and so how the lanes are loaded) is part of the
  // workload's shape, not of its draw.
  Rng shape(7);
  std::shuffle(rank.begin(), rank.end(), shape.engine());
  const std::vector<double> dst_cdf = zipf_cdf(subnets.size(), 1.0);
  std::vector<Flow> universe;
  universe.reserve(spec.zipf_universe);
  while (universe.size() < spec.zipf_universe) {
    const auto& [src_port, src] = subnets[rng.index(subnets.size())];
    const auto& [dst_port, dst] = subnets[rank[draw(dst_cdf, rng)]];
    if (src_port == dst_port) continue;
    universe.push_back(Flow{src_port, random_header(rng, src, dst)});
  }
  const std::vector<double> flow_cdf = zipf_cdf(universe.size(), spec.zipf_s);
  std::vector<Flow> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(universe[draw(flow_cdf, rng)]);
  return out;
}

std::vector<Flow> flows_into(const Topology& topo, const Prefix& prefix,
                             std::size_t n, Rng& rng) {
  const auto& subnets = topo.subnets();
  std::vector<Flow> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [src_port, src] = subnets[rng.index(subnets.size())];
    out.push_back(Flow{src_port, random_header(rng, src, prefix)});
  }
  return out;
}

void sample_into(Pool& pool, Network& net, const Controller& ctl,
                 const std::vector<Flow>& flows, std::uint32_t rel_epoch,
                 Tracer& tr, std::uint64_t report_base) {
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& f = flows[i];
    const std::uint64_t id = report_base + i;
    const bool traced = tr.sampled(id);
    const std::size_t s1 = traced ? tr.begin(Layer::kInject, id) : SIZE_MAX;
    veridp::ForwardResult fr = net.inject(f.header, f.entry, 0.0);
    tr.end(s1);
    if (fr.reports.size() != 1) continue;  // unsampled: no report to judge
    const std::size_t s2 = traced ? tr.begin(Layer::kOracleWalk, id) : SIZE_MAX;
    const std::vector<Hop> intended = veridp::logical_walk(
        ctl.topology(), ctl.logical_configs(), f.entry, f.header);
    tr.end(s2);
    PoolReport pr;
    pr.rep = fr.reports.front();
    pr.rel_epoch = rel_epoch;
    if (fr.path == intended) {
      pr.cls = Cls::kPass;
      ++pool.n_pass;
    } else {
      const Hop& last = intended.back();
      const bool same_exit = pr.rep.outport == PortKey{last.sw, last.out};
      const bool same_tag =
          pr.rep.tag == veridp::BloomTag::of_path(intended.data(),
                                                  intended.size(),
                                                  pr.rep.tag.bits());
      pr.cls = same_exit && same_tag ? Cls::kFalseNegative : Cls::kFail;
      ++(pr.cls == Cls::kFail ? pool.n_fail : pool.n_fn);
      pr.real = static_cast<std::uint32_t>(pool.real_paths.size());
      pool.real_paths.push_back(std::move(fr.path));
    }
    pool.reports.push_back(pr);
  }
}

std::size_t Stamper::begin_pass(const Pool& pool, std::uint32_t epoch_base) {
  passes_.push_back(Pass{&pool, offset_, epoch_base});
  for (std::size_t s = 0; s < offset_.size(); ++s) offset_[s] += pool.span[s];
  return passes_.size() - 1;
}

void Stamper::end_pass(std::size_t pass, std::size_t used) {
  const Pass& p = passes_[pass];
  offset_ = p.offset;
  for (std::size_t i = 0; i < used; ++i) {
    const TagReport& t = p.pool->reports[i].rep;
    offset_[t.outport.sw] =
        std::max(offset_[t.outport.sw], p.offset[t.outport.sw] + t.seq);
  }
}

const PoolReport* Stamper::lookup(SwitchId sw, std::uint32_t seq,
                                  const Pool** pool) const {
  for (auto it = passes_.rbegin(); it != passes_.rend(); ++it) {
    const std::uint32_t lo = it->offset[sw];
    if (seq <= lo || seq > lo + it->pool->span[sw]) continue;
    const std::uint32_t idx = it->pool->by_seq[sw][seq - lo - 1];
    if (idx == UINT32_MAX) return nullptr;
    *pool = it->pool;
    return &it->pool->reports[idx];
  }
  return nullptr;
}

}  // namespace perfbench
