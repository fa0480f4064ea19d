// Launch-to-summary serving benchmark driver.
//
// One process serves one named workload end to end through the sharded
// server: it generates the inputs from the seed (task pool spec and
// arrival script), constructs ShardedServer and calls serve(), timing the
// whole launch-to-summary path with its own steady clock. It repeats that
// for the requested seconds and reports medians.
//
// With --trace 1 it also replays the same serving loop through each
// layer's public entry points — TaskPool, AdmissionController::admit,
// MultiTaskMix, BatchMultiTaskManager, run_cyclic, RunSummaryAccumulator,
// fold_serving_summary — the calls ShardedServer makes for this
// configuration (inline manager, simulated clock, no perturbation, no
// front-end), with spans around each call. Per-step layers are timed on a
// jittered 1-in-N sample of calls and scaled by exact counts. The replay's
// deterministic summary must equal the untraced serve() result bit for bit.
//
// Output: human-readable lines, one line of typed metric records
// ({name, unit, kind, value}), and a final JSON line that perfbench/run.py
// checks and turns into the benchmark result.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_engine.hpp"
#include "serve/admission.hpp"
#include "serve/serving_summary.hpp"
#include "serve/sharded_server.hpp"
#include "sim/executor.hpp"
#include "sim/metrics.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace speedqm;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

template <class T>
double median(std::vector<T> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? static_cast<double>(v[n / 2])
               : 0.5 * (static_cast<double>(v[n / 2 - 1]) +
                        static_cast<double>(v[n / 2]));
}

template <class T>
double percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1),
                       p * static_cast<double>(v.size())));
  return static_cast<double>(v[rank]);
}

// ---------------------------------------------------------------------------
// Workloads. 4 shards on 2 worker threads (plus the control thread) keeps a
// run inside a 4-CPU machine with headroom; every flag not named here stays
// at ShardedServerSpec's default so a changed default gets measured.
// ---------------------------------------------------------------------------

constexpr std::size_t kShards = 4;
constexpr std::size_t kWorkers = 2;
/// Pools served per run, each generated from (seed, pool index). A single
/// pool's quality, smoothness and run time move by 10-17% from seed to
/// seed; aggregating a fixed set of pools per run keeps every deterministic
/// metric exact for a seed and narrows the spread between seeds.
constexpr std::size_t kPools = 16;

struct Workload {
  const char* name;
  std::size_t tasks;
  std::size_t cycles;
  PlacementPolicy placement;
  bool bursty;  ///< arrivals scripted by the "bursty" generator
  std::size_t workers;  ///< worker threads of the timed runs
};

const Workload kWorkloads[] = {
    // Calm, long horizon: the per-step sweep/step/sink path dominates.
    {"steady", 256, 8000, PlacementPolicy::kMostSlack, false, kWorkers},
    // Session churn: admission probes and shard rebuilds at barriers. Its
    // ~400 segments per pool would each start and join worker threads, so
    // on a shared host every barrier waits for a free CPU and the run time
    // follows the host's load; one worker runs the segments inline.
    {"churn", 256, 4000, PlacementPolicy::kMostSlack, true, 1},
    // Bulk initial admission onto growing shards, short horizon.
    {"cold-start", 512, 64, PlacementPolicy::kBestFit, false, kWorkers},
};

/// Worker count of the reference run a timed run must match bit for bit.
std::size_t check_workers(const Workload& w) {
  return w.workers == 1 ? kWorkers : 1;
}

std::vector<std::size_t> first_tasks(std::size_t n) {
  std::vector<std::size_t> tasks(n);
  for (std::size_t i = 0; i < n; ++i) tasks[i] = i;
  return tasks;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Inputs {
  ShardedServerSpec spec;
  ArrivalSchedule schedule;
};

/// The only inputs the program receives: a pool spec and an arrival script,
/// both derived from the benchmark seed and the pool index.
Inputs make_inputs(const Workload& w, std::uint64_t seed, std::size_t pool,
                   std::size_t workers) {
  Inputs in;
  in.spec.mix.num_tasks = w.tasks;
  in.spec.mix.seed = splitmix64(splitmix64(seed) + pool);
  in.spec.num_shards = kShards;
  in.spec.num_workers = workers;
  in.spec.cycles = w.cycles;
  in.spec.placement = w.placement;
  if (w.bursty) {
    // Same geometry as `speedqm_tool serve --workload bursty`: a quarter of
    // the pool is held back as the session pool.
    WorkloadSpec ws;
    ws.seed = in.spec.mix.seed ^ 0x5e;
    ws.cycles = w.cycles;
    ws.pool_tasks = w.tasks;
    ws.initial_tasks = w.tasks - std::min(w.tasks / 4 + 1, w.tasks - 1);
    const auto gen = open_workload_generator("bursty", ws);
    in.spec.initial_tasks = ws.initial_tasks;
    in.schedule = drain_arrival_schedule(*gen);
    // The shard budget is sized for the whole pool. With a quarter held
    // back, every shard would idle at maximum quality and never switch
    // level; sizing it for the resident tasks' cost instead runs the
    // shards at steady's operating point.
    const TaskPool pool_probe(in.spec.mix);
    in.spec.mix.budget_factor *=
        static_cast<double>(pool_probe.budget_for(first_tasks(ws.initial_tasks))) /
        static_cast<double>(pool_probe.budget_for(first_tasks(w.tasks)));
  }
  return in;
}

// ---------------------------------------------------------------------------
// End-to-end outcome (deterministic fields only), summed over pools.
// ---------------------------------------------------------------------------

/// Task-cycles served: one deadline per resident task per cycle (every
/// member's last action is due by the shard budget). Replays membership
/// from the schedule and the admission log, in the order the server
/// evaluates them.
std::size_t task_cycles(const Inputs& in, const ServingSummary& s) {
  const std::size_t horizon = in.spec.cycles;
  const std::size_t pool = in.spec.mix.num_tasks;
  const std::size_t initial = std::min(in.spec.initial_tasks, pool);
  std::vector<std::int64_t> joined(pool, -1);
  std::size_t next = 0;
  auto take = [&](std::size_t task) -> const AdmissionDecision& {
    if (next >= s.admissions.size() || s.admissions[next].task != task) {
      throw std::runtime_error("admission log does not match the inputs");
    }
    return s.admissions[next++];
  };
  for (std::size_t task = 0; task < initial; ++task) {
    if (take(task).admitted) joined[task] = 0;
  }
  std::size_t total = 0;
  for (const std::size_t c : in.schedule.boundaries()) {
    if (c >= horizon) continue;
    for (const ArrivalEvent& e : in.schedule.events_at(c)) {
      if (!e.join) {
        if (joined[e.task] >= 0) {
          total += c - static_cast<std::size_t>(joined[e.task]);
          joined[e.task] = -1;
        }
      } else if (take(e.task).admitted) {
        joined[e.task] = static_cast<std::int64_t>(c);
      }
    }
  }
  if (next != s.admissions.size()) {
    throw std::runtime_error("admission log longer than the inputs");
  }
  for (const std::int64_t j : joined) {
    if (j >= 0) total += horizon - static_cast<std::size_t>(j);
  }
  return total;
}

struct Outcome {
  double steps = 0;
  double joins = 0;
  double admitted = 0;
  double deadlines = 0;
  double misses = 0;
  double shard_cycles = 0;
  double quality_sum = 0;    ///< mean quality x steps
  double jump_sum = 0;       ///< mean |jump| x steps, per shard
  double overhead_sum = 0;   ///< overhead % x busy ns, per shard
  double busy_ns = 0;

  void add(const Inputs& in, const ServingSummary& s) {
    steps += static_cast<double>(s.total_steps);
    joins += static_cast<double>(s.admissions.size());
    admitted += static_cast<double>(s.admitted);
    deadlines += static_cast<double>(task_cycles(in, s));
    misses += static_cast<double>(s.deadline_misses);
    shard_cycles += static_cast<double>(s.cycles_seen);
    quality_sum += s.mean_quality * static_cast<double>(s.total_steps);
    for (const ShardReport& r : s.shards) {
      jump_sum += r.summary.smoothness.mean_abs_jump *
                  static_cast<double>(r.summary.total_steps);
      // A shard's clock only advances by charged overhead and action
      // time, so it is the shard's busy time.
      overhead_sum += r.summary.overhead_pct * static_cast<double>(r.clock);
      busy_ns += static_cast<double>(r.clock);
    }
  }
  static double ratio(double a, double b) { return b > 0 ? a / b : 0; }
  double mean_quality() const { return ratio(quality_sum, steps); }
  double quality_jump() const { return ratio(jump_sum, steps); }
  double overhead_pct() const { return ratio(overhead_sum, busy_ns); }
  double miss_rate() const { return ratio(misses, shard_cycles); }
  double deadline_met_ratio() const { return 1.0 - ratio(misses, deadlines); }
  double admit_ratio() const { return ratio(admitted, joins); }
};

/// FNV-1a over the deterministic ServingSummary fields: steps, ops, misses,
/// quality sums, per-shard results and the admission log. Host-timing
/// fields (wall_seconds, steps_per_second) are excluded.
class Digest {
 public:
  template <class T>
  void put(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char b : bytes) {
      h_ = (h_ ^ b) * 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const ServingSummary& s) {
  Digest d;
  auto u = [&](std::uint64_t v) { d.put(v); };
  u(s.total_steps);
  u(s.total_ops);
  u(s.manager_calls);
  u(s.deadline_misses);
  u(s.infeasible);
  u(s.cycles_seen);
  u(s.admitted);
  u(s.rejected);
  u(s.leaves);
  d.put(s.mean_quality);
  d.put(s.max_clock_s);
  d.put(s.deadline_miss_rate);
  u(s.decision_latency_ns.p50());
  u(s.decision_latency_ns.p99());
  for (const AdmissionDecision& a : s.admissions) {
    u(a.task);
    u(a.cycle);
    u(a.admitted ? 1 : 0);
    u(a.shard);
    d.put(a.slack);
    d.put(a.price);
  }
  for (const ShardReport& r : s.shards) {
    u(r.shard);
    u(r.members.size());
    for (const std::size_t m : r.members) u(m);
    u(r.summary.total_steps);
    u(r.summary.total_ops);
    u(r.summary.manager_calls);
    u(r.summary.deadline_misses);
    u(r.summary.infeasible);
    u(r.summary.cycles_seen);
    d.put(r.summary.mean_quality);
    d.put(r.summary.overhead_pct);
    d.put(r.summary.smoothness.mean_abs_jump);
    d.put(r.clock);
    u(r.epochs);
    u(r.rebuilds);
  }
  return d.value();
}

// ---------------------------------------------------------------------------
// Untraced launch to summary.
// ---------------------------------------------------------------------------

struct Served {
  Inputs inputs;
  ServingSummary summary;
  double setup_s = 0;
  double run_s = 0;
};

Served serve_once(const Workload& w, std::uint64_t seed, std::size_t pool,
                  std::size_t workers) {
  Served out;
  const std::int64_t t0 = now_ns();
  out.inputs = make_inputs(w, seed, pool, workers);
  ShardedServer server(out.inputs.spec, out.inputs.schedule);
  const std::int64_t t1 = now_ns();
  out.summary = server.serve();
  const std::int64_t t2 = now_ns();
  out.setup_s = to_s(t1 - t0);
  out.run_s = to_s(t2 - t0);
  return out;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out at the end.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;  ///< index into Trace::spans, -1 for a root
  int thread = 0;   ///< 0 = control thread, w + 1 = worker w
};

class Trace {
 public:
  int open(const char* name) {
    const int id = static_cast<int>(spans.size());
    spans.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(), 0});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans[id].end = now_ns();
    stack_.pop_back();
  }
  std::vector<Span> spans;

 private:
  std::vector<int> stack_;
};

class Scoped {
 public:
  Scoped(Trace& t, const char* name) : t_(t), id_(t.open(name)) {}
  ~Scoped() { t_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Trace& t_;
  int id_;
};

/// Sampling periods of the per-step layers. Refreshing decide calls are
/// ~1 in 40 calls, so decide is sampled more often than the sink to keep
/// enough timed sweeps on short runs.
constexpr std::uint32_t kDecideSampleEvery = 64;
constexpr std::uint32_t kSinkSampleEvery = 256;

/// 1-in-`every` sampler with gaps drawn uniformly from [1, 2 * every - 1],
/// so the sample never locks onto the period of the composed interleave.
class Sampler {
 public:
  Sampler(std::uint32_t every, std::uint64_t seed)
      : every_(every), state_(splitmix64(seed) | 1) {
    countdown_ = gap();
  }
  bool tick() {
    if (--countdown_ != 0) return false;
    countdown_ = gap();
    return true;
  }

 private:
  std::uint32_t gap() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return 1 + static_cast<std::uint32_t>((state_ >> 32) % (2 * every_ - 1));
  }
  std::uint32_t every_;
  std::uint64_t state_;
  std::uint32_t countdown_ = 1;
};

/// Per-shard counters of the per-step layers (one writer: the worker that
/// runs the shard's segment).
struct StepLayers {
  std::uint64_t epochs = 0;
  std::uint64_t lanes = 0;
  std::uint64_t sampled_epochs = 0;
  std::int64_t sampled_epoch_ns = 0;
  std::uint64_t sampled_steps = 0;
  std::int64_t sampled_step_ns = 0;
  std::int64_t cycle_ns = 0;  ///< every on_cycle call, timed exactly
};

// A sampled call is bracketed by three clock reads: the first interval is
// one clock read, subtracted so the clock's own cost does not bias the
// estimate.
inline std::int64_t sampled_cost(std::int64_t a, std::int64_t b,
                                 std::int64_t c) {
  return (c - b) - (b - a);
}

/// Times BatchMultiTaskManager::decide on sampled calls that turn out to
/// refresh (a composite decision point runs one batched sweep). Unsampled
/// calls forward untouched.
class TracedManager final : public QualityManager {
 public:
  TracedManager(BatchMultiTaskManager& inner, StepLayers& stats,
                Sampler& sampler)
      : inner_(inner), stats_(stats), sampler_(sampler) {}

  Decision decide(StateIndex s, TimeNs t) override {
    if (!sampler_.tick()) return inner_.decide(s, t);
    const std::size_t before = inner_.epochs();
    const std::int64_t a = now_ns();
    const std::int64_t b = now_ns();
    const Decision d = inner_.decide(s, t);
    const std::int64_t c = now_ns();
    if (inner_.epochs() != before) {
      ++stats_.sampled_epochs;
      stats_.sampled_epoch_ns += sampled_cost(a, b, c);
    }
    return d;
  }
  std::string name() const override { return inner_.name(); }
  std::size_t memory_bytes() const override { return inner_.memory_bytes(); }
  void reset() override { inner_.reset(); }

 private:
  BatchMultiTaskManager& inner_;
  StepLayers& stats_;
  Sampler& sampler_;
};

/// Times RunSummaryAccumulator::on_step on sampled steps (and every
/// on_cycle call), and counts sweeps exactly: the epoch manager charges a
/// sweep's ops to the refreshing call and every sweep decides at least the
/// calling task, so a step with ops > 0 is exactly a refreshing call.
class TracedSink final : public StepSink {
 public:
  TracedSink(RunSummaryAccumulator& acc, const std::vector<std::uint32_t>& live,
             StepLayers& stats, Sampler& sampler)
      : acc_(acc), live_(live), stats_(stats), sampler_(sampler) {}

  void on_step(const ExecStep& step) override {
    if (step.ops != 0) {
      ++stats_.epochs;
      stats_.lanes += live_[step.action];
    }
    if (!sampler_.tick()) {
      acc_.on_step(step);
      return;
    }
    const std::int64_t a = now_ns();
    const std::int64_t b = now_ns();
    acc_.on_step(step);
    const std::int64_t c = now_ns();
    ++stats_.sampled_steps;
    stats_.sampled_step_ns += sampled_cost(a, b, c);
  }
  void on_cycle(const CycleStats& cycle) override {
    const std::int64_t a = now_ns();
    acc_.on_cycle(cycle);
    stats_.cycle_ns += now_ns() - a;
  }

 private:
  RunSummaryAccumulator& acc_;
  const std::vector<std::uint32_t>& live_;
  StepLayers& stats_;
  Sampler& sampler_;
};

/// One shard segment as a worker saw it.
struct SegmentSpan {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t run_start = 0;  ///< run_cyclic call
  std::int64_t run_end = 0;
  int worker = 0;
};

/// The traced replay of ShardedServer for this benchmark's configuration.
/// Mirrors sharded_server.cpp call for call: placement, barrier events,
/// rebuilds, segments on the worker pool, fold.
class Replay {
 public:
  Replay(const Workload& w, std::uint64_t seed, Trace& trace)
      : w_(w), seed_(seed), trace_(trace) {}

  ServingSummary run();

  // Layer counters the spans cannot carry.
  std::size_t evaluations = 0;  ///< shard feasibility evaluations by admit()
  std::size_t composed_members = 0;
  std::size_t arena_bytes_max = 0;
  std::vector<double> imbalance_max;   ///< per segment phase: max shard wall
  std::vector<double> imbalance_mean;  ///< per segment phase: mean shard wall
  StepLayers layers;                   ///< summed over shards at the end
  Inputs inputs;

 private:
  struct Shard {
    std::size_t index = 0;
    std::vector<std::size_t> members;
    std::unique_ptr<MultiTaskMix> mix;
    std::unique_ptr<BatchMultiTaskManager> manager;
    std::unique_ptr<RunSummaryAccumulator> acc;
    std::vector<std::uint32_t> live;  ///< unfinished tasks at composite state s
    TimeNs clock = 0;
    std::size_t epochs = 0;
    std::size_t rebuilds = 0;
    bool dirty = false;
    StepLayers stats;
    std::unique_ptr<Sampler> decide_sampler;
    std::unique_ptr<Sampler> sink_sampler;
    std::vector<SegmentSpan> segments;
  };

  AdmissionDecision admit(std::size_t task,
                          const std::vector<std::vector<std::size_t>>& members,
                          std::size_t cycle);
  void apply_events(std::size_t cycle);
  void rebuild(Shard& shard);
  void run_segment(std::size_t start_cycle, std::size_t cycles);
  void run_shard_segment(Shard& shard, std::size_t start_cycle,
                         std::size_t cycles, int worker);

  const Workload& w_;
  std::uint64_t seed_;
  Trace& trace_;
  std::shared_ptr<TaskPool> pool_;
  TimeNs budget_ = 0;
  std::unique_ptr<AdmissionController> admission_;
  std::vector<Shard> shards_;
  std::vector<AdmissionDecision> admissions_;
  std::size_t leaves_ = 0;
};

AdmissionDecision Replay::admit(
    std::size_t task, const std::vector<std::vector<std::size_t>>& members,
    std::size_t cycle) {
  AdmissionDecision decision;
  {
    const Scoped span(trace_, "serve.admission");
    decision = admission_->admit(task, members, cycle);
  }
  // admit() evaluates every shard, then re-evaluates a non-empty target
  // shard's current mix to price the admission.
  evaluations += members.size() +
                 (decision.admitted && !members[decision.shard].empty());
  return decision;
}

void Replay::apply_events(std::size_t cycle) {
  for (const ArrivalEvent& event : inputs.schedule.events_at(cycle)) {
    if (!event.join) {
      for (Shard& shard : shards_) {
        auto it = std::find(shard.members.begin(), shard.members.end(),
                            event.task);
        if (it != shard.members.end()) {
          shard.members.erase(it);
          shard.dirty = true;
          ++leaves_;
          break;
        }
      }
      continue;
    }
    std::vector<std::vector<std::size_t>> memberships;
    memberships.reserve(shards_.size());
    for (const Shard& shard : shards_) memberships.push_back(shard.members);
    AdmissionDecision decision = admit(event.task, memberships, cycle);
    if (decision.admitted) {
      shards_[decision.shard].members.push_back(event.task);
      shards_[decision.shard].dirty = true;
    }
    admissions_.push_back(std::move(decision));
  }
}

void Replay::rebuild(Shard& shard) {
  shard.epochs += shard.manager ? shard.manager->epochs() : 0;
  shard.manager.reset();
  shard.mix.reset();
  if (!shard.members.empty()) {
    {
      const Scoped span(trace_, "workload.compose");
      shard.mix = std::make_unique<MultiTaskMix>(pool_, shard.members, budget_);
    }
    composed_members += shard.members.size();
    {
      const Scoped span(trace_, "core.arena");
      shard.manager = std::make_unique<BatchMultiTaskManager>(
          shard.mix->composed(), shard.mix->engines(), inputs.spec.mode,
          inputs.spec.layout, inputs.spec.kernel);
    }
    // Lanes of a sweep at composite state s: tasks not yet past their last
    // action (counted outside the layer spans).
    const ComposedSystem& sys = shard.mix->composed();
    const ActionIndex n = sys.app().size();
    std::vector<std::uint32_t> finished_before(n + 1, 0);
    for (ActionIndex s = 0; s < n; ++s) {
      const TaskRef& ref = sys.origin(s);
      finished_before[s + 1] =
          finished_before[s] +
          (ref.local_action + 1 == sys.task_size(ref.task) ? 1 : 0);
    }
    shard.live.resize(n);
    for (ActionIndex s = 0; s < n; ++s) {
      shard.live[s] =
          static_cast<std::uint32_t>(sys.num_tasks()) - finished_before[s];
    }
    ++shard.rebuilds;
  }
  shard.dirty = false;
}

void Replay::run_shard_segment(Shard& shard, std::size_t start_cycle,
                               std::size_t cycles, int worker) {
  if (!shard.mix) return;
  SegmentSpan seg;
  seg.worker = worker;
  seg.start = now_ns();
  TracedSink sink(*shard.acc, shard.live, shard.stats, *shard.sink_sampler);
  TracedManager manager(*shard.manager, shard.stats, *shard.decide_sampler);
  ExecutorOptions opts = shard.mix->executor_options(cycles);
  opts.retain_steps = false;
  opts.retain_cycles = false;
  opts.sink = &sink;
  opts.start_cycle = start_cycle;
  opts.start_time = shard.clock;
  seg.run_start = now_ns();
  const RunResult run = run_cyclic(shard.mix->composed().app(), manager,
                                   shard.mix->source(), opts);
  seg.run_end = now_ns();
  shard.clock = run.total_time;
  seg.end = now_ns();
  shard.segments.push_back(seg);
}

void Replay::run_segment(std::size_t start_cycle, std::size_t cycles) {
  std::size_t live_bytes = 0;
  for (const Shard& shard : shards_) {
    if (shard.manager) live_bytes += shard.manager->memory_bytes();
  }
  arena_bytes_max = std::max(arena_bytes_max, live_bytes);

  for (Shard& shard : shards_) shard.segments.clear();
  const int phase = trace_.open("serve.segments");
  const std::size_t workers = std::min(w_.workers, shards_.size());
  if (workers <= 1) {
    // The server runs a one-worker segment inline, shard by shard.
    for (Shard& shard : shards_) {
      run_shard_segment(shard, start_cycle, cycles, 0);
    }
  } else {
    std::vector<std::thread> threads;
    std::exception_ptr failure;
    std::mutex failure_mutex;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([this, w, workers, start_cycle, cycles, &failure,
                            &failure_mutex] {
        try {
          for (std::size_t s = w; s < shards_.size(); s += workers) {
            run_shard_segment(shards_[s], start_cycle, cycles,
                              static_cast<int>(w));
          }
        } catch (...) {
          const std::lock_guard<std::mutex> lock(failure_mutex);
          if (!failure) failure = std::current_exception();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (failure) std::rethrow_exception(failure);
  }
  trace_.close(phase);
  // Worker spans join the trace as children of the phase span, in shard
  // order, once the workers have joined.
  double max_wall = 0;
  double sum_wall = 0;
  std::size_t active = 0;
  for (const Shard& shard : shards_) {
    for (const SegmentSpan& seg : shard.segments) {
      const int id = static_cast<int>(trace_.spans.size());
      trace_.spans.push_back(
          {"serve.segment", seg.start, seg.end, phase, seg.worker + 1});
      trace_.spans.push_back(
          {"sim.step", seg.run_start, seg.run_end, id, seg.worker + 1});
      const double wall = static_cast<double>(seg.end - seg.start);
      max_wall = std::max(max_wall, wall);
      sum_wall += wall;
      ++active;
    }
  }
  if (active > 0) {
    imbalance_max.push_back(max_wall);
    imbalance_mean.push_back(sum_wall / static_cast<double>(active));
  }
}

ServingSummary Replay::run() {
  {
    const Scoped span(trace_, "bench.inputs");
    inputs = make_inputs(w_, seed_, 0, w_.workers);
  }
  const ShardedServerSpec& spec = inputs.spec;
  {
    const Scoped span(trace_, "workload.pool");
    pool_ = std::make_shared<TaskPool>(spec.mix);
  }
  const std::size_t initial = std::min(spec.initial_tasks, pool_->size());
  {
    const Scoped span(trace_, "serve.setup");
    budget_ = pool_->budget_for(first_tasks(pool_->size())) /
              static_cast<TimeNs>(spec.num_shards);
    admission_ = std::make_unique<AdmissionController>(pool_, budget_,
                                                       spec.placement);
    shards_.resize(spec.num_shards);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].index = s;
      shards_[s].decide_sampler =
          std::make_unique<Sampler>(kDecideSampleEvery, 2 * s + 1);
      shards_[s].sink_sampler =
          std::make_unique<Sampler>(kSinkSampleEvery, 2 * s + 2);
    }
  }

  std::vector<std::size_t> boundaries;
  for (const std::size_t cycle : inputs.schedule.boundaries()) {
    if (cycle > 0 && cycle < spec.cycles) boundaries.push_back(cycle);
  }
  std::size_t cursor = 0;
  std::size_t bi = 0;
  // Initial placement, cycle-0 events and the first rebuilds: the barrier
  // before the first segment.
  int barrier = trace_.open("serve.placement");
  {
    std::vector<std::vector<std::size_t>> memberships(shards_.size());
    for (std::size_t task = 0; task < initial; ++task) {
      AdmissionDecision decision = admit(task, memberships, 0);
      if (decision.admitted) memberships[decision.shard].push_back(task);
      admissions_.push_back(std::move(decision));
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].members = std::move(memberships[s]);
      shards_[s].acc = std::make_unique<RunSummaryAccumulator>(
          "shard-" + std::to_string(s));
      shards_[s].dirty = true;
    }
    apply_events(0);
  }
  while (cursor < spec.cycles) {
    std::size_t next = spec.cycles;
    while (bi < boundaries.size() && boundaries[bi] <= cursor) ++bi;
    if (bi < boundaries.size()) next = std::min(next, boundaries[bi]);
    // Rebuilds of dirty shards open the segment in the server; here they
    // close the barrier span that made them dirty.
    for (Shard& shard : shards_) {
      if (shard.dirty) rebuild(shard);
    }
    trace_.close(barrier);
    run_segment(cursor, next - cursor);
    cursor = next;
    if (cursor >= spec.cycles) break;
    barrier = trace_.open("serve.barrier");
    apply_events(cursor);
  }

  const Scoped fold(trace_, "serve.fold");
  std::vector<ShardReport> reports;
  reports.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    ShardReport report;
    report.shard = s;
    report.members = shard.members;
    report.summary = shard.acc->finish();
    report.clock = shard.clock;
    report.epochs = shard.epochs + (shard.manager ? shard.manager->epochs() : 0);
    report.rebuilds = shard.rebuilds;
    reports.push_back(std::move(report));
  }
  ServingSummary summary =
      fold_serving_summary(std::move(reports), admissions_, leaves_);

  for (const Shard& shard : shards_) {
    layers.epochs += shard.stats.epochs;
    layers.lanes += shard.stats.lanes;
    layers.sampled_epochs += shard.stats.sampled_epochs;
    layers.sampled_epoch_ns += shard.stats.sampled_epoch_ns;
    layers.sampled_steps += shard.stats.sampled_steps;
    layers.sampled_step_ns += shard.stats.sampled_step_ns;
    layers.cycle_ns += shard.stats.cycle_ns;
  }
  return summary;
}

// ---------------------------------------------------------------------------
// Typed metric records.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  const char* unit;
  const char* kind;  ///< wall | sim | count | bytes
  double value;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_records(const std::vector<Metric>& metrics) {
  std::string out = "{\"records\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", " : "");
    out += "{\"name\": \"" + m.name + "\", \"unit\": \"" + m.unit +
           "\", \"kind\": \"" + m.kind + "\", \"value\": " +
           json_number(m.value) + "}";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
}

/// `digests` are the per-pool summary digests, in pool order.
void print_result(const Workload& w, std::uint64_t seed,
                  const std::vector<std::uint64_t>& digests,
                  std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"workload\": \"" + std::string(w.name) +
                    "\", \"seed\": " + std::to_string(seed) +
                    ", \"digests\": [";
  for (std::size_t i = 0; i < digests.size(); ++i) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, digests[i]);
    out += (i ? ", \"" : "\"") + std::string(hex) + "\"";
  }
  out += "], \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", " : "");
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %-9s (%s)\n", m.name.c_str(), m.value, m.unit,
                m.kind);
  }
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Per-layer metrics of one traced replay.
// ---------------------------------------------------------------------------

constexpr double kMinCoverage = 0.95;

struct LayerRun {
  double run_s = 0;
  double coverage = 0;  ///< share of run_s covered by control-thread spans
  std::vector<Metric> metrics;
  /// Share of run_s per layer on the control thread's timeline (self time;
  /// the segment phase is split across the per-step layers by their busy
  /// time on the workers).
  std::vector<std::pair<std::string, double>> shares;
};

LayerRun layer_metrics(const Trace& t, const Replay& r, const ServingSummary& s,
                       std::int64_t t0, std::int64_t t_end) {
  const std::vector<Span>& spans = t.spans;
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& sp : spans) {
    if (sp.parent >= 0 && spans[sp.parent].thread == sp.thread) {
      child_ns[sp.parent] += sp.end - sp.start;
    }
  }
  auto dur = [&](const Span& sp) { return sp.end - sp.start; };
  auto busy = [&](const char* name) {
    std::int64_t total = 0;
    for (const Span& sp : spans) {
      if (std::strcmp(sp.name, name) == 0) total += dur(sp);
    }
    return total;
  };
  auto self = [&](const char* name) {
    std::int64_t total = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (std::strcmp(spans[i].name, name) == 0) {
        total += dur(spans[i]) - child_ns[i];
      }
    }
    return total;
  };
  auto durations = [&](const char* name) {
    std::vector<std::int64_t> out;
    for (const Span& sp : spans) {
      if (std::strcmp(sp.name, name) == 0) out.push_back(dur(sp));
    }
    return out;
  };

  const double run_ns = static_cast<double>(t_end - t0);
  std::int64_t covered = 0;
  for (const Span& sp : spans) {
    if (sp.parent < 0 && sp.thread == 0) covered += dur(sp);
  }

  const StepLayers& L = r.layers;
  const double steps = static_cast<double>(s.total_steps);
  const double epochs = static_cast<double>(L.epochs);
  const double ns_per_epoch =
      L.sampled_epochs ? static_cast<double>(L.sampled_epoch_ns) /
                             static_cast<double>(L.sampled_epochs)
                       : 0;
  const double sweep_ns = ns_per_epoch * epochs;
  const double sink_ns_per_step =
      L.sampled_steps ? static_cast<double>(L.sampled_step_ns) /
                            static_cast<double>(L.sampled_steps)
                      : 0;
  const double sink_ns =
      sink_ns_per_step * steps + static_cast<double>(L.cycle_ns);
  const double run_cyclic_ns = static_cast<double>(busy("sim.step"));
  const double step_self_ns = run_cyclic_ns - sweep_ns - sink_ns;
  const double segment_ns = static_cast<double>(busy("serve.segment"));

  const std::vector<std::int64_t> probes = durations("serve.admission");
  const std::vector<std::int64_t> pauses = durations("serve.barrier");
  const double n_probes = static_cast<double>(probes.size());
  const double rebuilds = static_cast<double>(durations("workload.compose").size());
  std::size_t admitted = 0;
  for (const AdmissionDecision& a : s.admissions) admitted += a.admitted;
  double sum_max = 0;
  double sum_mean = 0;
  for (std::size_t i = 0; i < r.imbalance_max.size(); ++i) {
    sum_max += r.imbalance_max[i];
    sum_mean += r.imbalance_mean[i];
  }

  LayerRun out;
  out.run_s = to_s(t_end - t0);
  out.coverage = static_cast<double>(covered) / run_ns;
  auto sec = [](double ns) { return ns * 1e-9; };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out.metrics = {
      {"workload.pool.busy_s", "s", "wall", sec(busy("workload.pool"))},
      {"serve.admission.probes", "count", "count", n_probes},
      {"serve.admission.evaluations", "count", "count",
       static_cast<double>(r.evaluations)},
      {"serve.admission.probe_ns_p50", "ns", "wall", percentile(probes, 0.50)},
      {"serve.admission.probe_ns_p99", "ns", "wall", percentile(probes, 0.99)},
      {"serve.admission.busy_s", "s", "wall", sec(busy("serve.admission"))},
      {"serve.admission.admit_ratio", "ratio", "count",
       ratio(static_cast<double>(admitted), n_probes)},
      {"workload.compose.rebuilds", "count", "count", rebuilds},
      {"workload.compose.members_per_rebuild", "tasks", "count",
       ratio(static_cast<double>(r.composed_members), rebuilds)},
      {"workload.compose.busy_s", "s", "wall", sec(busy("workload.compose"))},
      {"core.arena.builds", "count", "count",
       static_cast<double>(durations("core.arena").size())},
      {"core.arena.busy_s", "s", "wall", sec(busy("core.arena"))},
      {"core.arena.bytes", "bytes", "bytes",
       static_cast<double>(r.arena_bytes_max)},
      {"core.sweep.epochs", "count", "count", epochs},
      {"core.sweep.ns_per_epoch", "ns", "wall", ns_per_epoch},
      {"core.sweep.lanes_per_epoch", "lanes", "count",
       ratio(static_cast<double>(L.lanes), epochs)},
      {"core.sweep.ops_per_epoch", "ops", "count",
       ratio(static_cast<double>(s.total_ops), epochs)},
      {"core.sweep.hit_ratio", "ratio", "count",
       ratio(static_cast<double>(s.manager_calls) - epochs,
             static_cast<double>(s.manager_calls))},
      {"core.sweep.busy_s", "s", "wall", sec(sweep_ns)},
      {"sim.step.steps", "count", "count", steps},
      {"sim.step.ns_per_step", "ns", "wall", ratio(step_self_ns, steps)},
      {"sim.step.self_s", "s", "wall", sec(step_self_ns)},
      {"sim.sink.ns_per_step", "ns", "wall", ratio(sink_ns, steps)},
      {"sim.sink.busy_s", "s", "wall", sec(sink_ns)},
      {"serve.segment.count", "count", "count",
       static_cast<double>(durations("serve.segment").size())},
      {"serve.segment.imbalance", "ratio", "wall", ratio(sum_max, sum_mean)},
      {"serve.segment.busy_s", "s", "wall", sec(segment_ns)},
      {"serve.barrier.count", "count", "count",
       static_cast<double>(pauses.size())},
      {"serve.barrier.pause_ms_p50", "ms", "wall",
       percentile(pauses, 0.50) * 1e-6},
      {"serve.barrier.pause_ms_max", "ms", "wall",
       pauses.empty() ? 0.0
                      : static_cast<double>(*std::max_element(
                            pauses.begin(), pauses.end())) * 1e-6},
      {"serve.barrier.busy_s", "s", "wall", sec(busy("serve.barrier"))},
      {"serve.placement.busy_s", "s", "wall", sec(busy("serve.placement"))},
      {"serve.fold.busy_s", "s", "wall", sec(busy("serve.fold"))},
      {"trace.coverage", "ratio", "wall", out.coverage},
  };

  // Control-thread shares. The segment phase's wall time is divided among
  // the worker-side layers in proportion to their busy time.
  const double phase_ns = static_cast<double>(busy("serve.segments"));
  const double per_worker_ns = ratio(phase_ns, segment_ns);
  out.shares = {
      {"bench.inputs", self("bench.inputs") / run_ns},
      {"workload.pool", self("workload.pool") / run_ns},
      {"serve.setup", self("serve.setup") / run_ns},
      {"serve.admission", self("serve.admission") / run_ns},
      {"workload.compose", self("workload.compose") / run_ns},
      {"core.arena", self("core.arena") / run_ns},
      {"serve.placement", self("serve.placement") / run_ns},
      {"serve.barrier", self("serve.barrier") / run_ns},
      {"core.sweep", sweep_ns * per_worker_ns / run_ns},
      {"sim.step", step_self_ns * per_worker_ns / run_ns},
      {"sim.sink", sink_ns * per_worker_ns / run_ns},
      {"serve.segment", (segment_ns - run_cyclic_ns) * per_worker_ns / run_ns},
      {"serve.fold", self("serve.fold") / run_ns},
      // Inclusive views used by the workload records.
      {"incl.serve.placement", busy("serve.placement") / run_ns},
      {"incl.serve.barrier", busy("serve.barrier") / run_ns},
      {"incl.serve.segments", phase_ns / run_ns},
  };
  return out;
}

void write_spans(const std::string& path, const Trace& t, std::int64_t t0,
                 const std::vector<Metric>& layers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& sp = t.spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"thread\": %d, "
                 "\"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64
                 ", \"parent\": %d}\n",
                 i, sp.name, sp.thread, sp.start - t0, sp.end - t0, sp.parent);
  }
  // Per-step layers are sampled, not spanned: their scaled estimates.
  std::string est = "{\"sampled_layers\": {";
  bool first = true;
  for (const Metric& m : layers) {
    if (m.name.rfind("core.sweep.", 0) != 0 && m.name.rfind("sim.", 0) != 0) {
      continue;
    }
    est += (first ? "" : ", ") + ("\"" + m.name + "\": " + json_number(m.value));
    first = false;
  }
  est += "}, \"decide_sample_every\": " + std::to_string(kDecideSampleEvery) +
         ", \"sink_sample_every\": " + std::to_string(kSinkSampleEvery) + "}";
  std::fprintf(f, "%s\n", est.c_str());
  if (std::fclose(f) != 0) throw std::runtime_error("cannot close " + path);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--spans") {
      a.spans = value;
    } else {
      throw std::runtime_error("unknown flag " + key);
    }
  }
  if (a.trace != 0 && a.trace != 1) throw std::runtime_error("--trace is 0 or 1");
  if (a.seconds < 0) throw std::runtime_error("--seconds must be >= 0");
  return a;
}

constexpr std::size_t kMinReps = 3;

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

int run_untraced(const Workload& w, const Args& args) {
  // Pool 0 served on the other worker count (1 vs 2) is the reference
  // every timed run of it must match; each other pool's first run is the
  // reference for its repeats.
  std::vector<std::uint64_t> ref(kPools, 0);
  std::size_t attempted = 1;
  std::size_t failed = 0;
  ref[0] = digest(serve_once(w, args.seed, 0, check_workers(w)).summary);

  Outcome o;
  std::vector<std::vector<double>> setup(kPools), run(kPools);
  double steps = 0;
  const std::int64_t start = now_ns();
  // Every pool is served at least once; repeats cycle through the pools
  // until the time is up.
  std::size_t rep = 0;
  for (; rep < kPools || to_s(now_ns() - start) < args.seconds; ++rep) {
    const std::size_t pool = rep % kPools;
    const Served r = serve_once(w, args.seed, pool, w.workers);
    ++attempted;
    const std::uint64_t d = digest(r.summary);
    if (rep < kPools) {
      o.add(r.inputs, r.summary);
      steps += static_cast<double>(r.summary.total_steps);
      if (pool != 0) ref[pool] = d;
    }
    if (d != ref[pool]) ++failed;
    setup[pool].push_back(r.setup_s);
    run[pool].push_back(r.run_s);
  }
  // Each pool weighs the same however many repeats it got.
  std::vector<double> setup_med, run_med;
  for (std::size_t p = 0; p < kPools; ++p) {
    setup_med.push_back(median(setup[p]));
    run_med.push_back(median(run[p]));
  }
  const double run_sum = mean(run_med) * static_cast<double>(kPools);
  const std::vector<Metric> metrics = {
      {"setup_s", "s", "wall", mean(setup_med)},
      {"run_s", "s", "wall", mean(run_med)},
      {"steps_per_s", "steps/s", "wall", steps / run_sum},
      {"peak_rss_mb", "MiB", "bytes", peak_rss_mib()},
      {"mean_quality", "level", "sim", o.mean_quality()},
      {"quality_jump", "level", "sim", o.quality_jump()},
      {"overhead_pct", "%", "sim", o.overhead_pct()},
      {"deadline_met_ratio", "ratio", "sim", o.deadline_met_ratio()},
      {"admit_ratio", "ratio", "count", o.admit_ratio()},
  };
  std::printf("workload %s, seed %" PRIu64 ": %zu runs over %zu pools of "
              "%zu tasks x %zu cycles, %zu shards on %zu workers; per run "
              "%.0f steps, %.0f joins, %.0f deadlines (means over pools)\n",
              w.name, args.seed, rep, kPools, w.tasks, w.cycles, kShards,
              w.workers, steps / kPools, o.joins / kPools, o.deadlines / kPools);
  print_table(metrics);
  print_table({{"miss_rate", "misses/shard-cycle", "sim", o.miss_rate()},
               {"reject_rate", "ratio", "count", 1.0 - o.admit_ratio()}});
  print_records(metrics);
  print_result(w, args.seed, ref, attempted, failed, metrics);
  return 0;
}

/// Traces pool 0 of the workload; its untraced runs and the traced replays
/// must all match its run on the other worker count (1 vs 2).
int run_traced(const Workload& w, const Args& args) {
  const Served check = serve_once(w, args.seed, 0, check_workers(w));
  const std::uint64_t ref = digest(check.summary);
  std::size_t attempted = 1;
  std::size_t failed = 0;
  std::vector<double> untraced_run;
  std::vector<LayerRun> traced;
  Trace last;
  std::int64_t last_t0 = 0;
  const std::int64_t start = now_ns();
  // Traced and untraced runs interleave, alternating which goes first, so
  // drift in machine speed cancels out of trace.overhead_pct.
  for (std::size_t pair = 0;
       traced.size() < kMinReps || to_s(now_ns() - start) < args.seconds;
       ++pair) {
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (pair % 2 == 0)) {
        const Served r = serve_once(w, args.seed, 0, w.workers);
        ++attempted;
        if (digest(r.summary) != ref) ++failed;
        untraced_run.push_back(r.run_s);
        continue;
      }
      Trace trace;
      Replay replay(w, args.seed, trace);
      const std::int64_t t0 = now_ns();
      const ServingSummary summary = replay.run();
      const std::int64_t t_end = now_ns();
      ++attempted;
      LayerRun layers = layer_metrics(trace, replay, summary, t0, t_end);
      // A replay that diverges or leaves more than 5% of run_s unspanned
      // fails (the per-layer profile's coverage gate).
      if (digest(summary) != ref || layers.coverage < kMinCoverage) ++failed;
      traced.push_back(std::move(layers));
      last = std::move(trace);
      last_t0 = t0;
    }
  }

  std::vector<Metric> metrics = traced.front().metrics;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::vector<double> values;
    for (const LayerRun& lr : traced) values.push_back(lr.metrics[i].value);
    metrics[i].value = median(values);
  }
  std::vector<double> traced_run;
  for (const LayerRun& lr : traced) traced_run.push_back(lr.run_s);
  const double base = median(untraced_run);
  metrics.push_back({"trace.overhead_pct", "%", "wall",
                     100.0 * (median(traced_run) - base) / base});

  std::printf("workload %s, seed %" PRIu64 ": %zu traced + %zu untraced runs, "
              "traced run_s %.4f s, untraced run_s %.4f s\n",
              w.name, args.seed, traced.size(), untraced_run.size(),
              median(traced_run), base);
  print_table(metrics);
  std::string shares = "{\"shares\": {";
  for (std::size_t i = 0; i < traced.front().shares.size(); ++i) {
    std::vector<double> values;
    for (const LayerRun& lr : traced) values.push_back(lr.shares[i].second);
    shares += (i ? ", \"" : "\"") + traced.front().shares[i].first +
              "\": " + json_number(median(values));
  }
  shares += "}}";
  std::printf("%s\n", shares.c_str());
  if (!args.spans.empty()) write_spans(args.spans, last, last_t0, metrics);
  print_records(metrics);
  print_result(w, args.seed, {ref}, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    for (const Workload& w : kWorkloads) {
      if (args.workload == w.name) {
        return args.trace ? run_traced(w, args) : run_untraced(w, args);
      }
    }
    std::fprintf(stderr, "error: unknown workload '%s' (steady, churn, "
                         "cold-start)\n", args.workload.c_str());
    return 64;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 70;
  }
}
