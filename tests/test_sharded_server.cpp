// Tests for the sharded serving layer (src/serve/):
//   * S = 1, no arrivals: the sharded path is bit-identical to running
//     BatchMultiTaskManager over MultiTaskMix directly (summary fields,
//     decision ops, step-for-step quality stream);
//   * TaskPool/MultiTaskMix refactor: pool-assembled all-members mixes
//     reproduce the historical spec-constructed mix exactly;
//   * admission decisions are deterministic and identical across worker
//     counts, with rejections on overload;
//   * arrival scenarios: segmented runs with joins/leaves stay
//     deterministic and feasible-by-construction schedules validate;
//   * one membership path: scripted leaves and joins of tasks the overload
//     governor has parked keep every task on at most one shard, once;
//   * executor resume hand-off: a run split at a cycle boundary with
//     start_cycle/start_time equals the unsplit run.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/batch_engine.hpp"
#include "core/feasibility.hpp"
#include "serve/admission.hpp"
#include "serve/frontend.hpp"
#include "serve/sharded_server.hpp"
#include "sim/metrics.hpp"
#include "support/contract.hpp"
#include "workload/arrivals.hpp"
#include "workload/scenarios.hpp"

namespace speedqm {
namespace {

MultiTaskMixSpec small_mix_spec(std::size_t tasks, std::uint64_t seed) {
  MultiTaskMixSpec spec;
  spec.num_tasks = tasks;
  spec.seed = seed;
  spec.num_cycles = 8;
  spec.min_task_actions = 4;
  spec.max_task_actions = 24;
  return spec;
}

/// Field-by-field RunSummary equality (bit-exact doubles: both sides must
/// have folded the identical step stream through identical arithmetic).
void expect_summaries_identical(const RunSummary& a, const RunSummary& b) {
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.manager_calls, b.manager_calls);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.infeasible, b.infeasible);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.mean_quality, b.mean_quality);
  EXPECT_EQ(a.overhead_pct, b.overhead_pct);
  EXPECT_EQ(a.mean_overhead_per_action_us, b.mean_overhead_per_action_us);
  EXPECT_EQ(a.total_time_s, b.total_time_s);
  EXPECT_EQ(a.smoothness.quality_stddev, b.smoothness.quality_stddev);
  EXPECT_EQ(a.smoothness.switches, b.smoothness.switches);
  EXPECT_EQ(a.smoothness.max_jump, b.smoothness.max_jump);
  EXPECT_EQ(a.relax_histogram, b.relax_histogram);
}

// --- TaskPool refactor ------------------------------------------------------

TEST(TaskPool, AllMembersAssemblyReproducesSpecConstructedMix) {
  const MultiTaskMixSpec spec = small_mix_spec(5, 99);
  MultiTaskMix direct(spec);

  auto pool = std::make_shared<TaskPool>(spec);
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < pool->size(); ++i) all.push_back(i);
  MultiTaskMix pooled(pool, all);

  EXPECT_EQ(direct.budget(), pooled.budget());
  EXPECT_EQ(direct.num_tasks(), pooled.num_tasks());
  ASSERT_EQ(direct.composed().app().size(), pooled.composed().app().size());
  // Identical composed schedules and identical controller models: compare
  // the engines' tD at the start state across the quality axis.
  for (std::size_t task = 0; task < direct.num_tasks(); ++task) {
    const PolicyEngine& de = *direct.engines()[task];
    const PolicyEngine& pe = *pooled.engines()[task];
    ASSERT_EQ(de.num_states(), pe.num_states());
    for (Quality q = 0; q < de.num_levels(); ++q) {
      EXPECT_EQ(de.td_online(0, q), pe.td_online(0, q));
    }
  }
}

TEST(TaskPool, BudgetForSubsetIsOrderConsistent) {
  const MultiTaskMixSpec spec = small_mix_spec(6, 7);
  TaskPool pool(spec);
  const TimeNs whole = pool.budget_for({0, 1, 2, 3, 4, 5});
  const TimeNs front = pool.budget_for({0, 1, 2});
  const TimeNs back = pool.budget_for({3, 4, 5});
  EXPECT_GT(front, 0);
  EXPECT_GT(back, 0);
  // budget_factor scales each subtotal; the split sums to within rounding.
  EXPECT_NEAR(static_cast<double>(front + back), static_cast<double>(whole),
              2.0);
}

// --- S = 1 differential -----------------------------------------------------

TEST(ShardedServer, SingleShardBitIdenticalToDirectBatchManager) {
  const MultiTaskMixSpec mix_spec = small_mix_spec(6, 20070730);
  const std::size_t cycles = 12;

  // Direct path: the PR-3 serving architecture.
  MultiTaskMix mix(mix_spec);
  BatchMultiTaskManager manager(mix.composed(), mix.engines());
  RunSummaryAccumulator acc("direct");
  ExecutorOptions opts = mix.executor_options(cycles);
  opts.retain_steps = false;
  opts.retain_cycles = false;
  opts.sink = &acc;
  const RunResult run = run_cyclic(mix.composed().app(), manager, mix.source(),
                                   opts);
  const RunSummary direct = acc.finish();

  // Sharded path, degenerate S = 1.
  ShardedServerSpec spec;
  spec.mix = mix_spec;
  spec.num_shards = 1;
  spec.num_workers = 1;
  spec.cycles = cycles;
  ShardedServer server(spec);
  EXPECT_EQ(server.shard_budget(), mix.budget());
  const ServingSummary serving = server.serve();

  ASSERT_EQ(serving.shards.size(), 1u);
  EXPECT_EQ(serving.admitted, mix_spec.num_tasks);
  EXPECT_EQ(serving.rejected, 0u);
  expect_summaries_identical(serving.shards[0].summary, direct);
  EXPECT_EQ(serving.shards[0].clock, run.total_time);
  EXPECT_EQ(serving.total_steps, direct.total_steps);
  EXPECT_EQ(serving.mean_quality, direct.mean_quality);
}

// --- Admission --------------------------------------------------------------

TEST(Admission, DecisionsIdenticalAcrossWorkerCounts) {
  ArrivalSchedule schedule =
      make_arrival_schedule(/*pool_tasks=*/10, /*initial_tasks=*/6,
                            /*cycles=*/16, /*churn_events=*/8, /*seed=*/42);
  ShardedServerSpec spec;
  spec.mix = small_mix_spec(10, 11);
  spec.num_shards = 3;
  spec.cycles = 16;
  spec.initial_tasks = 6;

  ShardedServerSpec one = spec;
  one.num_workers = 1;
  ShardedServerSpec many = spec;
  many.num_workers = 4;

  const ServingSummary a = ShardedServer(one, schedule).serve();
  const ServingSummary b = ShardedServer(many, schedule).serve();

  ASSERT_EQ(a.admissions.size(), b.admissions.size());
  for (std::size_t i = 0; i < a.admissions.size(); ++i) {
    EXPECT_EQ(a.admissions[i].task, b.admissions[i].task);
    EXPECT_EQ(a.admissions[i].cycle, b.admissions[i].cycle);
    EXPECT_EQ(a.admissions[i].admitted, b.admissions[i].admitted);
    EXPECT_EQ(a.admissions[i].shard, b.admissions[i].shard);
    EXPECT_EQ(a.admissions[i].slack, b.admissions[i].slack);
    EXPECT_EQ(a.admissions[i].reason, b.admissions[i].reason);
  }
  EXPECT_EQ(a.leaves, b.leaves);
  // The whole serving report (minus wall clock) is interleaving-invariant.
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    expect_summaries_identical(a.shards[s].summary, b.shards[s].summary);
    EXPECT_EQ(a.shards[s].members, b.shards[s].members);
    EXPECT_EQ(a.shards[s].clock, b.shards[s].clock);
  }
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.mean_quality, b.mean_quality);
  EXPECT_EQ(a.total_ops, b.total_ops);
}

TEST(Admission, OverloadIsRejectedAndFeasibilityGuarded) {
  // A tiny budget slice (many shards over a small pool, then joining
  // everything into shard 0's capacity) must eventually reject.
  const MultiTaskMixSpec mix_spec = small_mix_spec(8, 3);
  auto pool = std::make_shared<TaskPool>(mix_spec);
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < pool->size(); ++i) all.push_back(i);
  // Capacity for roughly one quarter of the pool.
  const TimeNs budget = pool->budget_for(all) / 4;
  AdmissionController admission(pool, budget);

  std::vector<std::vector<std::size_t>> shards(1);
  std::size_t admitted = 0, rejected = 0;
  for (std::size_t task = 0; task < pool->size(); ++task) {
    const AdmissionDecision d = admission.admit(task, shards, 0);
    if (d.admitted) {
      shards[0].push_back(task);
      ++admitted;
      EXPECT_GE(d.slack, 0);
      // The accepted membership really is feasible.
      EXPECT_TRUE(admission.evaluate(shards[0]).feasible);
    } else {
      ++rejected;
      EXPECT_LT(d.slack, 0);
    }
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Admission, PlacementPoliciesDifferButBothStayFeasible) {
  const MultiTaskMixSpec mix_spec = small_mix_spec(12, 17);
  auto pool = std::make_shared<TaskPool>(mix_spec);
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < pool->size(); ++i) all.push_back(i);
  const TimeNs budget = pool->budget_for(all) / 3;

  for (const PlacementPolicy policy :
       {PlacementPolicy::kBestFit, PlacementPolicy::kMostSlack}) {
    AdmissionController admission(pool, budget, policy);
    std::vector<std::vector<std::size_t>> shards(3);
    for (std::size_t task = 0; task < pool->size(); ++task) {
      const AdmissionDecision d = admission.admit(task, shards, 0);
      if (d.admitted) shards[d.shard].push_back(task);
    }
    for (const auto& members : shards) {
      if (!members.empty()) {
        EXPECT_TRUE(admission.evaluate(members).feasible);
      }
    }
    if (policy == PlacementPolicy::kMostSlack) {
      // Worst-fit must spread: no empty shard while another holds the
      // whole admitted set.
      std::size_t nonempty = 0;
      for (const auto& members : shards) nonempty += members.empty() ? 0 : 1;
      EXPECT_EQ(nonempty, shards.size());
    }
  }
}

TEST(MixFeasibility, ReportsCriticalTaskAndUniformQuality) {
  const MultiTaskMixSpec mix_spec = small_mix_spec(4, 8);
  MultiTaskMix mix(mix_spec);
  const MixFeasibilityReport report = analyze_mix_feasibility(mix.engines());
  EXPECT_TRUE(report.feasible);
  EXPECT_GE(report.min_qmin_slack, 0);
  EXPECT_LT(report.critical_task, mix.num_tasks());
  EXPECT_GE(report.max_uniform_quality, 0);
  ASSERT_EQ(report.tasks.size(), mix.num_tasks());
  EXPECT_EQ(report.tasks[report.critical_task].qmin_slack,
            report.min_qmin_slack);
  EXPECT_THROW(analyze_mix_feasibility({}), contract_error);
}

// --- Arrival schedules ------------------------------------------------------

TEST(Arrivals, GeneratedSchedulesValidateAndSegment) {
  const ArrivalSchedule schedule = make_arrival_schedule(
      /*pool_tasks=*/12, /*initial_tasks=*/8, /*cycles=*/32,
      /*churn_events=*/10, /*seed=*/123);
  EXPECT_FALSE(schedule.empty());
  const auto boundaries = schedule.boundaries();
  for (std::size_t i = 1; i < boundaries.size(); ++i) {
    EXPECT_LT(boundaries[i - 1], boundaries[i]);
  }
  std::size_t counted = 0;
  for (const std::size_t b : boundaries) counted += schedule.events_at(b).size();
  EXPECT_EQ(counted, schedule.events().size());
}

TEST(Arrivals, InvalidScriptsThrow) {
  // Join of a task that is already present.
  EXPECT_THROW(
      ArrivalSchedule({ArrivalEvent{4, 0, true}}, /*pool_tasks=*/4,
                      /*initial_tasks=*/2),
      contract_error);
  // Leave of an absent task.
  EXPECT_THROW(
      ArrivalSchedule({ArrivalEvent{4, 3, false}}, /*pool_tasks=*/4,
                      /*initial_tasks=*/2),
      contract_error);
  // Task outside the pool.
  EXPECT_THROW(
      ArrivalSchedule({ArrivalEvent{4, 9, true}}, /*pool_tasks=*/4,
                      /*initial_tasks=*/2),
      contract_error);
}

TEST(Arrivals, ServerRunsJoinLeaveScenarioDeterministically) {
  ShardedServerSpec spec;
  spec.mix = small_mix_spec(8, 77);
  spec.num_shards = 2;
  spec.num_workers = 1;
  spec.cycles = 20;
  spec.initial_tasks = 5;
  const ArrivalSchedule schedule = make_arrival_schedule(
      8, spec.initial_tasks, spec.cycles, 6, 9);

  const ServingSummary a = ShardedServer(spec, schedule).serve();
  const ServingSummary b = ShardedServer(spec, schedule).serve();
  EXPECT_GT(a.total_steps, 0u);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.mean_quality, b.mean_quality);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.admissions.size(), b.admissions.size());
  // Rebuild counters reflect the segmented reconfiguration.
  std::size_t rebuilds = 0;
  for (const auto& shard : a.shards) rebuilds += shard.rebuilds;
  EXPECT_GT(rebuilds, a.shards.size());  // at least one mid-run rebuild
}

// --- Parked tasks and the membership path ----------------------------------

/// Overload rig: flaky-shard on the virtual clock with the governor on, a
/// fixed 2 ms/cycle host stall scaled to ~2 periods of lag per stalled
/// cycle, so a shard sheds task 7 early and parks it for a while.
ShardedServerSpec overload_spec(std::size_t workers) {
  ShardedServerSpec spec;
  spec.mix.num_tasks = 8;
  spec.mix.seed = 20070808;
  spec.mix.num_cycles = 8;
  spec.num_shards = 2;
  spec.num_workers = workers;
  spec.cycles = 48;
  spec.clock = ClockMode::kVirtual;
  spec.perturb = make_perturbation_scenario("flaky-shard", spec.cycles);
  spec.governor.check_cycles = 2;
  const TimeNs budget = ShardedServer(spec).shard_budget();
  spec.wall_per_sim = 1e6 / static_cast<double>(budget);
  return spec;
}

/// How many times `task` appears across all final shard memberships.
std::size_t residency(const ServingSummary& summary, std::size_t task) {
  std::size_t count = 0;
  for (const auto& shard : summary.shards) {
    count += static_cast<std::size_t>(
        std::count(shard.members.begin(), shard.members.end(), task));
  }
  return count;
}

TEST(Membership, OverloadRigParksTaskSevenAcrossTheScriptedCycles) {
  // Precondition of the two tests below: without a script, the governor
  // sheds task 7 before cycle 14 and re-admits it only after cycle 15.
  const ServingSummary run = ShardedServer(overload_spec(1)).serve();
  EXPECT_GT(run.shed_tasks, 0u);
  std::vector<std::size_t> joins;
  for (const AdmissionDecision& d : run.admissions) {
    if (d.task == 7) joins.push_back(d.cycle);
  }
  ASSERT_EQ(joins.size(), 2u);
  EXPECT_EQ(joins[0], 0u);
  EXPECT_GT(joins[1], 15u);
  EXPECT_EQ(residency(run, 7), 1u);
}

TEST(Membership, LeaveOfParkedTaskUnparksAndCounts) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(workers);
    const ShardedServerSpec spec = overload_spec(workers);
    const ArrivalSchedule schedule({ArrivalEvent{14, 7, false}}, 8, 8);
    const ServingSummary run = ShardedServer(spec, schedule).serve();
    EXPECT_EQ(run.leaves, 1u);
    EXPECT_EQ(residency(run, 7), 0u);
  }
}

TEST(Membership, LeaveThenJoinOfParkedTaskServesItOnce) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(workers);
    const ShardedServerSpec spec = overload_spec(workers);
    const ArrivalSchedule schedule(
        {ArrivalEvent{14, 7, false}, ArrivalEvent{15, 7, true}}, 8, 8);
    const ServingSummary run = ShardedServer(spec, schedule).serve();
    EXPECT_EQ(run.leaves, 1u);
    // The leave un-parked task 7, so its join is a fresh admission.
    EXPECT_EQ(std::count_if(run.admissions.begin(), run.admissions.end(),
                            [](const AdmissionDecision& d) {
                              return d.task == 7 && d.cycle == 15;
                            }),
              1);
    for (std::size_t task = 0; task < 8; ++task) {
      EXPECT_LE(residency(run, task), 1u) << "task " << task;
    }
  }
}

TEST(Membership, JoinOfParkedTaskIsAJoinOfAPresentTask) {
  // A front-end join of task 7 while the governor has it parked is dropped
  // like any join of a present task; the governor's re-admission is then
  // the only way back.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(workers);
    ServeFrontend frontend;
    FrontendRequest join;
    join.cycle = 15;
    join.task = 7;
    ASSERT_EQ(frontend.submit(join), PushResult::kAccepted);
    ShardedServerSpec spec = overload_spec(workers);
    spec.frontend = &frontend;
    const ServingSummary run = ShardedServer(spec).serve();
    EXPECT_EQ(run.frontend_applied, 0u);
    EXPECT_EQ(run.frontend_dropped, 1u);
    for (const AdmissionDecision& d : run.admissions) {
      EXPECT_FALSE(d.task == 7 && d.cycle == 15);
    }
    EXPECT_EQ(residency(run, 7), 1u);
  }
}

// --- Executor resume hand-off -----------------------------------------------

TEST(ExecutorHandoff, SplitRunEqualsUnsplitRun) {
  const MultiTaskMixSpec mix_spec = small_mix_spec(3, 55);
  const std::size_t cycles = 10;
  const std::size_t split = 4;

  MultiTaskMix mix_a(mix_spec);
  BatchMultiTaskManager manager_a(mix_a.composed(), mix_a.engines());
  RunSummaryAccumulator acc_a("unsplit");
  ExecutorOptions opts = mix_a.executor_options(cycles);
  opts.retain_steps = false;
  opts.retain_cycles = false;
  opts.sink = &acc_a;
  const RunResult whole =
      run_cyclic(mix_a.composed().app(), manager_a, mix_a.source(), opts);

  MultiTaskMix mix_b(mix_spec);
  BatchMultiTaskManager manager_b(mix_b.composed(), mix_b.engines());
  RunSummaryAccumulator acc_b("split");
  ExecutorOptions first = mix_b.executor_options(split);
  first.retain_steps = false;
  first.retain_cycles = false;
  first.sink = &acc_b;
  const RunResult head =
      run_cyclic(mix_b.composed().app(), manager_b, mix_b.source(), first);
  ExecutorOptions second = mix_b.executor_options(cycles - split);
  second.retain_steps = false;
  second.retain_cycles = false;
  second.sink = &acc_b;
  second.start_cycle = split;
  second.start_time = head.total_time;
  const RunResult tail =
      run_cyclic(mix_b.composed().app(), manager_b, mix_b.source(), second);

  EXPECT_EQ(tail.total_time, whole.total_time);
  expect_summaries_identical(acc_a.finish(), acc_b.finish());
}

}  // namespace
}  // namespace speedqm
