// Tests for the parallel replication engine (src/exp): the determinism
// contract (bit-identical results at any thread count, replications
// independent of each other), the aggregation maths (95% CI against
// hand-computed values), and the thread pool underneath.

#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/bayes_grid.hpp"
#include "exp/replication.hpp"
#include "exp/thread_pool.hpp"
#include "sim/random.hpp"

namespace cocoa {
namespace {

/// A deliberately small scenario so the suite stays fast: the determinism
/// contract does not depend on scale.
core::ScenarioConfig tiny_config() {
    core::ScenarioConfig c;
    c.seed = 7;
    c.num_robots = 10;
    c.num_anchors = 5;
    c.area_side_m = 100.0;
    c.duration = sim::Duration::seconds(90.0);
    c.period = sim::Duration::seconds(20.0);
    c.window = sim::Duration::seconds(3.0);
    return c;
}

/// Field-wise exact comparison of the deterministic parts of a record
/// (everything but wall_seconds, which measures the host machine).
void expect_records_identical(const exp::ReplicationRecord& a,
                              const exp::ReplicationRecord& b) {
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.seed, b.seed);
    // Bit-exact, not approximate: the engine promises byte-identical output
    // tables for any thread count.
    EXPECT_EQ(std::memcmp(&a.avg_error_m, &b.avg_error_m, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a.steady_error_m, &b.steady_error_m, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a.total_energy_kj, &b.total_energy_kj, sizeof(double)), 0);
    EXPECT_EQ(a.executed_events, b.executed_events);
}

TEST(ReplicationEngine, ByteIdenticalAcrossThreadCounts) {
    const core::ScenarioConfig config = tiny_config();
    exp::ReplicationOptions opt;
    opt.n_reps = 5;

    opt.n_threads = 1;
    const exp::ReplicationSet serial = exp::run_replications(config, opt);
    ASSERT_EQ(serial.records.size(), 5u);

    for (const int threads : {2, 8}) {
        opt.n_threads = threads;
        const exp::ReplicationSet parallel = exp::run_replications(config, opt);
        ASSERT_EQ(parallel.records.size(), serial.records.size());
        for (std::size_t i = 0; i < serial.records.size(); ++i) {
            expect_records_identical(serial.records[i], parallel.records[i]);
        }
        // Aggregates are folded in replication order, so they match to the
        // last bit too.
        EXPECT_EQ(serial.avg_error.mean(), parallel.avg_error.mean());
        EXPECT_EQ(serial.avg_error.stddev(), parallel.avg_error.stddev());
        EXPECT_EQ(serial.steady_error.mean(), parallel.steady_error.mean());
        EXPECT_EQ(serial.total_energy_kj.mean(), parallel.total_energy_kj.mean());
        // `last` is the highest replication *index*, not the last to finish.
        EXPECT_EQ(serial.last.avg_error.stats().mean(),
                  parallel.last.avg_error.stats().mean());
        EXPECT_EQ(serial.last.executed_events, parallel.last.executed_events);
    }
}

TEST(ReplicationEngine, CounterTotalsIdenticalAcrossThreadCounts) {
    // The folded counter totals are part of the determinism contract: they
    // are summed in replication-index order, so the map compares equal —
    // names and values — for any thread count.
    const core::ScenarioConfig config = tiny_config();
    exp::ReplicationOptions opt;
    opt.n_reps = 4;

    opt.n_threads = 1;
    const exp::ReplicationSet serial = exp::run_replications(config, opt);
    ASSERT_FALSE(serial.counter_totals.empty());
    EXPECT_TRUE(serial.counter_totals.contains("medium.frames_sent"));
    EXPECT_GT(serial.counter_totals.at("node.0.mac.tx_frames"), 0u);

    opt.n_threads = 2;
    const exp::ReplicationSet parallel = exp::run_replications(config, opt);
    EXPECT_EQ(serial.counter_totals, parallel.counter_totals);

    // Per-record counters survive the fold and sum to the totals.
    std::uint64_t frames = 0;
    for (const auto& rec : serial.records) {
        for (const auto& [name, value] : rec.counters) {
            if (name == "medium.frames_sent") frames += value;
        }
    }
    EXPECT_EQ(serial.counter_totals.at("medium.frames_sent"), frames);
}

TEST(ReplicationEngine, ReplicationIndependentOfPredecessors) {
    const core::ScenarioConfig config = tiny_config();
    exp::ReplicationOptions opt;
    opt.n_reps = 4;
    opt.n_threads = 2;
    const exp::ReplicationSet set = exp::run_replications(config, opt);

    // Replication 3 run on its own — without replications 0..2 ever
    // happening — produces the same record.
    const exp::ReplicationRecord alone =
        exp::run_single_replication(config, 3, opt.warmup_slack);
    expect_records_identical(set.records[3], alone);
}

TEST(ReplicationEngine, ReplicationSeedsAreDerivedAndDistinct) {
    // The per-replication master seed comes from the RngManager hash — the
    // same derivation the simulator uses for named streams.
    EXPECT_EQ(exp::replication_seed(7, 3),
              sim::RngManager(7).derive_seed("exp.replication", 3));
    // Distinct across indices and master seeds, and never the raw master.
    EXPECT_NE(exp::replication_seed(7, 0), exp::replication_seed(7, 1));
    EXPECT_NE(exp::replication_seed(7, 0), exp::replication_seed(8, 0));
    EXPECT_NE(exp::replication_seed(7, 0), 7u);
}

TEST(ReplicationEngine, SweepMatchesPerConfigRuns) {
    core::ScenarioConfig a = tiny_config();
    core::ScenarioConfig b = tiny_config();
    b.period = sim::Duration::seconds(30.0);

    exp::ReplicationOptions opt;
    opt.n_reps = 2;
    opt.n_threads = 4;
    const auto sets = exp::run_sweep({a, b}, opt);
    ASSERT_EQ(sets.size(), 2u);

    const exp::ReplicationSet only_a = exp::run_replications(a, opt);
    const exp::ReplicationSet only_b = exp::run_replications(b, opt);
    for (std::size_t i = 0; i < 2; ++i) {
        expect_records_identical(sets[0].records[i], only_a.records[i]);
        expect_records_identical(sets[1].records[i], only_b.records[i]);
    }
}

TEST(ReplicationEngine, WarmupSlackIsConfigurable) {
    const core::ScenarioConfig config = tiny_config();
    exp::ReplicationOptions opt;
    opt.n_reps = 1;
    opt.n_threads = 1;
    opt.warmup_slack = sim::Duration::seconds(30.0);
    const exp::ReplicationSet set = exp::run_replications(config, opt);

    // The steady-state window starts at period + warmup_slack.
    const double expected = set.last.avg_error.mean_in(
        sim::TimePoint::origin() + config.period + opt.warmup_slack,
        sim::TimePoint::max());
    EXPECT_EQ(set.records[0].steady_error_m, expected);

    // A different slack changes the window (and in this short scenario the
    // value), proving the parameter is live rather than hardcoded.
    exp::ReplicationOptions default_opt = opt;
    default_opt.warmup_slack = sim::Duration::seconds(5.0);
    const exp::ReplicationSet def = exp::run_replications(config, default_opt);
    EXPECT_NE(def.records[0].steady_error_m, set.records[0].steady_error_m);
}

TEST(ReplicationEngine, KeepResultsRetainsEveryReplication) {
    exp::ReplicationOptions opt;
    opt.n_reps = 3;
    opt.n_threads = 2;
    opt.keep_results = true;
    const exp::ReplicationSet set = exp::run_replications(tiny_config(), opt);
    ASSERT_EQ(set.results.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(set.results[i].avg_error.stats().mean(),
                  set.records[i].avg_error_m);
    }
    EXPECT_EQ(set.last.executed_events, set.results.back().executed_events);
}

TEST(ReplicationEngine, InvalidInputsThrow) {
    exp::ReplicationOptions opt;
    opt.n_reps = 0;
    EXPECT_THROW(exp::run_replications(tiny_config(), opt),
                 std::invalid_argument);

    // A config that fails validation inside a worker propagates out of the
    // engine instead of being swallowed.
    core::ScenarioConfig bad = tiny_config();
    bad.num_anchors = bad.num_robots + 1;
    exp::ReplicationOptions parallel;
    parallel.n_reps = 2;
    parallel.n_threads = 2;
    EXPECT_THROW(exp::run_replications(bad, parallel), std::exception);
}

TEST(ReplicationEngine, EmptySweepReturnsEmpty) {
    EXPECT_TRUE(exp::run_sweep({}, exp::ReplicationOptions{}).empty());
}

TEST(Ci95Halfwidth, MatchesHandComputedValue) {
    metrics::RunningStat s;
    for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
    // mean 3, sample stddev sqrt(2.5), n = 5, t_{0.975,4} = 2.776:
    // 2.776 * sqrt(2.5) / sqrt(5) = 1.96293...
    EXPECT_NEAR(metrics::ci95_halfwidth(s), 1.96293, 1e-4);

    // Beyond the t-table the normal quantile takes over: 40 samples of
    // stddev sigma give 1.96 * sigma / sqrt(40).
    metrics::RunningStat big;
    for (int i = 0; i < 20; ++i) {
        big.add(10.0);
        big.add(12.0);
    }
    EXPECT_NEAR(metrics::ci95_halfwidth(big),
                1.96 * big.stddev() / std::sqrt(40.0), 1e-9);
}

TEST(Ci95Halfwidth, DegenerateSampleCounts) {
    // n = 0 and n = 1: no interval exists; pinned to 0 (never NaN), like
    // RunningStat::stddev().
    metrics::RunningStat empty;
    EXPECT_EQ(metrics::ci95_halfwidth(empty), 0.0);

    metrics::RunningStat one;
    one.add(42.0);
    EXPECT_EQ(metrics::ci95_halfwidth(one), 0.0);
}

TEST(RunningStat, StddevPinnedForZeroAndOneSamples) {
    // Documented contract (running_stat.hpp): variance/stddev return 0, not
    // NaN, below two samples so "±" columns stay printable.
    metrics::RunningStat empty;
    EXPECT_EQ(empty.stddev(), 0.0);
    EXPECT_EQ(empty.variance(), 0.0);
    EXPECT_FALSE(std::isnan(empty.stddev()));

    metrics::RunningStat one;
    one.add(3.5);
    EXPECT_EQ(one.stddev(), 0.0);
    EXPECT_EQ(one.variance(), 0.0);
    EXPECT_FALSE(std::isnan(one.stddev()));

    metrics::RunningStat two;
    two.add(1.0);
    two.add(3.0);
    EXPECT_NEAR(two.stddev(), std::sqrt(2.0), 1e-12);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
    std::atomic<int> count{0};
    {
        exp::ThreadPool pool(4);
        EXPECT_EQ(pool.size(), 4);
        for (int i = 0; i < 100; ++i) {
            pool.submit([&count] { count.fetch_add(1); });
        }
        pool.wait_idle();
        EXPECT_EQ(count.load(), 100);
        // More work after wait_idle still runs (the pool is reusable).
        pool.submit([&count] { count.fetch_add(1); });
        pool.wait_idle();
    }
    EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPool, DestructorDrainsQueue) {
    std::atomic<int> count{0};
    {
        exp::ThreadPool pool(2);
        for (int i = 0; i < 50; ++i) {
            pool.submit([&count] { count.fetch_add(1); });
        }
        // No wait_idle: ~ThreadPool must finish queued work before joining.
    }
    EXPECT_EQ(count.load(), 50);
}

// Regression: posterior statistics used to live in a lazily filled mutable
// cache, so the first concurrent mean()/spread() readers after a mutation
// raced on the cache fill. Stats are now recomputed eagerly inside every
// mutating call; const reads are plain loads. This test runs in the TSan CI
// job — no thread may read before the constraint below is applied, and no
// main-thread read primes anything before the workers start.
TEST(ThreadPool, ConcurrentGridStatReadsAreRaceFree) {
    core::GridConfig config;
    config.area = geom::Rect::square(120.0);
    config.cell_m = 2.0;
    core::BayesGrid grid(config);

    grid.apply_constraint({10.0, 20.0},
                          core::RadialKernel::for_pdf(40.0, 4.0, config.floor_fraction));

    constexpr std::size_t kReaders = 32;
    std::vector<geom::Vec2> means(kReaders);
    std::vector<double> spreads(kReaders);
    std::vector<double> masses(kReaders);
    {
        exp::ThreadPool pool(4);
        for (std::size_t i = 0; i < kReaders; ++i) {
            pool.submit([&, i] {
                means[i] = grid.mean();
                spreads[i] = grid.spread();
                masses[i] = grid.mass_at(grid.nx() / 2, grid.ny() / 2);
            });
        }
    }
    for (std::size_t i = 1; i < kReaders; ++i) {
        EXPECT_EQ(means[i].x, means[0].x) << "reader " << i;
        EXPECT_EQ(means[i].y, means[0].y) << "reader " << i;
        EXPECT_EQ(spreads[i], spreads[0]) << "reader " << i;
        EXPECT_EQ(masses[i], masses[0]) << "reader " << i;
    }
    EXPECT_GT(spreads[0], 0.0);
}

TEST(ThreadPool, ResolveThreads) {
    EXPECT_EQ(exp::ThreadPool::resolve_threads(3), 3);
    EXPECT_GE(exp::ThreadPool::resolve_threads(0), 1);
    EXPECT_GE(exp::ThreadPool::resolve_threads(-2), 1);
}

}  // namespace
}  // namespace cocoa
