#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "core/scenario.hpp"
#include "est/estimator.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "mobility/odometry.hpp"
#include "phy/channel.hpp"
#include "phy/pdf_table.hpp"

// ------------------------------------------------------------- alloc counter
// Program-wide operator new override: LinCvx's steady-state fix loop is
// specified allocation-free (the microcontroller-budget claim), and the test
// pins it by counting heap allocations across the measured region. Counting
// is passive, so every other test in this binary runs unchanged.

namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};

void* counted_alloc(std::size_t size) {
    ++g_heap_allocations;
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cocoa::est {
namespace {

using cocoa::sim::Duration;
using cocoa::sim::TimePoint;

core::ScenarioConfig small_config() {
    core::ScenarioConfig c;
    c.seed = 21;
    c.num_robots = 12;
    c.num_anchors = 6;
    c.duration = Duration::seconds(180.0);
    c.period = Duration::seconds(25.0);
    return c;
}

/// Standalone backend wired the way the agent wires it (same idiom as
/// exp::measure_fix_cpu_ns): PDF table + agent-owned odometry.
struct Standalone {
    explicit Standalone(Backend backend, const core::ScenarioConfig& base) {
        phy::Channel channel(base.channel);
        table = std::make_shared<const phy::PdfTable>(phy::PdfTable::calibrate(
            channel, base.calibration, sim::RandomStream(base.seed)));
        config.backend = backend;
        config.grid.area = geom::Rect::square(base.area_side_m);
        config.grid.cell_m = base.cell_m;
        config.grid.floor_fraction = base.floor_fraction;
        config.min_beacons_for_fix = base.min_beacons_for_fix;
        odometry = std::make_unique<mobility::OdometryEstimator>(
            base.odometry, sim::RandomStream(base.seed));
        odometry->reset(config.grid.area.center(), 0.0);
    }
    std::unique_ptr<Estimator> make() {
        return make_estimator(config,
                              std::make_shared<const core::KernelBank>(
                                  table, config.grid.floor_fraction),
                              odometry.get());
    }

    Config config;
    std::shared_ptr<const phy::PdfTable> table;
    std::unique_ptr<mobility::OdometryEstimator> odometry;
};

/// Three beacons from anchors on a ring around `around`, RSSI from the
/// usable middle of the table — every backend accepts them.
std::vector<core::BeaconObservation> ring_beacons(const phy::PdfTable& table,
                                                  const geom::Vec2& around) {
    const int mid = (table.min_rssi_dbm() + table.max_rssi_dbm()) / 2;
    return {
        {around + geom::Vec2{30.0, 0.0}, static_cast<double>(mid)},
        {around + geom::Vec2{-15.0, 26.0}, static_cast<double>(mid - 2)},
        {around + geom::Vec2{-15.0, -26.0}, static_cast<double>(mid + 2)},
    };
}

// ----------------------------------------------------------------- plumbing

TEST(EstBackend, NameRoundTrip) {
    for (const Backend b : {Backend::Grid, Backend::Ekf, Backend::LinCvx}) {
        const auto parsed = parse_backend(to_string(b));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, b);
    }
    EXPECT_FALSE(parse_backend("kalman").has_value());
    EXPECT_FALSE(parse_backend("").has_value());
}

TEST(EstBackend, NonGridRequiresCombinedMode) {
    core::ScenarioConfig c = small_config();
    c.estimator = Backend::Ekf;
    c.mode = core::LocalizationMode::RfOnly;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c.mode = core::LocalizationMode::Combined;
    EXPECT_NO_THROW(c.validate());
}

// ------------------------------------------------- grid-backend invariants

/// The grid backend behind the interface keeps the repo's core invariant:
/// counters and position traces are byte-identical at any grid-thread count.
TEST(EstGrid, ThreadCountInvariantCountersAndTrace) {
    auto run_at = [](int threads) {
        core::ScenarioConfig c = small_config();
        c.grid_update_threads = threads;
        core::Scenario s(c);
        s.enable_position_trace(Duration::seconds(5.0));
        s.run();
        return std::make_pair(s.result().counters, s.position_trace());
    };
    const auto [counters0, trace0] = run_at(0);
    for (const int threads : {1, 4}) {
        const auto [counters, trace] = run_at(threads);
        EXPECT_EQ(counters, counters0) << "grid-threads " << threads;
        ASSERT_EQ(trace.size(), trace0.size()) << "grid-threads " << threads;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            EXPECT_EQ(trace[i].estimate, trace0[i].estimate)
                << "grid-threads " << threads << " row " << i;
        }
    }
}

/// Pooled window-end fixes race the scenario's cold kernel bank: at fig7
/// scale (the paper defaults, 25 blind robots) the first round's fixes build
/// their kernels concurrently on four workers. Counters and position traces
/// must still match the inline run byte for byte. Runs under TSan in CI.
TEST(EstGrid, Fig7PooledFixesRaceColdKernelBank) {
    auto run_at = [](int threads) {
        core::ScenarioConfig c;
        c.seed = 7;
        c.duration = Duration::seconds(300.0);
        c.grid_update_threads = threads;
        core::Scenario s(c);
        s.enable_position_trace(Duration::seconds(10.0));
        s.run();
        return std::make_pair(s.result().counters, s.position_trace());
    };
    const auto [counters0, trace0] = run_at(0);
    const auto [counters4, trace4] = run_at(4);
    EXPECT_EQ(counters4, counters0);
    ASSERT_EQ(trace4.size(), trace0.size());
    for (std::size_t i = 0; i < trace4.size(); ++i) {
        EXPECT_EQ(trace4[i].estimate, trace0[i].estimate) << "row " << i;
    }
}

/// Regression for the reboot path: FaultInjector revival routes through
/// Estimator::reset(), so the belief collapses to the area centre exactly as
/// the pre-interface agent's did — and the whole faulted run stays
/// byte-identical across grid-thread counts.
TEST(EstGrid, RebootRoutesThroughEstimatorReset) {
    auto run_at = [](int threads) {
        core::ScenarioConfig c = small_config();
        c.grid_update_threads = threads;
        core::Scenario s(c);
        fault::FaultInjector injector(s,
                                      fault::FaultPlan::parse("reboot@60+30:node=9"));
        injector.arm();
        s.enable_position_trace(Duration::seconds(5.0));

        // Just after the revival at t=90 the estimator has been reset:
        // belief back at the uniform-prior centre, no fix on record yet.
        s.run_until(TimePoint::from_seconds(95.0));
        EXPECT_TRUE(s.agent(9).ever_fixed() == false)
            << "reboot should clear ever_fixed";
        EXPECT_EQ(s.agent(9).estimate(),
                  geom::Rect::square(s.config().area_side_m).center());

        s.run();
        EXPECT_TRUE(s.agent(9).ever_fixed()) << "robot should reacquire";
        return std::make_pair(s.result().counters, s.position_trace());
    };
    const auto [counters0, trace0] = run_at(0);
    const auto [counters4, trace4] = run_at(4);
    EXPECT_EQ(counters4, counters0);
    ASSERT_EQ(trace4.size(), trace0.size());
    for (std::size_t i = 0; i < trace4.size(); ++i) {
        EXPECT_EQ(trace4[i].estimate, trace0[i].estimate) << "row " << i;
    }
}

// ------------------------------------------------------------------ EKF-CL

/// Covariance inflation under loss: across a burst of beacon-less windows
/// the spread grows monotonically (the filter loses confidence instead of
/// coasting), then reconverges once beacons return.
TEST(EstEkf, SpreadInflatesAcrossLossBurstAndReconverges) {
    // Two identical filters fed identical windows; `burst` additionally
    // loses 8 windows of beacons. Its spread must inflate monotonically
    // through the burst, then reconverge to the unfaulted control's.
    Standalone wiring(Backend::Ekf, small_config());
    wiring.config.ekf_gate_sigmas = 50.0;  // keep the gate out of this test
    const std::unique_ptr<Estimator> burst = wiring.make();
    const std::unique_ptr<Estimator> control = wiring.make();
    ASSERT_FALSE(burst->collects_window_beacons());
    ASSERT_TRUE(burst->integrates_odometry());

    const geom::Vec2 start{100.0, 100.0};
    burst->reset(start, true);
    control->reset(start, true);
    const auto window = [&](Estimator& ekf, bool with_beacons) {
        ekf.predict({0.5, -0.25}, 1.0);
        if (with_beacons) {
            for (const auto& b : ring_beacons(*wiring.table, start)) {
                ekf.observe_beacon(b);
            }
        }
        return ekf.end_window();
    };

    for (int w = 0; w < 30; ++w) {
        const WindowSummary summary = window(*burst, true);
        EXPECT_TRUE(summary.tracked);
        EXPECT_TRUE(summary.fixed);
        window(*control, true);
    }
    EXPECT_DOUBLE_EQ(burst->spread_m(), control->spread_m());

    // Loss burst: every missed window inflates the spread.
    double previous = burst->spread_m();
    for (int w = 0; w < 8; ++w) {
        const WindowSummary summary = window(*burst, false);
        EXPECT_TRUE(summary.tracked);
        EXPECT_FALSE(summary.fixed);
        EXPECT_GT(burst->spread_m(), previous) << "missed window " << w;
        previous = burst->spread_m();
        window(*control, true);
    }
    EXPECT_GT(burst->spread_m(), control->spread_m());

    // Beacons return: confidence is rebuilt back toward the control's
    // (recovery is gradual — each window fuses only three ranges against
    // the inflated prior).
    for (int w = 0; w < 100; ++w) {
        window(*burst, true);
        window(*control, true);
    }
    EXPECT_LT(burst->spread_m(), previous);
    EXPECT_LT(burst->spread_m(), 1.1 * control->spread_m());
}

/// LocalizationMode::Ekf compatibility: the legacy continuous filter keeps
/// no per-window books — no missed-window inflation, untracked summaries.
TEST(EstEkf, LegacyContinuousKeepsNoWindowBooks) {
    Standalone wiring(Backend::Ekf, small_config());
    wiring.config.legacy_continuous = true;
    const std::unique_ptr<Estimator> ekf = wiring.make();
    ekf->reset({100.0, 100.0}, true);
    ekf->predict({0.5, 0.0}, 1.0);
    const double before = ekf->spread_m();
    const WindowSummary summary = ekf->end_window();  // beacon-less window
    EXPECT_FALSE(summary.tracked);
    EXPECT_DOUBLE_EQ(ekf->spread_m(), before);
}

// ------------------------------------------------------------------ LinCvx

/// The opportunistic convex-combination fix runs allocation-free in steady
/// state: predict + compute_fix + apply_fix touch no heap, which is what
/// makes its per-fix cost microcontroller-sized.
TEST(EstLinCvx, SteadyStateFixIsAllocationFree) {
    Standalone wiring(Backend::LinCvx, small_config());
    const std::unique_ptr<Estimator> lincvx = wiring.make();
    ASSERT_TRUE(lincvx->collects_window_beacons());
    ASSERT_FALSE(lincvx->pool_safe_fix());

    const geom::Vec2 start{100.0, 100.0};
    lincvx->reset(start, true);
    const std::vector<core::BeaconObservation> beacons =
        ring_beacons(*wiring.table, start);

    // Warm up, then pin: zero heap allocations across 100 windows.
    for (int w = 0; w < 3; ++w) {
        lincvx->predict({0.5, -0.25}, 1.0);
        lincvx->apply_fix(lincvx->compute_fix(beacons), 0.0);
    }
    const std::uint64_t allocations_before = g_heap_allocations.load();
    for (int w = 0; w < 100; ++w) {
        lincvx->predict({0.5, -0.25}, 1.0);
        lincvx->apply_fix(lincvx->compute_fix(beacons), 0.0);
    }
    EXPECT_EQ(g_heap_allocations.load(), allocations_before);
    EXPECT_TRUE(lincvx->ever_fixed());
    EXPECT_GT(lincvx->spread_m(), 0.0);
}

// -------------------------------------------------------- accuracy ordering

/// Fig. 7 scenario at 0% loss: the paper's grid is the most accurate, the
/// EKF next, the opportunistic combination last — the accuracy end of the
/// accuracy/CPU trade-off the ext_backends bench charts.
TEST(EstAccuracy, GridBeatsEkfBeatsLinCvxOnFig7Scenario) {
    auto steady_error = [](Backend backend) {
        core::ScenarioConfig c;  // paper defaults: 50 robots, 25 anchors
        c.seed = 7;
        c.duration = Duration::seconds(600.0);
        c.estimator = backend;
        const core::ScenarioResult r = core::run_scenario(c);
        return r.avg_error.mean_in(TimePoint::from_seconds(150.0),
                                   TimePoint::from_seconds(600.0));
    };
    const double grid = steady_error(Backend::Grid);
    const double ekf = steady_error(Backend::Ekf);
    const double lincvx = steady_error(Backend::LinCvx);
    EXPECT_LT(grid, ekf);
    EXPECT_LT(ekf, lincvx);
    EXPECT_LT(grid, 10.0);  // the reproduction's fig7 steady-state ballpark
}

}  // namespace
}  // namespace cocoa::est
