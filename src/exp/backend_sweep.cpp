#include "exp/backend_sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "exp/replication.hpp"
#include "obs/counters.hpp"
#include "phy/channel.hpp"

namespace cocoa::exp {

namespace {

std::string fmt_prob(double p) {
    std::ostringstream ss;
    ss << p;
    return ss.str();
}

}  // namespace

std::string BackendCell::json() const {
    std::ostringstream ss;
    ss << "{\"backend\":\"" << est::to_string(backend) << "\""
       << ",\"plan\":\"" << plan << "\""
       << ",\"reps\":" << reps
       << ",\"avg_error_m\":" << avg_error_m
       << ",\"steady_error_m\":" << steady_error_m
       << ",\"availability\":" << (has_resilience ? availability : -1.0)
       << ",\"avail_during\":" << (has_resilience ? avail_during : -1.0)
       << ",\"reacquire_s\":" << (has_resilience ? reacquire_s : -1.0)
       << ",\"fixes\":" << fixes
       << ",\"windows_without_fix\":" << windows_without_fix
       << ",\"fix_cpu_ns\":" << fix_cpu_ns << "}";
    return ss.str();
}

std::vector<std::pair<std::string, fault::FaultPlan>> standard_backend_plans(
    const core::ScenarioConfig& base, const BackendSweepOptions& options) {
    std::vector<std::pair<std::string, fault::FaultPlan>> plans;
    const double at_s = base.duration.to_seconds() * options.fault_at_frac;

    plans.emplace_back("baseline", fault::FaultPlan{});

    for (const double p : options.loss_probs) {
        std::ostringstream spec;
        spec << "loss@" << at_s << "+" << options.loss_duration_s << ":p=" << p;
        fault::FaultPlan plan = fault::FaultPlan::parse(spec.str());
        plan.avail_threshold_m = options.avail_threshold_m;
        plans.emplace_back("loss-p" + fmt_prob(p), std::move(plan));
    }

    const sim::TimePoint strike =
        sim::TimePoint::origin() + sim::Duration::seconds(at_s);
    for (const int k : options.crashed_anchors) {
        if (k > base.num_anchors) {
            throw std::invalid_argument(
                "backend sweep: cannot crash more anchors than the scenario has");
        }
        fault::FaultPlan plan = fault::anchor_crash_plan(base.num_anchors, k, strike);
        plan.avail_threshold_m = options.avail_threshold_m;
        plans.emplace_back("crash-" + std::to_string(k), std::move(plan));
    }
    return plans;
}

double measure_fix_cpu_ns(est::Backend backend, const core::ScenarioConfig& base,
                          int windows) {
    if (windows < 1) throw std::invalid_argument("measure_fix_cpu_ns: windows >= 1");

    // Standalone estimator, wired exactly like the agent wires it.
    phy::Channel channel(base.channel);
    auto table = std::make_shared<const phy::PdfTable>(phy::PdfTable::calibrate(
        channel, base.calibration, sim::RandomStream(base.seed)));
    est::Config ec;
    ec.backend = backend;
    ec.grid.area = geom::Rect::square(base.area_side_m);
    ec.grid.cell_m = base.cell_m;
    ec.grid.floor_fraction = base.floor_fraction;
    ec.technique = base.technique;
    ec.min_beacons_for_fix = base.min_beacons_for_fix;
    mobility::OdometryEstimator odometry(base.odometry, sim::RandomStream(base.seed));
    odometry.reset(ec.grid.area.center(), 0.0);
    const std::unique_ptr<est::Estimator> estimator =
        est::make_estimator(
            ec, std::make_shared<const core::KernelBank>(table, ec.grid.floor_fraction),
            &odometry);
    estimator->reset(ec.grid.area.center(), false);

    // Synthetic windows: anchors on a deterministic ring around the centre,
    // RSSIs cycling through the usable middle of the calibrated table.
    const geom::Vec2 center = ec.grid.area.center();
    const double ring = 0.25 * base.area_side_m;
    const int lo = table->min_rssi_dbm();
    const int hi = table->max_rssi_dbm();
    const int span = hi - lo + 1;
    const int k = std::max(3, base.beacons_per_window);
    std::vector<core::BeaconObservation> window(static_cast<std::size_t>(k));

    const auto t0 = std::chrono::steady_clock::now();
    for (int w = 0; w < windows; ++w) {
        for (int i = 0; i < k; ++i) {
            const double angle = 2.0 * 3.14159265358979323846 *
                                 static_cast<double>(w * k + i) / 17.0;
            const geom::Vec2 anchor =
                center + geom::Vec2{ring * std::cos(angle), ring * std::sin(angle)};
            const double rssi =
                static_cast<double>(lo + (span / 4) + (w * k + i) % (span / 2));
            window[static_cast<std::size_t>(i)] = {anchor, rssi};
        }
        estimator->predict({0.1, -0.05}, 1.0);
        if (estimator->collects_window_beacons()) {
            const std::optional<core::Fix> fix = estimator->compute_fix(window);
            estimator->apply_fix(fix, 0.0);
        } else {
            for (const core::BeaconObservation& obs : window) {
                estimator->observe_beacon(obs);
            }
            estimator->end_window();
        }
    }
    const double total_ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                                 t0)
            .count();
    return total_ns / static_cast<double>(windows);
}

std::vector<BackendCell> run_backend_sweep(const core::ScenarioConfig& base,
                                           const BackendSweepOptions& options) {
    if (base.mode != core::LocalizationMode::Combined) {
        throw std::invalid_argument("backend sweep: base.mode must be Combined");
    }
    if (options.backends.empty()) {
        throw std::invalid_argument("backend sweep: need at least one backend");
    }
    const auto named_plans = standard_backend_plans(base, options);

    // One shared fan-out over every (backend, plan) cell: the replication
    // engine interleaves all cells' replications over one thread pool.
    std::vector<core::ScenarioConfig> configs;
    std::vector<fault::FaultPlan> plans;
    for (const est::Backend backend : options.backends) {
        for (const auto& [name, plan] : named_plans) {
            core::ScenarioConfig config = base;
            config.estimator = backend;
            config.validate();
            configs.push_back(std::move(config));
            plans.push_back(plan);
        }
    }
    ReplicationOptions ropt;
    ropt.n_reps = options.n_reps;
    ropt.n_threads = options.n_threads;
    ropt.fork = options.fork;
    const std::vector<ReplicationSet> sets = run_sweep(configs, plans, ropt);

    std::vector<BackendCell> cells;
    cells.reserve(sets.size());
    std::size_t index = 0;
    for (const est::Backend backend : options.backends) {
        // Per-fix CPU is a per-backend property; measure it once per backend
        // and stamp it on that backend's cells.
        const double cpu_ns =
            options.measure_cpu ? measure_fix_cpu_ns(backend, base) : 0.0;
        for (const auto& [name, plan] : named_plans) {
            const ReplicationSet& set = sets[index++];
            BackendCell cell;
            cell.backend = backend;
            cell.plan = name;
            cell.reps = options.n_reps;
            cell.avg_error_m = set.avg_error.mean();
            cell.steady_error_m = set.steady_error.mean();
            cell.has_resilience = set.has_resilience;
            cell.availability = set.availability.mean();
            cell.avail_during =
                set.avail_during.count() > 0 ? set.avail_during.mean() : 0.0;
            cell.reacquire_s =
                set.reacquire_s.count() > 0 ? set.reacquire_s.mean() : 0.0;
            for (const auto& [counter, value] : obs::aggregate_node_counters(
                     {set.counter_totals.begin(), set.counter_totals.end()})) {
                if (counter == "agent.fixes") cell.fixes = value;
                if (counter == "agent.windows_without_fix") {
                    cell.windows_without_fix = value;
                }
            }
            cell.fix_cpu_ns = cpu_ns;
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

}  // namespace cocoa::exp
