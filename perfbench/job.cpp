// One benchmark job in a fresh process.
//
//   perfbench_job <fig7|swarm16k|backend_sweep> <seed> <job|setup|trace>
//
// `job` builds the workload from its seed, runs it to completion on one
// simulation thread and prints one JSON line: the job's timings and the
// deterministic outputs run.py checks. `setup` only constructs the workload
// (everything up to the first simulated event) and reports how long that
// took. `trace` runs the same job with the obs::Profiler on, times the calls
// into each module's public functions, reads the stats the modules expose,
// and round-trips a checkpoint at the sim-time midpoint. Wall-clock numbers
// go to the "timing" and "layers" objects only; "outputs" is a pure function
// of the seed, so the timed and traced runs of one seed must print it
// byte-identically.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "core/swarm.hpp"
#include "exp/backend_sweep.hpp"
#include "exp/checkpoint.hpp"
#include "exp/replication.hpp"
#include "obs/counters.hpp"
#include "obs/profile.hpp"
#include "phy/pdf_table.hpp"

namespace {

using namespace cocoa;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Fixed CPU work whose duration tracks the host's speed at the moment the
/// job runs (frequency, co-tenants); it touches no simulator code.
double host_probe_ms() {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    double acc = 0.0;
    for (int i = 0; i < 5'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += static_cast<double>(x >> 40) * 1e-9;
    }
    const double ms = 1e3 * seconds_since(t0);
    if (acc < 0.0) std::cerr << acc;  // keeps the loop observable
    return ms;
}

/// An ordered JSON object written by hand (the build has no JSON library).
class Json {
  public:
    Json& num(const std::string& key, double v) {
        if (!std::isfinite(v)) return raw(key, "null");
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }
    Json& count(const std::string& key, std::uint64_t v) {
        return raw(key, std::to_string(v));
    }
    Json& str(const std::string& key, const std::string& v) {
        return raw(key, "\"" + v + "\"");
    }
    Json& obj(const std::string& key, const Json& v) { return raw(key, v.dump()); }
    Json& raw(const std::string& key, const std::string& text) {
        fields_.emplace_back(key, text);
        return *this;
    }
    std::string dump() const {
        std::string out = "{";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            if (i > 0) out += ",";
            out += "\"" + fields_[i].first + "\":" + fields_[i].second;
        }
        return out + "}";
    }

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/// FNV-1a over a byte string: condenses long deterministic outputs (counter
/// tables, error series, positions) so two runs of one seed can be compared.
/// It is never compared against a stored value.
std::string digest(const std::string& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

std::string hexfloat(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t counter(const std::map<std::string, std::uint64_t>& totals,
                      const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0 : it->second;
}

// ---------------------------------------------------------------- workloads

/// fig7: the paper default (50 robots, 25 anchors, 200 m, 1800 s, T = 100 s,
/// grid estimator, MRMM sync), fixes computed inline on the event thread.
core::ScenarioConfig fig7_config(std::uint64_t seed) {
    core::ScenarioConfig c;
    c.seed = seed;
    c.grid_update_threads = 0;
    return c;
}

/// swarm16k: `cocoa_sim --nodes 16000 --duration 10`, mobility tick inline.
core::SwarmConfig swarm_config(std::uint64_t seed) {
    core::SwarmConfig c;
    c.nodes = 16000;
    c.seed = seed;
    c.duration = sim::Duration::seconds(10.0);
    c.mobility_threads = 0;
    return c;
}

/// backend_sweep: the CI fork-gate configuration of `cocoa_sim
/// --backend-sweep` (20 robots, 12 anchors, 300 s, T = 60 s).
core::ScenarioConfig sweep_config(std::uint64_t seed) {
    core::ScenarioConfig c;
    c.seed = seed;
    c.num_robots = 20;
    c.num_anchors = 12;
    c.duration = sim::Duration::seconds(300.0);
    c.period = sim::Duration::seconds(60.0);
    c.grid_update_threads = 0;
    return c;
}

/// ... with 2 reps, faults at 60 % of the run, one replication thread, and
/// no per-fix CPU timing (the one non-deterministic column; the traced run
/// measures it separately).
exp::BackendSweepOptions sweep_options() {
    exp::BackendSweepOptions o;
    o.n_reps = 2;
    o.n_threads = 1;
    o.fault_at_frac = 0.6;
    o.measure_cpu = false;
    return o;
}

// ------------------------------------------------------------------ outputs

Json scenario_outputs(const core::ScenarioConfig& config, const core::ScenarioResult& r) {
    std::ostringstream counters;
    for (const auto& [name, value] : r.counters) counters << name << '=' << value << '\n';
    std::string series;
    for (const auto& s : r.avg_error.samples()) series += hexfloat(s.value) + ",";
    Json j;
    j.count("blind_robots", static_cast<std::uint64_t>(config.num_robots - config.num_anchors))
        .count("beacon_windows",
               static_cast<std::uint64_t>(config.duration / config.period))
        .count("fixes", r.agent_totals.fixes)
        .count("windows_without_fix", r.agent_totals.windows_without_fix)
        .count("beacons_sent", r.agent_totals.beacons_sent)
        .count("beacons_received", r.agent_totals.beacons_received)
        .count("frames", r.medium_stats.frames_sent)
        .count("events", r.executed_events)
        .num("mean_error_m", r.avg_error.stats().mean())
        .num("energy_kj", r.team_energy.total_mj() / 1e6)
        .str("error_series", digest(series))
        .str("counters", digest(counters.str()));
    return j;
}

Json swarm_outputs(core::Swarm& swarm) {
    const core::SwarmResult r = swarm.result();
    std::uint64_t corrupted = 0;
    std::uint64_t queued = 0;
    std::string positions;
    for (const auto& node : swarm.world().nodes()) {
        corrupted += node->radio().stats().rx_corrupted;
        queued += node->radio().tx_queue_depth();
        const geom::Vec2 p = node->mobility().position();
        positions += hexfloat(p.x) + "," + hexfloat(p.y) + ";";
    }
    const auto& cfg = swarm.config();
    Json j;
    j.count("nodes", static_cast<std::uint64_t>(r.nodes))
        .count("beacons_per_node",
               static_cast<std::uint64_t>(cfg.duration / cfg.beacon_period))
        .count("frames", r.medium_stats.frames_sent)
        .count("frames_queued", queued)
        .count("frames_delivered", r.frames_delivered)
        .count("rx_corrupted", corrupted)
        .count("missed_asleep", r.medium_stats.missed_asleep)
        .count("events", r.executed_events)
        .count("index_migrations", r.index_stats.migrations)
        .count("index_full_refreshes", r.index_stats.full_refreshes)
        .str("positions", digest(positions));
    return j;
}

std::string cell_json(const exp::BackendCell& c) {
    Json j;
    j.str("backend", est::to_string(c.backend))
        .str("plan", c.plan)
        .count("reps", static_cast<std::uint64_t>(c.reps))
        .count("fixes", c.fixes)
        .count("windows_without_fix", c.windows_without_fix)
        .num("avg_error_m", c.avg_error_m)
        .num("steady_error_m", c.steady_error_m)
        .raw("has_resilience", c.has_resilience ? "true" : "false")
        .num("availability", c.availability)
        .num("avail_during", c.avail_during)
        .num("reacquire_s", c.reacquire_s);
    return j.dump();
}

Json sweep_outputs(const core::ScenarioConfig& base, const exp::BackendSweepOptions& o,
                   const std::vector<exp::BackendCell>& cells) {
    std::string list = "[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0) list += ",";
        list += cell_json(cells[i]);
    }
    Json j;
    j.count("reps", static_cast<std::uint64_t>(o.n_reps))
        .count("blind_robots", static_cast<std::uint64_t>(base.num_robots - base.num_anchors))
        .count("beacon_windows",
               static_cast<std::uint64_t>(base.duration / base.period))
        .raw("cells", list + "]");
    return j;
}

// -------------------------------------------------------------- job bodies

struct JobResult {
    Json outputs;
    Json timing;
    Json layers;
    /// Outputs of the checkpoint restored at the midpoint (traced runs).
    std::optional<Json> restored;
};

/// Everything a traced straight run measures on the way.
struct SliceLog {
    std::vector<double> slice_s;
    double save_ms = 0.0;
    std::string blob;
};

/// Runs `obj` to `end` in slices of `slice` sim time (traced) or in one call
/// (timed); the traced run snapshots a checkpoint at the midpoint.
template <typename Obj, typename Save>
void run_sliced(Obj& obj, sim::Duration end, sim::Duration slice, bool trace,
                SliceLog& log, Save save) {
    const sim::TimePoint origin = sim::TimePoint::origin();
    if (!trace) {
        obj.run_until(origin + end);
        return;
    }
    const sim::TimePoint mid = origin + end / 2;
    for (sim::TimePoint t = origin + slice; t <= origin + end; t = t + slice) {
        const auto t0 = Clock::now();
        obj.run_until(t);
        log.slice_s.push_back(seconds_since(t0));
        if (t == mid) {
            const auto s0 = Clock::now();
            log.blob = save(obj);
            log.save_ms = 1e3 * seconds_since(s0);
        }
    }
    if (log.blob.empty()) throw std::logic_error("midpoint is not a slice boundary");
}

void add_kernel_layers(Json& L, const sim::KernelStats& ks, const sim::PoolStats& frames,
                       std::uint64_t events, double run_s) {
    const std::uint64_t pool_total = frames.reused + frames.fresh + frames.oversize;
    L.count("sim.events", events)
        .num("sim.events_per_s", ratio(static_cast<double>(events), run_s))
        .count("sim.peak_pending", ks.peak_pending)
        .count("sim.sbo_misses", ks.sbo_misses)
        .num("sim.pool_hit_ratio",
             ratio(static_cast<double>(frames.reused), static_cast<double>(pool_total)));
}

void add_mac_layers(Json& L, const mac::Medium& m, std::uint64_t delivered,
                    std::uint64_t corrupted, double run_s) {
    const auto& s = m.stats();
    const auto& idx = m.index_stats();
    const auto& rc = m.radius_cache_stats();
    const double frames = static_cast<double>(s.frames_sent);
    const double draws = static_cast<double>(s.radios_visited);
    L.count("mac.frames", s.frames_sent)
        .count("mac.rssi_draws", s.radios_visited)
        .num("mac.draws_per_frame", ratio(draws, frames))
        .num("mac.cull_ratio",
             ratio(static_cast<double>(s.radios_culled),
                   draws + static_cast<double>(s.radios_culled)))
        .num("mac.delivered_per_draw", ratio(static_cast<double>(delivered), draws))
        .num("mac.ns_per_frame", ratio(1e9 * run_s, frames))
        .num("mac.corrupted_ratio",
             ratio(static_cast<double>(corrupted),
                   static_cast<double>(delivered + corrupted)))
        .num("mac.index_candidates_per_query",
             ratio(static_cast<double>(idx.candidates_visited),
                   static_cast<double>(idx.queries)))
        .count("mac.index_migrations", idx.migrations)
        .num("mac.radius_cache_hit_ratio",
             ratio(static_cast<double>(rc.hits), static_cast<double>(rc.lookups)));
}

void add_slice_layers(Json& L, const SliceLog& log) {
    L.num("core.slice_s_first", log.slice_s.front())
        .num("core.slice_s_p50", median(log.slice_s));
}

void add_ckpt_layers(Json& L, const SliceLog& log, double load_ms) {
    L.num("ckpt.save_ms", log.save_ms)
        .num("ckpt.load_ms", load_ms)
        .num("ckpt.blob_mb", static_cast<double>(log.blob.size()) / 1e6);
}

void add_profile_layers(Json& L, double wall_s) {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
    double prefix_s = 0.0;
    double replication_s = 0.0;
    for (const auto& e : obs::Profiler::instance().entries()) {
        if (e.name == "core.apply_constraint") {
            calls = e.calls;
            ns = e.total_ns;
        } else if (e.name == "exp.fork_prefix") {
            prefix_s = 1e-9 * static_cast<double>(e.total_ns);
        } else if (e.name == "exp.replication") {
            replication_s = 1e-9 * static_cast<double>(e.total_ns);
        }
    }
    L.count("core.apply_constraint_calls", calls)
        .num("core.apply_constraint_us", 1e-3 * static_cast<double>(ns))
        .num("core.apply_constraint_share", ratio(1e-9 * static_cast<double>(ns), wall_s))
        .num("exp.fork_prefix_s", prefix_s)
        .num("exp.replication_s", replication_s);
}

void add_agent_layers(Json& L, const std::map<std::string, std::uint64_t>& totals) {
    const std::uint64_t fixes = counter(totals, "agent.fixes");
    const std::uint64_t sent = counter(totals, "mcast.data_sent");
    const std::uint64_t dup = counter(totals, "mcast.data_duplicates");
    const std::uint64_t delivered = counter(totals, "mcast.data_delivered");
    L.count("core.fixes", fixes)
        .num("core.beacons_per_fix",
             ratio(static_cast<double>(counter(totals, "agent.beacons_received")),
                   static_cast<double>(fixes)))
        .count("core.windows_without_fix", counter(totals, "agent.windows_without_fix"))
        .count("multicast.data_sent", sent)
        .num("multicast.duplicate_ratio",
             ratio(static_cast<double>(dup), static_cast<double>(dup + delivered)));
}

/// Times one standalone calibration of the workload's PDF table, drawn from
/// the same named stream Scenario calibrates from, so it builds the very
/// table the program builds. The bin count is read from the program's own
/// table (`built`).
void add_calibration_layers(Json& L, const core::ScenarioConfig& c,
                            const phy::PdfTable& built) {
    const phy::Channel channel(c.channel);
    const auto t0 = Clock::now();
    const phy::PdfTable table = phy::PdfTable::calibrate(
        channel, c.calibration, sim::RngManager(c.seed).stream("calibration"));
    L.num("phy.calibrate_s", seconds_since(t0));
    if (table.usable_bin_count() != built.usable_bin_count()) {
        throw std::runtime_error("standalone calibration differs from the program's table");
    }
    L.count("phy.pdf_bins", built.usable_bin_count());
}

/// Layers a workload does not exercise are reported as 0 so every traced
/// run prints the full per-layer list (see perfbench/README.md).
void add_absent_layers(Json& L, const std::vector<std::string>& names) {
    for (const std::string& n : names) L.num(n, 0.0);
}

JobResult run_fig7(std::uint64_t seed, bool setup_only, bool trace) {
    const core::ScenarioConfig config = fig7_config(seed);
    JobResult out;
    obs::Profiler::instance().reset();
    obs::Profiler::set_enabled(trace);

    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    core::Scenario scenario(config);
    const double setup_s = seconds_since(t0);
    if (setup_only) {
        out.timing.num("setup_s", setup_s);
        return out;
    }
    SliceLog log;
    run_sliced(scenario, config.duration, config.period, trace, log,
               [](const core::Scenario& s) { return exp::save_scenario_checkpoint(s); });
    const core::ScenarioResult r = scenario.result();
    out.outputs = scenario_outputs(config, r);
    const double wall_s = seconds_since(t0) - 1e-3 * log.save_ms;
    out.timing.num("wall_s", wall_s)
        .num("setup_s", setup_s)
        .num("cpu_s", process_cpu_s() - cpu0);
    if (!trace) return out;

    obs::Profiler::set_enabled(false);
    const double run_s = wall_s - setup_s;
    Json& L = out.layers;
    add_calibration_layers(L, config, *scenario.pdf_table_ptr());
    const auto totals = obs::aggregate_node_counters(r.counters);
    const mac::Medium& m = scenario.world().medium();
    add_kernel_layers(L, scenario.simulator().kernel_stats(), m.frame_pool_stats(),
                      r.executed_events, run_s);
    add_mac_layers(L, m, counter(totals, "mac.rx_delivered"),
                   counter(totals, "mac.rx_corrupted"), run_s);
    add_profile_layers(L, wall_s);
    add_agent_layers(L, totals);
    add_slice_layers(L, log);
    add_absent_layers(L, {"est.fix_ns.grid", "est.fix_ns.ekf", "est.fix_ns.lincvx",
                          "fault.rx_dropped", "fault.frames_truncated"});

    const auto l0 = Clock::now();
    exp::RestoredScenario restored =
        exp::restore_scenario_checkpoint(log.blob, scenario.pdf_table_ptr());
    add_ckpt_layers(L, log, 1e3 * seconds_since(l0));
    restored.scenario->run();
    out.restored = scenario_outputs(config, restored.scenario->result());
    return out;
}

JobResult run_swarm16k(std::uint64_t seed, bool setup_only, bool trace) {
    const core::SwarmConfig config = swarm_config(seed);
    JobResult out;
    obs::Profiler::instance().reset();
    obs::Profiler::set_enabled(trace);

    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    auto swarm = std::make_unique<core::Swarm>(config);
    const double setup_s = seconds_since(t0);
    if (setup_only) {
        out.timing.num("setup_s", setup_s);
        return out;
    }
    SliceLog log;
    run_sliced(*swarm, config.duration, sim::Duration::seconds(1.0), trace, log,
               [](const core::Swarm& s) { return exp::save_swarm_checkpoint(s); });
    out.outputs = swarm_outputs(*swarm);
    const double wall_s = seconds_since(t0) - 1e-3 * log.save_ms;
    out.timing.num("wall_s", wall_s)
        .num("setup_s", setup_s)
        .num("cpu_s", process_cpu_s() - cpu0);
    if (!trace) return out;

    obs::Profiler::set_enabled(false);
    const double run_s = wall_s - setup_s;
    Json& L = out.layers;
    std::uint64_t delivered = 0;
    std::uint64_t corrupted = 0;
    for (const auto& node : swarm->world().nodes()) {
        delivered += node->radio().stats().rx_delivered;
        corrupted += node->radio().stats().rx_corrupted;
    }
    const mac::Medium& m = swarm->world().medium();
    add_kernel_layers(L, swarm->simulator().kernel_stats(), m.frame_pool_stats(),
                      swarm->simulator().executed_events(), run_s);
    add_mac_layers(L, m, delivered, corrupted, run_s);
    add_profile_layers(L, wall_s);
    add_slice_layers(L, log);
    add_absent_layers(L, {"phy.calibrate_s", "phy.pdf_bins", "core.fixes",
                          "core.beacons_per_fix", "core.windows_without_fix",
                          "multicast.data_sent", "multicast.duplicate_ratio",
                          "est.fix_ns.grid", "est.fix_ns.ekf", "est.fix_ns.lincvx",
                          "fault.rx_dropped", "fault.frames_truncated"});

    // Free the straight run before restoring: a 16k-node blob is ~200 MB.
    swarm.reset();
    const auto l0 = Clock::now();
    const std::unique_ptr<core::Swarm> restored = exp::restore_swarm_checkpoint(log.blob);
    add_ckpt_layers(L, log, 1e3 * seconds_since(l0));
    std::string().swap(log.blob);
    restored->run();
    out.restored = swarm_outputs(*restored);
    return out;
}

/// The traced sweep calls exp::run_sweep with exactly the configs and plans
/// run_backend_sweep builds, so it can read the replication sets' counter
/// registry totals (fault.*, agent.*, mcast.*) that run_backend_sweep folds
/// away; the cells are folded the same way and must match the timed run's.
std::vector<exp::BackendCell> traced_sweep(const core::ScenarioConfig& base,
                                           const exp::BackendSweepOptions& o,
                                           std::map<std::string, std::uint64_t>& totals) {
    const auto named_plans = exp::standard_backend_plans(base, o);
    std::vector<core::ScenarioConfig> configs;
    std::vector<fault::FaultPlan> plans;
    for (const est::Backend backend : o.backends) {
        for (const auto& [name, plan] : named_plans) {
            core::ScenarioConfig c = base;
            c.estimator = backend;
            configs.push_back(c);
            plans.push_back(plan);
        }
    }
    exp::ReplicationOptions ropt;
    ropt.n_reps = o.n_reps;
    ropt.n_threads = o.n_threads;
    ropt.fork = o.fork;
    const std::vector<exp::ReplicationSet> sets = exp::run_sweep(configs, plans, ropt);

    std::vector<exp::BackendCell> cells;
    std::size_t i = 0;
    for (const est::Backend backend : o.backends) {
        for (const auto& named : named_plans) {
            const exp::ReplicationSet& set = sets[i++];
            const auto cell_totals = obs::aggregate_node_counters(
                {set.counter_totals.begin(), set.counter_totals.end()});
            for (const auto& [name, value] : cell_totals) totals[name] += value;
            exp::BackendCell c;
            c.backend = backend;
            c.plan = named.first;
            c.reps = o.n_reps;
            c.avg_error_m = set.avg_error.mean();
            c.steady_error_m = set.steady_error.mean();
            c.has_resilience = set.has_resilience;
            c.availability = set.availability.mean();
            c.avail_during = set.avail_during.count() > 0 ? set.avail_during.mean() : 0.0;
            c.reacquire_s = set.reacquire_s.count() > 0 ? set.reacquire_s.mean() : 0.0;
            c.fixes = counter(cell_totals, "agent.fixes");
            c.windows_without_fix = counter(cell_totals, "agent.windows_without_fix");
            cells.push_back(c);
        }
    }
    return cells;
}

JobResult run_backend_sweep(std::uint64_t seed, bool setup_only, bool trace) {
    const core::ScenarioConfig base = sweep_config(seed);
    const exp::BackendSweepOptions options = sweep_options();
    JobResult out;
    if (setup_only) {
        // One cell's set-up: calibration, world and agents of the base config.
        const auto t0 = Clock::now();
        const core::Scenario scenario(base);
        out.timing.num("setup_s", seconds_since(t0));
        return out;
    }
    obs::Profiler::instance().reset();
    obs::Profiler::set_enabled(trace);

    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    std::map<std::string, std::uint64_t> totals;
    const std::vector<exp::BackendCell> cells =
        trace ? traced_sweep(base, options, totals) : exp::run_backend_sweep(base, options);
    out.outputs = sweep_outputs(base, options, cells);
    const double wall_s = seconds_since(t0);
    out.timing.num("wall_s", wall_s).num("cpu_s", process_cpu_s() - cpu0);
    if (!trace) return out;

    obs::Profiler::set_enabled(false);
    Json& L = out.layers;
    const std::uint64_t frames = counter(totals, "medium.frames_sent");
    const std::uint64_t delivered = counter(totals, "mac.rx_delivered");
    const std::uint64_t corrupted = counter(totals, "mac.rx_corrupted");
    const std::uint64_t events = counter(totals, "kernel.events.executed");
    L.count("sim.events", events)
        .num("sim.events_per_s", ratio(static_cast<double>(events), wall_s))
        .count("mac.frames", frames)
        .num("mac.ns_per_frame", ratio(1e9 * wall_s, static_cast<double>(frames)))
        .num("mac.corrupted_ratio",
             ratio(static_cast<double>(corrupted),
                   static_cast<double>(delivered + corrupted)))
        .count("fault.rx_dropped", counter(totals, "fault.rx_dropped"))
        .count("fault.frames_truncated", counter(totals, "fault.frames_truncated"));
    add_profile_layers(L, wall_s);
    add_agent_layers(L, totals);
    const core::Scenario cell(base);
    add_calibration_layers(L, base, *cell.pdf_table_ptr());
    for (const est::Backend b : options.backends) {
        L.num(std::string("est.fix_ns.") + est::to_string(b), exp::measure_fix_cpu_ns(b, base));
    }
    // Replication-summed kernel peaks and per-run medium stats have no
    // meaning across a sweep; the sweep's per-layer view is the exp, est,
    // core and fault rows above.
    add_absent_layers(L, {"sim.peak_pending", "sim.sbo_misses", "sim.pool_hit_ratio",
                          "mac.rssi_draws", "mac.draws_per_frame", "mac.cull_ratio",
                          "mac.delivered_per_draw", "mac.index_candidates_per_query",
                          "mac.index_migrations", "mac.radius_cache_hit_ratio",
                          "core.slice_s_first", "core.slice_s_p50", "ckpt.save_ms",
                          "ckpt.load_ms", "ckpt.blob_mb"});
    return out;
}

int usage() {
    std::cerr << "usage: perfbench_job <fig7|swarm16k|backend_sweep> <seed> "
                 "<job|setup|trace>\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 4) return usage();
    const std::string workload = argv[1];
    const std::string mode = argv[3];
    std::uint64_t seed = 0;
    try {
        std::size_t used = 0;
        seed = std::stoull(argv[2], &used);
        if (used != std::string(argv[2]).size()) return usage();
    } catch (const std::exception&) {
        return usage();
    }
    if (mode != "job" && mode != "setup" && mode != "trace") return usage();
    const bool setup_only = mode == "setup";
    const bool trace = mode == "trace";

    try {
        const double probe_ms = host_probe_ms();
        JobResult r;
        if (workload == "fig7") {
            r = run_fig7(seed, setup_only, trace);
        } else if (workload == "swarm16k") {
            r = run_swarm16k(seed, setup_only, trace);
        } else if (workload == "backend_sweep") {
            r = run_backend_sweep(seed, setup_only, trace);
        } else {
            return usage();
        }
        r.timing.num("peak_rss_mb", peak_rss_mb()).num("probe_ms", probe_ms);
        Json line;
        line.str("workload", workload).count("seed", seed).str("mode", mode);
        line.obj("timing", r.timing);
        if (!setup_only) line.obj("outputs", r.outputs);
        if (trace) line.obj("layers", r.layers);
        if (r.restored) line.obj("restored", *r.restored);
        std::cout << line.dump() << std::endl;
    } catch (const std::exception& e) {
        std::cerr << "perfbench_job: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
