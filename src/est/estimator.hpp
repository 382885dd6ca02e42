#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/rf_localizer.hpp"
#include "geom/vec2.hpp"
#include "mobility/odometry.hpp"
#include "obs/counters.hpp"
#include "phy/pdf_table.hpp"

namespace cocoa::sim::ckpt {
class Writer;
class Reader;
}  // namespace cocoa::sim::ckpt

namespace cocoa::est {

/// Which belief representation a blind robot runs behind the Estimator
/// interface. The paper's grid-Bayes filter is one point in the cooperative-
/// localization design space; the other two backends cover its neighbours:
enum class Backend {
    Grid,    ///< CoCoA's windowed Bayesian grid (the reproduction default)
    Ekf,     ///< EKF-CL: continuous range fusion with covariance inflation on
             ///< missed windows (Kia & Martinez, arXiv:1608.00609)
    LinCvx,  ///< opportunistic linear-convex combination, near-zero per-fix
             ///< CPU (Safavi & Khan, arXiv:1703.06387)
};

const char* to_string(Backend backend);
/// "grid" | "ekf" | "lincvx" -> Backend; std::nullopt for anything else.
std::optional<Backend> parse_backend(std::string_view name);

/// Estimator tuning (AgentConfig::estimation). One struct for all backends:
/// each reads the subset it cares about, so a scenario sweep can switch
/// backends without touching the rest of its configuration.
struct Config {
    Backend backend = Backend::Grid;

    core::GridConfig grid;  ///< area (all backends) + cell size (grid)
    /// Which RF technique turns window beacons into a fix (§5 pluggability).
    core::RfTechnique technique = core::RfTechnique::BayesianGrid;
    int min_beacons_for_fix = 3;
    /// Ignore beacons weaker than this RSSI (on top of the PDF-table rules).
    double beacon_rssi_cutoff_dbm = -std::numeric_limits<double>::infinity();
    /// Admit beacons whose PDF bin failed the Gaussian fit (the paper's "bad
    /// beacons" from beyond ~40 m). See RfLocalizer::Options.
    bool use_non_gaussian_bins = true;
    /// RfOnly mode: hold the raw fix between windows instead of re-anchoring
    /// the dead-reckoning at it.
    bool hold_fixes = false;
    /// LocalizationMode::Ekf compatibility: the pre-interface continuous EKF
    /// did no per-window accounting and no missed-window inflation; the EKF
    /// backend reproduces it bit-exactly when this is set.
    bool legacy_continuous = false;

    /// EKF process noise: fractional error on each dead-reckoned
    /// displacement, plus a floor variance accrued per second (also LinCvx's
    /// prior inflation). The floor is deliberately generous: odometry drift
    /// is bias-driven (grows faster than a random walk), and an
    /// overconfident filter under-weights its corrections.
    double ekf_q_displacement_frac = 0.1;
    double ekf_q_floor_var_per_s = 0.6;  ///< m^2 / s
    /// EKF innovation gate (standard deviations); bad beacons beyond it are
    /// ignored.
    double ekf_gate_sigmas = 4.0;
    /// Far-field (non-Gaussian-bin) beacons carry real information even for
    /// the EKF: with the sigma floor, the innovation gate and rejection
    /// inflation they resolve single-anchor tangential ambiguity the same
    /// way they disambiguate the grid's ring posteriors.
    bool ekf_use_non_gaussian_bins = true;
    /// Floor on the effective range sigma: the PDF-table sigma understates
    /// the true measurement error (anchor SLAM noise, motion during the
    /// window), and an overconfident filter gates itself to death.
    double ekf_min_range_sigma_m = 2.0;
    /// Covariance inflation (m^2) applied whenever the gate rejects a
    /// measurement: persistent disagreement must reopen the filter.
    double ekf_reject_inflation_var = 2.0;
    /// Covariance inflation (m^2) applied at the end of a window in which no
    /// measurement was accepted: under loss bursts or anchor outages the
    /// filter must lose confidence instead of coasting overconfidently —
    /// the graceful-degradation knob of the partially-decentralized EKF.
    double ekf_missed_window_var = 4.0;

    /// LinCvx is opportunistic: any usable beacon updates the estimate.
    int lincvx_min_beacons = 1;
};

/// What a continuous-fusion backend did during the window that just closed.
/// `tracked` is false when the backend keeps no per-window books (collecting
/// backends, and the legacy-continuous EKF) — the agent then leaves its
/// fix/no-fix stats to the compute_fix/apply_fix path.
struct WindowSummary {
    bool tracked = false;
    bool fixed = false;       ///< at least one measurement accepted
    int beacons_used = 0;
};

/// A blind robot's position-belief backend: the observe-beacon / dead-reckon
/// / compute-fix / estimate+spread contract extracted from CocoaAgent.
///
/// Call protocol (enforced by the agent):
///  - reset() at start and after a reboot fault; the belief collapses to
///    `position` ("known" pins it, otherwise it is a provisional centre).
///  - predict() on every agent tick with the *measured* odometry
///    displacement — only when integrates_odometry() is true.
///  - When collects_window_beacons() is true the agent buffers the window's
///    beacons and calls compute_fix() + apply_fix() at window end; when
///    false it forwards each beacon to observe_beacon() on arrival and calls
///    end_window() at window end.
///  - compute_fix() must be pure enough to run on a worker thread when
///    pool_safe_fix() is true (the deferred-fix machinery; see
///    AgentConfig::fix_pool). Backends whose fix reads the live belief
///    return false and always compute inline on the event thread.
///  - estimate()/spread_m()/ever_fixed() may be read between any of the
///    above (they are resolution points for deferred fixes at the agent
///    layer, never inside the estimator).
///
/// No backend draws randomness: determinism at any thread count is inherited
/// from the agent's event time-line, the same invariant every prior layer
/// keeps.
class Estimator {
  public:
    virtual ~Estimator() = default;

    virtual Backend backend() const = 0;

    virtual void reset(const geom::Vec2& position, bool position_known) = 0;
    virtual void predict(const geom::Vec2& /*measured_delta*/, double /*dt_s*/) {}
    virtual bool integrates_odometry() const { return false; }

    virtual bool collects_window_beacons() const = 0;
    /// Continuous fusion of one beacon; returns whether it was accepted.
    virtual bool observe_beacon(const core::BeaconObservation& /*obs*/) {
        return false;
    }

    virtual std::optional<core::Fix> compute_fix(
        const std::vector<core::BeaconObservation>& /*beacons*/) {
        return std::nullopt;
    }
    virtual bool pool_safe_fix() const { return false; }
    /// Folds a compute_fix() outcome into the belief. `heading` is the
    /// re-anchor heading sampled at window end (grid Combined mode).
    virtual void apply_fix(const std::optional<core::Fix>& /*fix*/,
                           double /*heading*/) {}
    virtual WindowSummary end_window() { return {}; }

    virtual geom::Vec2 estimate() const = 0;
    /// Current belief confidence as an RMS radius in metres.
    virtual double spread_m() const = 0;

    bool ever_fixed() const { return ever_fixed_; }
    double last_fix_spread_m() const { return last_fix_spread_m_; }

    /// Registers backend counters under `node_prefix` (e.g. "node.3.").
    /// The grid backend registers the exact "localizer.*" set the
    /// pre-interface agent did, keeping --counters output byte-identical.
    virtual void register_counters(obs::CounterRegistry& /*registry*/,
                                   const std::string& /*node_prefix*/) const {}
    /// Grid-backend localizer stats (all-zero for the other backends), so
    /// Scenario::result() aggregation is backend-agnostic.
    virtual const core::RfLocalizer::Stats& localizer_stats() const;

    /// Checkpoints the belief state. Overrides must call the base first (it
    /// writes the fix bookkeeping shared by every backend) and then append
    /// backend-specific state; load_state mirrors byte-for-byte.
    virtual void save_state(sim::ckpt::Writer& w) const;
    virtual void load_state(sim::ckpt::Reader& r);

  protected:
    bool ever_fixed_ = false;
    double last_fix_spread_m_ = std::numeric_limits<double>::infinity();
};

/// Builds the configured backend. `kernels` carries the PDF table every
/// backend ranges through (and the grid backend's radial kernels; its
/// floor_fraction must match config.grid's). `odometry` is the agent-owned
/// dead-reckoning estimate the grid backend re-anchors at each fix (and
/// reads between fixes in Combined mode); it must outlive the estimator.
std::unique_ptr<Estimator> make_estimator(
    const Config& config, std::shared_ptr<const core::KernelBank> kernels,
    mobility::OdometryEstimator* odometry);

}  // namespace cocoa::est
